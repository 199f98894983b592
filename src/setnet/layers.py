"""Set layers equivariant to member permutations, set pooling, set dropout and dense layers.

The equivariant layer is the paper's max-normalised, parameter-shared layer:

    y = sigma(beta + (x - 1 max(x)) Gamma)

where ``max`` is taken over each set's members, channel by channel. Because
the max ignores member order, the layer is permutation-equivariant; pooling
its output over each set then gives a permutation-invariant set
representation.

A batch is packed: the member rows of all its sets stacked one set after
another, [M, K] with M the total number of members, plus each set's
cardinality. Per-member maps are one [M, K] matrix product; an aggregate is a
reduction of each set's rows to one row per set ([B, K]), repeated back to
the members where a layer needs it. No row belongs to more than one set and
there are no padding rows, so a set's outputs depend on its own members
only. A ``SetBatch`` keeps the member array it is given; its values are
scanned for finiteness once, where they enter a tape.

Every layer records on the ``tape`` its ``apply`` is given, and each is one
node there: an ``EquivariantLayer`` or a ``Dense`` layer, activation
included (``sigma(beta + (x - 1 max(x)) Gamma)``, or ``sigma(x W + b)``), a
``SetPool`` of any kind, a ``NormalizeSets``, a ``Flatten`` and a training
``Dropout``; see ``autodiff`` for the nodes' gradients.

Every layer has the same protocol: ``params()`` lists its named ``Param``
objects (none for pooling, normalisation, flattening and dropout) and
``apply(tape, x, cards, bound, rng=None)`` builds its autodiff nodes from the
input node, the set cardinalities and the tape nodes bound to the parameters.
Layers before a ``SetPool`` see member rows, layers after it one row per set.
Dropout is active exactly when an ``rng`` is passed. ``evaluate`` runs any
such module on a batch with the parameters held constant.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .errors import (
    DegenerateSetError,
    DimensionError,
    EmptyReductionError,
    FormatError,
)

POOL_KINDS = ("sum", "max", "mean")


@dataclass(frozen=True)
class SetBatch:
    """A packed batch of sets: ``values`` [M, K] holds every member as one row,
    the sets one after another, and ``cardinalities`` [B] says how many rows
    each set has (M is their sum, every set has at least one member).

    Both arrays are read-only. The batch keeps the float64 ``values`` array it
    is given, without a copy: the caller hands it over and does not change it
    after. The batch checks shapes and cardinalities only; its values are
    checked for finiteness where they enter a tape, as a ``Tape.constant``.
    """

    values: np.ndarray
    cardinalities: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DimensionError(f"SetBatch values must be [M, K], got shape {vals.shape}")
        cards = np.array(self.cardinalities, dtype=np.intp)
        if cards.ndim != 1:
            raise DimensionError("need one cardinality per set")
        if np.any(cards < 1):
            raise EmptyReductionError("sets must have at least one member")
        if cards.sum() != vals.shape[0]:
            raise DimensionError(f"cardinalities sum to {cards.sum()} but there are {vals.shape[0]} member rows")
        vals.setflags(write=False)
        cards.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def num_sets(self) -> int:
        return self.cardinalities.shape[0]

    @property
    def max_size(self) -> int:
        """The largest cardinality."""
        return int(self.cardinalities.max())


class Param:
    """A named, mutable parameter array. An ``Optimizer`` makes ``value`` a
    view into its flat arena and updates it in place."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.value.size


def fan_uniform(rng: np.random.Generator, k_in: int, k_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (k_in + k_out))
    return rng.uniform(-bound, bound, size=(k_in, k_out))


def bind(tape: ad.Tape, params: Sequence[Param]) -> Dict[str, ad.Node]:
    """Register every parameter as a differentiable tape variable."""
    return {p.name: tape.variable(p.value, p.name) for p in params}


class EquivariantLayer:
    """One permutation-equivariant layer over the member rows of set batches:
    y = sigma(beta + (x - 1 max(x)) Gamma), one weight matrix plus bias."""

    def __init__(
        self,
        k_in: int,
        k_out: int,
        activation: str = "tanh",
        rng: Optional[np.random.Generator] = None,
        name: str = "eq",
    ):
        if activation not in T.NONLINEARITIES:
            raise DimensionError(f"unknown activation {activation!r}")
        self.k_in = k_in
        self.k_out = k_out
        self.activation = activation
        self.name = name
        rng = rng or np.random.default_rng(0)
        self.gam = Param(f"{name}.Gamma", fan_uniform(rng, k_in, k_out))
        self.beta = Param(f"{name}.beta", np.zeros(k_out))

    def params(self) -> List[Param]:
        return [self.gam, self.beta]

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if x.value.shape[1] != self.k_in:
            raise DimensionError(
                f"{self.name}: expected {self.k_in} input channels, got {x.value.shape[1]}"
            )
        return ad.max_centred_affine(tape, x, bound[self.gam.name], bound[self.beta.name], cards, self.activation)


class Dense:
    """Affine map plus nonlinearity on each row (shared across members)."""

    def __init__(self, k_in, k_out, activation="identity", rng=None, name="dense"):
        if activation not in T.NONLINEARITIES:
            raise DimensionError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.k_in = k_in
        self.k_out = k_out
        self.activation = activation
        self.name = name
        self.w = Param(f"{name}.W", fan_uniform(rng, k_in, k_out))
        self.b = Param(f"{name}.b", np.zeros(k_out))

    def params(self) -> List[Param]:
        return [self.w, self.b]

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if x.value.shape[-1] != self.k_in:
            raise DimensionError(f"{self.name}: expected {self.k_in} inputs, got {x.value.shape[-1]}")
        return ad.affine(tape, x, bound[self.w.name], bound[self.b.name], self.activation)


class SetPool:
    """Commutative reduction over each set's members: [M, K] -> [B, K]."""

    def __init__(self, kind: str = "sum"):
        if kind not in POOL_KINDS:
            raise DimensionError(f"unknown pool kind {kind!r}")
        self.kind = kind

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        return ad.set_pool(tape, x, cards, self.kind)


class Dropout:
    """Inverted dropout over channels; optionally one shared mask per set.

    With ``simultaneous`` the same channels are dropped for every member of a
    set, so members cannot fill in each other's missing features. Without an
    ``rng`` (evaluation) the layer is the identity.
    """

    def __init__(self, rate: float, simultaneous: bool = True):
        if not 0.0 <= rate < 1.0:
            raise DimensionError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.simultaneous = simultaneous

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        """Set rows (rows == B) draw a [B, K] mask; member rows share a [B, K]
        draw within each set if ``simultaneous``, kept at that shape, else draw
        [B, max cardinality, K] and keep each set's first rows. With one member
        per set both draws are the same."""
        if rng is None or self.rate == 0.0:
            return x
        rows, k = x.value.shape
        b = len(cards)
        per_member = rows != b and not self.simultaneous
        draw = rng.random((b, int(cards.max()), k) if per_member else (b, k))
        keep = (draw >= self.rate).astype(np.float64) / (1.0 - self.rate)
        if per_member:
            keep = keep[np.arange(keep.shape[1]) < cards[:, None]]  # each set's first rows
        return ad.dropout(tape, x, keep, None if len(keep) == rows else cards)


class NormalizeSets:
    """Center each set per axis and scale to unit global variance.

    Means and the (single, per-set) standard deviation are computed over the
    set's members; every axis is divided by the same deviation. Sets need at
    least two members. The layer is one ``normalize_sets`` node, whose one
    finiteness check is of the per-set variance: an overflow in its sums or
    squares shows there, and a finite variance bounds the output.
    """

    eps = 1e-8

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if np.any(cards < 2):
            raise DegenerateSetError("normalization needs sets of at least two members")
        return ad.normalize_sets(tape, x, cards, self.eps)


class Flatten:
    """Join each set's members into one vector: [B*N, K] -> [B, N*K], for
    sets that all have N members.

    Members follow each other, or with ``interleave`` the vector runs feature
    by feature across members (channel stacking). Either way the result
    depends on member order.
    """

    def __init__(self, interleave: bool = False):
        self.interleave = interleave

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        return ad.flatten(tape, x, cards, self.interleave)


# The most member rows one forward pass of ``evaluate`` takes at once.
_EVAL_ROWS = 2048


def evaluate(module, batch: SetBatch, **options) -> np.ndarray:
    """Value of ``module.apply`` on ``batch``: parameters are constants and no
    rng is passed, so dropout is off. With no variables the tape records
    nothing, and each intermediate is freed as soon as nothing uses it.
    ``options`` go on to ``apply`` (a model's ``upto``).

    A layer's arrays grow with the member rows it takes at once, so a large
    batch runs in pieces of whole sets, in order, each of at most
    ``_EVAL_ROWS`` member rows (a larger set is a piece of its own), and the
    pieces' outputs are joined in set order. A set's outputs depend on its
    own members only, so the pieces give the whole batch's values, up to a
    product row's rounding, which can depend on the product's row count (at
    the default configs, to the bit). They keep a 64-set batch of 100-point
    clouds at the memory of a training step."""
    tape = ad.Tape()
    bound = {p.name: tape.constant(p.value) for p in module.params()}
    outs = [module.apply(tape, tape.constant(piece.values), piece.cardinalities, bound, **options).value
            for piece in _pieces(batch)]
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def _pieces(batch: SetBatch):
    """``batch`` as consecutive batches of whole sets, each of at most
    ``_EVAL_ROWS`` member rows or of one set that has more; each a view of
    the batch's arrays."""
    if batch.values.shape[0] <= _EVAL_ROWS:
        yield batch
        return
    bounds = np.concatenate(([0], np.cumsum(batch.cardinalities)))
    first = 0
    while first < batch.num_sets:
        # the sets that end within _EVAL_ROWS rows of this piece's start, at least one
        stop = max(first + 1, int(np.searchsorted(bounds, bounds[first] + _EVAL_ROWS, side="right")) - 1)
        yield SetBatch(batch.values[bounds[first] : bounds[stop]], batch.cardinalities[first:stop])
        first = stop


# --- parameter checkpoints ----------------------------------------------------
#
# A checkpoint is line-oriented text, format version 2:
#
#     setnet-params 2
#     meta <key> <value>                          (sorted by key, no whitespace)
#     param <name> <rank> <dim_1> ... <dim_rank>
#     <payload>
#     ...
#
# One ``param`` line and one payload line per parameter. The payload is the
# lowercase hex of the value's little-endian float64 bytes in C order, 16
# characters per value, so every float64 (-0.0, subnormals and +-1.797e308
# included) round-trips exactly and a checkpoint encodes and decodes at memory
# speed. A zero-size parameter has an empty payload line. Files of any other
# format version are rejected.

_CHECKPOINT_MAGIC = "setnet-params"
_CHECKPOINT_VERSION = "2"
_CHECKPOINT_HEADER = f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}"


def save_params(path, params: Sequence[Param], meta: Optional[Dict[str, str]] = None) -> None:
    """Write a format-2 checkpoint (see above); float64 values round-trip exactly.

    The meta is checked before any file is touched. The text is then written
    line by line, one parameter's payload at a time, to a temporary file next
    to ``path``, and moved onto ``path`` with ``os.replace``. An error or a
    crash during the write therefore leaves any previous checkpoint at
    ``path`` byte-identical, and a failed write removes its temporary file.
    There is no fsync, so the replacement is atomic against a crashing
    process, not against a power loss.
    """
    head = [_CHECKPOINT_HEADER]
    for key, val in sorted((meta or {}).items()):
        if any(ch.isspace() for ch in key) or any(ch.isspace() for ch in str(val)):
            raise FormatError("checkpoint meta keys/values must not contain whitespace")
        head.append(f"meta {key} {val}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in head))
            for p in params:
                dims = "".join(f" {d}" for d in p.value.shape)
                fh.write(f"param {p.name} {p.value.ndim}{dims}\n")
                fh.write(memoryview(np.ascontiguousarray(p.value, dtype="<f8")).hex())
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_params(path):
    """Read a format-2 checkpoint; returns (name -> float64 array, meta dict).

    The file is read one line at a time, so besides the arrays it returns
    it holds one line and its decoded payload at a time. Malformed content of
    any kind, and a checkpoint of another format version, raises
    ``FormatError`` naming the file and, where there is one, the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_params(path, enumerate(fh, start=1))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a setnet checkpoint (not UTF-8 text)") from exc


def _read_params(path, lines):
    """``load_params`` over (line number, text) pairs."""
    _, first = next(lines, (1, ""))
    head = first.split()
    if len(head) != 2 or head[0] != _CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a setnet checkpoint (bad header)")
    if head[1] != _CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint format version {head[1]!r} (expected {_CHECKPOINT_VERSION})"
        )
    meta: Dict[str, str] = {}
    arrays: Dict[str, np.ndarray] = {}
    for i, line in lines:
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "meta":
            if len(fields) != 3:
                raise FormatError(f"{path}:{i}: malformed meta line")
            if fields[1] in meta:
                raise FormatError(f"{path}:{i}: repeated meta key {fields[1]!r}")
            meta[fields[1]] = fields[2]
        elif fields[0] == "param":
            try:
                name, rank = fields[1], int(fields[2])
                dims = tuple(int(d) for d in fields[3:])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}:{i}: malformed param line") from exc
            if name in arrays:
                raise FormatError(f"{path}:{i}: repeated param {name!r}")
            if len(dims) != rank or any(d < 0 for d in dims):
                raise FormatError(f"{path}:{i}: param {name} needs {rank} non-negative dims, got {fields[3:]}")
            i, payload = next(lines, (i, None))
            if payload is None:
                raise FormatError(f"{path}:{i}: truncated param entry")
            try:  # fromhex skips the line's newline; a bytearray gives a writable array without a copy
                data = np.frombuffer(bytearray.fromhex(payload), dtype="<f8")
            except ValueError as exc:
                raise FormatError(f"{path}:{i}: payload of {name} is not float64 hex") from exc
            del payload  # before the next line is read: a payload line can be megabytes
            expect = math.prod(dims)
            if data.size != expect:
                raise FormatError(f"{path}:{i}: expected {expect} values for {name}, got {data.size}")
            arrays[name] = data.astype(np.float64, copy=False).reshape(dims)
        else:
            raise FormatError(f"{path}:{i}: unknown record {fields[0]!r}")
    return arrays, meta


def restore_params(params: Sequence[Param], arrays: Dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into matching Param objects (strict on names/shapes).

    Values are written in place, so a Param whose value is a view into an
    optimizer's arena stays in it."""
    for p in params:
        if p.name not in arrays:
            raise FormatError(f"checkpoint is missing parameter {p.name!r}")
        arr = arrays[p.name]
        if arr.shape != p.value.shape:
            raise FormatError(f"{p.name}: checkpoint shape {arr.shape} != model shape {p.value.shape}")
        p.value[...] = arr
