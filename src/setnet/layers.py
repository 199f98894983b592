"""Set layers equivariant to member permutations, set pooling, set dropout and dense layers.

The equivariant layers come in two forms built around one template:

    y = sigma(x A  +  s * (1 agg(x)) G  [+ beta])

where ``agg`` is a sum or max over each set's members and ``s`` is +1 for a
sum and -1 for the max-normalising max. Because the aggregate ignores member
order, every form is permutation-equivariant; pooling the output over each
set then gives a permutation-invariant set representation.

A batch is packed: the member rows of all its sets stacked one set after
another, [M, K] with M the total number of members, plus each set's
cardinality. Per-member maps are one [M, K] matrix product; an aggregate is a
segment reduction to one row per set ([B, K]) and goes back to the members
with ``repeat``. No row belongs to more than one set and there are no padding
rows, so a set's outputs depend on its own members only.

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

EQ_VARIANTS = ("channel_full", "channel_factored")
POOL_KINDS = ("sum", "max", "mean")


@dataclass(frozen=True)
class SetBatch:
    """A packed batch of sets: ``values`` [M, K] holds every member as one row,
    the sets one after another, and ``cardinalities`` [B] says how many rows
    each set has (M is their sum, every set has at least one member).
    """

    values: np.ndarray
    cardinalities: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DimensionError(f"SetBatch values must be [M, K], got shape {vals.shape}")
        cards = np.array(self.cardinalities, dtype=np.intp)
        if cards.ndim != 1:
            raise DimensionError("need one cardinality per set")
        if np.any(cards < 1):
            raise EmptyReductionError("sets must have at least one member")
        if cards.sum() != vals.shape[0]:
            raise DimensionError(f"cardinalities sum to {cards.sum()} but there are {vals.shape[0]} member rows")
        T.ensure_finite(vals, "SetBatch")
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

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SetBatch":
        return SetBatch(values, self.cardinalities)

    def sets(self) -> List[np.ndarray]:
        """Each set's member rows, in batch order."""
        return np.split(self.values, np.cumsum(self.cardinalities)[:-1])

    def permute_members(self, perms: Sequence[np.ndarray]) -> "SetBatch":
        """Reorder the members of each set by its index array: a set with
        member rows ``rows`` and index array ``p`` becomes ``rows[p]``, so its
        new row i is its old row ``p[i]``. Each ``p`` must be a bijection on
        the set's member positions {0, ..., n-1}."""
        if len(perms) != self.num_sets:
            raise DimensionError("need one permutation per set")
        for b, (p, n) in enumerate(zip(perms, self.cardinalities)):
            if not np.array_equal(np.sort(p), np.arange(n)):
                raise DimensionError(f"set {b} has {n} members, and {p!r} is not a permutation of 0..{n - 1}")
        return self.with_values(np.concatenate([s[p] for s, p in zip(self.sets(), perms)]))


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


def _aggregate(tape: ad.Tape, x: ad.Node, cards: np.ndarray, kind: str) -> ad.Node:
    """Reduction over each set's member rows: [M, K] -> [B, K]."""
    if kind == "sum":
        return x.segment_sum(cards)
    if kind == "mean":
        return x.segment_sum(cards) * tape.constant(1.0 / cards.astype(np.float64)[:, None])
    if kind == "max":
        return x.segment_max(cards)
    raise DimensionError(f"unknown aggregate {kind!r}")


class EquivariantLayer:
    """One permutation-equivariant layer over the member rows of set batches.

    variant:
      channel_full     y = sigma(x Lam - 1 max(x) Gam), or + 1 sum(x) Gam with aggregate="sum"
      channel_factored y = sigma(beta + (x - 1 max(x)) Gam), one weight matrix plus bias
    """

    def __init__(
        self,
        k_in: int,
        k_out: int,
        variant: str = "channel_factored",
        activation: str = "tanh",
        aggregate: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "eq",
    ):
        if variant not in EQ_VARIANTS:
            raise DimensionError(f"unknown variant {variant!r}")
        if activation not in T.NONLINEARITIES:
            raise DimensionError(f"unknown activation {activation!r}")
        self.variant = variant
        self.k_in = k_in
        self.k_out = k_out
        self.activation = activation
        self.name = name
        # channel_factored: max-normalisation is the point of the variant
        if variant == "channel_factored" and aggregate not in (None, "max"):
            raise DimensionError(f"channel_factored aggregates by max, got aggregate {aggregate!r}")
        self.aggregate = aggregate or "max"
        if self.aggregate not in ("sum", "max"):
            raise DimensionError(f"unknown aggregate {self.aggregate!r}")
        self.sign = -1.0 if self.aggregate == "max" else 1.0

        rng = rng or np.random.default_rng(0)
        if variant == "channel_factored":
            self.gam = Param(f"{name}.Gamma", fan_uniform(rng, k_in, k_out))
            self.beta = Param(f"{name}.beta", np.zeros(k_out))
            self.lam = None
        else:
            self.lam = Param(f"{name}.Lambda", fan_uniform(rng, k_in, k_out))
            self.gam = Param(f"{name}.Gamma", fan_uniform(rng, k_in, k_out))
            self.beta = None

    def params(self) -> List[Param]:
        return [p for p in (self.lam, self.gam, self.beta) if p is not None]

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if x.value.shape[1] != self.k_in:
            raise DimensionError(
                f"{self.name}: expected {self.k_in} input channels, got {x.value.shape[1]}"
            )
        agg = _aggregate(tape, x, cards, self.aggregate)  # [B, K]
        gam = bound[self.gam.name]
        if self.variant == "channel_factored":
            pre = (x - agg.repeat(cards)) @ gam + bound[self.beta.name]
        else:
            pre = x @ bound[self.lam.name] + (self.sign * (agg @ gam)).repeat(cards)
        return ad.nonlinearity(pre, self.activation)


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
        return ad.nonlinearity(x @ bound[self.w.name] + bound[self.b.name], self.activation)


class SetPool:
    """Commutative reduction over each set's members: [M, K] -> [B, K]."""

    def __init__(self, kind: str = "sum"):
        if kind not in POOL_KINDS:
            raise DimensionError(f"unknown pool kind {kind!r}")
        self.kind = kind

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        return _aggregate(tape, x, cards, self.kind)


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

    def sample_mask(self, rng: np.random.Generator, cards: np.ndarray, shape) -> np.ndarray:
        """Scaled keep mask for [rows, K] member rows or, when rows == B, set rows.

        Set rows draw [B, K]; member rows share a [B, K] draw within each set
        if ``simultaneous``, else draw [B, max cardinality, K] and keep each
        set's first rows. With one member per set both draws are the same.
        """
        rows, k = shape
        b = len(cards)
        per_member = rows != b and not self.simultaneous
        draw = rng.random((b, int(cards.max()), k) if per_member else (b, k))
        keep = (draw >= self.rate).astype(np.float64) / (1.0 - self.rate)
        if rows == b:
            return keep
        if per_member:
            return keep[np.arange(keep.shape[1]) < cards[:, None]]  # each set's first rows
        return np.repeat(keep, cards, axis=0)

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if rng is None or self.rate == 0.0:
            return x
        return x * tape.constant(self.sample_mask(rng, cards, x.value.shape))


class NormalizeSets:
    """Center each set per axis and scale to unit global variance.

    Means and the (single, per-set) standard deviation are computed over the
    set's members; every axis is divided by the same deviation. Sets need at
    least two members.
    """

    eps = 1e-8

    def params(self) -> List[Param]:
        return []

    def apply(self, tape: ad.Tape, x: ad.Node, cards: np.ndarray, bound: Dict[str, ad.Node], rng=None) -> ad.Node:
        if np.any(cards < 2):
            raise DegenerateSetError("normalization needs sets of at least two members")
        k = x.value.shape[1]
        inv_n = tape.constant(1.0 / cards.astype(np.float64)[:, None])
        centered = x - (x.segment_sum(cards) * inv_n).repeat(cards)
        var = (centered * centered).segment_sum(cards).sum(axis=1) * inv_n * (1.0 / k)  # [B, 1]
        # widened to [B, K] before it goes to the members, so the gradient of
        # the deviation adds each channel over the members, then the channels
        inv_std = (var + self.eps).pow_const(-0.5) * tape.constant(np.ones((1, k)))
        return centered * inv_std.repeat(cards)


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
        if np.any(cards != cards[0]):
            raise DimensionError("Flatten needs sets of equal cardinality")
        b, k = len(cards), x.value.shape[1]
        if self.interleave:
            return x.reshape((b, -1, k)).transpose((0, 2, 1)).reshape((b, -1))
        return x.reshape((b, -1))


def evaluate(module, batch: SetBatch, **options) -> np.ndarray:
    """Value of ``module.apply`` on ``batch``: parameters are constants and no
    rng is passed, so dropout is off. With no variables the tape records
    nothing, and each intermediate is freed as soon as nothing uses it.
    ``options`` go on to ``apply`` (a model's ``upto``)."""
    tape = ad.Tape()
    bound = {p.name: tape.constant(p.value) for p in module.params()}
    return module.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, **options).value


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

    Malformed content of any kind, and a checkpoint of another format
    version, raises ``FormatError`` naming the file and, where there is one,
    the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a setnet checkpoint (not UTF-8 text)") from exc
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != _CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a setnet checkpoint (bad header)")
    if head[1] != _CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint format version {head[1]!r} (expected {_CHECKPOINT_VERSION})"
        )
    meta: Dict[str, str] = {}
    arrays: Dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        fields = lines[i].split()
        if not fields:
            i += 1
            continue
        if fields[0] == "meta":
            if len(fields) != 3:
                raise FormatError(f"{path}:{i + 1}: malformed meta line")
            meta[fields[1]] = fields[2]
            i += 1
        elif fields[0] == "param":
            try:
                name, rank = fields[1], int(fields[2])
                dims = tuple(int(d) for d in fields[3:])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}:{i + 1}: malformed param line") from exc
            if len(dims) != rank or any(d < 0 for d in dims):
                raise FormatError(f"{path}:{i + 1}: param {name} needs {rank} non-negative dims, got {fields[3:]}")
            if i + 1 >= len(lines):
                raise FormatError(f"{path}:{i + 1}: truncated param entry")
            try:
                data = np.frombuffer(bytes.fromhex(lines[i + 1]), dtype="<f8")
            except ValueError as exc:
                raise FormatError(f"{path}:{i + 2}: payload of {name} is not float64 hex") from exc
            expect = math.prod(dims)
            if data.size != expect:
                raise FormatError(f"{path}:{i + 2}: expected {expect} values for {name}, got {data.size}")
            arrays[name] = data.astype(np.float64).reshape(dims)
            i += 2
        else:
            raise FormatError(f"{path}:{i + 1}: unknown record {fields[0]!r}")
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
