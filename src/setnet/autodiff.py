"""Tape-based reverse-mode automatic differentiation over the tensor ops.

Execution is define-by-run: building a node computes its value eagerly and
appends it to the tape, so node references only ever point backward. Each
node carries ``vjps``, one vector-Jacobian product per parent: a function of
(the node's gradient, the parents' values, the node's value) that returns
that parent's gradient. A recorded node also notes whether a variable lies
behind it (``requires_grad``: it is a variable, or a parent has the flag).
The reverse sweep visits each node with a variable behind it once, in
reverse creation order, and calls a parent's vjp only if that parent has the
flag, so constant subgraphs cost the sweep nothing. Gradients are exact for
every differentiable composite; ``segment_max`` is given the single-argmax
subgradient (lowest index on ties) and ``mean`` distributes 1/N, so training
runs are deterministic.

Set batches store their members as stacked rows, one set after another; the
segment ops (``segment_sum``, ``segment_max`` and ``repeat``) move between
those member rows and one row per set. When all sets of a batch have one
size, they work on the rows as one [sets, size, channels] block instead of
set by set, with the same bits.

``gradient_check`` re-executes the nodes of the recorded graph that have a
variable behind them, with perturbed variable values (central differences),
and compares against the reverse sweep. Probes that cross a max-kink (the
winning rows of any ``segment_max`` node differ between the two perturbed
replays) are flagged as non-differentiable points and excluded rather than
reported as failures.

``ForwardTape`` computes the same values without recording a graph (or the
flag), for evaluation; ``backward``, ``replay`` and ``gradient_check`` refuse
it with ``ContractError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, EmptyReductionError

GradientMap = Dict[str, np.ndarray]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _segments(cards, rows: int) -> Tuple[np.ndarray, Optional[int]]:
    """For the member rows of sets with ``cards`` members each, stored one set
    after another: [0, end of set 0, end of set 1, ...], and the common
    cardinality if every set has the same one (else None)."""
    cards = np.asarray(cards)
    if np.any(cards < 1):
        raise EmptyReductionError("sets must have at least one member")
    if rows != cards.sum():
        raise DimensionError(f"{rows} member rows for cardinalities summing to {cards.sum()}")
    size = int(cards[0]) if cards.size and np.all(cards == cards[0]) else None
    return np.concatenate(([0], np.cumsum(cards))), size


def _per_set(fn, a: np.ndarray, bounds: np.ndarray, size: Optional[int]) -> np.ndarray:
    """``fn(rows, axis)`` over each set's rows, e.g. ``np.add.reduce`` or
    ``np.argmax``: [M, K] -> [B, K]. When every set has ``size`` members it is
    one call over the [B, size, K] block. numpy combines a set's members in
    the same order either way, so both give the same bits."""
    if size is not None:
        return fn(a.reshape((-1, size) + a.shape[1:]), axis=1)
    return np.array([fn(a[s:e], axis=0) for s, e in zip(bounds[:-1], bounds[1:])])


# Ops whose vjps capture nothing share one tuple rather than making closures
# for every node they record.
_ADD_VJPS = (lambda g, pv, out: _unbroadcast(g, pv[0].shape), lambda g, pv, out: _unbroadcast(g, pv[1].shape))
_SUB_VJPS = (lambda g, pv, out: _unbroadcast(g, pv[0].shape), lambda g, pv, out: _unbroadcast(-g, pv[1].shape))
_MUL_VJPS = (
    lambda g, pv, out: _unbroadcast(g * pv[1], pv[0].shape),
    lambda g, pv, out: _unbroadcast(g * pv[0], pv[1].shape),
)
_NEG_VJPS = (lambda g, pv, out: -g,)
_MATMUL_VJPS = (lambda g, pv, out: g @ pv[1].T, lambda g, pv, out: pv[0].T @ g)
_RESHAPE_VJPS = (lambda g, pv, out: g.reshape(pv[0].shape),)
_SUM_VJPS = (lambda g, pv, out: np.broadcast_to(g, pv[0].shape).copy(),)
_SUM_ALL_VJPS = (lambda g, pv, out: np.full(pv[0].shape, float(g)),)


class Node:
    """One recorded value. Operators build new nodes on the same tape."""

    __slots__ = ("tape", "index", "value", "parents", "op", "fwd", "vjps", "name", "is_variable", "requires_grad")

    def __init__(self, tape, index, value, parents, op, fwd, vjps, name, is_variable, requires_grad):
        self.tape = tape
        self.index = index
        self.value = value
        self.parents = parents
        self.op = op
        self.fwd = fwd  # recompute value from parent values; None for leaves
        self.vjps = vjps  # one (grad_out, parent_values, out_value) -> grad per parent
        self.name = name
        self.is_variable = is_variable
        self.requires_grad = requires_grad  # a variable lies behind this node

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    def _coerce(self, other) -> "Node":
        if isinstance(other, Node):
            if other.tape is not self.tape:
                raise ContractError("cannot mix nodes from different tapes")
            return other
        return self.tape.constant(other)

    def __add__(self, other):
        return self.tape._binary(
            "add", self, self._coerce(other), np.add,
            _ADD_VJPS,
        )

    def __sub__(self, other):
        return self.tape._binary(
            "sub", self, self._coerce(other), np.subtract,
            _SUB_VJPS,
        )

    def __mul__(self, other):
        return self.tape._binary(
            "mul", self, self._coerce(other), np.multiply,
            _MUL_VJPS,
        )

    def __rmul__(self, other):
        return self._coerce(other).__mul__(self)

    def __neg__(self):
        return self.tape._record(
            "neg", (self,),
            fwd=lambda a: -a,
            vjps=_NEG_VJPS,
        )

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.value.ndim != 2 or other.value.ndim != 2:
            raise DimensionError("matmul nodes must be rank-2; reshape first")
        return self.tape._record(
            "matmul", (self, other),
            fwd=lambda a, b: T.matmul(a, b),
            vjps=_MATMUL_VJPS,
        )

    def reshape(self, shape) -> "Node":
        shape = tuple(shape)

        def fwd(a):
            try:
                return a.reshape(shape)
            except ValueError as exc:
                raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc

        return self.tape._record(
            "reshape", (self,),
            fwd=fwd,
            vjps=_RESHAPE_VJPS,
        )

    def transpose(self, axes) -> "Node":
        inverse = tuple(np.argsort(axes))
        return self.tape._record(
            "transpose", (self,),
            fwd=lambda a: a.transpose(axes),
            vjps=(lambda g, pv, out: g.transpose(inverse),),
        )

    def sum(self, axis: int) -> "Node":
        """Sum over ``axis``, kept with length 1."""
        return self.tape._record(
            "sum_axis", (self,),
            fwd=lambda a: np.sum(a, axis=axis, keepdims=True),
            vjps=_SUM_VJPS,
        )

    def mean(self, axis: int) -> "Node":
        """Mean over ``axis``, kept with length 1."""
        return self.tape._record(
            "mean_axis", (self,),
            fwd=lambda a: np.mean(a, axis=axis, keepdims=True),
            vjps=(lambda g, pv, out: np.broadcast_to(g / pv[0].shape[axis], pv[0].shape).copy(),),
        )

    def segment_sum(self, cards) -> "Node":
        """Per-set sums of member rows, [M, K] -> [B, K]; with several channels
        each set's members are added one after another, in row order."""
        bounds, size = _segments(cards, self.value.shape[0])
        return self.tape._record(
            "segment_sum", (self,),
            fwd=lambda a: _per_set(np.add.reduce, a, bounds, size),
            vjps=(lambda g, pv, out: np.repeat(g, cards, axis=0),),
        )

    def repeat(self, cards) -> "Node":
        """Each set's row once per member, [B, K] -> [M, K]: the vjp of ``segment_sum`` and vice versa."""
        if self.value.shape[0] != len(cards):
            raise DimensionError(f"repeat: {self.value.shape[0]} rows for {len(cards)} sets")
        bounds, size = _segments(cards, int(np.sum(cards)))
        return self.tape._record(
            "repeat", (self,),
            fwd=lambda a: np.repeat(a, cards, axis=0),
            vjps=(lambda g, pv, out: _per_set(np.add.reduce, g, bounds, size),),
        )

    def segment_max(self, cards) -> "Node":
        """Per-set maxima of member rows, [M, K] -> [B, K]; the subgradient goes
        to the lowest-index member that attains the max."""
        bounds, size = _segments(cards, self.value.shape[0])
        starts = bounds[:-1].reshape((-1,) + (1,) * (self.value.ndim - 1))

        def first_hits(a):  # the row each (set, channel) max came from; argmax takes the lowest on ties
            return _per_set(np.argmax, a, bounds, size) + starts

        def vjp(g, pv, out):
            grad = np.zeros_like(pv[0])
            np.put_along_axis(grad, first_hits(pv[0]), g, axis=0)
            return grad

        node = self.tape._record(
            "segment_max", (self,), fwd=lambda a: _per_set(np.maximum.reduce, a, bounds, size), vjps=(vjp,)
        )
        if node.index >= 0:  # a ForwardTape keeps no graph to replay
            self.tape._kinks[node.index] = first_hits
        return node

    def sum_all(self) -> "Node":
        return self.tape._record(
            "sum_all", (self,),
            fwd=lambda a: np.sum(a),
            vjps=_SUM_ALL_VJPS,
        )

    def pow_const(self, p: float) -> "Node":
        return self.tape._record(
            "pow_const", (self,),
            fwd=lambda a: np.power(a, p),
            vjps=(lambda g, pv, out: g * p * np.power(pv[0], p - 1.0),),
        )


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: List[Node] = []
        self.variables: List[Node] = []
        self._var_names = set()
        self._kinks: Dict[int, Callable] = {}  # node index -> fn(input): the rows its max took

    def _append(self, value, parents, op, fwd, vjps, name, is_variable) -> Node:
        requires_grad = is_variable or any(p.requires_grad for p in parents)
        node = Node(self, len(self.nodes), value, parents, op, fwd, vjps, name, is_variable, requires_grad)
        self.nodes.append(node)
        return node

    def variable(self, value, name: str) -> Node:
        if name in self._var_names:
            raise ContractError(f"duplicate variable name {name!r}")
        self._var_names.add(name)
        arr = T.as_tensor(value, f"variable {name!r}")
        node = self._append(arr, (), "variable", None, None, name, True)
        self.variables.append(node)
        return node

    def constant(self, value, name: Optional[str] = None) -> Node:
        arr = T.as_tensor(value, name or "constant")
        return self._append(arr, (), "constant", None, None, name, False)

    def _record(self, op, parents, fwd, vjps, name=None) -> Node:
        pv = tuple(p.value for p in parents)
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check below surfaces these
            value = np.asarray(fwd(*pv), dtype=np.float64)
        T.ensure_finite(value, f"node#{len(self.nodes)}[{op}]")
        return self._append(value, parents, op, fwd, vjps, name, False)

    def _binary(self, op, a: Node, b: Node, ufunc, vjps) -> Node:
        def fwd(x, y):
            try:
                return ufunc(x, y)
            except ValueError as exc:
                raise DimensionError(f"{op}: shapes {x.shape} and {y.shape} do not broadcast") from exc

        return self._record(op, (a, b), fwd=fwd, vjps=vjps)


class ForwardTape(Tape):
    """A tape that keeps values only: its nodes have no parents and it holds
    no nodes, so nothing can be differentiated or replayed, and each
    intermediate value is freed as soon as nothing uses it.

    A recording tape keeps its whole graph, and since every node refers back
    to its tape, the graph is a reference cycle that only the cyclic garbage
    collector frees. Evaluation needs no graph, so it uses this tape.
    """

    def _append(self, value, parents, op, fwd, vjps, name, is_variable) -> Node:
        return Node(self, -1, value, (), op, None, None, name, is_variable, False)


def nonlinearity(x: Node, fn: str) -> Node:
    if fn == "identity":
        return x

    def vjp(g, pv, out):
        d = T.elementwise_grad(pv[0], fn, out)
        d *= g  # a new array, and d * g has the bits of g * d
        return d

    return x.tape._record(f"nl_{fn}", (x,), fwd=lambda a: T.elementwise(a, fn), vjps=(vjp,))


def softmax_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean cross-entropy of row-wise softmax against integer labels.

    Fused and shift-stabilised (log-sum-exp with the row max subtracted), so
    large logits cannot overflow.
    """
    labels = np.asarray(labels)
    if logits.value.ndim != 2:
        raise DimensionError("softmax_cross_entropy expects [batch, classes] logits")
    if labels.shape != (logits.value.shape[0],):
        raise DimensionError("labels must be one integer per logits row")
    if labels.min() < 0 or labels.max() >= logits.value.shape[1]:
        raise ContractError("labels out of class range")
    rows = np.arange(labels.shape[0])

    def fwd(z):
        shift = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(shift), axis=1))
        return np.mean(lse - shift[rows, labels])

    def vjp(g, pv, out):
        z = pv[0]
        shift = z - z.max(axis=1, keepdims=True)
        ez = np.exp(shift)
        p = ez / ez.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        return g * p / labels.shape[0]

    return logits.tape._record("softmax_ce", (logits,), fwd=fwd, vjps=(vjp,))


def _require_graph(tape: Tape) -> None:
    if isinstance(tape, ForwardTape):
        raise ContractError("a ForwardTape keeps no graph to differentiate or replay")


def backward(tape: Tape, root: Node) -> GradientMap:
    """Reverse sweep from a scalar root; returns per-variable gradients.

    Only nodes with a variable behind them are visited, and a vjp runs only
    for a parent with a variable behind it.
    """
    _require_graph(tape)
    if root.tape is not tape:
        raise ContractError("root does not belong to this tape")
    if root.value.shape != ():
        raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
    grads: Dict[int, np.ndarray] = {root.index: np.asarray(1.0)}
    for node in reversed(tape.nodes[: root.index + 1]):
        if not (node.requires_grad and node.parents) or node.index not in grads:
            continue
        g = grads.pop(node.index)  # op node: fully accumulated by now
        pv = tuple(p.value for p in node.parents)
        for p, vjp in zip(node.parents, node.vjps):
            if not p.requires_grad:
                continue
            pg = vjp(g, pv, node.value)
            if p.index in grads:
                grads[p.index] = grads[p.index] + pg
            else:
                grads[p.index] = np.asarray(pg, dtype=np.float64)
    out: GradientMap = {}
    for var in tape.variables:
        g = grads.get(var.index)
        if g is None:
            g = np.zeros_like(var.value)
        elif g.shape != var.value.shape:
            g = np.broadcast_to(g, var.value.shape).copy()
        T.ensure_finite(g, f"gradient of {var.name!r}")
        out[var.name] = g
    return out


def replay(tape: Tape, overrides: Optional[Dict[int, np.ndarray]] = None):
    """Recompute the node values, substituting variable values from ``overrides``.

    Nodes with no variable behind them cannot change, so they keep their
    recorded values. Returns (values, max_signatures) where max_signatures
    maps the index of each ``segment_max`` node with a variable behind it to
    the rows that won its maxima, used to detect kink crossings.
    """
    _require_graph(tape)
    overrides = overrides or {}
    for index in overrides:
        if not (0 <= index < len(tape.nodes) and tape.nodes[index].is_variable):
            raise ContractError(f"replay overrides node#{index}, which is not a variable")
    values: List[np.ndarray] = []
    signatures: Dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # as in Tape._record; a probe may leave the domain
        for node in tape.nodes:
            if node.fwd is None or not node.requires_grad:
                values.append(overrides.get(node.index, node.value))
            else:
                pv = tuple(values[p.index] for p in node.parents)
                values.append(np.asarray(node.fwd(*pv), dtype=np.float64))
                kink = tape._kinks.get(node.index)
                if kink is not None:
                    signatures[node.index] = kink(pv[0])
    return values, signatures


@dataclass
class GradientCheckReport:
    tolerance: float
    step: float
    max_rel_error: float = 0.0
    entries_checked: int = 0
    entries_flagged: int = 0  # probes at non-differentiable (max-tie) points, excluded
    per_variable: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradient check {status}: max rel error {self.max_rel_error:.3e} "
            f"(tol {self.tolerance:.1e}), {self.entries_checked} entries checked, "
            f"{self.entries_flagged} flagged non-differentiable"
        )


def gradient_check(tape: Tape, root: Node, step: float = 1e-5, tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare backward() against central finite differences, entry by entry.
    A probe whose central difference is not finite fails its entry."""
    if step <= 0:
        raise ContractError("step must be positive")
    if root.value.shape != ():
        raise ContractError("gradient_check root must be scalar")
    analytic = backward(tape, root)
    report = GradientCheckReport(tolerance=tolerance, step=step)
    for var in tape.variables:
        worst = 0.0
        base = var.value
        for j in range(base.size):
            plus = base.copy()
            minus = base.copy()
            plus.flat[j] += step
            minus.flat[j] -= step
            vals_p, sig_p = replay(tape, {var.index: plus})
            vals_m, sig_m = replay(tape, {var.index: minus})
            if any(not np.array_equal(sig_p[k], sig_m[k]) for k in sig_p):
                report.entries_flagged += 1
                continue
            fd = (float(vals_p[root.index]) - float(vals_m[root.index])) / (2.0 * step)
            ad = float(analytic[var.name].flat[j])
            scale = max(abs(ad), abs(fd))
            # below the scale floor the comparison degenerates to absolute
            err = abs(ad - fd) / scale if scale > 1e-6 else abs(ad - fd)
            if not np.isfinite(fd):
                err = np.inf
            worst = max(worst, err)
            report.entries_checked += 1
            if err > tolerance:
                report.failures.append(f"{var.name}[{j}]: analytic {ad:.6e} vs central-difference {fd:.6e} (rel {err:.3e})")
        report.per_variable[var.name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
