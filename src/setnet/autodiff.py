"""Tape-based reverse-mode automatic differentiation over the tensor ops.

Execution is define-by-run: building a node computes its value eagerly, so
node references only ever point backward. Every node gets a number, its
creation order on the tape, which names it in ``NumericError`` messages.

A tape records only the graph that gradients flow through. A node is
recorded (keeps its parents, its ``fwd`` and its ``vjps``, and is appended
to ``tape.nodes``) when it is a variable or has a recorded parent; its
``requires_grad`` says so. Every other node keeps its value and its op name
and nothing else, so a tape with no variables, as in evaluation, records
nothing and each intermediate is freed as soon as nothing uses it. Each
recorded node carries one vector-Jacobian product per parent: a function of
(the node's gradient, the parents' values, the node's value) that returns
that parent's gradient. The reverse sweep visits the recorded nodes once, in
reverse creation order, and calls a parent's vjp only if that parent is
recorded. Gradients are exact for every differentiable composite;
``segment_max`` is given the single-argmax subgradient (lowest index on
ties) and ``mean`` distributes 1/N, so training runs are deterministic.

A recording tape and its nodes form a reference cycle (``Node.tape`` and
``Tape.nodes``), which only the cyclic collector could free, and it runs on
object counts, not bytes. So a training step calls ``Tape.release()`` once
``backward`` has returned: the tape drops its recorded nodes, and the step's
graph is freed by reference counting as soon as the step lets go of its
output, loss and bound variables. ``backward``, ``replay`` and
``gradient_check`` refuse a released tape.

Set batches store their members as stacked rows, one set after another; the
segment ops (``segment_sum``, ``segment_max`` and ``repeat``) move between
those member rows and one row per set. When all sets of a batch have one
size, they work on the rows as one [sets, size, channels] block instead of
set by set, with the same bits.

``gradient_check`` re-executes the recorded nodes with perturbed variable
values (central differences) and compares against the reverse sweep. Probes
that cross a max-kink (the winning rows of any recorded ``segment_max`` node
differ between the two perturbed replays) are flagged as non-differentiable
points and excluded rather than reported as failures.
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
    """One value on a tape. Operators build new nodes on the same tape."""

    __slots__ = ("tape", "index", "value", "parents", "op", "fwd", "vjps", "name", "requires_grad")

    def __init__(self, tape, index, value, parents, op, fwd, vjps, name, requires_grad):
        self.tape = tape
        self.index = index  # creation order on the tape
        self.value = value
        self.parents = parents
        self.op = op
        self.fwd = fwd  # recompute value from parent values; None for leaves
        self.vjps = vjps  # one (grad_out, parent_values, out_value) -> grad per parent
        self.name = name
        self.requires_grad = requires_grad  # recorded: a variable lies behind this node

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
        if node.requires_grad:
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
    """Append-only record of the gradient graph of one forward computation."""

    def __init__(self):
        self.nodes: List[Node] = []  # the recorded nodes, in creation order
        self.variables: List[Node] = []
        self._created = 0  # nodes made so far, recorded or not
        self._var_names = set()
        self._kinks: Dict[int, Callable] = {}  # node index -> fn(input): the rows its max took
        self.released = False

    def release(self) -> None:
        """Drop the recorded graph, so that nothing on the tape refers back to
        its nodes. Call it after ``backward``; calling it twice is harmless."""
        self.nodes, self.variables, self._kinks = [], [], {}
        self.released = True

    def _append(self, value, parents, op, fwd, vjps, name, is_variable) -> Node:
        index = self._created
        self._created += 1
        if not (is_variable or any(p.requires_grad for p in parents)):
            return Node(self, index, value, (), op, None, None, None, False)
        node = Node(self, index, value, parents, op, fwd, vjps, name, True)
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

    def constant(self, value) -> Node:
        arr = T.as_tensor(value, "constant")
        return self._append(arr, (), "constant", None, None, None, False)

    def _record(self, op, parents, fwd, vjps) -> Node:
        pv = tuple(p.value for p in parents)
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check below surfaces these
            value = np.asarray(fwd(*pv), dtype=np.float64)
        T.ensure_finite(value, f"node#{self._created}[{op}]")
        return self._append(value, parents, op, fwd, vjps, None, False)

    def _binary(self, op, a: Node, b: Node, ufunc, vjps) -> Node:
        def fwd(x, y):
            try:
                return ufunc(x, y)
            except ValueError as exc:
                raise DimensionError(f"{op}: shapes {x.shape} and {y.shape} do not broadcast") from exc

        return self._record(op, (a, b), fwd=fwd, vjps=vjps)


def _require_graph(tape: Tape) -> None:
    if tape.released:
        raise ContractError("the tape was released; its recorded graph is gone")


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


def backward(tape: Tape, root: Node) -> GradientMap:
    """Reverse sweep from a scalar root; returns per-variable gradients.

    Only recorded nodes are visited, and a vjp runs only for a recorded
    parent. A root with no variable behind it gives zero gradients. The
    gradients are not checked for finiteness here: ``Optimizer.step`` checks
    them all at once before it changes anything. ``tape.nodes`` is left as
    it was.
    """
    _require_graph(tape)
    if root.tape is not tape:
        raise ContractError("root does not belong to this tape")
    if root.value.shape != ():
        raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
    grads: Dict[int, np.ndarray] = {root.index: np.asarray(1.0)}
    with np.errstate(over="ignore", invalid="ignore"):  # as in Tape._record
        for node in reversed(tape.nodes):
            if not node.parents or node.index not in grads:
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
        out[var.name] = g
    return out


def replay(tape: Tape, overrides: Optional[Dict[int, np.ndarray]] = None):
    """Recompute the recorded nodes, substituting variable values from ``overrides``.

    Unrecorded nodes have no variable behind them and cannot change, so a
    recorded node reads an unrecorded parent's value from the parent. Returns
    (values, max_signatures): values maps each recorded node's index to its
    value, and max_signatures maps the index of each recorded ``segment_max``
    node to the rows that won its maxima, used to detect kink crossings.
    """
    _require_graph(tape)
    overrides = overrides or {}
    variables = {var.index for var in tape.variables}
    for index in overrides:
        if index not in variables:
            raise ContractError(f"replay overrides node#{index}, which is not a variable")
    values: Dict[int, np.ndarray] = {}
    signatures: Dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # as in Tape._record; a probe may leave the domain
        for node in tape.nodes:
            if node.fwd is None:
                values[node.index] = overrides.get(node.index, node.value)
            else:
                pv = tuple(values[p.index] if p.requires_grad else p.value for p in node.parents)
                values[node.index] = np.asarray(node.fwd(*pv), dtype=np.float64)
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
    A probe whose central difference or analytic gradient is not finite fails
    its entry."""
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
            # a root with no variable behind it is not recorded: its value is fixed
            f_p, f_m = (float(vals.get(root.index, root.value)) for vals in (vals_p, vals_m))
            fd = (f_p - f_m) / (2.0 * step)
            ad = float(analytic[var.name].flat[j])
            scale = max(abs(ad), abs(fd))
            # below the scale floor the comparison degenerates to absolute
            err = abs(ad - fd) / scale if scale > 1e-6 else abs(ad - fd)
            if not (np.isfinite(fd) and np.isfinite(ad)):
                err = np.inf
            worst = max(worst, err)
            report.entries_checked += 1
            if err > tolerance:
                report.failures.append(f"{var.name}[{j}]: analytic {ad:.6e} vs central-difference {fd:.6e} (rel {err:.3e})")
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
