"""Tape-based reverse-mode automatic differentiation over the tensor ops.

Execution is define-by-run: building a node computes its value eagerly, so
node references only ever point backward. Every node gets a number, its
creation order on the tape, which names it in ``NumericError`` messages.

A tape records only the graph that gradients flow through. A node is
recorded (keeps its parents and its ``vjps``, and is appended to
``tape.nodes``) when it is a variable or has a recorded parent; its
``requires_grad`` says so. Every other node keeps its value and its op name
and nothing else, so a tape with no variables, as in evaluation, records
nothing and each intermediate is freed as soon as nothing uses it. Each
recorded node carries one vector-Jacobian product per parent: a function of
(the node's gradient, the parents' values, the node's value) that returns
that parent's gradient. The reverse sweep visits the recorded nodes once, in
reverse creation order, and calls a parent's vjp only if that parent is
recorded. It holds a gradient only until it is passed on: a node's gradient
is dropped when its visit ends, and each vjp's result as soon as it is
stored, so a visit holds its inputs and one result, not the last visit's
too. Gradients are exact for every differentiable composite;
``segment_max`` is given the single-argmax subgradient (lowest index on
ties) and ``mean`` distributes 1/N, so training runs are deterministic.

A recording tape and its nodes form a reference cycle (``Node.tape`` and
``Tape.nodes``), which only the cyclic collector could free, and it runs on
object counts, not bytes. So a training step calls ``Tape.release()`` once
``backward`` has returned: the tape drops its recorded nodes, and the step's
graph is freed by reference counting as soon as the step lets go of its
output, loss and bound variables. ``backward`` refuses a released tape.

Set batches store their members as stacked rows, one set after another; the
segment ops (``segment_sum`` and ``segment_max``) reduce those member rows to
one row per set. When all sets of a batch have one size, they work on the
rows as one [sets, size, channels] block instead of set by set, with the
same bits.

A layer is one fused node, whose forward works in one output buffer and
whose vjps are written out by hand: ``affine`` (``sigma(x W + b)``),
``max_centred_affine`` (``sigma(beta + (x - 1 max(x)) Gamma)``) and
``normalize_sets``; so is the loss, ``softmax_cross_entropy`` or
``masked_mse``. Each gives the value and the gradients, to the bit, of the
chain of nodes it replaces (the test suite keeps that chain as its oracle),
with one finiteness check: of the pre-activation, before ``sigma`` could map
an infinity to a finite value, or of the variance for ``normalize_sets``.
The sweep turns the node's gradient into the pre-activation's once per
visit, for every parent's vjp; only elu keeps the pre-activation, which its
derivative reads. ``max_centred_affine`` keeps its centred rows for Gamma's
gradient, and finds the rows that won each max from them, as their first
zero, rather than from another pass over its input.

Every node value is checked for finiteness when it is made, except the values
of ops that map finite inputs to finite outputs (``_FINITE_PRESERVING``),
whose inputs have passed the check already, and of ``normalize_sets``, which
checks its variance instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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


def _first_hits(a: np.ndarray, bounds: np.ndarray, size: Optional[int]) -> np.ndarray:
    """The row of ``a`` that holds each (set, channel) max, the lowest on ties;
    for a boolean ``a``, the first True row."""
    return _per_set(np.argmax, a, bounds, size) + bounds[:-1].reshape((-1,) + (1,) * (a.ndim - 1))


def _add_at_rows(rows: np.ndarray, hits: np.ndarray, per_set: np.ndarray) -> None:
    """``rows[hits] += per_set`` column by column, in place: each (set, channel)
    entry of ``per_set`` added at the row ``hits`` names."""
    won = np.take_along_axis(rows, hits, axis=0)
    won += per_set
    np.put_along_axis(rows, hits, won, axis=0)


def _per_member(op, rows: np.ndarray, per_set: np.ndarray, bounds: np.ndarray, size: Optional[int], out=None):
    """The ufunc ``op`` of each member row of ``rows`` [M, K] and its set's row
    of ``per_set`` ([B, K] or [B, 1]), into ``out`` or a new [M, K] array."""
    if size is not None:
        shape = (-1, size) + rows.shape[1:]
        res = op(rows.reshape(shape), per_set[:, None], out=None if out is None else out.reshape(shape))
        return res.reshape(rows.shape)
    rep = np.repeat(per_set, np.diff(bounds), axis=0)
    return op(rows, rep, out=rep if out is None and rep.shape == rows.shape else out)


# Ops whose vjps capture nothing share one tuple rather than making closures
# for every node they record.
_MUL_VJPS = (
    lambda g, pv, out: _unbroadcast(g * pv[1], pv[0].shape),
    lambda g, pv, out: _unbroadcast(g * pv[0], pv[1].shape),
)
_NEG_VJPS = (lambda g, pv, out: -g,)
_MATMUL_VJPS = (lambda g, pv, out: g @ pv[1].T, lambda g, pv, out: pv[0].T @ g)
_RESHAPE_VJPS = (lambda g, pv, out: g.reshape(pv[0].shape),)
_SUM_ALL_VJPS = (lambda g, pv, out: np.full(pv[0].shape, float(g)),)
_AFFINE_VJPS = (  # x W + b, from the gradient of the pre-activation
    lambda g, pv, out: g @ pv[1].T,
    lambda g, pv, out: pv[0].T @ g,
    lambda g, pv, out: _unbroadcast(g, pv[2].shape),
)

# Ops whose value is finite whenever their parents' values are, so _record
# does not check it again.
_FINITE_PRESERVING = frozenset(("segment_max", "reshape", "transpose", "neg"))


class Node:
    """One value on a tape. Operators build new nodes on the same tape."""

    __slots__ = ("tape", "index", "value", "parents", "op", "vjps", "name", "requires_grad", "activation")

    def __init__(self, tape, index, value, parents, op, vjps, name, requires_grad, activation):
        self.tape = tape
        self.index = index  # creation order on the tape
        self.value = value
        self.parents = parents
        self.op = op
        self.vjps = vjps  # one (grad_out, parent_values, out_value) -> grad per parent
        self.name = name
        self.requires_grad = requires_grad  # recorded: a variable lies behind this node
        self.activation = activation  # None, or (fn, the pre-activation if fn' reads it) fused in

    def _coerce(self, other) -> "Node":
        if isinstance(other, Node):
            if other.tape is not self.tape:
                raise ContractError("cannot mix nodes from different tapes")
            return other
        return self.tape.constant(other)

    def __mul__(self, other):
        other = self._coerce(other)

        def fwd(a, b):
            try:
                return np.multiply(a, b)
            except ValueError as exc:
                raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc

        return self.tape._record("mul", (self, other), fwd=fwd, vjps=_MUL_VJPS)

    def __neg__(self):
        return self.tape._record(
            "neg", (self,),
            fwd=lambda a: -a,
            vjps=_NEG_VJPS,
        )

    def __matmul__(self, other):
        other = self._coerce(other)
        _rank2(self, other)
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

    def segment_max(self, cards) -> "Node":
        """Per-set maxima of member rows, [M, K] -> [B, K]; the subgradient goes
        to the lowest-index member that attains the max."""
        bounds, size = _segments(cards, self.value.shape[0])

        def vjp(g, pv, out):
            grad = np.zeros_like(pv[0])
            np.put_along_axis(grad, _first_hits(pv[0], bounds, size), g, axis=0)
            return grad

        return self.tape._record(
            "segment_max", (self,), fwd=lambda a: _per_set(np.maximum.reduce, a, bounds, size), vjps=(vjp,)
        )

    def sum_all(self) -> "Node":
        return self.tape._record(
            "sum_all", (self,),
            fwd=lambda a: np.sum(a),
            vjps=_SUM_ALL_VJPS,
        )


class Tape:
    """Append-only record of the gradient graph of one forward computation."""

    def __init__(self):
        self.nodes: List[Node] = []  # the recorded nodes, in creation order
        self.variables: List[Node] = []
        self._created = 0  # nodes made so far, recorded or not
        self._var_names = set()
        self.released = False

    def release(self) -> None:
        """Drop the recorded graph, so that nothing on the tape refers back to
        its nodes. Call it after ``backward``; calling it twice is harmless."""
        self.nodes, self.variables = [], []
        self.released = True

    def _append(self, value, parents, op, vjps, name, is_variable, activation=None) -> Node:
        index = self._created
        self._created += 1
        if not (is_variable or any(p.requires_grad for p in parents)):
            return Node(self, index, value, (), op, None, None, False, None)
        node = Node(self, index, value, parents, op, vjps, name, True, activation)
        self.nodes.append(node)
        return node

    def variable(self, value, name: str) -> Node:
        if name in self._var_names:
            raise ContractError(f"duplicate variable name {name!r}")
        self._var_names.add(name)
        arr = T.as_tensor(value, f"variable {name!r}")
        node = self._append(arr, (), "variable", None, name, True)
        self.variables.append(node)
        return node

    def constant(self, value) -> Node:
        arr = T.as_tensor(value, "constant")
        return self._append(arr, (), "constant", None, None, False)

    def _record(self, op, parents, fwd, vjps, activation="identity", check=True) -> Node:
        """A node for ``activation`` of ``fwd`` of the parents' values. ``fwd`` is
        called once and makes a new array, checked before tanh overwrites it,
        unless ``check`` is off because ``fwd`` checks an array that bounds it."""
        pv = tuple(p.value for p in parents)
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check below surfaces these
            value = np.asarray(fwd(*pv), dtype=np.float64)
        if check and op not in _FINITE_PRESERVING:
            T.ensure_finite(value, f"node#{self._created}[{op}]")
        fused = None if activation == "identity" else (activation, value if activation == "elu" else None)
        if fused:  # tanh in place, with the bits of np.tanh(value)
            value = np.tanh(value, out=value) if activation == "tanh" else T.elementwise(value, activation)
        return self._append(value, parents, op, vjps, None, False, fused)


def _require_graph(tape: Tape) -> None:
    if tape.released:
        raise ContractError("the tape was released; its recorded graph is gone")


def _rank2(a: Node, b: Node) -> None:
    """Check the shapes of the product ``a @ b`` before it is taken."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul nodes must be rank-2; reshape first")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.value.shape} x {b.value.shape}")


def affine(x: Node, w: Node, b: Node, activation: str) -> Node:
    """``activation(x W + b)`` as one node: the product, with the bias added in place."""
    _rank2(x, w)

    def fwd(xv, wv, bv):
        out = T.matmul(xv, wv)
        out += bv
        return out

    return x.tape._record("affine", (x, w, b), fwd=fwd, vjps=_AFFINE_VJPS, activation=activation)


def max_centred_affine(x: Node, gam: Node, beta: Node, cards, activation: str) -> Node:
    """``activation(beta + (x - 1 max(x)) Gamma)`` over the member rows of sets
    with ``cards`` members, as one node: [M, K] -> [M, K'].

    Given the pre-activation's gradient ``g``, the vjps are those of the
    ``segment_max``, ``repeat``, ``sub``, ``matmul`` and ``add`` chain: Gamma
    gets ``d^T g`` for the centred rows ``d``, beta the column sums of ``g``,
    and x gets ``g Gamma^T`` with minus each set's column sums of it added at
    the rows that won the max (lowest index on ties), found as the first zero
    of each set's column of ``d``.
    """
    _rank2(x, gam)
    bounds, size = _segments(cards, x.value.shape[0])
    d = None  # the centred rows, kept by the forward for the Gamma gradient

    def centred_product(xv, gv, bv):
        nonlocal d
        d = _per_member(np.subtract, xv, _per_set(np.maximum.reduce, xv, bounds, size), bounds, size)
        out = T.matmul(d, gv)
        out += bv
        return out

    def x_vjp(g, pv, out):
        gd = g @ pv[1].T
        sums = _per_set(np.add.reduce, gd, bounds, size)
        # for finite values x - max is 0 exactly where x == max, so the first
        # zero of each set's centred column is argmax's winner
        _add_at_rows(gd, _first_hits(d == 0.0, bounds, size), np.negative(sums, out=sums))
        return gd

    return x.tape._record(
        "max_centred_affine", (x, gam, beta),
        fwd=centred_product,
        vjps=(x_vjp, lambda g, pv, out: d.T @ g, _AFFINE_VJPS[2]),
        activation=activation,
    )


def normalize_sets(x: Node, cards, eps: float) -> Node:
    """Each member row of sets with ``cards`` members less its set's
    per-channel mean, divided by one deviation per set: the root of ``eps``
    plus the set's variance, the mean of its squared centred values over
    members and channels. One node, [M, K] -> [M, K].

    The forward runs the numpy ops of the chain of generic nodes this node
    replaces, in the chain's order, and the vjp is that chain's, written out,
    so values and gradients have the chain's bits (the test suite keeps the
    chain as its oracle); x's gradient from this node is one term. The one
    finiteness check is of the [B, 1] variance, before the division: an
    overflow in the sums or the squares makes it infinite or NaN. When it is
    finite, so is every centred value, and no output of a set of N members
    and K channels exceeds about ``sqrt(N K)`` in magnitude, so the output is
    not scanned.
    """
    k = x.value.shape[1]
    bounds, size = _segments(cards, x.value.shape[0])
    inv_n = 1.0 / np.asarray(cards, dtype=np.float64)[:, None]
    tape = x.tape
    c = shifted = inv_std = None  # the centred rows, eps + variance and its power -0.5, kept for the vjp

    def fwd(xv):
        nonlocal c, shifted, inv_std
        mean = _per_set(np.add.reduce, xv, bounds, size)
        mean *= inv_n
        c = _per_member(np.subtract, xv, mean, bounds, size)
        var = np.sum(_per_set(np.add.reduce, c * c, bounds, size), axis=1, keepdims=True) * inv_n * (1.0 / k)
        T.ensure_finite(var, f"node#{tape._created}[normalize_sets]")
        shifted = var + eps
        inv_std = np.power(shifted, -0.5)
        return _per_member(np.multiply, c, inv_std, bounds, size)

    def vjp(g, pv, out):
        gc = _per_member(np.multiply, g, inv_std, bounds, size)
        gvar = np.sum(_per_set(np.add.reduce, g * c, bounds, size), axis=1, keepdims=True)
        gvar = gvar * -0.5 * np.power(shifted, -1.5) * (1.0 / k) * inv_n
        spread = _per_member(np.multiply, c, gvar, bounds, size)
        gc += spread  # from each factor of the square, one after the other
        gc += spread
        gmean = _per_set(np.add.reduce, gc, bounds, size) * -inv_n  # the chain's sum of -gc, negated: same bits
        return _per_member(np.add, gc, gmean, bounds, size, out=gc)

    return tape._record("normalize_sets", (x,), fwd=fwd, vjps=(vjp,), check=False)


def dropout(x: Node, keep: np.ndarray, cards) -> Node:
    """``x`` times the scaled keep mask ``keep``, as one node. ``keep`` has x's
    shape, or with ``cards`` one row per set, repeated to the members in the
    forward and again in the vjp. Only the product is checked: the mask is 0
    or ``1 / (1 - rate)``, and the product can overflow."""
    spread = (lambda k: k) if cards is None else (lambda k: np.repeat(k, cards, axis=0))
    return x.tape._record("dropout", (x,), fwd=lambda a: a * spread(keep), vjps=(lambda g, pv, out: g * spread(keep),))


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


def masked_mse(pred: Node, targets: np.ndarray, mask: np.ndarray) -> Node:
    """Mean squared error of [M, 1] member predictions against [M] targets,
    over the members whose ``mask`` (0 or 1) is 1, as one node. Value and
    gradient have the bits of the chain of generic nodes it replaces, which
    the test suite keeps as its oracle; the loss is the node's one check."""
    labeled = float(mask.sum())
    if labeled == 0:
        raise ContractError("batch has no labeled members")
    if pred.value.shape != (len(targets), 1) or mask.shape != targets.shape:
        raise DimensionError(f"masked_mse: predictions {pred.value.shape} for {targets.shape} targets")
    targets, mask = targets[:, None], mask[:, None]

    def masked_diff(p):
        d = p - targets
        d *= mask
        return d

    def vjp(g, pv, out):
        d = masked_diff(pv[0])
        d *= float(g * (1.0 / labeled))
        d += d  # from each factor of the square
        d *= mask
        return d

    def fwd(p):
        d = masked_diff(p)
        return np.sum(d * d) * (1.0 / labeled)

    return pred.tape._record("masked_mse", (pred,), fwd=fwd, vjps=(vjp,))


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
            if node.activation is not None:  # every vjp reads the pre-activation's gradient
                d = T.elementwise_grad(node.activation[1], node.activation[0], node.value)
                d *= g  # d * g has the bits of g * d
                g, d = d, None  # d is not kept past the visit
            pv = tuple(p.value for p in node.parents)
            for p, vjp in zip(node.parents, node.vjps):
                if not p.requires_grad:
                    continue
                pg = vjp(g, pv, node.value)
                if p.index in grads:
                    grads[p.index] = grads[p.index] + pg
                else:
                    grads[p.index] = np.asarray(pg, dtype=np.float64)
                del pg  # stored: the sweep keeps no other reference to it
            del g, pv  # passed on to the parents
    out: GradientMap = {}
    for var in tape.variables:
        g = grads.get(var.index)
        if g is None:
            g = np.zeros_like(var.value)
        elif g.shape != var.value.shape:
            g = np.broadcast_to(g, var.value.shape).copy()
        out[var.name] = g
    return out
