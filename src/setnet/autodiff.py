"""Tape-based reverse-mode automatic differentiation over the tensor ops.

Execution is define-by-run: building a node computes its value eagerly, so
node references only ever point backward. Every node gets a number, its
creation order on the tape, which names it in ``NumericError`` messages.

Every op is a function whose first argument is the tape it records on:

- ``affine``: ``sigma(x W + b)``, a dense layer;
- ``max_centred_affine``: ``sigma(beta + (x - 1 max(x)) Gamma)``, the
  equivariant layer;
- ``set_pool``: each set's sum, max or mean;
- ``normalize_sets``, ``dropout`` and ``flatten``;
- the losses, ``softmax_cross_entropy`` and ``masked_mse``, and
  ``negated_channel_mean``, the objective of activation maximization.

A node is a plain record that holds no reference to its tape, and no vjp
captures the tape, so nothing points from a step's graph back to the tape
that owns it: the tape keeps its recorded nodes until its caller drops it,
and then the graph is freed by reference counting, without the cyclic
collector.

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
too. Gradients are exact for every differentiable composite; a max is given
the single-argmax subgradient (lowest index on ties) and a mean distributes
1/N, so training runs are deterministic.

Set batches store their members as stacked rows, one set after another. A
``Segments`` record, made once per batch, holds that layout, and its methods
are the only member reductions: the set ops take it and check only that their
input has its member row count.

Each op is one node, whose vjps are written out by hand. Each gives the
value and the gradients, to the bit, of the chain of generic nodes it
replaced (the test suite keeps that chain as its oracle). A layer's forward
works in one output buffer and checks its pre-activation, before ``sigma``
could map an infinity to a finite value. The sweep turns the node's gradient
into the pre-activation's once per visit, for every parent's vjp; only elu
keeps the pre-activation, which its derivative reads.
``max_centred_affine`` keeps its centred rows for Gamma's gradient, and
finds the rows that won each max from them, as their first zero, rather
than from another pass over its input.

Every node value is checked for finiteness once, when it is made, except
three: a max pool and ``flatten`` only pick or move their input's values,
which have passed the check already, and ``normalize_sets`` checks its
variance instead, which bounds its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, EmptyReductionError

GradientMap = Dict[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class Segments:
    """The layout of a packed batch of sets with ``cards`` members each, whose
    constructor is where cardinalities are checked: the read-only ``cards``,
    ``bounds`` [0, end of set 0, ...], ``inv_n`` [B, 1] each set's 1/N,
    ``rows`` the member row count M, and ``size`` the common cardinality or
    None. With a common size a method works on the rows as one [B, size, K]
    block; numpy combines a set's members in the same order either way."""

    cards: np.ndarray
    bounds: np.ndarray = field(init=False)
    inv_n: np.ndarray = field(init=False)
    rows: int = field(init=False)
    size: Optional[int] = field(init=False)

    def __post_init__(self):
        cards = np.array(self.cards, dtype=np.intp)
        if cards.ndim != 1:
            raise DimensionError("need one cardinality per set")
        if np.any(cards < 1):
            raise EmptyReductionError("sets must have at least one member")
        bounds = np.concatenate(([0], np.cumsum(cards)))
        inv_n = 1.0 / cards.astype(np.float64)[:, None]
        size = int(cards[0]) if cards.size and np.all(cards == cards[0]) else None
        for arr in (cards, bounds, inv_n):
            arr.setflags(write=False)
        for name, val in dict(cards=cards, bounds=bounds, inv_n=inv_n, rows=int(bounds[-1]), size=size).items():
            object.__setattr__(self, name, val)

    def check(self, x: Node, op: str) -> None:
        """``DimensionError`` unless node ``x`` has one row per member."""
        if x.value.shape[0] != self.rows:
            raise DimensionError(f"{op}: {x.value.shape[0]} rows for sets of {self.rows} members")

    def _per_set(self, fn, a: np.ndarray) -> np.ndarray:
        """``fn(rows, axis)``, e.g. ``np.add.reduce``, over each set's rows: [M, K] -> [B, K]."""
        if self.size is not None:
            return fn(a.reshape((-1, self.size) + a.shape[1:]), axis=1)
        return np.array([fn(a[s:e], axis=0) for s, e in zip(self.bounds[:-1], self.bounds[1:])])

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Each set's sum of its rows of ``a``, adding the members in row order: [M, K] -> [B, K]."""
        return self._per_set(np.add.reduce, a)

    def max(self, a: np.ndarray) -> np.ndarray:
        """Each set's max of its rows of ``a``, channel by channel: [M, K] -> [B, K]."""
        return self._per_set(np.maximum.reduce, a)

    def first_hits(self, a: np.ndarray) -> np.ndarray:
        """The row of ``a`` that holds each (set, channel) max, the lowest on
        ties; for a boolean ``a``, the first True row: [M, K] -> [B, K]."""
        return self._per_set(np.argmax, a) + self.bounds[:-1].reshape((-1,) + (1,) * (a.ndim - 1))

    def spread(self, per_set: np.ndarray) -> np.ndarray:
        """Each set's row of ``per_set`` once per member: [B, K] -> [M, K]."""
        return np.repeat(per_set, self.cards, axis=0)

    def per_member(self, op, rows: np.ndarray, per_set: np.ndarray, out=None) -> np.ndarray:
        """The ufunc ``op`` of each member row of ``rows`` [M, K] and its set's row
        of ``per_set`` ([B, K] or [B, 1]), into ``out`` or a new [M, K] array."""
        if self.size is not None:
            shape = (-1, self.size) + rows.shape[1:]
            res = op(rows.reshape(shape), per_set[:, None], out=None if out is None else out.reshape(shape))
            return res.reshape(rows.shape)
        rep = self.spread(per_set)
        return op(rows, rep, out=rep if out is None and rep.shape == rows.shape else out)


_AFFINE_VJPS = (  # x W + b, from the gradient of the pre-activation
    lambda g, pv, out: g @ pv[1].T,
    lambda g, pv, out: pv[0].T @ g,
    lambda g, pv, out: g.sum(axis=0),
)


class Node:
    """One value on a tape: a plain record, with no reference to its tape."""

    __slots__ = ("index", "value", "parents", "op", "vjps", "name", "requires_grad", "activation")

    def __init__(self, index, value, parents, op, vjps, name, requires_grad, activation):
        self.index = index  # creation order on the tape
        self.value = value
        self.parents = parents
        self.op = op
        self.vjps = vjps  # one (grad_out, parent_values, out_value) -> grad per parent
        self.name = name
        self.requires_grad = requires_grad  # recorded: a variable lies behind this node
        self.activation = activation  # None, or (fn, the pre-activation if fn' reads it) fused in


class Tape:
    """Append-only record of the gradient graph of one forward computation."""

    def __init__(self):
        self.nodes: List[Node] = []  # the recorded nodes, in creation order
        self.variables: List[Node] = []
        self._created = 0  # nodes made so far, recorded or not
        self._var_names = set()

    def _append(self, value, parents, op, vjps, name, is_variable, activation=None) -> Node:
        index = self._created
        self._created += 1
        if not (is_variable or any(p.requires_grad for p in parents)):
            return Node(index, value, (), op, None, None, False, None)
        node = Node(index, value, parents, op, vjps, name, True, activation)
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
        unless ``check`` is off because ``fwd`` checks an array that bounds it
        or only moves or picks its input's values."""
        pv = tuple(p.value for p in parents)
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check below surfaces these
            value = np.asarray(fwd(*pv), dtype=np.float64)
        if check:
            T.ensure_finite(value, f"node#{self._created}[{op}]")
        fused = None if activation == "identity" else (activation, value if activation == "elu" else None)
        if fused:  # tanh in place, with the bits of np.tanh(value)
            value = np.tanh(value, out=value) if activation == "tanh" else T.elementwise(value, activation)
        return self._append(value, parents, op, vjps, None, False, fused)


def _rank2(a: Node, b: Node, bias: Optional[Node] = None) -> None:
    """Check the shapes of the product ``a @ b``, and of the ``bias`` added
    to each of its rows (one entry per column, the shape its gradient, the
    column sums, takes), before it is taken."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul nodes must be rank-2; reshape first")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.value.shape} x {b.value.shape}")
    if bias is not None and bias.value.shape != b.value.shape[1:]:
        raise DimensionError(f"bias of shape {bias.value.shape} for {b.value.shape[1]} output channels")


def affine(tape: Tape, x: Node, w: Node, b: Node, activation: str) -> Node:
    """``activation(x W + b)`` as one node: the product, with the bias added in place."""
    _rank2(x, w, b)

    def fwd(xv, wv, bv):
        out = T.matmul(xv, wv)
        out += bv
        return out

    return tape._record("affine", (x, w, b), fwd=fwd, vjps=_AFFINE_VJPS, activation=activation)


def max_centred_affine(tape: Tape, x: Node, gam: Node, beta: Node, seg: Segments, activation: str) -> Node:
    """``activation(beta + (x - 1 max(x)) Gamma)`` over the member rows of the
    sets ``seg`` lays out, as one node: [M, K] -> [M, K'].

    Given the pre-activation's gradient ``g``, the vjps are those of the
    max pool, ``repeat``, ``sub``, ``matmul`` and ``add`` chain: Gamma
    gets ``d^T g`` for the centred rows ``d``, beta the column sums of ``g``,
    and x gets ``g Gamma^T`` with minus each set's column sums of it added at
    the rows that won the max (lowest index on ties), found as the first zero
    of each set's column of ``d``.
    """
    _rank2(x, gam, beta)
    seg.check(x, "max_centred_affine")
    d = None  # the centred rows, kept by the forward for the Gamma gradient

    def centred_product(xv, gv, bv):
        nonlocal d
        d = seg.per_member(np.subtract, xv, seg.max(xv))
        out = T.matmul(d, gv)
        out += bv
        return out

    def x_vjp(g, pv, out):
        gd = g @ pv[1].T
        # for finite values x - max is 0 exactly where x == max, so the first
        # zero of each set's centred column is argmax's winner
        hits = seg.first_hits(d == 0.0)
        won = np.take_along_axis(gd, hits, axis=0)
        won -= seg.sum(gd)
        np.put_along_axis(gd, hits, won, axis=0)
        return gd

    return tape._record("max_centred_affine", (x, gam, beta), fwd=centred_product,
                        vjps=(x_vjp, lambda g, pv, out: d.T @ g, _AFFINE_VJPS[2]), activation=activation)


def set_pool(tape: Tape, x: Node, seg: Segments, kind: str) -> Node:
    """Each set's sum, max or mean (``kind``) of its member rows, channel by
    channel, as one node: [M, K] -> [B, K]. A sum adds each set's members one
    after another, in row order, and a mean is that sum times 1/N. The max's
    subgradient goes to the lowest-index member that attains it, and its
    value, one of x's, is not scanned again."""
    seg.check(x, "set_pool")
    if kind == "max":
        def vjp(g, pv, out):
            grad = np.zeros_like(pv[0])
            np.put_along_axis(grad, seg.first_hits(pv[0]), g, axis=0)
            return grad

        return tape._record("max_pool", (x,), fwd=seg.max, vjps=(vjp,), check=False)
    if kind == "sum":
        return tape._record("sum_pool", (x,), fwd=seg.sum, vjps=(lambda g, pv, out: seg.spread(g),))
    if kind != "mean":
        raise DimensionError(f"unknown pool kind {kind!r}")
    return tape._record("mean_pool", (x,), fwd=lambda a: np.multiply(seg.sum(a), seg.inv_n),
                        vjps=(lambda g, pv, out: seg.spread(g * seg.inv_n),))


def normalize_sets(tape: Tape, x: Node, seg: Segments, eps: float) -> Node:
    """Each member row of the sets ``seg`` lays out less its set's
    per-channel mean, divided by one deviation per set: the root of ``eps``
    plus the set's variance, the mean of its squared centred values over
    members and channels. One node, [M, K] -> [M, K], whose forward and vjp
    run the numpy ops of the chain it replaced in the chain's order. The one
    finiteness check is of the [B, 1] variance, before the division: an
    overflow in the sums or the squares makes it infinite or NaN. When it is
    finite, so is every centred value, and no output of a set of N members and
    K channels exceeds about ``sqrt(N K)`` in magnitude, so the output is not
    scanned."""
    seg.check(x, "normalize_sets")
    k, inv_n = x.value.shape[1], seg.inv_n
    c = shifted = inv_std = None  # the centred rows, eps + variance and its power -0.5, kept for the vjp

    def fwd(xv):
        nonlocal c, shifted, inv_std
        mean = seg.sum(xv)
        mean *= inv_n
        c = seg.per_member(np.subtract, xv, mean)
        var = np.sum(seg.sum(c * c), axis=1, keepdims=True) * inv_n * (1.0 / k)
        T.ensure_finite(var, f"node#{tape._created}[normalize_sets]")
        shifted = var + eps
        inv_std = np.power(shifted, -0.5)
        return seg.per_member(np.multiply, c, inv_std)

    def vjp(g, pv, out):
        gc = seg.per_member(np.multiply, g, inv_std)
        gvar = np.sum(seg.sum(g * c), axis=1, keepdims=True)
        gvar = gvar * -0.5 * np.power(shifted, -1.5) * (1.0 / k) * inv_n
        spread = seg.per_member(np.multiply, c, gvar)
        gc += spread  # from each factor of the square, one after the other
        gc += spread
        gmean = seg.sum(gc) * -inv_n  # the chain's sum of -gc, negated: same bits
        return seg.per_member(np.add, gc, gmean, out=gc)

    return tape._record("normalize_sets", (x,), fwd=fwd, vjps=(vjp,), check=False)


def dropout(tape: Tape, x: Node, keep: np.ndarray, seg: Optional[Segments]) -> Node:
    """``x`` times the scaled keep mask ``keep``, as one node. ``keep`` has x's
    shape, or with ``seg`` one row per set, spread to the members in the
    forward and again in the vjp. Only the product is checked: the mask is 0
    or ``1 / (1 - rate)``, and the product can overflow."""
    if seg is not None:
        seg.check(x, "dropout")
    spread = (lambda k: k) if seg is None else seg.spread
    return tape._record("dropout", (x,), fwd=lambda a: a * spread(keep), vjps=(lambda g, pv, out: g * spread(keep),))


def flatten(tape: Tape, x: Node, seg: Segments, interleave: bool) -> Node:
    """Each set's member rows joined into one row, as one node: [B*N, K] ->
    [B, N*K] for sets of N members each. The members follow each other, or
    with ``interleave`` the row runs channel by channel across the members.
    Its value only moves x's, so it is not scanned again."""
    seg.check(x, "flatten")
    if seg.size is None:
        raise DimensionError("Flatten needs sets of equal cardinality")
    b, k = len(seg.cards), x.value.shape[1]
    if not interleave:
        return tape._record("flatten", (x,), fwd=lambda a: a.reshape((b, -1)),
                            vjps=(lambda g, pv, out: g.reshape(pv[0].shape),), check=False)
    return tape._record("flatten", (x,), fwd=lambda a: a.reshape((b, -1, k)).transpose((0, 2, 1)).reshape((b, -1)),
                        vjps=(lambda g, pv, out: g.reshape((b, k, -1)).transpose((0, 2, 1)).reshape(pv[0].shape),),
                        check=False)


def softmax_cross_entropy(tape: Tape, logits: Node, labels: np.ndarray) -> Node:
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

    return tape._record("softmax_ce", (logits,), fwd=fwd, vjps=(vjp,))


def masked_mse(tape: Tape, pred: Node, targets: np.ndarray, mask: np.ndarray) -> Node:
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

    return tape._record("masked_mse", (pred,), fwd=fwd, vjps=(vjp,))


def negated_channel_mean(tape: Tape, h: Node, unit: int) -> Node:
    """Minus the mean of channel ``unit`` of ``h`` over its rows, as one node:
    the objective that activation maximization minimises. Its gradient is
    -1/N in that channel and zero elsewhere."""

    def vjp(g, pv, out):
        grad = np.zeros_like(pv[0])
        grad[:, unit] = -g / pv[0].shape[0]
        return grad

    return tape._record("negated_channel_mean", (h,), fwd=lambda a: -np.mean(a[:, unit]), vjps=(vjp,))


def backward(tape: Tape, root: Node) -> GradientMap:
    """Reverse sweep from a scalar root; returns per-variable gradients.

    Only recorded nodes are visited, and a vjp runs only for a recorded
    parent. A root with no variable behind it gives zero gradients. The
    gradients are not checked for finiteness here: ``Optimizer.step`` checks
    them all at once before it changes anything. ``tape.nodes`` is left as
    it was. Node indices are per tape, so the root and every recorded parent
    of a visited node must be recorded on ``tape``; one that is not raises
    ``ContractError``.
    """
    recorded = {id(node) for node in tape.nodes}
    if root.requires_grad and id(root) not in recorded:
        raise ContractError("the root is not recorded on this tape")
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
                if id(p) not in recorded:
                    raise ContractError(f"node#{node.index}[{node.op}] has a parent recorded on another tape")
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
        out[var.name] = np.zeros_like(var.value) if g is None else g
    return out
