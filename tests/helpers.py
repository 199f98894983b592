"""Writers, readers and oracles the tests share: each writes a file that a
``setnet.data`` loader reads back, reads a file that the program writes, or
computes a reference value independently of setnet.

The finite-difference oracle, ``gradient_check``, takes the forward as a
function: ``build(tape, variables)`` makes the scalar root on ``tape`` from
the variable nodes, one per entry of ``values``. The oracle runs ``build``
once for the analytic gradients (``autodiff.backward``), then twice more on a
fresh tape for each entry of each variable, with that entry moved by
``+step`` and ``-step``, and compares the central difference of the two
roots with the analytic entry. So every probe runs the program's own
forward: the same ops, value checks included, that a training step runs. A
probe whose forward raises ``NumericError`` has a non-finite root, and the
entry fails like one whose difference or analytic gradient is not finite.

The gradient at a tie between the maxima of a set is a subgradient (lowest
index wins), which a central difference across the tie does not measure. A
probe pair whose max winners differ, in any node of the two probe tapes, is
flagged as non-differentiable and left out instead of failing.
``max_winners`` reads those winners off a node's own vjp, so the oracle
needs nothing from the tape but its recorded nodes. elu (alpha=1) has a
first derivative at 0 but no second, so a central difference whose probes
lie on both sides of 0 is off by O(step). A probe pair is flagged in the
same way when an entry of the pre-activation of a recorded node with elu
fused in takes the other branch of elu (above 0, or at or below it) in the
two probes. An input that stays at 0 in both is not flagged: elu is smooth
along it.
"""

import csv
import itertools
import math
import struct
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from setnet import autodiff as ad
from setnet import tensor as T
from setnet.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, LabeledSetDataset, _read_text, rotate_z
from setnet.errors import ContractError, DimensionError, FormatError, NumericError
from setnet.layers import SetBatch


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of load_idx_images; expects uint8 [count, rows, cols]."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, count, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_MAGIC_LABELS, labels.shape[0]))
        fh.write(labels.tobytes())


def save_off(path, mesh) -> None:
    """Write a TriangleMesh as an OFF file that load_off round-trips."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"3 {int(f[0])} {int(f[1])} {int(f[2])}\n")


def load_xyz(path) -> np.ndarray:
    """Read the [m, 3] points of an x y z file, as ``setnet sample-mesh``
    writes it; m >= 1 and every value finite."""
    rows = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected three coordinates")
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-numeric coordinate") from exc
        if not all(math.isfinite(v) for v in row):
            raise FormatError(f"{path}:{lineno}: non-finite coordinate")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no points")
    return np.array(rows, dtype=np.float64)


def save_cluster_catalog(path, dataset) -> None:
    """Write a catalog CSV that load_cluster_catalog round-trips: columns
    cluster_id, f0..f{K-1}, target and has_target."""
    names = [f"f{i}" for i in range(dataset.channels)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id"] + names + ["target", "has_target"])
        for ci, members in enumerate(dataset.members):
            for r in members:
                label = dataset.member_labels[r] if dataset.member_labels is not None else 0.0
                mask = int(dataset.member_mask[r]) if dataset.member_mask is not None else 0
                writer.writerow([f"c{ci}"] + [repr(float(v)) for v in dataset.rows[r]] + [repr(float(label)), mask])


def _per_cloud_sphere(m, rng):
    v = rng.standard_normal((m, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _per_cloud_cube(m, rng):
    face = rng.integers(0, 6, size=m)
    uv = rng.uniform(-1.0, 1.0, size=(m, 2))
    pts = np.empty((m, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for ax in range(3):
        sel = axis == ax
        others = [a for a in range(3) if a != ax]
        pts[sel, ax] = sign[sel]
        pts[sel, others[0]] = uv[sel, 0]
        pts[sel, others[1]] = uv[sel, 1]
    return pts


def _per_cloud_cylinder(m, rng):
    radius, height = 0.7, 2.0
    side_area = 2 * np.pi * radius * height
    cap_area = np.pi * radius**2
    p_side = side_area / (side_area + 2 * cap_area)
    pts = np.empty((m, 3))
    on_side = rng.random(m) < p_side
    theta = rng.uniform(0, 2 * np.pi, size=m)
    ns = int(on_side.sum())
    pts[on_side, 0] = radius * np.cos(theta[on_side])
    pts[on_side, 1] = radius * np.sin(theta[on_side])
    pts[on_side, 2] = rng.uniform(-height / 2, height / 2, size=ns)
    r = radius * np.sqrt(rng.random(m - ns))
    cap_sign = np.where(rng.random(m - ns) < 0.5, 1.0, -1.0)
    pts[~on_side, 0] = r * np.cos(theta[~on_side])
    pts[~on_side, 1] = r * np.sin(theta[~on_side])
    pts[~on_side, 2] = cap_sign * height / 2
    return pts


def _per_cloud_torus(m, rng):
    big, small = 1.0, 0.35
    pts = np.empty((m, 3))
    filled = 0
    while filled < m:
        need = m - filled
        theta = rng.uniform(0, 2 * np.pi, size=2 * need)
        phi = rng.uniform(0, 2 * np.pi, size=2 * need)
        accept = rng.random(2 * need) < (big + small * np.cos(phi)) / (big + small)
        theta, phi = theta[accept][:need], phi[accept][:need]
        got = theta.size
        ring = big + small * np.cos(phi)
        pts[filled : filled + got, 0] = ring * np.cos(theta)
        pts[filled : filled + got, 1] = ring * np.sin(theta)
        pts[filled : filled + got, 2] = small * np.sin(phi)
        filled += got
    return pts


_PER_CLOUD_SAMPLERS = {
    "sphere": _per_cloud_sphere,
    "cube": _per_cloud_cube,
    "cylinder": _per_cloud_cylinder,
    "torus": _per_cloud_torus,
}


def synth_shapes_per_cloud(classes, m, count, rng, scale_range=(0.8, 1.2)):
    """``setnet.data.synth_shapes`` built one cloud at a time: the label, the
    class's sampler, ``rotate_z`` and the scale, each cloud's points computed
    as soon as they are drawn. Oracle for the draws and the bits of the
    program's class-at-a-time build."""
    rows = np.empty((count * m, 3))
    labels = np.empty(count, dtype=np.intp)
    for i in range(count):
        labels[i] = rng.integers(0, len(classes))
        pts = _PER_CLOUD_SAMPLERS[classes[labels[i]]](m, rng)
        rows[i * m : (i + 1) * m] = rotate_z(pts, rng.uniform(0, 2 * np.pi)) * rng.uniform(*scale_range)
    members = [np.arange(i * m, (i + 1) * m) for i in range(count)]
    return LabeledSetDataset(rows, members, set_labels=labels, num_classes=len(classes))


def batch_sets(batch) -> list:
    """Each set's member rows of a ``SetBatch``, in batch order."""
    return np.split(batch.values, np.cumsum(batch.cardinalities)[:-1])


def batch_channels(batch) -> int:
    """The channel count K of a ``SetBatch``'s [M, K] values."""
    return batch.values.shape[1]


def permute_members(batch, perms):
    """``batch`` with the members of each set reordered by its index array: a
    set with member rows ``rows`` and index array ``p`` becomes ``rows[p]``,
    so its new row i is its old row ``p[i]``. Each ``p`` must be a bijection
    on the set's member positions {0, ..., n-1}."""
    if len(perms) != batch.num_sets:
        raise DimensionError("need one permutation per set")
    for b, (p, n) in enumerate(zip(perms, batch.cardinalities)):
        if not np.array_equal(np.sort(p), np.arange(n)):
            raise DimensionError(f"set {b} has {n} members, and {p!r} is not a permutation of 0..{n - 1}")
    return SetBatch(np.concatenate([s[p] for s, p in zip(batch_sets(batch), perms)]), batch.cardinalities)


def sets_of(dataset) -> list:
    """Each set's member rows, gathered from the dataset's row pool."""
    return [dataset.rows[m] for m in dataset.members]


def per_set(dataset, per_row: np.ndarray) -> list:
    """A per-row array (member labels or mask) split into one array per set."""
    return [per_row[m] for m in dataset.members]


def peak_bytes(fn, *args):
    """(``fn(*args)``, the most memory traced by ``tracemalloc`` above what
    was allocated when the call began)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def permutation_matrices(n: int):
    """All n! permutation matrices, identity first: an oracle for the
    generator checks in ``setnet.theorem``. The matrix of an index array
    ``p`` is ``np.eye(n)[p]``, so that ``M @ x == x[p]``."""
    for mapping in itertools.permutations(range(n)):
        yield np.eye(n)[list(mapping)]


def transposition_matrices(n: int) -> list:
    """The n(n-1)/2 transposition matrices (they generate the whole group)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            mapping = np.arange(n)
            mapping[i], mapping[j] = j, i
            out.append(np.eye(n)[mapping])
    return out


def commutant_basis_svd(n: int) -> list:
    """Orthonormal basis of {Theta : Theta P = P Theta for all transpositions P},
    as [n, n] matrices: the null space, by SVD, of the linear constraints
    Theta P - P Theta = 0 stacked for every transposition, with singular
    values below 1e-8 times the largest taken as zero. Floating-point oracle
    for ``setnet.theorem.commutant_orbits``; about n^4/2 rows, so n <= 7."""
    # the linear map Theta -> Theta P - P Theta on row-major vec(Theta), one
    # matrix row per output entry: vec(Theta P) = (I kron P^T) vec(Theta) and
    # vec(P Theta) = (P kron I) vec(Theta)
    eye = np.eye(n)
    system = np.vstack([np.kron(eye, p.T) - np.kron(p, eye) for p in transposition_matrices(n)])
    _, svals, vt = np.linalg.svd(system)
    null_dim = int(np.sum(svals <= 1e-8 * svals[0])) + (n * n - len(svals))
    return [row.reshape(n, n) for row in vt[len(vt) - null_dim :]]


def tied_weight_matrix(lam: float, gam: float, n: int) -> np.ndarray:
    """lam on the diagonal plus gam everywhere: the two-parameter family."""
    return lam * np.eye(n) + gam * np.ones((n, n))


def exact_sum_distribution(label_frequencies: np.ndarray, n: int) -> np.ndarray:
    """Distribution of the sum of n independent digit draws with the given
    per-digit frequencies, by direct convolution. Oracle for set builders."""
    freq = np.asarray(label_frequencies, dtype=np.float64)
    freq = freq / freq.sum()
    dist = np.array([1.0])
    for _ in range(n):
        dist = np.convolve(dist, freq)
    return dist


def add(a, b):
    """``a + b`` as an ``add`` node; ``b`` may be a node or a constant."""
    b = a._coerce(b)
    return a.tape._record("add", (a, b), fwd=np.add, vjps=(
        lambda g, pv, out: ad._unbroadcast(g, pv[0].shape), lambda g, pv, out: ad._unbroadcast(g, pv[1].shape)))


def sub(a, b):
    """``a - b`` as a ``sub`` node; ``b`` may be a node or a constant."""
    b = a._coerce(b)
    return a.tape._record("sub", (a, b), fwd=np.subtract, vjps=(
        lambda g, pv, out: ad._unbroadcast(g, pv[0].shape), lambda g, pv, out: ad._unbroadcast(-g, pv[1].shape)))


def repeat(x, cards):
    """Each set's row of node ``x`` once per member, [B, K] -> [M, K], as a
    ``repeat`` node: the vjp of ``segment_sum`` and vice versa."""
    if x.value.shape[0] != len(cards):
        raise DimensionError(f"repeat: {x.value.shape[0]} rows for {len(cards)} sets")
    bounds, size = ad._segments(cards, int(np.sum(cards)))
    return x.tape._record("repeat", (x,), fwd=lambda a: np.repeat(a, cards, axis=0),
                          vjps=(lambda g, pv, out: ad._per_set(np.add.reduce, g, bounds, size),))


def sum_axis(x, axis):
    """The sum of node ``x`` over ``axis``, kept with length 1, as a node."""
    return x.tape._record("sum_axis", (x,), fwd=lambda a: np.sum(a, axis=axis, keepdims=True),
                          vjps=(lambda g, pv, out: np.broadcast_to(g, pv[0].shape).copy(),))


def pow_const(x, p):
    """Node ``x`` to the constant power ``p``, as a node."""
    return x.tape._record("pow_const", (x,), fwd=lambda a: np.power(a, p),
                          vjps=(lambda g, pv, out: g * p * np.power(pv[0], p - 1.0),))


def normalize_sets_chain(x, cards, eps):
    """``autodiff.normalize_sets`` as the chain of generic nodes that
    ``NormalizeSets`` recorded before it became one node: the oracle for that
    node's values and gradients, bit for bit."""
    tape, k = x.tape, x.value.shape[1]
    inv_n = tape.constant(1.0 / cards.astype(np.float64)[:, None])
    centered = sub(x, repeat(x.segment_sum(cards) * inv_n, cards))
    var = sum_axis((centered * centered).segment_sum(cards), 1) * inv_n * (1.0 / k)  # [B, 1]
    # widened to [B, K] before it goes to the members, so the gradient of
    # the deviation adds each channel over the members, then the channels
    inv_std = pow_const(add(var, eps), -0.5) * tape.constant(np.ones((1, k)))
    return centered * repeat(inv_std, cards)


def masked_mse_chain(pred, targets, mask):
    """``autodiff.masked_mse`` as the chain of generic nodes it replaced: the
    oracle for that node's value and gradient, bit for bit."""
    tape = pred.tape
    diff = sub(pred, tape.constant(targets[:, None])) * tape.constant(mask[:, None])
    return (diff * diff).sum_all() * (1.0 / float(mask.sum()))


def evaluate_whole(module, batch, **options):
    """``layers.evaluate`` as one forward pass over the whole batch, however
    many member rows it has: the oracle for the values of its pieces."""
    tape = ad.Tape()
    bound = {p.name: tape.constant(p.value) for p in module.params()}
    return module.apply(tape, tape.constant(batch.values), batch.cardinalities, bound, **options).value


def composite_pre_activation(layer, x, cards, bound):
    """The pre-activation of an ``EquivariantLayer`` or a ``Dense`` layer
    built from the unfused nodes (``segment_max``, ``repeat``, ``sub``,
    ``matmul`` and ``add``), as the layers recorded it before each became one
    fused node. Oracle for the fused nodes' values and gradients."""
    if hasattr(layer, "w"):  # Dense
        return add(x @ bound[layer.w.name], bound[layer.b.name])
    return add(sub(x, repeat(x.segment_max(cards), cards)) @ bound[layer.gam.name], bound[layer.beta.name])


def nonlinearity(x, fn):
    """``fn`` of node ``x`` as a node of its own, ``nl_<fn>``, as the layers
    recorded their activations before each was fused into the layer's node.
    Oracle, with ``composite_pre_activation``, for the fused nodes."""
    if fn == "identity":
        return x

    def vjp(g, pv, out):
        d = T.elementwise_grad(pv[0], fn, out)
        d *= g  # a new array, and d * g has the bits of g * d
        return d

    return x.tape._record(f"nl_{fn}", (x,), fwd=lambda a: T.elementwise(a, fn), vjps=(vjp,))


def elu_inputs(node):
    """The pre-activation of a recorded node with elu fused in; None for any
    other node."""
    if node.activation is None or node.activation[0] != "elu":
        return None
    return node.activation[1]


def elu_where(x):
    """elu (alpha=1) as the ``np.where`` of its two branches: the expression
    ``tensor.elementwise`` must match bit for bit."""
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def elu_grad_where(x):
    """elu's derivative as the ``np.where`` of its two branches: the
    expression ``tensor.elementwise_grad`` must match bit for bit."""
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def count_params(params) -> int:
    return int(sum(p.size for p in params))


@dataclass
class GradientCheckReport:
    tolerance: float
    step: float
    max_rel_error: float = 0.0
    entries_checked: int = 0
    entries_flagged: int = 0  # probes at a max tie or across elu's kink, excluded
    failures: list = field(default_factory=list)

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


def max_winners(node):
    """The member rows that won the per-set maxima inside a recorded node, as
    [sets, channels] row indices (the lowest index on ties); None for a node
    without a max. They are read off the node's vjp for its first parent x:
    ``segment_max``'s, applied to ones, is one at the winning rows and zero
    elsewhere. ``max_centred_affine``'s is ``g Gamma^T`` less each set's column
    sums of it at the winning rows; with ``g`` ones and Gamma the identity that
    is ``1 - n`` there, for a set of n members, and 1 elsewhere."""
    if node.op == "segment_max":
        x = node.parents[0].value
        won = node.vjps[0](np.ones(node.value.shape), (x,), node.value) != 0.0
    elif node.op == "max_centred_affine":
        x = node.parents[0].value
        won = node.vjps[0](np.ones(x.shape), (x, np.eye(x.shape[1]), None), node.value) != 1.0
    else:
        return None
    # one winner per (set, channel): channel by channel, the sets' rows in order
    won = won.reshape(len(won), -1)  # a vector is one channel
    return np.nonzero(won.T)[1].reshape(won.shape[1], -1).T


def elu_branches_differ(a, b) -> bool:
    """Whether an entry of two probes' inputs to one elu node is above 0 in
    one and at or below 0 in the other."""
    return bool(np.any((a > 0) != (b > 0)))


def gradient_check(build, values, step: float = 1e-5, tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare ``autodiff.backward`` against central finite differences of
    ``build``, entry by entry of each variable in ``values`` (name -> array),
    as the module docstring describes. An entry fails when its relative error
    (absolute below a gradient scale of 1e-6) exceeds ``tolerance``, or when
    its central difference or analytic gradient is not finite."""
    if step <= 0:
        raise ContractError("step must be positive")

    def run(name=None, moved=None):
        tape = ad.Tape()
        variables = {n: tape.variable(moved if n == name else v, n) for n, v in values.items()}
        return tape, build(tape, variables)

    def probe(name, moved):
        """The probe's root value, the winners of its max nodes and the inputs of its elus."""
        try:
            tape, root = run(name, moved)
        except NumericError:
            return np.nan, None, None
        return (float(root.value), [w for w in map(max_winners, tape.nodes) if w is not None],
                [x for x in map(elu_inputs, tape.nodes) if x is not None])

    tape, root = run()
    if root.value.shape != ():
        raise ContractError("gradient_check root must be scalar")
    analytic = ad.backward(tape, root)
    report = GradientCheckReport(tolerance=tolerance, step=step)
    for name, value in values.items():
        worst = 0.0
        base = np.asarray(value, dtype=np.float64)
        for j in range(base.size):
            plus = base.copy()
            minus = base.copy()
            plus.flat[j] += step
            minus.flat[j] -= step
            (f_p, won_p, elu_p), (f_m, won_m, elu_m) = probe(name, plus), probe(name, minus)
            if won_p is not None and won_m is not None and (
                any(not np.array_equal(p, m) for p, m in zip(won_p, won_m))
                or any(elu_branches_differ(p, m) for p, m in zip(elu_p, elu_m))
            ):
                report.entries_flagged += 1
                continue
            fd = (f_p - f_m) / (2.0 * step)
            ad_j = float(analytic[name].flat[j])
            scale = max(abs(ad_j), abs(fd))
            # below the scale floor the comparison degenerates to absolute
            err = abs(ad_j - fd) / scale if scale > 1e-6 else abs(ad_j - fd)
            if not (np.isfinite(fd) and np.isfinite(ad_j)):
                err = np.inf
            worst = max(worst, err)
            report.entries_checked += 1
            if err > tolerance:
                report.failures.append(f"{name}[{j}]: analytic {ad_j:.6e} vs central-difference {fd:.6e} (rel {err:.3e})")
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
