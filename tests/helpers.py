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
needs nothing from the tape but its recorded nodes.
"""

import csv
import math
import struct
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from setnet import autodiff as ad
from setnet.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, _read_text
from setnet.errors import ContractError, DimensionError, FormatError, NumericError


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
    return batch.with_values(np.concatenate([s[p] for s, p in zip(batch_sets(batch), perms)]))


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


def exact_sum_distribution(label_frequencies: np.ndarray, n: int) -> np.ndarray:
    """Distribution of the sum of n independent digit draws with the given
    per-digit frequencies, by direct convolution. Oracle for set builders."""
    freq = np.asarray(label_frequencies, dtype=np.float64)
    freq = freq / freq.sum()
    dist = np.array([1.0])
    for _ in range(n):
        dist = np.convolve(dist, freq)
    return dist


def composite_pre_activation(layer, x, cards, bound):
    """The pre-activation of a ``channel_factored`` ``EquivariantLayer`` or a
    ``Dense`` layer built from the unfused nodes (``segment_max``, ``repeat``,
    ``sub``, ``matmul`` and ``add``), as the layers recorded it before each
    became one fused node. Oracle for the fused nodes' values and gradients."""
    if hasattr(layer, "w"):  # Dense
        return x @ bound[layer.w.name] + bound[layer.b.name]
    return (x - x.segment_max(cards).repeat(cards)) @ bound[layer.gam.name] + bound[layer.beta.name]


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
    entries_flagged: int = 0  # probes at non-differentiable (max-tie) points, excluded
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
        """The probe's root value and the winners of its max nodes."""
        try:
            tape, root = run(name, moved)
        except NumericError:
            return np.nan, None
        return float(root.value), [w for w in map(max_winners, tape.nodes) if w is not None]

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
            (f_p, won_p), (f_m, won_m) = probe(name, plus), probe(name, minus)
            if won_p is not None and won_m is not None and any(
                not np.array_equal(p, m) for p, m in zip(won_p, won_m)
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
