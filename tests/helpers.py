"""Writers and oracles the tests share: each writes a file that a ``setnet.data``
loader reads back, or computes a reference value independently of setnet."""

import csv
import struct
import tracemalloc

import numpy as np

from setnet.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS


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


def count_params(params) -> int:
    return int(sum(p.size for p in params))
