"""Dataset ingestion and set construction.

Real sources: MNIST IDX files, OFF triangle meshes (including the ModelNet
dialect where the header and the counts share the first line), and CSV
catalogs of clustered records. Every experiment also has a synthetic
generator so the full pipeline runs offline at desk scale: template digits,
analytic shape surfaces, and clusters whose per-member target is a latent
shared by the whole set.

All builders are deterministic given their rng.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateMeshError, DimensionError, FormatError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


# --- labeled set datasets -----------------------------------------------------


@dataclass
class LabeledSetDataset:
    """Sets over one pool of member rows, with either one label per set or per-member targets.

    ``rows`` [R, K] holds the member rows and ``members[i]`` the row indices
    of set i, in member order, so sets drawn from a pool of images copy none
    of them and a subset shares its parent's rows. Per-member targets have
    one entry per row: ``member_labels`` holds a target for every row and
    ``member_mask`` marks the rows whose labels are observed (available to
    training); synthetic generators keep the full ground truth so evaluation
    can score every member. ``observed_only`` marks a dataset whose
    unobserved members have no ground truth, such as an ingested catalog:
    evaluation scores only its observed members.
    """

    rows: np.ndarray  # [R, K] float64
    members: List[np.ndarray]  # per set, intp indices into rows
    set_labels: Optional[np.ndarray] = None  # int per set
    num_classes: Optional[int] = None
    member_labels: Optional[np.ndarray] = None  # [R] float per row
    member_mask: Optional[np.ndarray] = None  # [R] bool per row
    observed_only: bool = False  # unobserved members carry a placeholder label

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise DimensionError(f"member rows must be [R, K], got shape {self.rows.shape}")
        if self.rows.shape[1] < 1:
            raise DimensionError(f"sets need at least one channel, the rows have shape {self.rows.shape}")
        if not self.members:
            raise DimensionError("dataset needs at least one set")
        self.members = [np.asarray(m, dtype=np.intp) for m in self.members]
        for i, m in enumerate(self.members):
            if m.ndim != 1 or m.size < 1:
                raise DimensionError(f"set {i} needs a non-empty 1-D array of row indices, got shape {m.shape}")
        flat = np.concatenate(self.members)
        if flat.min() < 0 or flat.max() >= self.rows.shape[0]:
            raise DimensionError(f"a set indexes a row outside 0..{self.rows.shape[0] - 1}")
        if self.set_labels is not None:
            self.set_labels = np.asarray(self.set_labels, dtype=np.intp)
            if self.set_labels.shape != (len(self.members),):
                raise DimensionError("need one label per set")
            if self.num_classes is not None and (
                self.set_labels.min() < 0 or self.set_labels.max() >= self.num_classes
            ):
                raise DimensionError("set label out of class range")
        if (self.member_labels is None) != (self.member_mask is None):
            raise DimensionError("member labels and mask must come together")
        if self.member_labels is not None:
            self.member_labels = np.asarray(self.member_labels, dtype=np.float64)
            self.member_mask = np.asarray(self.member_mask, dtype=bool)
            if self.member_labels.shape != self.rows.shape[:1] or self.member_mask.shape != self.rows.shape[:1]:
                raise DimensionError("member labels/mask must be one per member row")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def channels(self) -> int:
        return self.rows.shape[1]

    def subset(self, indices: Sequence[int]) -> "LabeledSetDataset":
        """The sets at ``indices``, over the same rows."""
        idx = list(indices)
        return replace(
            self,
            members=[self.members[i] for i in idx],
            set_labels=None if self.set_labels is None else self.set_labels[idx],
        )


# --- MNIST IDX ------------------------------------------------------------------


def _read_exact(fh, nbytes: int, path, what: str) -> bytes:
    """The next ``nbytes``; a size the file cannot hold is refused before any allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise FormatError(f"{path}: truncated: {what} needs {nbytes} bytes, {left} remain at byte offset {fh.tell()}")
    return fh.read(nbytes)


def load_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file -> float array [count, rows, cols] in [0, 1]."""
    with open(path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, path, "header"))
        if magic != IDX_MAGIC_IMAGES:
            raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte offset 0 (expected 0x{IDX_MAGIC_IMAGES:08x})")
        raw = _read_exact(fh, count * rows * cols, path, "pixel data")
        extra = fh.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after pixel data at byte offset {16 + count * rows * cols}")
    try:  # zero images of a declared size too large for any array
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot hold {count} images of {rows}x{cols} pixels") from exc
    out = arr.astype(np.float64)
    out /= 255.0  # in place: the same bits as a division into a new array
    return out


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, count = struct.unpack(">II", _read_exact(fh, 8, path, "header"))
        if magic != IDX_MAGIC_LABELS:
            raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte offset 0 (expected 0x{IDX_MAGIC_LABELS:08x})")
        raw = _read_exact(fh, count, path, "label data")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after label data at byte offset {8 + count}")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.intp)


def load_mnist_idx(images_path, labels_path) -> Tuple[np.ndarray, np.ndarray]:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"image count {images.shape[0]} != label count {labels.shape[0]}")
    return images, labels


# --- digit-sum sets --------------------------------------------------------------


def split_instance_indices(count: int, train_fraction: float, rng: np.random.Generator):
    """Disjoint source-instance pools, so no image appears in both splits."""
    order = rng.permutation(count)
    cut = int(round(count * train_fraction))
    return order[:cut], order[cut:]


def build_sum_sets(
    images: np.ndarray,
    labels: np.ndarray,
    n: int,
    count: int,
    rng: np.random.Generator,
    pool: Optional[np.ndarray] = None,
) -> LabeledSetDataset:
    """Sets of n flattened images labeled by the sum of their digits.

    The dataset's rows are the flattened images themselves (a view when
    ``images`` is a C-ordered float64 array) and each set holds the indices
    of its images, so sets built from one image array share it. Individual
    digit labels are not retained. ``pool`` restricts sampling to a subset of
    source indices (used to keep train/validation disjoint).
    """
    if n < 1:
        raise DimensionError("set size must be >= 1")
    images = np.asarray(images, dtype=np.float64)
    flat = images.reshape(images.shape[0], -1)
    labels = np.asarray(labels)
    pool = np.arange(flat.shape[0]) if pool is None else np.asarray(pool)
    if n > pool.size:
        raise DimensionError(f"set size {n} exceeds the {pool.size} images it is drawn from")
    members = []
    sums = np.empty(count, dtype=np.intp)
    for i in range(count):
        idx = pool[rng.choice(pool.size, size=n, replace=False)]
        members.append(idx)
        sums[i] = int(labels[idx].sum())
    return LabeledSetDataset(flat, members, set_labels=sums, num_classes=9 * n + 1)


_DIGIT_BLOCK = 1024  # images per block of templates added to the noise


def synth_digits(
    count: int,
    rng: np.random.Generator,
    styles_per_class: int = 4,
    noise: float = 0.2,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic digit stand-ins with real class structure.

    Each class is a random binary coarse pattern (well separated from the
    other classes); styles are jittered variants of the class pattern, so a
    class forms a coherent cluster the way handwriting styles do. Patterns
    are upsampled to smooth blobs and pixel noise is added per sample.
    Returns (images [count, 28, 28] in [0, 1], labels).
    """
    coarse, side = 7, 28
    base = (rng.random((10, 1, coarse, coarse)) > 0.5).astype(np.float64)
    jitter = 0.35 * rng.standard_normal((10, styles_per_class, coarse, coarse))
    templates = np.clip(base + jitter, 0.0, 1.0)
    # bilinear upsample the coarse grids into smooth blobs
    xs = np.linspace(0, coarse - 1, side)
    i0 = np.floor(xs).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    frac = xs - i0
    up = (
        templates[:, :, i0][:, :, :, i0] * (1 - frac)[None, None, :, None] * (1 - frac)[None, None, None, :]
        + templates[:, :, i1][:, :, :, i0] * frac[None, None, :, None] * (1 - frac)[None, None, None, :]
        + templates[:, :, i0][:, :, :, i1] * (1 - frac)[None, None, :, None] * frac[None, None, None, :]
        + templates[:, :, i1][:, :, :, i1] * frac[None, None, :, None] * frac[None, None, None, :]
    )
    labels = rng.integers(0, 10, size=count)
    styles = rng.integers(0, styles_per_class, size=count)
    # the images are built in the noise array, a block of templates at a time,
    # so no second [count, side, side] array is made; template + noise is
    # noise + template bit for bit
    imgs = rng.standard_normal((count, side, side))
    imgs *= noise
    for start in range(0, count, _DIGIT_BLOCK):
        block = slice(start, start + _DIGIT_BLOCK)
        imgs[block] += up[labels[block], styles[block]]
    return np.clip(imgs, 0.0, 1.0, out=imgs), labels.astype(np.intp)


# --- meshes and point clouds ------------------------------------------------------


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # [V, 3]
    faces: np.ndarray  # [F, 3] int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise FormatError("mesh vertices must be [V, 3]")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise FormatError("mesh faces must be [F, 3]")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise FormatError("face index out of range")
        if not np.any(self.face_areas() > 0.0):
            raise DegenerateMeshError("mesh has no face with positive area")

    def face_areas(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _read_text(path, newline=None) -> str:
    """The whole file as UTF-8 text; any other bytes raise ``FormatError``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_off(path) -> TriangleMesh:
    """Parse an ASCII OFF mesh, tolerating the dialect where the counts share
    the header line (with or without a space after "OFF"). Faces with more
    than three vertices are fan-triangulated; unknown trailing tokens on
    vertex or face lines (e.g. per-element colors) are ignored with a warning.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in _read_text(path).split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError(f"{path}: empty file")
    head = lines[0]
    if not head.upper().startswith("OFF"):
        raise FormatError(f"{path}: missing OFF header")
    rest = head[3:].strip()
    if rest:
        counts_line, body = rest, lines[1:]
    else:
        if len(lines) < 2:
            raise FormatError(f"{path}: missing element counts")
        counts_line, body = lines[1], lines[2:]
    try:
        counts = counts_line.split()
        nv, nf = int(counts[0]), int(counts[1])  # third count (edges) unused
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed count line {counts_line!r}") from exc
    if nv < 0 or nf < 0:
        raise FormatError(f"{path}: negative element count in {counts_line!r}")
    if len(body) < nv + nf:
        raise FormatError(f"{path}: truncated, expected {nv} vertex and {nf} face lines")
    trailing = 0
    verts = np.empty((nv, 3))
    for i in range(nv):
        toks = body[i].split()
        if len(toks) < 3:
            raise FormatError(f"{path}: vertex line {i} has fewer than three coordinates")
        try:
            verts[i] = [float(t) for t in toks[:3]]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric vertex on line {i}") from exc
        trailing += len(toks) - 3
    if not np.all(np.isfinite(verts)):
        raise FormatError(f"{path}: non-finite vertex coordinate")
    faces: List[Tuple[int, int, int]] = []
    for i in range(nf):
        toks = body[nv + i].split()
        try:
            cnt = int(toks[0])
            ids = [int(t) for t in toks[1 : 1 + cnt]]
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}: malformed face on line {nv + i}") from exc
        if len(ids) != cnt or cnt < 3:
            raise FormatError(f"{path}: face on line {nv + i} declares {cnt} vertices")
        if not all(0 <= j < nv for j in ids):
            raise FormatError(f"{path}: face on line {nv + i} has a vertex index outside 0..{nv - 1}")
        trailing += len(toks) - 1 - cnt
        for k in range(1, cnt - 1):  # fan triangulation
            faces.append((ids[0], ids[k], ids[k + 1]))
    trailing += sum(len(ln.split()) for ln in body[nv + nf :])
    if trailing:
        warnings.warn(f"{path}: ignoring {trailing} trailing tokens")
    return TriangleMesh(verts, np.array(faces, dtype=np.intp))


def sample_point_cloud(mesh: TriangleMesh, m: int, rng: np.random.Generator) -> np.ndarray:
    """m surface points: faces chosen by area, uniform within each triangle."""
    if m < 1:
        raise DimensionError(f"need at least one point to sample, got {m}")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise DegenerateMeshError("mesh has zero total surface area")
    cum = np.cumsum(areas) / total
    face_idx = np.searchsorted(cum, rng.random(m), side="right")
    face_idx = np.minimum(face_idx, len(areas) - 1)
    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    r1 = np.sqrt(rng.random((m, 1)))
    r2 = rng.random((m, 1))
    return (1 - r1) * a + r1 * (1 - r2) * b + r1 * r2 * c


def rotate_z(points: np.ndarray, angle: float) -> np.ndarray:
    """Rotate [m, 3] points about the z axis."""
    ca, sa = np.cos(angle), np.sin(angle)
    rot = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    return points @ rot.T


def augment_cloud(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random z rotation then uniform rescale by s ~ U(0.8, 1/0.8)."""
    angle = rng.uniform(0.0, 2.0 * np.pi)
    s = rng.uniform(0.8, 1.0 / 0.8)
    return rotate_z(np.asarray(points, dtype=np.float64), angle) * s


def save_xyz(path, points: np.ndarray) -> None:
    """One whitespace-separated x y z line per point."""
    points = np.asarray(points, dtype=np.float64)
    with open(path, "w") as fh:
        for p in points.reshape(-1, 3):
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


# --- synthetic shape surfaces ------------------------------------------------------

SHAPE_CLASSES = ("sphere", "cube", "cylinder", "torus")

# Each shape is sampled in two steps. Its draw step makes one cloud's rng
# draws and returns them as a tuple of arrays. Its place step takes the
# draws of many clouds, each part concatenated over the clouds, and maps them
# element by element to their [points, 3] surface points.

# for a cube point on a face normal to axis a, the columns of (face sign, u, v)
# that give its x, y and z
_CUBE_COLUMNS = np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
_CYLINDER_RADIUS, _CYLINDER_HEIGHT = 0.7, 2.0
_CYLINDER_SIDE_AREA, _CYLINDER_CAP_AREA = 2 * np.pi * _CYLINDER_RADIUS * _CYLINDER_HEIGHT, np.pi * _CYLINDER_RADIUS**2
_CYLINDER_P_SIDE = _CYLINDER_SIDE_AREA / (_CYLINDER_SIDE_AREA + 2 * _CYLINDER_CAP_AREA)
_TORUS_RING, _TORUS_TUBE = 1.0, 0.35


def _draw_sphere(m, rng):
    return (rng.standard_normal((m, 3)),)


def _place_sphere(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _draw_cube(m, rng):
    # one of the six faces of [-1, 1]^3, of equal areas, then a point on it
    return rng.integers(0, 6, size=m), rng.uniform(-1.0, 1.0, size=(m, 2))


def _place_cube(face, uv):
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    return np.take_along_axis(np.column_stack((sign, uv)), _CUBE_COLUMNS[face // 2], axis=1)


def _draw_cylinder(m, rng):
    # side or cap and the angle of each point, then the height of each side
    # point and the radius and cap of each cap point
    on_side = rng.random(m) < _CYLINDER_P_SIDE
    theta = rng.uniform(0, 2 * np.pi, size=m)
    ns = int(np.count_nonzero(on_side))
    z = rng.uniform(-_CYLINDER_HEIGHT / 2, _CYLINDER_HEIGHT / 2, size=ns)
    r = rng.random(m - ns)
    cap = rng.random(m - ns)
    return on_side, theta, z, r, cap


def _place_cylinder(on_side, theta, z, r, cap):
    pts = np.empty((on_side.size, 3))
    pts[on_side, 0] = _CYLINDER_RADIUS * np.cos(theta[on_side])
    pts[on_side, 1] = _CYLINDER_RADIUS * np.sin(theta[on_side])
    pts[on_side, 2] = z
    on_cap = ~on_side
    r = _CYLINDER_RADIUS * np.sqrt(r)
    pts[on_cap, 0] = r * np.cos(theta[on_cap])
    pts[on_cap, 1] = r * np.sin(theta[on_cap])
    pts[on_cap, 2] = np.where(cap < 0.5, 1.0, -1.0) * _CYLINDER_HEIGHT / 2
    return pts


def _draw_torus(m, rng):
    # rejection on the poloidal angle phi, so the density matches the area element
    thetas, phis, filled = [], [], 0
    while filled < m:
        need = m - filled
        theta = rng.uniform(0, 2 * np.pi, size=2 * need)
        phi = rng.uniform(0, 2 * np.pi, size=2 * need)
        accept = rng.random(2 * need) < (_TORUS_RING + _TORUS_TUBE * np.cos(phi)) / (_TORUS_RING + _TORUS_TUBE)
        thetas.append(theta[accept][:need])
        phis.append(phi[accept][:need])
        filled += thetas[-1].size
    return np.concatenate(thetas), np.concatenate(phis)


def _place_torus(theta, phi):
    ring = _TORUS_RING + _TORUS_TUBE * np.cos(phi)
    return np.column_stack((ring * np.cos(theta), ring * np.sin(theta), _TORUS_TUBE * np.sin(phi)))


_SHAPE_SAMPLERS = {
    "sphere": (_draw_sphere, _place_sphere),
    "cube": (_draw_cube, _place_cube),
    "cylinder": (_draw_cylinder, _place_cylinder),
    "torus": (_draw_torus, _place_torus),
}

# the most clouds of one class whose draws are held before they are placed.
# The draws and temporaries of larger batches raised the peak RSS of a fresh
# one-epoch default pointcloud run: by about 0.7 MB for whole classes and
# 0.1-0.2 MB for 32 clouds. With 8 it did not rise.
_CLOUDS_PER_PLACE = 8


def _place_clouds(rows, clouds, place, draws, angles, scales):
    """Write the points of ``clouds``, indices into ``rows`` [count, m, 3],
    from their draws: placed on their surface, then rotated about z and
    scaled, with the bits of ``rotate_z(points, angle) * scale``."""
    pts = place(*(np.concatenate(part) for part in zip(*draws))).reshape(len(clouds), -1, 3)
    ca, sa = np.cos(angles[clouds]), np.sin(angles[clouds])
    rot = np.zeros((len(clouds), 3, 3))  # ``rotate_z``'s matrices; the product takes their transposes, as it does
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1], rot[:, 2, 2] = ca, -sa, sa, ca, 1.0
    pts = np.matmul(pts, rot.transpose(0, 2, 1))
    pts *= scales[clouds, None, None]
    rows[clouds] = pts


def synth_shapes(
    classes: Sequence[str],
    m: int,
    count: int,
    rng: np.random.Generator,
    scale_range: Tuple[float, float] = (0.8, 1.2),
) -> LabeledSetDataset:
    """Point clouds sampled from analytic surfaces, one label per cloud.

    Each cloud gets a random z rotation and uniform scale so classes are not
    separable by trivial coordinate statistics.

    The draw order is the contract that keeps every seed's data: cloud by
    cloud, the cloud's label, its class's surface draws, its rotation angle,
    then its scale. Later draws on the same generator (the validation clouds
    follow the training clouds) depend on it too. The arithmetic is not
    part of it: the clouds of a class are placed, rotated and scaled a batch
    at a time, with the same bits as one cloud at a time.
    """
    samplers = []
    for c in classes:
        if c not in _SHAPE_SAMPLERS:
            raise DimensionError(f"unknown shape class {c!r}")
        samplers.append(_SHAPE_SAMPLERS[c])
    rows = np.empty((count * m, 3))
    clouds_rows = rows.reshape(count, m, 3)
    labels = np.empty(count, dtype=np.intp)
    angles, scales = np.empty(count), np.empty(count)
    pending = [([], []) for _ in classes]  # per class: the clouds not yet placed, and their draws
    for i in range(count):
        label = labels[i] = rng.integers(0, len(classes))
        draw, place = samplers[label]
        clouds, draws = pending[label]
        clouds.append(i)
        draws.append(draw(m, rng))
        angles[i] = rng.uniform(0, 2 * np.pi)
        scales[i] = rng.uniform(*scale_range)
        if len(clouds) == _CLOUDS_PER_PLACE:
            _place_clouds(clouds_rows, clouds, place, draws, angles, scales)
            clouds.clear()
            draws.clear()
    for (clouds, draws), (_, place) in zip(pending, samplers):
        if clouds:
            _place_clouds(clouds_rows, clouds, place, draws, angles, scales)
    members = [np.arange(i * m, (i + 1) * m) for i in range(count)]
    return LabeledSetDataset(rows, members, set_labels=labels, num_classes=len(classes))


# --- cluster catalogs ----------------------------------------------------------------


def load_cluster_catalog(
    path,
    feature_columns: Sequence[str],
    label_column: str,
    mask_column: str,
    cluster_id_column: str,
) -> LabeledSetDataset:
    """Group CSV rows by cluster id into variable-cardinality sets.

    The first row is the header: it names the columns, and the columns are
    picked by those names. The mask column, 0 or 1, marks with 1 the rows
    whose label is an observed ground-truth estimate, which must exceed -1;
    other rows carry a zero label and an unset mask.
    """
    rows = list(csv.reader(io.StringIO(_read_text(path, newline=""), newline="")))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = [tok.strip() for tok in rows[0]]

    def _col(name: str, what: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise FormatError(f"{path}: missing column {name!r} ({what})") from None

    feat_idx = [_col(c, "feature") for c in feature_columns]
    label_idx = _col(label_column, "label")
    mask_idx = _col(mask_column, "mask")
    id_idx = _col(cluster_id_column, "cluster id")

    clusters: Dict[str, List[Tuple[List[float], float, bool]]] = {}
    order: List[str] = []
    for lineno, row in enumerate(rows[1:], 2):
        if not row or not any(tok.strip() for tok in row):
            continue
        needed = max(feat_idx + [label_idx, mask_idx, id_idx])
        if len(row) <= needed:
            raise FormatError(f"{path}: row {lineno} has {len(row)} columns, need {needed + 1}")
        try:
            feats = [float(row[i]) for i in feat_idx]
            mask = float(row[mask_idx])
            label = float(row[label_idx]) if mask != 0.0 else 0.0
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric cell in row {lineno}") from exc
        if not all(math.isfinite(v) for v in feats + [mask, label]):  # nan != 0.0 would mark a label
            raise FormatError(f"{path}: non-finite cell in row {lineno}")
        if mask not in (0.0, 1.0):
            raise FormatError(f"{path}:{lineno}: mask must be 0 or 1, got {row[mask_idx].strip()!r}")
        if label <= -1.0:  # the scatter metric divides by 1 + label
            raise FormatError(f"{path}:{lineno}: observed label {label!r} must exceed -1")
        cid = row[id_idx].strip()
        if cid not in clusters:
            clusters[cid] = []
            order.append(cid)
        clusters[cid].append((feats, label, mask != 0.0))

    if not order:
        raise FormatError(f"{path}: no data rows")
    records = [record for cid in order for record in clusters[cid]]  # each cluster's rows, one after another
    ends = np.cumsum([len(clusters[cid]) for cid in order])
    return LabeledSetDataset(
        np.array([r[0] for r in records], dtype=np.float64),
        [np.arange(end - len(clusters[cid]), end) for cid, end in zip(order, ends)],
        member_labels=np.array([r[1] for r in records], dtype=np.float64),
        member_mask=np.array([r[2] for r in records], dtype=bool),
        observed_only=True,
    )


def synth_clusters(
    count: int,
    size_range: Tuple[int, int],
    rng: np.random.Generator,
    labeled_fraction: float = 0.3,
    num_features: int = 17,
    informative: int = 8,
    noise: float = 0.05,
) -> LabeledSetDataset:
    """Clusters whose members share a latent level that is their target.

    Informative channels carry the latent multiplicatively: latent times a
    signed per-member factor, plus noise. A member on its own constrains the
    latent only weakly (the factor's sign and size are unknown), while the
    spread across the whole set pins it down, so set context is what makes
    the target recoverable; the remaining channels are pure distractors. The
    full ground truth is retained and ``labeled_fraction`` of members are
    marked observed.
    """
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise DimensionError("invalid size range")
    if informative > num_features:
        raise DimensionError("more informative channels than features")
    # clusters are written one after another into buffers with room for
    # ``hi`` members each, and the rows written are copied out at the end:
    # packing one array per cluster instead left its freed arrays behind as
    # heap holes, which raised the peak RSS of a default run by about 1 MB
    rows, targets, observed = np.empty((count * hi, num_features)), np.empty(count * hi), np.empty(count * hi, bool)
    members, end = [], 0
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        block = slice(end, end + n)
        members.append(np.arange(end, end + n))
        end += n
        latent = rng.uniform(0.1, 1.0)
        factors = rng.uniform(-1.0, 1.0, size=(n, informative))
        rows[block, :informative] = latent * factors + noise * rng.standard_normal((n, informative))
        rows[block, informative:] = rng.standard_normal((n, num_features - informative))
        targets[block] = latent
        observed[block] = rng.random(n) < labeled_fraction
    return LabeledSetDataset(rows[:end].copy(), members, member_labels=targets[:end].copy(),
                             member_mask=observed[:end].copy())
