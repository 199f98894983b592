import functools
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from setnet.data import (
    SHAPE_CLASSES,
    LabeledSetDataset,
    build_sum_sets,
    load_cluster_catalog,
    load_idx_images,
    load_idx_labels,
    load_mnist_idx,
    save_xyz,
    split_instance_indices,
    synth_clusters,
    synth_digits,
    synth_shapes,
)
from setnet.errors import DimensionError, FormatError

from helpers import (
    exact_sum_distribution,
    load_xyz,
    peak_bytes,
    per_set,
    save_cluster_catalog,
    sets_of,
    synth_shapes_per_cloud,
    write_idx_images,
    write_idx_labels,
)


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        got_images, got_labels = load_mnist_idx(ip, lp)
        assert got_images.shape == (7, 28, 28)
        assert np.array_equal(got_images, images.astype(np.float64) / 255.0)
        assert np.array_equal(got_labels, labels)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.idx"
        rng = np.random.default_rng(1)
        write_idx_images(path, rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="byte offset"):
            load_idx_images(path)

    @pytest.mark.parametrize("kind", ["images", "labels"])
    def test_trailing_bytes(self, tmp_path, kind):
        path = tmp_path / "extra.idx"
        if kind == "images":
            write_idx_images(path, np.zeros((3, 2, 2), dtype=np.uint8))
            load, what, end = load_idx_images, "pixel", 16 + 12
        else:
            write_idx_labels(path, np.array([1, 2, 3]))
            load, what, end = load_idx_labels, "label", 8 + 3
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match=f"trailing bytes after {what} data at byte offset {end}"):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            load_idx_images(path)

    def test_header_larger_than_file(self, tmp_path):
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 7)
        with pytest.raises(FormatError, match=f"needs {0xFFFFFFFF ** 3} bytes, 7 remain"):
            load_idx_images(images)
        labels.write_bytes(struct.pack(">II", 0x801, 1000) + b"\x01" * 10)
        with pytest.raises(FormatError, match="needs 1000 bytes, 10 remain"):
            load_idx_labels(labels)

    def test_zero_images_of_unrepresentable_size(self, tmp_path):
        path = tmp_path / "i.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 0, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(FormatError, match="cannot hold 0 images"):
            load_idx_images(path)

    def test_pixels_are_scaled_in_place(self, tmp_path):
        # the float64 pixels are the one array made at their size: the raw bytes are all it adds.
        # 40 images stay under the 256 KiB from which numpy may reuse a temporary's buffer for
        # ``a.astype(float) / 255``, so a division into a new array would show here
        path = tmp_path / "images.idx"
        raw = np.random.default_rng(0).integers(0, 256, size=(40, 28, 28)).astype(np.uint8)
        write_idx_images(path, raw)
        images, peak = peak_bytes(load_idx_images, path)
        assert np.array_equal(images, raw.astype(np.float64) / 255.0)
        assert peak <= images.nbytes + raw.nbytes + 4096

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
        with pytest.raises(FormatError):
            load_mnist_idx(ip, lp)


class TestSumSets:
    def test_label_is_sum(self):
        images = np.zeros((3, 2, 2))
        labels = np.array([3, 1, 4])
        rng = np.random.default_rng(0)
        ds = build_sum_sets(images, labels, n=3, count=5, rng=rng)
        assert all(lab == 8 for lab in ds.set_labels)

    def test_set_larger_than_pool_refused(self):
        with pytest.raises(DimensionError, match="set size 3 exceeds the 2 images"):
            build_sum_sets(np.zeros((5, 2, 2)), np.arange(5), n=3, count=1, rng=np.random.default_rng(0),
                           pool=np.array([0, 4]))

    def test_labels_bounded_by_9n(self):
        rng = np.random.default_rng(1)
        images, labels = synth_digits(500, rng)
        ds = build_sum_sets(images, labels, n=3, count=300, rng=rng)
        assert ds.num_classes == 28
        assert ds.set_labels.min() >= 0
        assert ds.set_labels.max() <= 27

    def test_individual_labels_not_retained(self):
        rng = np.random.default_rng(2)
        images, labels = synth_digits(50, rng)
        ds = build_sum_sets(images, labels, n=2, count=10, rng=rng)
        assert ds.member_labels is None

    def test_histogram_matches_exact_convolution(self):
        # oracle: label frequencies convolved n times give the sum distribution
        rng = np.random.default_rng(3)
        images, labels = synth_digits(4000, rng)
        freq = np.bincount(labels, minlength=10).astype(np.float64)
        want = exact_sum_distribution(freq, n=3)
        ds = build_sum_sets(images, labels, n=3, count=10_000, rng=rng)
        observed = np.bincount(ds.set_labels, minlength=28).astype(np.float64)
        expected = want * 10_000
        keep = expected > 5  # chi-square validity
        chi = stats.chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum())
        assert chi.pvalue > 0.01

    def test_split_pools_are_disjoint(self):
        rng = np.random.default_rng(4)
        train_pool, val_pool = split_instance_indices(100, 0.8, rng)
        assert len(train_pool) == 80 and len(val_pool) == 20
        assert not set(train_pool) & set(val_pool)
        assert sorted(np.concatenate([train_pool, val_pool])) == list(range(100))

    def test_deterministic_given_seed(self):
        images, labels = synth_digits(200, np.random.default_rng(9))
        a = build_sum_sets(images, labels, 3, 20, np.random.default_rng(5))
        b = build_sum_sets(images, labels, 3, 20, np.random.default_rng(5))
        assert np.array_equal(a.set_labels, b.set_labels)
        assert all(np.array_equal(x, y) for x, y in zip(a.members, b.members))
        assert all(np.array_equal(x, y) for x, y in zip(sets_of(a), sets_of(b)))


class TestSynthDigits:
    def test_shapes_and_range(self):
        images, labels = synth_digits(64, np.random.default_rng(0))
        assert images.shape == (64, 28, 28)
        assert labels.shape == (64,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert set(np.unique(labels)) <= set(range(10))

    def test_images_are_c_contiguous(self):
        # build_sum_sets flattens the images; in C order that is a view, not a copy
        images, _ = synth_digits(64, np.random.default_rng(0), styles_per_class=3)
        assert images.flags.c_contiguous
        assert np.shares_memory(images.reshape(len(images), -1), images)

    def test_images_are_built_in_the_noise_array(self):
        # no second array of the images' size: templates are added to the noise a block at a time
        (images, _), peak = peak_bytes(synth_digits, 6000, np.random.default_rng(0))
        assert peak <= 1.25 * images.nbytes

    def test_class_structure_is_learnable(self):
        # same-class noisy samples sit closer to their class mean than to others
        rng = np.random.default_rng(1)
        images, labels = synth_digits(2000, rng, noise=0.15)
        flat = images.reshape(len(images), -1)
        means = np.stack([flat[labels == c].mean(axis=0) for c in range(10)])
        d = ((flat[:, None, :] - means[None]) ** 2).sum(axis=2)
        nearest = d.argmin(axis=1)
        assert (nearest == labels).mean() > 0.95


class TestXyz:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(9, 3))
        path = tmp_path / "pts.xyz"
        save_xyz(path, pts)
        assert np.array_equal(load_xyz(path), pts)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0\n")
        with pytest.raises(FormatError):
            load_xyz(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0 3.0\n1.0 two 3.0\n")
        with pytest.raises(FormatError, match=":2: non-numeric"):
            load_xyz(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_coordinate(self, tmp_path, token):
        path = tmp_path / "inf.xyz"
        path.write_text(f"1.0 {token} 3.0\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_xyz(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "empty.xyz"
        path.write_text(text)
        with pytest.raises(FormatError, match="no points"):
            load_xyz(path)


CATALOG_HEADER = b"cluster_id,f0,target,has_target\n"


@pytest.mark.parametrize(
    "load, text",
    [
        (load_xyz, b"1.0 2.0 3.0\n1.0 \xff 3.0\n"),
        (lambda path: load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id"),
         CATALOG_HEADER + b"a,1.0,0.5,1\na,\xff,0.5,1\n"),
    ],
    ids=["xyz", "catalog"],
)
def test_non_utf8_file_raises_format_error(tmp_path, load, text):
    path = tmp_path / "bad"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}: not UTF-8")):
        load(path)


class TestSynthShapes:
    def test_labels_and_shapes(self):
        ds = synth_shapes(["sphere", "cube"], m=50, count=12, rng=np.random.default_rng(0))
        assert len(ds) == 12
        assert ds.num_classes == 2
        assert all(s.shape == (50, 3) for s in sets_of(ds))

    def test_sphere_points_on_unit_sphere_before_scaling(self):
        ds = synth_shapes(["sphere"], m=200, count=3, rng=np.random.default_rng(1), scale_range=(1.0, 1.0))
        for s in sets_of(ds):
            assert np.allclose(np.linalg.norm(s, axis=1), 1.0)

    def test_torus_radii_in_band(self):
        ds = synth_shapes(["torus"], m=400, count=2, rng=np.random.default_rng(2), scale_range=(1.0, 1.0))
        for s in sets_of(ds):
            ring = np.hypot(s[:, 0], s[:, 1])
            assert np.all(ring >= 0.65 - 1e-9) and np.all(ring <= 1.35 + 1e-9)
            assert np.all(np.abs(s[:, 2]) <= 0.35 + 1e-9)

    def test_cube_points_on_the_faces_before_scaling(self):
        # a z rotation keeps z and the distance from the z axis: a point on a
        # top or bottom face has |z| = 1, a point on a side face is at least
        # 1 from the axis
        ds = synth_shapes(["cube"], m=400, count=3, rng=np.random.default_rng(3), scale_range=(1.0, 1.0))
        for s in sets_of(ds):
            ring, z = np.hypot(s[:, 0], s[:, 1]), np.abs(s[:, 2])
            on_cap = np.abs(z - 1.0) <= 1e-12
            assert np.all(on_cap | (ring >= 1.0 - 1e-12))
            assert np.all(z <= 1.0 + 1e-12)
            assert on_cap.any() and not on_cap.all()

    def test_cylinder_points_on_side_or_cap_before_scaling(self):
        ds = synth_shapes(["cylinder"], m=400, count=3, rng=np.random.default_rng(4), scale_range=(1.0, 1.0))
        for s in sets_of(ds):
            ring, z = np.hypot(s[:, 0], s[:, 1]), np.abs(s[:, 2])
            side = (np.abs(ring - 0.7) <= 1e-12) & (z <= 1.0 + 1e-12)
            cap = (np.abs(z - 1.0) <= 1e-12) & (ring <= 0.7 + 1e-12)
            assert np.all(side | cap)
            assert side.any() and cap.any()

    def test_unknown_class(self):
        with pytest.raises(DimensionError):
            synth_shapes(["pyramid"], 10, 2, np.random.default_rng(0))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 130),
        count=st.integers(1, 40),
        classes=st.permutations(SHAPE_CLASSES).flatmap(lambda p: st.integers(1, len(p)).map(lambda k: p[:k])),
        scale_range=st.one_of(
            st.just((0.8, 1.2)),
            st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 2.0)).map(lambda lw: (lw[0], lw[0] + lw[1])),
        ),
    )
    def test_same_bits_and_draws_as_one_cloud_at_a_time(self, seed, m, count, classes, scale_range):
        # the rows, labels and members of the per-cloud build, and the
        # generator left where it leaves it: the validation clouds and any
        # later data are drawn from the same generator
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth_shapes(classes, m, count, rng, scale_range)
        want = synth_shapes_per_cloud(classes, m, count, oracle_rng, scale_range)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert np.array_equal(got.set_labels, want.set_labels)
        assert len(got.members) == len(want.members)
        assert all(np.array_equal(a, b) for a, b in zip(got.members, want.members))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestClusterCatalog:
    def test_synthetic_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = synth_clusters(5, (3, 8), rng, labeled_fraction=0.5, num_features=4, informative=2)
        path = tmp_path / "catalog.csv"
        save_cluster_catalog(path, ds)
        loaded = load_cluster_catalog(
            path,
            feature_columns=[f"f{i}" for i in range(4)],
            label_column="target",
            mask_column="has_target",
            cluster_id_column="cluster_id",
        )
        assert len(loaded) == len(ds)
        for a, b in zip(sets_of(ds), sets_of(loaded)):
            assert np.array_equal(a, b)
        for ma, mb in zip(per_set(ds, ds.member_mask), per_set(loaded, loaded.member_mask)):
            assert np.array_equal(ma, mb)
        for ya, yb, m in zip(per_set(ds, ds.member_labels), per_set(loaded, loaded.member_labels),
                             per_set(ds, ds.member_mask)):
            assert np.array_equal(ya[m], yb[m])  # observed labels round-trip

    def test_cardinalities_example(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "cluster_id,f0,target,has_target\n"
            + "".join(f"a,{i}.0,0.5,1\n" for i in range(3))
            + "".join(f"b,{i}.0,0.25,0\n" for i in range(5))
        )
        ds = load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id")
        assert [m.size for m in ds.members] == [3, 5]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("cluster_id,f0\na,1.0\n")
        with pytest.raises(FormatError, match="missing column"):
            load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("cluster_id,f0,target,has_target\na,1.0,0.5,1\na,oops,0.5,1\n")
        with pytest.raises(FormatError, match="row 3"):
            load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["feature", "label", "mask"])
    def test_non_finite_cell_reports_row(self, tmp_path, token, column):
        # a non-finite mask is not 0.0, so it would otherwise mark the label observed
        cells = {"feature": "1.0", "label": "0.5", "mask": "1", column: token}
        path = tmp_path / "f.csv"
        path.write_text(f"cluster_id,f0,target,has_target\na,1.0,0.5,1\na,{cells['feature']},{cells['label']},"
                        f"{cells['mask']}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: non-finite cell in row 3")):
            load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id")

    @pytest.mark.parametrize("mask", ["0.3", "-1", "2"])
    def test_mask_other_than_0_or_1_is_refused(self, tmp_path, mask):
        path = tmp_path / "m.csv"
        path.write_text(f"id,f1,z,m\na,1,0.5,1\na,2,0.25,{mask}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: mask must be 0 or 1, got '{mask}'")):
            load_cluster_catalog(path, ["f1"], "z", "m", "id")

    def test_mask_written_as_float_is_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1,z,m\na,1,0.5,1.0\na,2,0.25,0.0\n")
        ds = load_cluster_catalog(path, ["f1"], "z", "m", "id")
        assert ds.member_mask.tolist() == [True, False] and ds.member_labels.tolist() == [0.5, 0.0]

    def test_headerless_catalog_refused(self, tmp_path):
        # the first row is always the header, so a file without one names no column
        path = tmp_path / "idx.csv"
        path.write_text("7,1.5,0.5,1\n7,2.5,0.0,0\n")
        with pytest.raises(FormatError, match="missing column 'f0'"):
            load_cluster_catalog(path, ["f0"], "target", "has_target", "cluster_id")

    def test_no_feature_columns_refused(self, tmp_path):
        path = tmp_path / "catalog.csv"
        save_cluster_catalog(path, synth_clusters(3, (2, 4), np.random.default_rng(0)))
        with pytest.raises(DimensionError, match="at least one channel"):
            load_cluster_catalog(path, [], "target", "has_target", "cluster_id")


class TestSynthClusters:
    def test_structure(self):
        ds = synth_clusters(10, (4, 9), np.random.default_rng(0))
        assert len(ds) == 10
        assert all(4 <= s.shape[0] <= 9 for s in sets_of(ds))
        assert all(s.shape[1] == 17 for s in sets_of(ds))
        for y in per_set(ds, ds.member_labels):
            assert np.all(y == y[0])  # shared latent target per cluster
            assert 0.1 <= y[0] <= 1.0

    def test_labeled_fraction_rate(self):
        ds = synth_clusters(60, (20, 30), np.random.default_rng(1), labeled_fraction=0.3)
        frac = np.mean(ds.member_mask)
        assert 0.25 < frac < 0.35

    def test_deterministic(self):
        a = synth_clusters(4, (3, 5), np.random.default_rng(2))
        b = synth_clusters(4, (3, 5), np.random.default_rng(2))
        assert all(np.array_equal(x, y) for x, y in zip(sets_of(a), sets_of(b)))


class TestLabeledSetDataset:
    def test_validation(self):
        with pytest.raises(DimensionError):
            LabeledSetDataset(np.zeros(6), [np.arange(2)])
        with pytest.raises(DimensionError):
            LabeledSetDataset(np.zeros((2, 3)), [np.arange(2)], set_labels=np.array([0, 1]))
        with pytest.raises(DimensionError, match="at least one channel"):
            LabeledSetDataset(np.zeros((2, 0)), [np.arange(2)])
        with pytest.raises(DimensionError, match="at least one set"):
            LabeledSetDataset(np.zeros((2, 3)), [])

    def test_subset(self):
        ds = synth_clusters(6, (3, 4), np.random.default_rng(0))
        sub = ds.subset([1, 3])
        assert len(sub) == 2
        assert np.array_equal(sets_of(sub)[0], sets_of(ds)[1])
        assert sub.rows is ds.rows and sub.member_labels is ds.member_labels

    def test_members_index_rows(self):
        with pytest.raises(DimensionError, match="outside 0..1"):
            LabeledSetDataset(np.zeros((2, 3)), [np.array([0, 2])])
        with pytest.raises(DimensionError, match="set 1 needs a non-empty"):
            LabeledSetDataset(np.zeros((2, 3)), [np.array([0, 1]), np.array([], dtype=np.intp)])
        with pytest.raises(DimensionError, match="one per member row"):
            LabeledSetDataset(np.zeros((2, 3)), [np.arange(2)], member_labels=np.zeros(3), member_mask=np.ones(3, bool))


# --- loader fuzzing: every input loads to finite, well-shaped data or raises
# FormatError


def _catalog(path):
    return load_cluster_catalog(path, ["f0", "f1"], "target", "has_target", "cluster_id")


def _check_points(points):
    assert points.ndim == 2 and points.shape[1] == 3 and len(points) >= 1 and np.all(np.isfinite(points))


def _check_catalog(ds):
    for s, y, m in zip(sets_of(ds), per_set(ds, ds.member_labels), per_set(ds, ds.member_mask)):
        assert s.ndim == 2 and s.shape[1] == 2 and np.all(np.isfinite(s)) and np.all(np.isfinite(y))
        assert y.shape == m.shape == (len(s),) and m.dtype == bool


def _check_images(images):
    assert images.ndim == 3 and np.all((images >= 0.0) & (images <= 1.0))


def _check_labels(labels):
    assert labels.ndim == 1 and np.all((labels >= 0) & (labels <= 255))


# loader name -> (load, check of what it returns)
LOADERS = {
    "xyz": (load_xyz, _check_points),
    "catalog": (_catalog, _check_catalog),
    "idx_images": (load_idx_images, _check_images),
    "idx_labels": (load_idx_labels, _check_labels),
}


@functools.lru_cache(maxsize=None)
def _valid_bytes(loader):
    """The bytes of one small valid file for ``loader``."""
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid")
        if loader == "xyz":
            save_xyz(path, rng.normal(size=(3, 3)))
        elif loader == "catalog":
            save_cluster_catalog(path, synth_clusters(2, (2, 3), rng, num_features=2, informative=1))
        elif loader == "idx_images":
            write_idx_images(path, rng.integers(0, 256, size=(2, 3, 3)))
        else:
            write_idx_labels(path, np.array([3, 7]))
        with open(path, "rb") as fh:
            return fh.read()


def _declared_bytes(loader, data):
    """Payload size an IDX header declares (0 when there is no full header)."""
    if loader == "idx_images" and len(data) >= 16:
        _, count, rows, cols = struct.unpack(">IIII", data[:16])
        return count * rows * cols
    if loader == "idx_labels" and len(data) >= 8:
        return struct.unpack(">II", data[:8])[1]
    return 0


def _load_or_format_error(tmp, loader, data):
    # Declared sizes either fit the fuzzed file or are too large for any
    # machine to allocate, so a loader that trusted its header would fail
    # here rather than allocate gigabytes.
    declared = _declared_bytes(loader, data)
    assume(declared <= 4096 or declared >= 2**64)
    load, check = LOADERS[loader]
    path = tmp / f"fuzz.{loader}"
    path.write_bytes(data)
    try:
        out = load(path)
    except FormatError:
        return
    check(out)


# bytes that make a mutation likely to reach a parser's edge cases
TOKENS = [b"0", b"-1", b"3", b"4", b"1e999", b"nan", b"-inf", b" ", b"\n", b"#", b",", b"\xff", b"\x00",
          b"99999999999999999999", b"\xff\xff\xff\xff"]

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, valid):
    """``valid`` with one to four short byte spans replaced, inserted or deleted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        piece = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=4)))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "insert":
            data[at:at] = piece
        else:
            data[at : at + len(piece)] = piece if how == "replace" else b""
    return bytes(data)


@pytest.mark.parametrize("loader", list(LOADERS))
@FUZZ
@given(data=st.binary(max_size=200))
def test_loader_on_arbitrary_bytes(tmp_path, loader, data):
    _load_or_format_error(tmp_path, loader, data)


@pytest.mark.parametrize("loader", list(LOADERS))
@FUZZ
@given(st.data())
def test_loader_on_mutated_valid_file(tmp_path, loader, data):
    _load_or_format_error(tmp_path, loader, data.draw(mutated(_valid_bytes(loader))))
