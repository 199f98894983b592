import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setnet import theorem
from setnet.errors import DimensionError
from setnet.layers import EquivariantLayer, SetBatch, evaluate
from setnet.theorem import (
    MAX_SET_SIZE,
    check_equivariance_empirical,
    commutant_orbits,
    commutes_with_all,
    generators,
)

from helpers import commutant_basis_svd, permutation_matrices, tied_weight_matrix, transposition_matrices


def commutes_with_every_permutation(theta):
    """The n! oracle: theta against each permutation matrix. A product with a
    permutation matrix adds only zeros to each entry, so it is exact."""
    return all(np.array_equal(theta @ p, p @ theta) for p in permutation_matrices(theta.shape[0]))


class TestCommutesWithAll:
    def test_tied_matrix_commutes(self):
        assert commutes_with_all(tied_weight_matrix(2.0, 3.0, 4))
        assert commutes_with_every_permutation(tied_weight_matrix(2.0, 3.0, 4))

    def test_perturbed_off_diagonal_fails(self):
        theta = tied_weight_matrix(2.0, 3.0, 4)
        theta[0, 1] += 1e-3
        assert not commutes_with_all(theta)
        assert not commutes_with_every_permutation(theta)

    def test_forward_direction_random_coefficients(self):
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            for _ in range(20):
                lam, gam = rng.uniform(-10, 10, size=2)
                assert commutes_with_all(tied_weight_matrix(lam, gam, n))

    def test_agrees_with_the_permutation_oracle(self):
        # the two generators generate the group, so checking them must give
        # the n! oracle's verdict exactly
        rng = np.random.default_rng(1)
        agree = 0
        for i in range(1000):
            if i % 3 == 0:
                theta = tied_weight_matrix(*rng.uniform(-5, 5, size=2), 4)
                if i % 6 == 0:
                    theta[2, 1] += rng.normal() * 1e-2
            else:
                theta = rng.normal(size=(4, 4))
            a = commutes_with_every_permutation(theta)
            b = commutes_with_all(theta)
            assert a == b
            agree += a
        assert agree > 0  # some positive cases were actually exercised

    def test_each_generator_is_checked(self):
        # a circulant commutes with the n-cycle, and a matrix that treats
        # points 0 and 1 alike commutes with (0 1); neither commutes with both
        n = 4
        circulant = ((np.arange(n)[None, :] - np.arange(n)[:, None]) % n).astype(float)
        swap_fixed = tied_weight_matrix(2.0, 3.0, n)
        swap_fixed[3, 3] = 7.0
        for theta in (circulant, swap_fixed):
            assert not commutes_with_all(theta)
            assert not commutes_with_every_permutation(theta)

    @given(
        st.integers(2, 6),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
        st.integers(0, 35),
        st.sampled_from([-math.inf, None, math.inf]),
    )
    def test_one_ulp_breaks_the_tie(self, n, lam, gam, entry, toward):
        # moved one ulp up or down, any entry breaks the tie; left as it is,
        # the tied matrix commutes. The n! oracle gives the same verdict.
        theta = tied_weight_matrix(lam, gam, n)
        if toward is not None:
            i, j = divmod(entry % (n * n), n)
            theta[i, j] = np.nextafter(theta[i, j], toward)
        assert commutes_with_all(theta) == (toward is None)
        if n <= 5:
            assert commutes_with_every_permutation(theta) == (toward is None)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            commutes_with_all(np.ones((2, 3)))

    def test_linearity_of_commutativity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t1 = tied_weight_matrix(*rng.uniform(-5, 5, size=2), 5)
            t2 = tied_weight_matrix(*rng.uniform(-5, 5, size=2), 5)
            a, b = rng.uniform(-3, 3, size=2)
            assert commutes_with_all(a * t1 + b * t2)


class TestGenerators:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_closure_is_the_whole_group(self, n):
        gens = [tuple(s) for s in generators(n)]
        assert all(sorted(s) == list(range(n)) for s in gens)
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            found = {tuple(p[i] for i in s) for p in frontier for s in gens} - group
            group |= found
            frontier = list(found)
        assert len(group) == math.factorial(n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_points_both_are_the_identity(self, n):
        assert [s.tolist() for s in generators(n)] == [list(range(n))] * 2
        assert commutes_with_all(np.arange(n * n, dtype=float).reshape(n, n))


class TestCommutantBasis:
    """The orbits of ``commutant_orbits``, whose indicators are the basis."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_dimension_is_exactly_two(self, n):
        assert len(np.unique(commutant_orbits(n))) == 2

    def test_n2_span_contains_identity_and_ones(self):
        orbits = commutant_orbits(2)
        stacked = np.stack([(orbits == label).ravel() for label in np.unique(orbits)]).astype(float)
        for target in (np.eye(2), np.ones((2, 2))):
            coeffs, residual, *_ = np.linalg.lstsq(stacked.T, target.ravel(), rcond=None)
            recon = stacked.T @ coeffs
            assert np.max(np.abs(recon - target.ravel())) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_elements_have_tied_entries(self, n):
        # one orbit is the diagonal and the other the rest, each labelled with
        # its smallest flat index: (0, 0) and (0, 1)
        assert np.array_equal(commutant_orbits(n), np.where(np.eye(n, dtype=bool), 0, 1))

    def test_basis_is_orthonormal(self):
        # the orbits partition the pairs, so their indicators, each scaled by
        # one over the square root of its orbit's size, are orthonormal
        orbits = commutant_orbits(5)
        basis = [(orbits == label) / np.sqrt(np.sum(orbits == label)) for label in np.unique(orbits)]
        gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("n", range(2, 8))
    def test_indicators_span_the_svd_null_space(self, n):
        orbits = commutant_orbits(n)
        indicators = np.stack([(orbits == label).ravel() for label in np.unique(orbits)]).astype(float)
        oracle = np.stack([b.ravel() for b in commutant_basis_svd(n)])
        assert len(indicators) == len(oracle)
        # each oracle vector lies in the indicators' span, and vice versa
        for source, target in ((indicators, oracle), (oracle, indicators)):
            coeffs, *_ = np.linalg.lstsq(source.T, target.T, rcond=None)
            assert np.max(np.abs(source.T @ coeffs - target.T)) < 1e-10

    def test_the_cycle_alone_gives_the_circulants(self, monkeypatch):
        # without the transposition the group is cyclic: pair (i, j) lies in
        # the orbit of (0, (j - i) mod n), whose flat index is that offset
        n = 6
        monkeypatch.setattr(theorem, "generators", lambda n: [np.roll(np.arange(n), -1)])
        offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        assert np.array_equal(commutant_orbits(n), offsets)

    def test_out_of_range(self):
        for n in (1, 0, -3, MAX_SET_SIZE + 1):
            with pytest.raises(DimensionError, match=f"2..{MAX_SET_SIZE}"):
                commutant_orbits(n)


class TestPermutationMatrices:
    def test_counts(self):
        assert sum(1 for _ in permutation_matrices(4)) == 24
        assert len(transposition_matrices(5)) == 10

    def test_all_orthogonal(self):
        for p in transposition_matrices(4):
            assert np.array_equal(p @ p.T, np.eye(4))

    def test_matrix_matches_action(self):
        # the matrix of index array p reorders rows as indexing does: M @ x == x[p]
        x = np.random.default_rng(5).normal(size=(4, 3))
        for mapping, m in zip(itertools.permutations(range(4)), permutation_matrices(4)):
            assert np.array_equal(m @ x, x[list(mapping)])


class TestEmpiricalChecker:
    def test_equivariant_stack_passes(self):
        rng = np.random.default_rng(3)
        layers = [
            EquivariantLayer(2, 5, "tanh", rng=rng, name="a"),
            EquivariantLayer(5, 2, "tanh", rng=rng, name="b"),
        ]

        def f(x):
            batch = SetBatch(x, [x.shape[0]])
            for layer in layers:
                batch = SetBatch(evaluate(layer, batch), batch.cardinalities)
            return batch.values

        report = check_equivariance_empirical(f, n=7, trials=50, rng=rng, channels=2)
        assert report.equivariant
        assert report.max_equivariance_deviation < 1e-9

    def test_unconstrained_dense_fails_loudly(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(6, 6))
        report = check_equivariance_empirical(lambda x: w @ x, n=6, trials=50, rng=rng)
        assert not report.equivariant
        assert report.max_equivariance_deviation > 1e-3

    def test_sorting_flagged_as_order_normalising(self):
        # sorted output ignores input order entirely: zero invariance deviation,
        # flagged as order-normalisation rather than equivariance
        rng = np.random.default_rng(5)

        def sort_rows(x):
            return x[np.argsort(x[:, 0])]

        report = check_equivariance_empirical(sort_rows, n=6, trials=50, rng=rng)
        assert report.max_invariance_deviation == 0.0
        assert report.invariant_output_ordering
        assert not report.equivariant

    @pytest.mark.parametrize("n", [1, 0])
    def test_a_set_of_fewer_than_two_members_is_refused(self, n):
        # one member has only the identity permutation: both deviations would
        # be 0 by construction, so the probe refuses before calling f
        def f(x):
            raise AssertionError("f must not be called")

        with pytest.raises(DimensionError, match="at least two members"):
            check_equivariance_empirical(f, n=n, trials=3, rng=np.random.default_rng(0))
