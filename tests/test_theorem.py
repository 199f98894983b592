import itertools

import numpy as np
import pytest

from setnet.errors import BudgetError, DimensionError
from setnet.layers import EquivariantLayer, SetBatch, evaluate
from setnet.theorem import (
    check_equivariance_empirical,
    commutant_basis,
    commutes_with_all,
    permutation_matrices,
    tied_weight_matrix,
    transposition_matrices,
)


class TestCommutesWithAll:
    def test_tied_matrix_commutes(self):
        assert commutes_with_all(tied_weight_matrix(2.0, 3.0, 4), mode="exhaustive")
        assert commutes_with_all(tied_weight_matrix(2.0, 3.0, 4), mode="transpositions")

    def test_perturbed_off_diagonal_fails(self):
        theta = tied_weight_matrix(2.0, 3.0, 4)
        theta[0, 1] += 1e-3
        assert not commutes_with_all(theta, mode="transpositions")
        assert not commutes_with_all(theta, mode="exhaustive")

    def test_forward_direction_random_coefficients(self):
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            for _ in range(20):
                lam, gam = rng.uniform(-10, 10, size=2)
                assert commutes_with_all(tied_weight_matrix(lam, gam, n))

    def test_modes_agree_on_random_matrices(self):
        # transpositions generate the group, so the cheap mode must match the
        # exhaustive oracle verdict exactly
        rng = np.random.default_rng(1)
        agree = 0
        for i in range(1000):
            if i % 3 == 0:
                theta = tied_weight_matrix(*rng.uniform(-5, 5, size=2), 4)
                if i % 6 == 0:
                    theta[2, 1] += rng.normal() * 1e-2
            else:
                theta = rng.normal(size=(4, 4))
            a = commutes_with_all(theta, mode="exhaustive")
            b = commutes_with_all(theta, mode="transpositions")
            assert a == b
            agree += a
        assert agree > 0  # some positive cases were actually exercised

    def test_exhaustive_budget(self):
        with pytest.raises(BudgetError):
            commutes_with_all(np.eye(8), mode="exhaustive")

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


class TestCommutantBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dimension_is_exactly_two(self, n):
        assert len(commutant_basis(n)) == 2

    def test_n2_span_contains_identity_and_ones(self):
        basis = commutant_basis(2)
        stacked = np.stack([b.ravel() for b in basis])
        for target in (np.eye(2), np.ones((2, 2))):
            coeffs, residual, *_ = np.linalg.lstsq(stacked.T, target.ravel(), rcond=None)
            recon = stacked.T @ coeffs
            assert np.max(np.abs(recon - target.ravel())) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_elements_have_tied_entries(self, n):
        for b in commutant_basis(n):
            diag = np.diag(b)
            off = b[~np.eye(n, dtype=bool)]
            assert diag.max() - diag.min() < 1e-10
            if off.size:
                assert off.max() - off.min() < 1e-10

    def test_basis_is_orthonormal(self):
        basis = commutant_basis(5)
        gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            commutant_basis(1)
        with pytest.raises(BudgetError):
            commutant_basis(8)


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
            EquivariantLayer(2, 5, "channel_full", "tanh", rng=rng, name="a"),
            EquivariantLayer(5, 2, "channel_factored", "tanh", rng=rng, name="b"),
        ]

        def f(x):
            batch = SetBatch(x, [x.shape[0]])
            for layer in layers:
                batch = batch.with_values(evaluate(layer, batch))
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
