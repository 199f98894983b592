"""Computational verification that tied weights are exactly the matrices
commuting with every permutation.

The forward direction (lam*I + gam*ones commutes with all permutation
matrices) is checked directly against either every permutation matrix or just
the transpositions, which generate the full group. The converse is checked by
solving the homogeneous system {Theta P - P Theta = 0 for all transpositions
P} over the n^2 entries of Theta and inspecting the null space: its dimension
must be exactly 2, spanned by the identity and the all-ones matrix.

Also provides an empirical equivariance probe for arbitrary black-box set
functions, used by the CLI to certify composed models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List

import numpy as np

from .errors import BudgetError, DimensionError

_EXHAUSTIVE_CAP = 7  # 7! = 5040 matrices
_TRANSPOSITION_CAP = 64


def permutation_matrices(n: int) -> Iterator[np.ndarray]:
    """All n! permutation matrices, identity first. The matrix of an index
    array ``p`` is ``np.eye(n)[p]``, so that ``M @ x == x[p]``."""
    for mapping in itertools.permutations(range(n)):
        yield np.eye(n)[list(mapping)]


def transposition_matrices(n: int) -> List[np.ndarray]:
    """The n(n-1)/2 transposition matrices (they generate the whole group)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            mapping = np.arange(n)
            mapping[i], mapping[j] = j, i
            out.append(np.eye(n)[mapping])
    return out


def tied_weight_matrix(lam: float, gam: float, n: int) -> np.ndarray:
    """lam on the diagonal plus gam everywhere: the two-parameter family."""
    return lam * np.eye(n) + gam * np.ones((n, n))


def _check_square(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionError(f"weight matrix must be square, got shape {theta.shape}")
    return theta


def commutes_with_all(theta: np.ndarray, mode: str = "transpositions") -> bool:
    """True iff theta commutes with every tested permutation matrix, to 1e-12."""
    theta = _check_square(theta)
    n = theta.shape[0]
    if mode == "exhaustive":
        if n > _EXHAUSTIVE_CAP:
            raise BudgetError(f"exhaustive mode enumerates n! matrices; n={n} exceeds cap {_EXHAUSTIVE_CAP}")
        mats = permutation_matrices(n)
    elif mode == "transpositions":
        if n >= _TRANSPOSITION_CAP:
            raise BudgetError(f"n={n} exceeds transposition-mode cap {_TRANSPOSITION_CAP}")
        mats = iter(transposition_matrices(n))
    else:
        raise DimensionError(f"unknown mode {mode!r}")
    return all(np.max(np.abs(theta @ p - p @ theta)) <= 1e-12 for p in mats)


def commutant_basis(n: int) -> List[np.ndarray]:
    """Orthonormal basis of {Theta : Theta P = P Theta for all transpositions P}.

    Built by stacking the linear constraints Theta P - P Theta = 0 for every
    transposition and extracting the null space by SVD; singular values below
    1e-8 times the largest are treated as zero.
    """
    if n < 2:
        raise DimensionError(f"commutant_basis needs a set of at least 2 points, got n={n}")
    if n > _EXHAUSTIVE_CAP:
        raise BudgetError(f"commutant_basis supports 2 <= n <= {_EXHAUSTIVE_CAP}, got {n}")
    trans = transposition_matrices(n)
    rows = []
    for p in trans:
        # linear map Theta -> Theta P - P Theta, one matrix row per output entry
        block = np.zeros((n * n, n * n))
        for a in range(n):
            for b in range(n):
                e = np.zeros((n, n))
                e[a, b] = 1.0
                block[:, a * n + b] = (e @ p - p @ e).ravel()
        rows.append(block)
    system = np.vstack(rows)
    _, svals, vt = np.linalg.svd(system)
    cutoff = 1e-8 * svals[0]
    null_dim = int(np.sum(svals <= cutoff)) + (n * n - len(svals))
    basis = vt[len(vt) - null_dim :] if null_dim > 0 else np.zeros((0, n * n))
    return [row.reshape(n, n) for row in basis]


@dataclass
class EquivarianceReport:
    trials: int
    tolerance: float
    max_equivariance_deviation: float
    max_invariance_deviation: float

    @property
    def equivariant(self) -> bool:
        return self.max_equivariance_deviation <= self.tolerance

    @property
    def invariant_output_ordering(self) -> bool:
        """Output identical for permuted inputs: order-normalisation, not equivariance."""
        return self.max_invariance_deviation <= self.tolerance

    def lines(self) -> List[str]:
        out = [
            f"trials={self.trials}",
            f"max_equivariance_deviation={self.max_equivariance_deviation!r}",
            f"max_invariance_deviation={self.max_invariance_deviation!r}",
            f"equivariant={self.equivariant}",
            f"invariant_output_ordering={self.invariant_output_ordering}",
        ]
        return out


def check_equivariance_empirical(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    trials: int,
    rng: np.random.Generator,
    channels: int = 1,
) -> EquivarianceReport:
    """Probe f: [n, channels] -> [n, *] with random inputs and permutations.

    Reports the worst deviation of f(perm(x)) from perm(f(x)) (equivariance)
    and from f(x) itself (the latter catching functions that merely normalise
    away the input order, e.g. row sorting). Inputs are standard normal; a
    deviation up to 1e-9 counts as exact.
    """
    if trials < 1:
        raise DimensionError("trials must be >= 1")
    worst_eq = 0.0
    worst_inv = 0.0
    for _ in range(trials):
        x = rng.normal(size=(n, channels))
        p = rng.permutation(n)
        fx = np.asarray(f(x))
        fpx = np.asarray(f(x[p]))
        worst_eq = max(worst_eq, float(np.max(np.abs(fpx - fx[p]))))
        worst_inv = max(worst_inv, float(np.max(np.abs(fpx - fx))))
    return EquivarianceReport(
        trials=trials,
        tolerance=1e-9,
        max_equivariance_deviation=worst_eq,
        max_invariance_deviation=worst_inv,
    )
