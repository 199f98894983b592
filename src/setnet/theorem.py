"""Computational verification that tied weights are exactly the matrices
commuting with every permutation.

The transpositions generate the full group, so both checks run over them.
The forward direction (lam*I + gam*ones commutes with all permutation
matrices) is checked on the identity and the all-ones matrix, which span that
family. The converse is checked by solving the homogeneous system
{Theta P - P Theta = 0 for all transpositions P} over the n^2 entries of Theta
and inspecting the null space: its dimension must be exactly 2, spanned by the
identity and the all-ones matrix.

Also provides an empirical equivariance probe for black-box set functions,
used by the CLI to probe the experiment models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import BudgetError, DimensionError

_BASIS_CAP = 7  # verify-theorem's --n range is 2..7
_TRANSPOSITION_CAP = 64


def transposition_matrices(n: int) -> List[np.ndarray]:
    """The n(n-1)/2 transposition matrices (they generate the whole group)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            mapping = np.arange(n)
            mapping[i], mapping[j] = j, i
            out.append(np.eye(n)[mapping])
    return out


def _check_square(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionError(f"weight matrix must be square, got shape {theta.shape}")
    return theta


def commutes_with_all(theta: np.ndarray) -> bool:
    """True iff theta commutes with every transposition, so every permutation, to 1e-12."""
    theta = _check_square(theta)
    n = theta.shape[0]
    if n >= _TRANSPOSITION_CAP:
        raise BudgetError(f"n={n} exceeds the transposition cap {_TRANSPOSITION_CAP}")
    return all(np.max(np.abs(theta @ p - p @ theta)) <= 1e-12 for p in transposition_matrices(n))


def commutant_basis(n: int) -> List[np.ndarray]:
    """Orthonormal basis of {Theta : Theta P = P Theta for all transpositions P}.

    Built by stacking the linear constraints Theta P - P Theta = 0 for every
    transposition and extracting the null space by SVD; singular values below
    1e-8 times the largest are treated as zero.
    """
    if n < 2:
        raise DimensionError(f"commutant_basis needs a set of at least 2 points, got n={n}")
    if n > _BASIS_CAP:
        raise BudgetError(f"commutant_basis supports 2 <= n <= {_BASIS_CAP}, got {n}")
    # the linear map Theta -> Theta P - P Theta on row-major vec(Theta), one
    # matrix row per output entry: vec(Theta P) = (I kron P^T) vec(Theta) and
    # vec(P Theta) = (P kron I) vec(Theta)
    eye = np.eye(n)
    system = np.vstack([np.kron(eye, p.T) - np.kron(p, eye) for p in transposition_matrices(n)])
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
    deviation up to 1e-9 counts as exact. A one-member set has only the
    identity permutation, which tests nothing, so n must be at least 2.
    """
    if trials < 1:
        raise DimensionError("trials must be >= 1")
    if n < 2 or channels < 1:
        raise DimensionError(f"need a set of at least two members and one channel, got n={n}, channels={channels}")
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
