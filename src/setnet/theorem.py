"""Exact verification that the matrices commuting with every permutation are
the tied weights lam*I + gam*ones and no others.

A matrix Theta commutes with the permutation matrix of an index array s
exactly when ``Theta[s[i], s[j]] == Theta[i, j]`` for every i and j. So the
matrices that commute with every permutation are those constant on each
orbit of index pairs (i, j), and the orbits' indicator matrices are a basis
of them. The transposition (0 1) and the n-cycle generate every permutation
of n points, so both checks run over these two generators only, and both
reorder entries and do no arithmetic: they are exact, with no tolerance. The
forward direction (lam*I + gam*ones commutes with every permutation) is
checked on the identity and the all-ones matrix, which span that family. The
converse holds when the pairs fall in exactly two orbits, the diagonal and
the rest, whose indicators are I and ones - I.

Also provides an empirical equivariance probe for black-box set functions,
used by the CLI to probe the experiment models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import DimensionError

MAX_SET_SIZE = 1000  # commutant_orbits labels all n^2 index pairs


def generators(n: int) -> List[np.ndarray]:
    """The transposition (0 1) and the n-cycle i -> i + 1 (mod n) as index
    arrays; together they generate every permutation of n points. Below two
    points both are the identity, the whole group."""
    swap = np.arange(n)
    swap[:2] = swap[:2][::-1]
    return [swap, np.roll(np.arange(n), -1)]


def commutes_with_all(theta: np.ndarray) -> bool:
    """True iff theta commutes with both generators, so with every permutation."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionError(f"weight matrix must be square, got shape {theta.shape}")
    return all(np.array_equal(theta[np.ix_(s, s)], theta) for s in generators(theta.shape[0]))


def commutant_orbits(n: int) -> np.ndarray:
    """The orbit of each index pair (i, j) under the permutations of n points,
    as an [n, n] array of labels: each pair is labelled with the smallest flat
    index ``i * n + j`` in its orbit, so the commutant's dimension is the
    number of distinct labels.

    Each pass takes, for every pair, the smallest label among the pair and
    its images under the generators and their inverses, then follows labels
    to their own labels (pointer jumping); it stops when a pass changes
    nothing, which is when the labels are constant on each orbit.
    """
    if not 2 <= n <= MAX_SET_SIZE:
        raise DimensionError(f"set size must be in 2..{MAX_SET_SIZE}, got n={n}")
    pairs = np.arange(n * n).reshape(n, n)
    # pair p goes to maps[k][p] under each generator and each inverse
    maps = [pairs[np.ix_(t, t)].ravel() for s in generators(n) for t in (s, np.argsort(s))]
    labels = pairs.ravel()
    while True:
        hooked = labels.copy()
        for m in maps:
            np.minimum(hooked, labels[m], out=hooked)
        jumped = hooked[hooked]
        if np.array_equal(jumped, labels):
            return labels.reshape(n, n)
        labels = jumped


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
