"""Float64 tensor contracts shared by the autodiff tape.

A "tensor" here is simply a ``numpy.ndarray`` of dtype float64, and numpy
supplies the arithmetic. This module holds what the tape's nodes rely on:
the finiteness check every node value passes (so NaN/Inf surface as
:class:`~setnet.errors.NumericError` instead of propagating), the shape-checked
matrix product, and the pointwise nonlinearities with their derivatives.

Reference oracles (a triple-loop matmul) live in the test suite,
deliberately independent of this module.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

Tensor = np.ndarray

NONLINEARITIES = ("tanh", "elu", "sigmoid", "identity")


def as_tensor(values, where: str = "as_tensor") -> Tensor:
    """Coerce to a float64 array and reject non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    return ensure_finite(arr, where)


def ensure_finite(arr: Tensor, where: str) -> Tensor:
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NumericError(f"{where}: {bad} non-finite entries in result")
    return arr


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard rank-2 matrix product. Like ``elementwise`` it does not check
    its result for finiteness: the tape checks every node value once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def elementwise(x: Tensor, fn: str) -> Tensor:
    """Apply a pointwise nonlinearity: tanh, elu (alpha=1), sigmoid or identity."""
    x = np.asarray(x, dtype=np.float64)
    if fn == "tanh":
        out = np.tanh(x)
    elif fn == "elu":
        out = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    elif fn == "sigmoid":
        # split by sign so exp never overflows
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    elif fn == "identity":
        out = x.copy()
    else:
        raise DimensionError(f"unknown nonlinearity {fn!r}")
    return out


def elementwise_grad(x: Tensor, fn: str, out: Tensor) -> Tensor:
    """d(elementwise(x, fn))/dx, evaluated entrywise at x, as a new array;
    ``out`` is ``elementwise(x, fn)``, the forward value the caller already has.

    tanh and sigmoid derivatives are computed from ``out`` (``1 - y*y`` and
    ``y*(1 - y)``), which gives the same bits as recomputing them from ``x``.
    elu's is computed from ``x``: ``exp(x)`` and ``expm1(x) + 1`` can differ
    in the last bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if fn == "tanh":
        d = out * out
        return np.subtract(1.0, d, out=d)
    if fn == "elu":
        return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
    if fn == "sigmoid":
        d = 1.0 - out
        d *= out
        return d
    if fn == "identity":
        return np.ones_like(x)
    raise DimensionError(f"unknown nonlinearity {fn!r}")
