"""Stochastic optimizers: plain SGD, Adam, and Adamax, over one flat arena.

One optimizer instance owns the state for one training run. It keeps that
state in flat float64 vectors: one for the parameters, one for each moment
(Adam and Adamax) and one gradient buffer. On construction it copies every
parameter into the parameter vector and makes ``Param.value`` a reshaped view
into it; ``m[name]`` and ``v[name]`` are views into the moment vectors in the
same way. ``step`` copies the gradients into the buffer and updates all
parameters and moments with in-place ufuncs over the whole vectors. Every
update applies the per-parameter formula in the same operation order, so
the bits are those of updating each parameter on its own.

A view stops being trained once anything rebinds it, so code that loads
values into trained parameters or moments writes in place:
``layers.restore_params`` and ``load_state_arrays`` do.

``step`` validates every gradient before touching any state, so a non-finite
gradient refuses the whole step instead of corrupting the parameters or the
moments. It is the one finiteness check gradients get: ``autodiff.backward``
does not check them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError, NumericError
from .layers import Param

KINDS = ("sgd", "adam", "adamax")

_ADAMAX_FLOOR = 1e-12  # keeps the infinity-norm moment away from zero division


class Optimizer:
    def __init__(
        self,
        kind: str,
        params: Sequence[Param],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        clip_norm: Optional[float] = None,
    ):
        if kind not in KINDS:
            raise ConfigError(f"unknown optimizer {kind!r}")
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.kind = kind
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.clip_norm = clip_norm
        self.t = 0
        size = sum(p.value.size for p in self.params)
        self._flat, self._grad, self._scratch = np.zeros(size), np.zeros(size), np.zeros(size)
        for p, view in zip(self.params, self._views(self._flat)):
            view[...] = p.value
            p.value = view
        self._grads = self._views(self._grad)
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        if kind != "sgd":
            self._m, self._v = np.zeros(size), np.zeros(size)
            self.m = {p.name: view for p, view in zip(self.params, self._views(self._m))}
            self.v = {p.name: view for p, view in zip(self.params, self._views(self._v))}

    def _views(self, flat: np.ndarray) -> List[np.ndarray]:
        """One view into ``flat`` per parameter, shaped like it, in order."""
        views, start = [], 0
        for p in self.params:
            views.append(flat[start : start + p.value.size].reshape(p.value.shape))
            start += p.value.size
        return views

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        """Apply one update, in place on the arena (and so on every Param.value)."""
        for p, buf in zip(self.params, self._grads):
            g = grads.get(p.name)
            if g is None:
                raise NumericError(f"missing gradient for {p.name!r}")
            if g.shape != p.value.shape:
                raise NumericError(f"gradient shape {g.shape} != parameter shape {p.value.shape}")
            np.copyto(buf, g)
        if not np.all(np.isfinite(self._grad)):
            bad = next(p for p, buf in zip(self.params, self._grads) if not np.all(np.isfinite(buf)))
            raise NumericError(f"non-finite gradient for {bad.name!r}; step refused")
        g, tmp, p = self._grad, self._scratch, self._flat
        if self.clip_norm is not None:
            with np.errstate(over="ignore"):  # a square past the float64 range is inf: see below
                total = np.sqrt(sum(float(np.sum(buf**2)) for buf in self._grads))
            if not np.isfinite(total):  # a norm past 1.3e154, above any clip_norm the config allows (1e9)
                unit = np.divide(g, np.max(np.abs(g)), out=tmp)  # g is finite, so its squares over its top are
                np.multiply(unit, self.clip_norm / np.linalg.norm(unit), out=g)
            elif total > self.clip_norm:
                g *= self.clip_norm / total  # an unclipped step skips g * 1.0, which is exact
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        if self.kind == "sgd":
            g *= self.lr
            p -= g
        elif self.kind == "adam":
            m, v = self._m, self._v
            m *= b1  # m = b1*m + (1-b1)*g
            m += np.multiply(g, 1 - b1, out=tmp)
            v *= b2  # v = b2*v + ((1-b2)*g)*g
            np.multiply(g, 1 - b2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            denom = np.divide(v, 1 - b2**self.t, out=g)  # sqrt(v/c2) + 1e-8
            np.sqrt(denom, out=denom)
            denom += 1e-8
            step = np.divide(m, 1 - b1**self.t, out=tmp)  # (lr*(m/c1)) / denom
            step *= self.lr
            step /= denom
            p -= step
        else:  # adamax
            m, u = self._m, self._v
            m *= b1  # m = b1*m + (1-b1)*g
            m += np.multiply(g, 1 - b1, out=tmp)
            u *= b2  # u = max(b2*u, |g|)
            np.maximum(u, np.abs(g, out=tmp), out=u)
            floor = np.maximum(u, _ADAMAX_FLOOR, out=tmp)
            step = np.multiply(m, self.lr / (1 - b1**self.t), out=g)  # ((lr/c1)*m) / max(u, floor)
            step /= floor
            p -= step

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Moment tensors under stable names, for checkpointing."""
        out = {}
        for name, arr in self.m.items():
            out[f"opt.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"opt.v.{name}"] = arr
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray], t: int) -> None:
        """Write checkpointed moments into the arena, in place."""
        for name, view in self.state_arrays().items():
            arr = arrays[name]
            if arr.shape != view.shape:
                raise FormatError(f"{name}: checkpoint shape {arr.shape} != optimizer shape {view.shape}")
            view[...] = arr
        self.t = int(t)
