"""Named parameter registry with deterministic initialization."""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from ..errors import ParamRegistryError
from .tensor import DTYPE, Tensor


class ParamStore:
    """Holds named leaf tensors. The optimizer mutates .data in place; the
    autodiff tape writes gradients into .grad of those with requires_grad on."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ParamRegistryError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(values, dtype=DTYPE), requires_grad=True)
        self._tensors[name] = t
        return t

    def tensor(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise ParamRegistryError(f"unknown parameter name: {name}") from None

    def names(self) -> list[str]:
        return list(self._tensors)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self._tensors.items()}

    @contextmanager
    def frozen(self, prefixes):
        """Parameters named with one of `prefixes` are constants in the block:
        requires_grad off, so no tape, gradient or Adam update; on again after."""
        ts = [t for n, t in self._tensors.items() if n.startswith(tuple(prefixes)) and t.requires_grad]
        for t in ts:
            t.requires_grad = False
        try:
            yield
        finally:
            for t in ts:
                t.requires_grad = True

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def set_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            t = self.tensor(name)
            if t.data.shape != arr.shape:
                raise ParamRegistryError(
                    f"shape mismatch for {name}: {t.data.shape} vs {arr.shape}"
                )
            t.data[...] = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._tensors.items()}


def init_params(spec, seed: int) -> ParamStore:
    """Glorot-uniform weights, zero biases. 1-D entries are treated as biases;
    entries of rank >= 2 draw uniform(+-sqrt(6/(fan_in+fan_out))). Deterministic
    per seed and spec order. `spec` is a name→shape mapping."""
    store = ParamStore(seed)
    rng = np.random.default_rng(seed)
    for name, shape in spec.items():
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ParamRegistryError(f"non-positive dim in shape for {name}: {shape}")
        if len(shape) == 1:
            arr = np.zeros(shape)
        else:
            fan_out = shape[0]
            fan_in = int(np.prod(shape[1:]))
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            arr = rng.uniform(-limit, limit, size=shape)
        store.add(name, arr)
    return store
