"""Small affine-stack building blocks with explicit backward passes, and
the parameter contract every module of the model follows.

Used by the DNN expert, gate network, prediction tower, and every expert's
alignment head (a one-layer rectified Mlp). Weight convention: layer
computes x @ W.T + b with W of shape (out, in), so rows of W are output
units.

Contract: a Module's ``params`` maps local names to its live arrays in
save order and its ``backward`` returns gradients under the same names; a
composite nests its children's names with ``prefixed`` (``core.w0``). A
forward cache is opaque outside the module that wrote it: it goes back to
that module's ``backward``, and the module's own accessors (``relu_inputs``,
``Mlp.forward_input``) read it.

An Mlp's cache is its input and then each layer's output. A rectified
layer applies its ReLU in place on its fresh affine result, so no
pre-activation is stored: relu(z) > 0 exactly where z > 0 (for -0.0 and
NaN too), which makes the output its own backward mask, and the GEMM from
the cached input gives the pre-activation back when one is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import at_least


def prefixed(prefix: str, named: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """{"w": a} -> {"prefix.w": a}, keeping the order."""
    return {f"{prefix}.{name}": arr for name, arr in named.items()}


def layer_params(ws: list[np.ndarray], bs: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Per-layer names w0, b0, w1, b1, ...; layers without bias give w0, w1, ..."""
    named = {}
    for i, w in enumerate(ws):
        named[f"w{i}"] = w
        if bs is not None:
            named[f"b{i}"] = bs[i]
    return named


class Module:
    """Parameter holder; subclasses define ``params`` from live attributes."""

    @property
    def params(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def param_items(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        return list(prefixed(prefix, self.params).items())


def init_affine(in_dim: int, out_dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    scale = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-scale, scale, size=(out_dim, in_dim)), np.zeros(out_dim)


@dataclass
class Mlp(Module):
    """Affine layers with per-layer ReLU flags (True = rectified)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[bool]

    @classmethod
    def build(
        cls,
        in_dim: int,
        hidden: tuple[int, ...],
        out_dim: int | None,
        rng: np.random.Generator,
    ) -> "Mlp":
        """Hidden layers are rectified; a final out_dim layer (if any) is linear."""
        outs = [*hidden] if out_dim is None else [*hidden, out_dim]
        for width in (in_dim, *outs):
            at_least("Mlp layer width", width, 1)
        if not outs:
            raise ValueError("Mlp needs at least one layer")
        layers = [init_affine(n_in, n_out, rng) for n_in, n_out in zip([in_dim, *outs], outs)]
        acts = [True] * len(hidden) + [False] * (len(outs) - len(hidden))
        return cls([w for w, _ in layers], [b for _, b in layers], acts)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return layer_params(self.weights, self.biases)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Returns (output, cache); the cache is [x_0, a_1, ..., a_L], the
        input and then each layer's output, the last being the output itself."""
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"input width {x.shape[1]} does not match first layer {self.in_dim}"
            )
        cache = [x]
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = x @ w.T + b  # (N, out), a fresh array
            if act:
                np.maximum(x, 0.0, out=x)
            cache.append(x)
        return x, cache

    def backward(self, cache: list, d_out: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Returns (grads keyed like params, d_input)."""
        if len(cache) != len(self.weights) + 1:
            raise ValueError("cache does not match layer count")
        d_ws: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        d_bs: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        d = d_out
        for i in range(len(self.weights) - 1, -1, -1):
            x, a = cache[i], cache[i + 1]
            dz = d * (a > 0.0) if self.activations[i] else d
            d_ws[i] = dz.T @ x
            d_bs[i] = dz.sum(axis=0)
            d = dz @ self.weights[i]
        return layer_params(d_ws, d_bs), d

    def forward_input(self, cache: list) -> np.ndarray:
        """The input forward was given, from forward's cache."""
        return cache[0]

    def relu_inputs(self, cache: list) -> list[np.ndarray]:
        """Pre-activation of every rectified layer, recomputed from the layer
        inputs in forward's cache (the same GEMM on the same input, so the
        same bytes)."""
        return [
            x @ w.T + b
            for x, w, b, act in zip(cache, self.weights, self.biases, self.activations)
            if act
        ]
