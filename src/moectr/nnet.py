"""Small affine-stack building blocks with explicit backward passes, and
the parameter contract every module of the model follows.

Used by the DNN expert, gate network, prediction tower, and the alignment
heads. Weight convention: layer computes x @ W.T + b with W of shape
(out, in), so rows of W are output units.

Contract: a Module's ``params`` maps local names to its live arrays in
save order and its ``backward`` returns gradients under the same names; a
composite nests its children's names with ``prefixed`` (``core.w0``). A
forward cache is opaque outside the module that wrote it: it goes back to
that module's ``backward``, and ``relu_inputs`` reads its ReLU sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


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
        widths_in = [in_dim, *hidden]
        weights, biases, acts = [], [], []
        for i, w in enumerate(hidden):
            wm, bm = init_affine(widths_in[i], w, rng)
            weights.append(wm)
            biases.append(bm)
            acts.append(True)
        if out_dim is not None:
            wm, bm = init_affine(widths_in[-1], out_dim, rng)
            weights.append(wm)
            biases.append(bm)
            acts.append(False)
        if not weights:
            raise ValueError("Mlp needs at least one layer")
        return cls(weights, biases, acts)

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
        """Returns (output, cache); cache keeps layer inputs and pre-activations."""
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"input width {x.shape[1]} does not match first layer {self.in_dim}"
            )
        cache = []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = x @ w.T + b  # (N, out)
            cache.append((x, z))
            x = relu(z) if act else z
        return x, cache

    def backward(self, cache: list, d_out: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Returns (grads keyed like params, d_input)."""
        if len(cache) != len(self.weights):
            raise ValueError("cache does not match layer count")
        d_ws: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        d_bs: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        d = d_out
        for i in range(len(self.weights) - 1, -1, -1):
            x, z = cache[i]
            dz = d * (z > 0.0) if self.activations[i] else d
            d_ws[i] = dz.T @ x
            d_bs[i] = dz.sum(axis=0)
            d = dz @ self.weights[i]
        return layer_params(d_ws, d_bs), d

    def relu_inputs(self, cache: list) -> list[np.ndarray]:
        """Pre-activation of every rectified layer, from forward's cache."""
        return [z for (_, z), act in zip(cache, self.activations) if act]


@dataclass
class AlignmentHead(Module):
    """Affine + ReLU map bringing a raw expert output to the common width."""

    w: np.ndarray  # (d_out, raw)
    b: np.ndarray  # (d_out,)

    @classmethod
    def build(cls, raw_dim: int, out_dim: int, rng: np.random.Generator) -> "AlignmentHead":
        w, b = init_affine(raw_dim, out_dim, rng)
        return cls(w, b)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, raw: np.ndarray) -> tuple[np.ndarray, tuple]:
        if raw.shape[1] != self.w.shape[1]:
            raise ValueError(
                f"raw width {raw.shape[1]} does not match alignment head {self.w.shape[1]}"
            )
        z = raw @ self.w.T + self.b
        return relu(z), (raw, z)

    def backward(self, cache: tuple, d_out: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Returns (grads keyed like params, d_raw)."""
        raw, z = cache
        dz = d_out * (z > 0.0)
        return {"w": dz.T @ raw, "b": dz.sum(axis=0)}, dz @ self.w

    def raw_input(self, cache: tuple) -> np.ndarray:
        """The raw expert output forward aligned, from forward's cache."""
        return cache[0]

    def relu_inputs(self, cache: tuple) -> list[np.ndarray]:
        """The pre-activation of the one rectified layer."""
        return [cache[1]]
