"""Feature-interaction experts with a uniform forward/backward contract.

Every expert maps a concatenated embedding matrix E of shape (B, F*d) to an
aligned output of shape (B, out_dim) through a kind-specific interaction
core followed by an affine+ReLU alignment head, so outputs of heterogeneous
kinds share one width and can be compared pairwise.

Backward passes are written by hand against the cached forward state and
are verified by central differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import AlignmentHead, Mlp, Module, layer_params, prefixed

EXPERT_KINDS = ("dnn", "fm", "crossnet", "cin")


@dataclass(frozen=True)
class ExpertConfig:
    """Kind tag plus the hyperparameters that kind consumes.

    dnn:       hidden = rectified layer widths, dnn_out = optional final
               linear width (None keeps the last rectified activation).
    fm:        no extra knobs; core output is the d-vector of per-dimension
               second-order terms.
    crossnet:  cross_layers = number of cross layers L (0 = identity).
    cin:       cin_maps = feature-map counts H_1..H_K.
    out_dim:   common aligned width for all kinds.
    """

    kind: str
    out_dim: int
    hidden: tuple[int, ...] = ()
    dnn_out: int | None = None
    cross_layers: int = 3
    cin_maps: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in EXPERT_KINDS:
            raise ValueError(f"unknown expert kind {self.kind!r}")
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        if self.kind == "dnn" and not self.hidden and self.dnn_out is None:
            raise ValueError("dnn expert needs hidden widths or a final width")
        if any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.kind == "crossnet" and self.cross_layers < 0:
            raise ValueError("cross_layers must be >= 0")
        if self.kind == "cin":
            if not self.cin_maps:
                raise ValueError("cin expert needs at least one feature-map width")
            if any(h < 1 for h in self.cin_maps):
                raise ValueError("cin map widths must be >= 1")


class Expert(Module):
    """Base contract: forward caches what backward needs, nothing else;
    params and backward's grads carry the alignment head as ``align.*``.
    Every kind keeps the alignment head's cache last in its own cache."""

    kind: str = ""

    def __init__(self, config: ExpertConfig, num_fields: int, embed_dim: int):
        self.config = config
        self.num_fields = num_fields
        self.embed_dim = embed_dim
        self.in_dim = num_fields * embed_dim
        self.align: AlignmentHead

    def forward(self, embeds: np.ndarray):
        """Returns (aligned output (B, out_dim), cache)."""
        raise NotImplementedError

    def backward(self, cache, d_out: np.ndarray, layer_grads=None):
        """Returns (param grads keyed like params, d_embeds (B, F*d)).

        layer_grads injects extra gradients on intermediate layer outputs;
        only the crossnet kind supports it.
        """
        raise NotImplementedError

    def core_output(self, cache) -> np.ndarray:
        """The interaction core's output, before the alignment head."""
        return self.align.raw_input(cache[-1])

    def relu_inputs(self, cache) -> list[np.ndarray]:
        """Pre-activation of every ReLU the forward pass applied."""
        return self.align.relu_inputs(cache[-1])

    def _check_input(self, embeds: np.ndarray) -> None:
        if embeds.ndim != 2 or embeds.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.kind} expert expects (B, {self.in_dim}) input, "
                f"got {embeds.shape}"
            )

    def _reject_layer_grads(self, layer_grads) -> None:
        if layer_grads is not None:
            raise ValueError(
                f"intermediate-layer gradients are only defined for crossnet "
                f"experts, not {self.kind}"
            )


class DnnExpert(Expert):
    """Plain MLP: rectified hidden layers, optional linear final layer."""

    kind = "dnn"

    def __init__(self, config, num_fields, embed_dim, rng):
        super().__init__(config, num_fields, embed_dim)
        self.core = Mlp.build(self.in_dim, config.hidden, config.dnn_out, rng)
        self.align = AlignmentHead.build(self.core.out_dim, config.out_dim, rng)

    @property
    def params(self):
        return {**prefixed("core", self.core.params), **prefixed("align", self.align.params)}

    def forward(self, embeds):
        self._check_input(embeds)
        raw, core_cache = self.core.forward(embeds)
        out, align_cache = self.align.forward(raw)
        return out, (core_cache, align_cache)

    def backward(self, cache, d_out, layer_grads=None):
        self._reject_layer_grads(layer_grads)
        core_cache, align_cache = cache
        align_grads, d_raw = self.align.backward(align_cache, d_out)
        core_grads, d_in = self.core.backward(core_cache, d_raw)
        return {**prefixed("core", core_grads), **prefixed("align", align_grads)}, d_in

    def relu_inputs(self, cache):
        return self.core.relu_inputs(cache[0]) + super().relu_inputs(cache)


class FmExpert(Expert):
    """Second-order interactions kept per embedding dimension.

    With per-sample field vectors e_1..e_F (each d wide), the core output is
        s = 0.5 * ((sum_i e_i)^2 - sum_i e_i^2)   elementwise over d,
    i.e. s_k = sum_{i<j} e_{i,k} * e_{j,k}. Width d is preserved (rather
    than pooled to a scalar) so the aligned output stays comparable across
    experts dimension by dimension.
    """

    kind = "fm"

    def __init__(self, config, num_fields, embed_dim, rng):
        super().__init__(config, num_fields, embed_dim)
        self.align = AlignmentHead.build(embed_dim, config.out_dim, rng)

    @property
    def params(self):
        return prefixed("align", self.align.params)

    def forward(self, embeds):
        self._check_input(embeds)
        e = embeds.reshape(-1, self.num_fields, self.embed_dim)  # (B, F, d)
        total = e.sum(axis=1)  # (B, d)
        s = 0.5 * (total**2 - (e**2).sum(axis=1))
        out, align_cache = self.align.forward(s)
        return out, (e, total, align_cache)

    def backward(self, cache, d_out, layer_grads=None):
        self._reject_layer_grads(layer_grads)
        e, total, align_cache = cache
        align_grads, d_s = self.align.backward(align_cache, d_out)
        # ds/de_{i,k} = total_k - e_{i,k}
        d_e = d_s[:, None, :] * (total[:, None, :] - e)
        return prefixed("align", align_grads), d_e.reshape(e.shape[0], self.in_dim)


class CrossNetExpert(Expert):
    """Stacked full-matrix cross layers over the flat embedding vector.

    Recurrence with x_0 = E row:  x_{l+1} = x_0 * (W_l x_l + b_l) + x_l,
    elementwise product. Raw output is x_L; each layer keeps full-width
    state, so L = 0 degenerates to the identity.
    """

    kind = "crossnet"

    def __init__(self, config, num_fields, embed_dim, rng):
        super().__init__(config, num_fields, embed_dim)
        d = self.in_dim
        scale = 1.0 / np.sqrt(d)
        self.ws = [
            rng.uniform(-scale, scale, size=(d, d)) for _ in range(config.cross_layers)
        ]
        self.bs = [np.zeros(d) for _ in range(config.cross_layers)]
        self.align = AlignmentHead.build(d, config.out_dim, rng)

    @property
    def params(self):
        return {**layer_params(self.ws, self.bs), **prefixed("align", self.align.params)}

    @property
    def num_layers(self) -> int:
        return len(self.ws)

    def forward(self, embeds):
        self._check_input(embeds)
        x0 = embeds
        xs = [x0]  # x_0 .. x_L
        us = []  # u_l = x_l @ W_l.T + b_l
        x = x0
        for w, b in zip(self.ws, self.bs):
            u = x @ w.T + b
            x = x0 * u + x
            us.append(u)
            xs.append(x)
        out, align_cache = self.align.forward(x)
        return out, (xs, us, align_cache)

    def layer_outputs(self, cache) -> list[np.ndarray]:
        """Cross-layer outputs x_1..x_L (targets for intermediate losses)."""
        xs, _, _ = cache
        return xs[1:]

    def backward(self, cache, d_out, layer_grads=None):
        xs, us, align_cache = cache
        if layer_grads is not None and len(layer_grads) != self.num_layers:
            raise ValueError("one layer gradient per cross layer required")
        align_grads, d_x = self.align.backward(align_cache, d_out)
        x0 = xs[0]
        d_x0_gate = np.zeros_like(x0)
        d_wl = [None] * self.num_layers
        d_bl = [None] * self.num_layers
        for l in range(self.num_layers - 1, -1, -1):
            if layer_grads is not None:
                d_x = d_x + layer_grads[l]  # injected at x_{l+1}
            d_u = d_x * x0
            d_x0_gate += d_x * us[l]
            d_wl[l] = d_u.T @ xs[l]
            d_bl[l] = d_u.sum(axis=0)
            d_x = d_u @ self.ws[l] + d_x
        d_in = d_x + d_x0_gate
        return {**layer_params(d_wl, d_bl), **prefixed("align", align_grads)}, d_in


class CinExpert(Expert):
    """Compressed interaction layers over the (F, d) field-vector view.

    X^0 is the field matrix; each layer forms all elementwise products
    between rows of X^{k-1} and rows of X^0 and compresses them into H_k
    feature maps:
        X^k_h = sum_{i,j} W^k[h,i,j] * (X^{k-1}_i * X^0_j)
    The raw output concatenates sum-pooling over d of every layer's maps.

    Every X^k is kept batch-last, as a contiguous (H_k, B, d) array, so a
    layer is one GEMM over B*d columns:
        X^k = W^k (H_k, H_{k-1}*F) @ z^k (H_{k-1}*F, B*d),
        z^k[(i,j), (b,e)] = X^{k-1}[i,b,e] * X^0[j,b,e],
    and its backward is two: dW^k = dX^k @ z^k.T and dz^k = W^k.T @ dX^k.
    The B*d axis runs b outer and e inner, the order in which a per-sample
    (B, H, d) layout contracts over (b, e), so dW^k sums its terms in the
    order that layout did. The cache holds the caller's input, not the X^0
    copy, so an evaluation pass over several experts holds one copy at a
    time.
    """

    kind = "cin"

    def __init__(self, config, num_fields, embed_dim, rng):
        super().__init__(config, num_fields, embed_dim)
        self.maps = tuple(config.cin_maps)
        widths = [num_fields, *self.maps]
        self.ws = []
        for k, h in enumerate(self.maps):
            fan_in = widths[k] * num_fields
            scale = 1.0 / np.sqrt(fan_in)
            self.ws.append(
                rng.uniform(-scale, scale, size=(h, widths[k], num_fields))
            )
        self.align = AlignmentHead.build(sum(self.maps), config.out_dim, rng)

    @property
    def params(self):
        return {**layer_params(self.ws), **prefixed("align", self.align.params)}

    def _batch_last(self, embeds):
        """X^0 as a contiguous (F, B, d) copy of the (B, F*d) input."""
        n = embeds.shape[0]
        x0 = embeds.reshape(n, self.num_fields, self.embed_dim)
        return np.ascontiguousarray(x0.transpose(1, 0, 2))

    def forward(self, embeds):
        self._check_input(embeds)
        x0 = self._batch_last(embeds)
        f, n, d = x0.shape
        xs = [x0]
        zs = []
        for w in self.ws:
            h, prev_h, _ = w.shape
            z = (xs[-1][:, None] * x0[None]).reshape(prev_h * f, n * d)
            xs.append((w.reshape(h, prev_h * f) @ z).reshape(h, n, d))
            zs.append(z)
        pooled = np.concatenate([x.sum(axis=2).T for x in xs[1:]], axis=1)
        out, align_cache = self.align.forward(pooled)
        return out, (embeds, xs[1:], zs, align_cache)

    def feature_maps(self, cache) -> list[np.ndarray]:
        """Feature maps X^1..X^K as (B, H_k, d) views."""
        _, maps, _, _ = cache
        return [x.transpose(1, 0, 2) for x in maps]

    def backward(self, cache, d_out, layer_grads=None):
        self._reject_layer_grads(layer_grads)
        embeds, maps, zs, align_cache = cache
        x0 = self._batch_last(embeds)
        xs = [x0, *maps]
        f, n, d = x0.shape
        align_grads, d_pooled = self.align.backward(align_cache, d_out)
        # split pooled gradient per layer, broadcast back over d
        d_xs = [np.zeros_like(x) for x in xs]
        offset = 0
        for k, h in enumerate(self.maps):
            d_xs[k + 1] += d_pooled[:, offset : offset + h].T[:, :, None]
            offset += h
        d_wl = []
        for k in range(len(self.maps) - 1, -1, -1):
            w = self.ws[k]
            h, prev_h, _ = w.shape
            d_xk = d_xs[k + 1].reshape(h, n * d)
            d_wl.append((d_xk @ zs[k].T).reshape(h, prev_h, f))
            d_z = (w.reshape(h, prev_h * f).T @ d_xk).reshape(prev_h, f, n, d)
            d_xs[k] += (d_z * x0[None]).sum(axis=1)
            d_xs[0] += (d_z * xs[k][:, None]).sum(axis=0)
        d_wl.reverse()
        d_in = d_xs[0].transpose(1, 0, 2).reshape(n, self.in_dim)
        return {**layer_params(d_wl), **prefixed("align", align_grads)}, d_in


_EXPERT_CLASSES = {
    "dnn": DnnExpert,
    "fm": FmExpert,
    "crossnet": CrossNetExpert,
    "cin": CinExpert,
}


def make_expert(
    config: ExpertConfig, num_fields: int, embed_dim: int, rng: np.random.Generator
) -> Expert:
    return _EXPERT_CLASSES[config.kind](config, num_fields, embed_dim, rng)
