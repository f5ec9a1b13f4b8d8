"""Expert-independent gating: gating embedding -> MLP -> softmax weights ->
weighted sum of expert outputs.

The gate never sees any expert's own embedding; it reads the dedicated
gating table so no expert is favored by construction.
"""

from __future__ import annotations

import numpy as np

from .nnet import Mlp
from .numerics import row_softmax, softmax_backward


def build_gate(
    gate_dim: int,
    hidden: tuple[int, ...],
    num_experts: int,
    rng: np.random.Generator,
) -> Mlp:
    """MLP from the gating embedding to one logit per expert."""
    mlp = Mlp.build(gate_dim, hidden, num_experts, rng)
    # zero final layer: every expert starts at weight 1/M, which keeps
    # early training from starving all but one expert
    mlp.weights[-1][...] = 0.0
    mlp.biases[-1][...] = 0.0
    return mlp


def gate_weights(gate: Mlp, gate_embeds: np.ndarray) -> tuple[np.ndarray, list]:
    """Softmax over the gate MLP's per-expert logits, and the MLP's cache."""
    logits, mlp_cache = gate.forward(gate_embeds)
    return row_softmax(logits), mlp_cache


def aggregate_experts(g: np.ndarray, outputs: list[np.ndarray]) -> np.ndarray:
    """h_i = sum_m g[i, m] * O^(m)_i, rowwise over the batch."""
    if len(outputs) != g.shape[1]:
        raise ValueError(
            f"got {len(outputs)} expert outputs for {g.shape[1]} gate columns"
        )
    shape = outputs[0].shape
    for o in outputs:
        if o.shape != shape:
            raise ValueError("expert outputs must share one shape")
    h = np.zeros(shape)
    for m, o in enumerate(outputs):
        h += g[:, m : m + 1] * o
    return h


def gating_backward(
    gate: Mlp, mlp_cache: list, g: np.ndarray, outputs: list[np.ndarray], d_h: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray, list[np.ndarray]]:
    """Adjoint through aggregation, softmax, and the gate MLP.

    Returns (gate param grads keyed like params, d gating-embeds,
    per-expert d outputs).
    """
    d_g = np.stack([(d_h * o).sum(axis=1) for o in outputs], axis=1)  # (B, M)
    d_outputs = [g[:, m : m + 1] * d_h for m in range(len(outputs))]
    d_logits = softmax_backward(g, d_g)
    grads, d_gate_embeds = gate.backward(mlp_cache, d_logits)
    return grads, d_gate_embeds, d_outputs
