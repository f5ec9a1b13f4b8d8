"""Training losses: binary cross-entropy, and cross-expert de-correlation in
its correlation form and two covariance ablations.

decorrelation_total computes every pair loss of M same-shape (N, d) expert
outputs from one cross-expert Gram, with exact gradients w.r.t. each
output; one pair's loss is the call on two outputs. The correlation form
standardizes columns with the unbiased std, which makes the value on two
identical single-column inputs exactly N - 1. The objective is BCE plus
LossConfig.weight(|B|) = alpha / (|B|-1) times the sum; that cancels the N - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import cross_gram, gram_blocks, one_of, standardize_backward

PAIR_FORMS = ("corr", "cov_l1", "cov_l2")
LOSS_FORMS = (*PAIR_FORMS, "none")
LOSS_LOCATIONS = ("input", "intermediate", "output")

BCE_EPS = 1e-7


@dataclass(frozen=True)
class LossConfig:
    form: str = "corr"
    alpha: float = 0.0
    location: str = "output"

    def __post_init__(self):
        one_of(self.form, LOSS_FORMS)
        one_of(self.location, LOSS_LOCATIONS)
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha!r}")

    @property
    def active(self) -> bool:
        return self.form != "none" and self.alpha > 0.0

    def weight(self, rows: int) -> float:
        """The de-correlation term's coefficient on a batch of ``rows``:
        alpha / (rows - 1), or 0.0 when the loss is off."""
        if self.active and rows < 2:
            raise ValueError(f"batch too small for de-correlation: a batch would have {rows} row(s)")
        return self.alpha / (rows - 1) if self.active else 0.0


def bce(y_hat: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with probabilities clipped to
    [1e-7, 1 - 1e-7]; returns (value, dL/dy_hat)."""
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    p = np.clip(y_hat, BCE_EPS, 1.0 - BCE_EPS)
    value = float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean())
    inside = (y_hat > BCE_EPS) & (y_hat < 1.0 - BCE_EPS)
    grad = np.where(inside, (-(y / p) + (1.0 - y) / (1.0 - p)) / n, 0.0)
    return value, grad


def decorrelation_total(
    outputs: list[np.ndarray], form: str
) -> tuple[float, list[np.ndarray]]:
    """Sum of the ``form`` pair loss over all expert pairs p < q.

    Every pair is a block of one cross-expert Gram G = Z^T Z
    (numerics.cross_gram), so each output is standardized (corr) or
    centered (cov_l1, cov_l2) once. Pair (p, q) contributes the entrywise
    L2 (corr, cov_l2) or L1 (cov_l1) norm of block G[p, q], over d^2. The
    gradient w.r.t. Z is the single GEMM Z @ G_hat, where G_hat holds each
    block's norm gradient and is symmetric with zero diagonal blocks; one
    standardization or centering adjoint then maps it back to the outputs.

    Returns (total, per-expert gradient list). One expert means no pairs
    and a zero total.
    """
    one_of(form, PAIR_FORMS)
    m = len(outputs)
    if m < 2:
        return 0.0, [np.zeros_like(np.asarray(o, dtype=np.float64)) for o in outputs]
    z, std, g = cross_gram(outputs, standardize=form == "corr")
    blocks = gram_blocks(g, outputs)
    d = blocks.shape[-1]
    if form == "cov_l1":
        norms = np.abs(blocks).sum(axis=(2, 3))
        g_blocks = np.sign(blocks)
    else:
        norms = np.sqrt((blocks**2).sum(axis=(2, 3)))
        # an all-zero block (a constant output) contributes no gradient
        inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        g_blocks = blocks * inv[:, :, None, None]
    off_diagonal = (1.0 - np.eye(m)) / (d * d)
    g_hat = (g_blocks * off_diagonal[:, :, None, None]).swapaxes(1, 2).reshape(g.shape)
    d_z = z @ g_hat
    if std is None:  # centering adjoint: subtract the column mean
        d_x = d_z - d_z.mean(axis=0, keepdims=True)
    else:
        d_x = standardize_backward(d_z, z, std)
    total = float(norms[np.triu_indices(m, 1)].sum()) / (d * d)
    return total, np.hsplit(d_x, m)

