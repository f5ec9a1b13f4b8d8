"""Training losses: binary cross-entropy, cross-expert de-correlation in its
correlation form and two covariance ablations, and the combined objective.

decorrelation_total computes every pair loss of M same-shape (N, d) expert
outputs from one cross-expert Gram, with exact gradients w.r.t. each
output; one pair's loss is the call on two outputs. The correlation form
standardizes columns with the unbiased std, which makes the value on two
identical single-column inputs exactly N - 1; the combined objective's
1/(|B|-1) factor cancels that growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import cross_gram, gram_blocks, one_of, standardize_backward

LOSS_FORMS = ("corr", "cov_l1", "cov_l2", "none")
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

    def check_batch(self, rows: int) -> None:
        """An active loss divides by rows - 1 (total_objective), so a batch needs two rows."""
        if self.active and rows < 2:
            raise ValueError(f"batch too small for de-correlation: a batch would have {rows} row(s)")


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
    one_of(form, LOSS_FORMS)
    m = len(outputs)
    if form == "none" or m < 2:
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


def total_objective(
    bce_value: float, decor_value: float, alpha: float, batch_size: int
) -> float:
    """L = BCE + alpha * decor / (|B| - 1); with alpha > 0 the caller has
    already rejected a batch of one (LossConfig.check_batch)."""
    if alpha == 0.0:
        return bce_value
    return bce_value + alpha * decor_value / (batch_size - 1)
