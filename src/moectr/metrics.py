"""Evaluation metrics: Pearson correlation matrix, cross-expert correlation
(mean absolute pairwise Pearson r between output dimensions), and AUC with
ties counted as half-concordant.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, cross_gram, gram_blocks, standardize_columns


def pearson_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R[i, j] = Pearson r between column i of x and column j of y.

    Computed as Z_x^T Z_y / (N - 1) with unbiased standardization; constant
    columns yield zero rows/columns. Entries are clamped into [-1, 1] to
    absorb last-bit float excess.
    """
    x, y = as_matrix(x), as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs must share the row count")
    n = x.shape[0]
    z_x, _, _ = standardize_columns(x)
    z_y, _, _ = standardize_columns(y)
    r = z_x.T @ z_y / (n - 1.0)
    return np.clip(r, -1.0, 1.0)


def cec(x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute entry of the Pearson matrix; in [0, 1]."""
    r = pearson_matrix(x, y)
    return float(np.abs(r).mean())


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties 0.5.

    Sort-based average ranks; agrees exactly (not just within float
    tolerance) with the O(n^2) pairwise count.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    _, starts, counts = np.unique(sorted_s, return_index=True, return_counts=True)
    # average 1-based rank per tie group: (first + last) / 2
    group_rank = (2.0 * starts + counts + 1.0) / 2.0
    ranks_sorted = np.repeat(group_rank, counts)
    ranks = np.empty_like(ranks_sorted)
    ranks[order] = ranks_sorted
    numerator = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(numerator / (n_pos * n_neg))


@dataclass
class EvalMetrics:
    auc: float
    logloss: float
    num_samples: int


@dataclass
class CorrelationReport:
    """Pairwise cross-expert correlations for one set of expert outputs."""

    num_experts: int
    pairs: dict[tuple[int, int], float]  # keys (m1, m2), m1 < m2

    @property
    def total(self) -> float:
        """Sum of pair values (the model-level de-correlation number)."""
        return float(sum(self.pairs.values()))

    @property
    def mean_pair(self) -> float:
        return self.total / len(self.pairs)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("m1,m2,cec\n")
        for (m1, m2), value in sorted(self.pairs.items()):
            out.write(f"{m1},{m2},{value!r}\n")
        return out.getvalue()


def cec_report(expert_outputs: list[np.ndarray]) -> CorrelationReport:
    """Cross-expert correlation for every pair m1 < m2 of output matrices.

    The Pearson matrix of pair (m1, m2) is block (m1, m2) of the
    standardized cross-expert Gram over N - 1, clamped into [-1, 1] as in
    pearson_matrix.
    """
    m = len(expert_outputs)
    if m < 2:
        raise ValueError("need at least 2 experts for a correlation report")
    z, _, g = cross_gram(expert_outputs, standardize=True)
    r = gram_blocks(np.clip(g / (z.shape[0] - 1.0), -1.0, 1.0), m)
    report = CorrelationReport(num_experts=m, pairs={})
    for pair in itertools.combinations(range(m), 2):
        report.pairs[pair] = float(np.abs(r[pair]).mean())
    return report
