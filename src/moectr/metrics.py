"""Evaluation metrics: Pearson correlation matrices, cross-expert
correlation (CEC: mean absolute pairwise Pearson r between output
dimensions), and AUC with ties counted as half-concordant.

Every Pearson number is a block of one clipped Pearson Gram: the
standardized numerics.cross_gram over N - 1, clamped into [-1, 1]. The
de-correlation loss (losses.decorrelation_total) reads the same Gram
before scaling.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, cross_gram, gram_blocks


def _pearson_gram(mats: list[np.ndarray]) -> np.ndarray:
    """Z^T Z / (N - 1) of the column-standardized (unbiased std) inputs,
    clamped into [-1, 1] to absorb last-bit float excess; constant columns
    yield zero rows and columns."""
    z, _, g = cross_gram(mats, standardize=True)
    return np.clip(g / (z.shape[0] - 1.0), -1.0, 1.0)


def pearson_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R[i, j] = Pearson r between column i of x and column j of y: the
    (x, y) block of the Pearson Gram of [x, y]. Widths may differ."""
    x = as_matrix(x)
    return _pearson_gram([x, y])[: x.shape[1], x.shape[1] :]


def cec(x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute entry of the Pearson matrix; in [0, 1]."""
    return float(np.abs(pearson_matrix(x, y)).mean())


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
    """Pairwise cross-expert correlations for one set of expert outputs;
    fewer than two outputs give no pairs."""

    pairs: dict[tuple[int, int], float]  # keys (m1, m2), m1 < m2

    @property
    def total(self) -> float:
        """Sum of pair values (the model-level de-correlation number)."""
        return float(sum(self.pairs.values()))

    @property
    def mean_pair(self) -> float:
        """Mean pair value; 0.0 with no pairs, like total."""
        return self.total / max(len(self.pairs), 1)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("m1,m2,cec\n")
        for (m1, m2), value in sorted(self.pairs.items()):
            out.write(f"{m1},{m2},{value!r}\n")
        return out.getvalue()


def cec_report(expert_outputs: list[np.ndarray]) -> CorrelationReport:
    """CEC of every pair m1 < m2 of same-shape output matrices: pair
    (m1, m2) reads block (m1, m2) of their Pearson Gram."""
    m = len(expert_outputs)
    if m < 2:
        return CorrelationReport(pairs={})
    r = gram_blocks(_pearson_gram(expert_outputs), expert_outputs)
    return CorrelationReport(
        pairs={pair: float(np.abs(r[pair]).mean()) for pair in itertools.combinations(range(m), 2)}
    )
