"""Tour of the de-correlation losses and the correlation metrics.

Run:  PYTHONPATH=src python3 demos/01_losses_and_metrics.py
"""

import numpy as np

from moectr.losses import LossConfig, decorrelation_total
from moectr.metrics import auc, cec, pearson_matrix

rng = np.random.default_rng(0)

print("=== correlation-form pair loss ===")
col = np.array([[1.0], [2.0], [3.0]])
decor, _ = decorrelation_total([col, col.copy()], "corr")
print(f"identical single-column outputs (N=3): loss = {decor}  (equals N-1)")
print("the 1/(|B|-1) factor in the objective cancels that growth:")
print(f"  alpha=0.7 -> penalty term = {LossConfig(alpha=0.7).weight(3) * decor :.6f}")

x = rng.normal(size=(200, 4))
y = rng.normal(size=(200, 4))
base, _ = decorrelation_total([x, y], "corr")
scaled, _ = decorrelation_total([3.0 * x + 5.0, y], "corr")
print(f"\nscale/shift invariance: loss(x, y) = {base:.6f}, loss(3x+5, y) = {scaled:.6f}")

print("\n=== covariance ablations scale quadratically ===")
for a in (0.5, 2.0):
    b1, _ = decorrelation_total([x, y], "cov_l1")
    s1, _ = decorrelation_total([a * x, a * y], "cov_l1")
    print(f"  a={a}: cov_l1 ratio = {s1 / b1:.4f} (expect {a * a})")

print("\n=== cross-expert correlation metric ===")
shared = rng.normal(size=(5000, 1))
o1 = np.column_stack([shared + 0.1 * rng.normal(size=(5000, 1)), rng.normal(size=(5000, 1))])
o2 = np.column_stack([shared + 0.1 * rng.normal(size=(5000, 1)), rng.normal(size=(5000, 1))])
print("two experts sharing one latent direction:")
print("pearson matrix:\n", np.round(pearson_matrix(o1, o2), 3))
print(f"cec = {cec(o1, o2):.4f}  (one strong entry out of four)")

independent = rng.normal(size=(5000, 2))
print(f"cec vs independent outputs = {cec(o1, independent):.4f}  (sampling noise floor)")

print("\n=== AUC with tie handling ===")
scores = np.array([0.8, 0.7, 0.7, 0.2])
labels = np.array([1, 0, 1, 0])
print(f"scores {scores.tolist()} labels {labels.tolist()} -> auc = {auc(scores, labels)}")
print("(the tied 0.7 positive-negative pair contributes one half)")
