"""Desk-scale de-correlation experiment.

Generates a synthetic click log whose log-odds mix a pairwise and a
triple-product latent mechanism, then trains three two-expert models:

  se       shared embedding table, no de-correlation loss
  me       one embedding table per expert, no loss
  me+loss  multi-embedding plus the correlation-form loss on the outputs

and reports test AUC and the mean pairwise cross-expert correlation (CEC).
Expect CEC to fall at each rung; a smaller version of the experiment the
acceptance suite runs over three seeds.

Run:  PYTHONPATH=src python3 demos/04_decorrelation_experiment.py

Takes about a minute and a half.
"""

import time

from moectr.data import gen_synthetic, split_dataset
from moectr.experts import ExpertConfig
from moectr.losses import LossConfig
from moectr.model import build_model
from moectr.trainer import TrainConfig, evaluate, train_loop

data, params = gen_synthetic(
    6, 100, 2, 50_000, seed=3, pair_strength=3.0, triple_strength=2.0
)
train, valid, test = split_dataset(data, (0.8, 0.1, 0.1), seed=0)
print(f"rows: {len(train)} train / {len(valid)} valid / {len(test)} test")
print(f"positive rate: {data.labels.mean():.3f}\n")

rows = []
for label, mode, alpha in (("se", "se", 0.0), ("me", "me", 0.0), ("me+loss", "me", 0.25)):
    tic = time.perf_counter()
    model = build_model(
        train.schema,
        mode,
        [ExpertConfig(kind="cin", out_dim=8, cin_maps=(8,))] * 2,
        LossConfig(form="corr", alpha=alpha, location="output"),
        embed_dim=8,
        gate_hidden=(16,),
        tower_hidden=(32,),
        seed=1,
    )
    train_loop(
        model,
        train,
        valid,
        TrainConfig(learning_rate=0.012, batch_size=1024, epochs=45, patience=10**9, seed=51),
    )
    metrics, _ = evaluate(model, test)
    _, corr = evaluate(model, data)  # CEC over all rows: low sampling floor
    rows.append((label, metrics.auc, corr.mean_pair, time.perf_counter() - tic))

print(f"{'model':10s} {'test auc':>9s} {'mean pair cec':>14s} {'seconds':>8s}")
for label, auc_value, cec_value, seconds in rows:
    print(f"{label:10s} {auc_value:9.4f} {cec_value:14.4f} {seconds:8.1f}")
print("\nlower CEC = more specialized experts; the loss attacks it directly")
