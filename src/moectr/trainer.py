"""End-to-end training: one-batch objective and backward with loss-location
routing, Adam updates (dense params + lazy embedding rows), the epoch loop
with early stopping, and evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import EncodedDataset, make_batches
from .embedding import SparseGrad, apply_sparse_to_table
from .gating import gating_backward
from .losses import bce, decorrelation_total, total_objective
from .metrics import CorrelationReport, EvalMetrics, auc, cec_report
from .model import FullCache, ModelBundle, forward_full, named_params
from .numerics import GradCheckReport, central_diff_gradcheck, flatten_arrays, write_arrays
from .optim import Adam


@dataclass
class StepLosses:
    total: float
    bce: float
    decorrelation: float


@dataclass
class BatchGrads:
    """Gradients of the total objective for one batch.

    dense: grads for every non-embedding parameter, keyed like
    named_params. table_grads: per physical expert table, duplicate-bearing
    sparse row grads. gating_grads: same for the gating table.
    """

    dense: dict[str, np.ndarray]
    table_grads: dict[int, SparseGrad]
    gating_grads: SparseGrad


def batch_objective(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[StepLosses, BatchGrads, FullCache]:
    """Forward, loss-location routing, and the full backward pass.

    Location routing: "output" regularizes the aligned expert outputs,
    "input" the per-expert embedding matrices, "intermediate" every cross
    layer's output across experts (crossnet only, enforced at build time).
    """
    fc = forward_full(model, indices)
    batch = int(labels.size)
    bce_val, d_yhat = bce(fc.y_hat, labels)

    decor_val = 0.0
    d_outputs_extra = None
    d_embeds_extra = None
    layer_injections = None
    loss = model.loss
    if loss.active and batch < 2:
        raise ValueError("batch too small for de-correlation")
    if loss.active:
        if loss.location == "output":
            decor_val, d_outputs_extra = decorrelation_total(fc.outputs, loss.form)
        elif loss.location == "input":
            decor_val, d_embeds_extra = decorrelation_total(fc.embeds, loss.form)
        else:  # intermediate: every cross layer, summed over layers
            per_expert_layers = [
                model.experts[m].layer_outputs(fc.expert_caches[m])
                for m in range(model.num_experts)
            ]
            n_layers = len(per_expert_layers[0])
            layer_injections = [
                [np.zeros_like(x) for x in layers] for layers in per_expert_layers
            ]
            for l in range(n_layers):
                value, grads = decorrelation_total(
                    [layers[l] for layers in per_expert_layers], loss.form
                )
                decor_val += value
                for m in range(model.num_experts):
                    layer_injections[m][l] += grads[m]
    total = total_objective(bce_val, decor_val, loss.alpha if loss.active else 0.0, batch)
    coef = loss.alpha / (batch - 1) if loss.active else 0.0

    # ----- backward -----
    p = fc.y_hat
    d_logits = (d_yhat * p * (1.0 - p)).reshape(-1, 1)
    tower_dws, tower_dbs, d_h = model.tower.backward(fc.tower_cache, d_logits)
    gate_grads, d_gate_embeds, d_outputs = gating_backward(
        fc.gate_cache, fc.agg_cache, d_h
    )

    dense: dict[str, np.ndarray] = {}
    for i, (dw, db) in enumerate(zip(tower_dws, tower_dbs)):
        dense[f"tower.w{i}"] = dw
        dense[f"tower.b{i}"] = db
    for name, g in gate_grads.items():
        dense[f"gate.{name}"] = g

    table_parts: dict[int, list[SparseGrad]] = {}
    for m, expert in enumerate(model.experts):
        d_o = d_outputs[m]
        if d_outputs_extra is not None:
            d_o = d_o + coef * d_outputs_extra[m]
        injections = None
        if layer_injections is not None:
            injections = [coef * g for g in layer_injections[m]]
        grads_m, d_e = expert.backward(fc.expert_caches[m], d_o, layer_grads=injections)
        for name, g in grads_m.items():
            dense[f"expert.{m}.{name}"] = g
        if d_embeds_extra is not None:
            d_e = d_e + coef * d_embeds_extra[m]
        t = model.bank.table_for_expert(m)
        table_parts.setdefault(t, []).append(SparseGrad.from_dense_rows(indices, d_e))

    table_grads = {t: SparseGrad.concat(parts) for t, parts in table_parts.items()}
    gating_grads = SparseGrad.from_dense_rows(indices, d_gate_embeds)
    losses = StepLosses(total=total, bce=bce_val, decorrelation=decor_val)
    return losses, BatchGrads(dense, table_grads, gating_grads), fc


def _check_finite(grads: BatchGrads) -> None:
    """Raise naming the first gradient group that holds a NaN or inf."""
    groups = [
        *grads.dense.items(),
        *((f"bank.table{t}", sparse.vecs) for t, sparse in grads.table_grads.items()),
        ("bank.gating", grads.gating_grads.vecs),
    ]
    for name, g in groups:
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in {name}")


def train_step(
    model: ModelBundle,
    indices: np.ndarray,
    labels: np.ndarray,
    adam: Adam,
    params: dict[str, np.ndarray] | None = None,
) -> StepLosses:
    """One optimizer step on one batch; t advances once for all groups.

    Every gradient is checked before anything moves, so a step either
    applies in full or raises with parameters, moments and t untouched.
    """
    if params is None:
        params = dict(named_params(model))
    losses, grads, _ = batch_objective(model, indices, labels)
    _check_finite(grads)
    adam.begin_step()
    for name, g in grads.dense.items():
        adam.update(name, params[name], g)
    for t, sparse in grads.table_grads.items():
        table = model.bank.tables[t]

        def rule(f, rows, grad_rows, _t=t, _table=table):
            adam.update_rows(f"bank.table{_t}.field{f}", _table.fields[f], rows, grad_rows)

        apply_sparse_to_table(table, sparse, rule)

    def gating_rule(f, rows, grad_rows):
        adam.update_rows(
            f"bank.gating.field{f}", model.bank.gating_table.fields[f], rows, grad_rows
        )

    apply_sparse_to_table(model.bank.gating_table, grads.gating_grads, gating_rule)
    return losses


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10000
    epochs: int = 5
    patience: int = 2
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    cec_row_cap: int = 100000

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_logloss: float
    train_objective: float
    valid_auc: float
    valid_logloss: float
    valid_cec_pairs: dict[tuple[int, int], float]
    valid_cec_sum: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_auc: float = float("nan")

    def numeric_identity(self) -> tuple:
        """Everything reproducible under a fixed seed (wall-clock excluded)."""
        return (
            tuple(
                (
                    r.epoch,
                    r.train_logloss,
                    r.train_objective,
                    r.valid_auc,
                    r.valid_logloss,
                    tuple(sorted(r.valid_cec_pairs.items())),
                    r.valid_cec_sum,
                )
                for r in self.epochs
            ),
            self.best_epoch,
            self.best_valid_auc,
        )


def evaluate(
    model: ModelBundle,
    ds: EncodedDataset,
    batch_size: int = 8192,
    cec_row_cap: int = 100_000,
) -> tuple[EvalMetrics, CorrelationReport | None]:
    """AUC and logloss over the full set; cross-expert correlations over
    expert outputs accumulated up to cec_row_cap rows."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    scores = np.empty(len(ds))
    kept: list[list[np.ndarray]] = [[] for _ in range(model.num_experts)]
    kept_rows = 0
    for start in range(0, len(ds), batch_size):
        stop = min(start + batch_size, len(ds))
        fc = forward_full(model, ds.indices[start:stop])
        scores[start:stop] = fc.y_hat
        if kept_rows < cec_row_cap:
            take = min(cec_row_cap - kept_rows, stop - start)
            for m in range(model.num_experts):
                kept[m].append(fc.outputs[m][:take])
            kept_rows += take
    metrics = EvalMetrics(
        auc=auc(scores, ds.labels),
        logloss=bce(scores, ds.labels)[0],
        num_samples=len(ds),
    )
    report = None
    if model.num_experts >= 2:
        report = cec_report([np.concatenate(parts) for parts in kept])
    return metrics, report


def train_loop(
    model: ModelBundle,
    train_ds: EncodedDataset,
    valid_ds: EncodedDataset,
    config: TrainConfig,
) -> TrainReport:
    """Epochs of seeded-shuffle batches with early stopping on valid AUC.

    The epoch shuffle is reseeded as seed + epoch; the best-AUC parameters
    are restored into the model before returning. Identical (model seed,
    config, data) reruns produce identical numeric trajectories.
    """
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise ValueError("train and valid sets must be nonempty")
    if valid_ds.labels.min() == valid_ds.labels.max():
        raise ValueError("validation set needs both classes (0 and 1) for AUC")
    if model.loss.active:
        if config.batch_size < 2:
            raise ValueError("batch too small for de-correlation")
        if len(train_ds) % config.batch_size == 1:
            raise ValueError(
                "batch too small for de-correlation: final batch would have 1 row"
            )
    adam = Adam(
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
    params = dict(named_params(model))
    report = TrainReport()
    best_auc = -np.inf
    best_snapshot: dict[str, np.ndarray] | None = None
    stale = 0
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        batches = make_batches(train_ds, config.batch_size, shuffle_seed=config.seed + epoch)
        loss_sum = 0.0
        objective_sum = 0.0
        for batch in batches:
            losses = train_step(
                model,
                train_ds.indices[batch.rows],
                train_ds.labels[batch.rows],
                adam,
                params,
            )
            loss_sum += losses.bce * batch.size
            objective_sum += losses.total * batch.size
        metrics, corr = evaluate(model, valid_ds, cec_row_cap=config.cec_row_cap)
        record = EpochRecord(
            epoch=epoch,
            train_logloss=loss_sum / len(train_ds),
            train_objective=objective_sum / len(train_ds),
            valid_auc=metrics.auc,
            valid_logloss=metrics.logloss,
            valid_cec_pairs=dict(corr.pairs) if corr is not None else {},
            valid_cec_sum=corr.total if corr is not None else 0.0,
            seconds=time.perf_counter() - tic,
        )
        report.epochs.append(record)
        if metrics.auc > best_auc:
            best_auc = metrics.auc
            report.best_epoch = epoch
            report.best_valid_auc = metrics.auc
            best_snapshot = {name: arr.copy() for name, arr in params.items()}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    if best_snapshot is not None:
        for name, arr in params.items():
            arr[...] = best_snapshot[name]
    return report


def model_objective_and_grads(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Total objective and a dense gradient for every named parameter
    (embedding grads scattered into full-table zero arrays)."""
    losses, grads, _ = batch_objective(model, indices, labels)
    out = dict(grads.dense)
    for t, sparse in grads.table_grads.items():
        dense_fields = sparse.to_dense(model.bank.tables[t])
        for f, arr in enumerate(dense_fields):
            out[f"bank.table{t}.field{f}"] = arr
    for f, arr in enumerate(grads.gating_grads.to_dense(model.bank.gating_table)):
        out[f"bank.gating.field{f}"] = arr
    for name, param in named_params(model):
        if name not in out:
            out[name] = np.zeros_like(param)
    return losses.total, out


def gradcheck_model(
    model: ModelBundle,
    indices: np.ndarray,
    labels: np.ndarray,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Central-difference check of the full objective over every parameter
    group: embeddings, gating table, experts, alignment heads, gate MLP,
    tower. Restores the model parameters afterward."""
    items = named_params(model)
    arrays = [arr for _, arr in items]
    x0 = flatten_arrays(arrays)
    total, grads = model_objective_and_grads(model, indices, labels)
    analytic = flatten_arrays([grads[name] for name, _ in items])

    def objective(vec: np.ndarray) -> float:
        write_arrays(arrays, vec)
        losses, _, _ = batch_objective(model, indices, labels)
        return losses.total

    try:
        return central_diff_gradcheck(objective, x0, analytic, h=h, tol=tol)
    finally:
        write_arrays(arrays, x0)
