"""End-to-end training: one-batch objective and backward with loss-location
routing, Adam updates (dense params + lazy embedding rows), the epoch loop
with early stopping, and evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import EncodedDataset, make_batches
from .embedding import EmbeddingTable, SparseGrad, apply_sparse_to_table
from .gating import gating_backward
from .losses import bce, decorrelation_total, total_objective
from .metrics import CorrelationReport, EvalMetrics, auc, cec_report
from .model import FullCache, ModelBundle, dense_modules, forward_chunks, forward_full, loss_targets, named_params, table_modules
from .nnet import prefixed
from .numerics import GradCheckReport, central_diff_gradcheck, flatten_arrays, write_arrays
from .optim import Adam
from .parallel import map_experts

CEC_ROW_CAP = 100_000  # validation rows whose expert outputs the CEC report reads


@dataclass
class StepLosses:
    total: float
    bce: float
    decorrelation: float


@dataclass
class BatchGrads:
    """Gradients of the total objective for one batch.

    dense: grads for every non-embedding parameter, keyed like
    named_params. sparse: duplicate-bearing sparse row grads, one per
    embedding table in table_modules order (the gating table last).
    """

    dense: dict[str, np.ndarray]
    sparse: list[SparseGrad]


def forward_objective(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[StepLosses, FullCache, np.ndarray, list[list[np.ndarray]]]:
    """Forward pass and the total objective, without the backward:
    (losses, cache, dBCE/dy_hat, de-correlation grads per target set and
    expert). A finite-difference check needs only losses.total.

    Location routing: "output" regularizes the aligned expert outputs,
    "input" the per-expert embedding matrices, "intermediate" every cross
    layer's output across experts (crossnet only, enforced at build time);
    model.loss_targets picks the matrix sets.
    """
    fc = forward_full(model, indices)
    batch = int(labels.size)
    bce_val, d_yhat = bce(fc.y_hat, labels)

    loss = model.loss
    if loss.active and batch < 2:
        raise ValueError("batch too small for de-correlation")
    decor_val = 0.0
    extra: list[list[np.ndarray]] = []  # per target set, per expert
    if loss.active:
        for mats in loss_targets(model, fc):
            value, grads = decorrelation_total(mats, loss.form)
            decor_val += value
            extra.append(grads)
    total = total_objective(bce_val, decor_val, loss.alpha if loss.active else 0.0, batch)
    return StepLosses(total=total, bce=bce_val, decorrelation=decor_val), fc, d_yhat, extra


def batch_objective(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[StepLosses, BatchGrads, FullCache]:
    """forward_objective, then the full backward pass, with each
    de-correlation grad injected at its loss location. The experts'
    backward passes may run on the expert pool (see parallel); packing
    their embedding grads stays here, in expert order."""
    losses, fc, d_yhat, extra = forward_objective(model, indices, labels)
    loss = model.loss
    coef = loss.alpha / (labels.size - 1) if loss.active else 0.0

    p = fc.y_hat
    d_logits = (d_yhat * p * (1.0 - p)).reshape(-1, 1)
    tower_grads, d_h = model.tower.backward(fc.tower_cache, d_logits)
    gate_grads, d_gate_embeds, d_outputs = gating_backward(
        model.gate, fc.gate_cache, fc.gate_weights, fc.outputs, d_h
    )

    def expert_backward(m: int):
        d_o = d_outputs[m]
        injections = {}
        if extra and loss.location == "output":
            d_o = d_o + coef * extra[0][m]
        elif extra and loss.location == "intermediate":  # crossnet only, by build_model
            injections = {"layer_grads": [coef * grads[m] for grads in extra]}
        grads_m, d_e = model.experts[m].backward(fc.expert_caches[m], d_o, **injections)
        if extra and loss.location == "input":
            d_e = d_e + coef * extra[0][m]
        return grads_m, d_e

    expert_grads = []
    table_parts: list[list[SparseGrad]] = [[] for _ in model.bank.tables]
    for m, (grads_m, d_e) in enumerate(map_experts(model, labels.size, expert_backward)):
        expert_grads.append(grads_m)
        t = model.bank.table_for_expert(m)
        table_parts[t].append(SparseGrad.from_dense_rows(indices, d_e))

    dense: dict[str, np.ndarray] = {}
    module_grads = [*expert_grads, gate_grads, tower_grads]  # dense_modules order
    for (prefix, _), grads in zip(dense_modules(model), module_grads, strict=True):
        dense.update(prefixed(prefix, grads))
    sparse = [SparseGrad.concat(parts) for parts in table_parts]
    sparse.append(SparseGrad.from_dense_rows(indices, d_gate_embeds))
    return losses, BatchGrads(dense, sparse), fc


def _sparse_groups(model: ModelBundle, grads: BatchGrads) -> list[tuple[str, EmbeddingTable, SparseGrad]]:
    """(name prefix, table, sparse grad) for every embedding table, the
    gating table last."""
    return [(*module, g) for module, g in zip(table_modules(model), grads.sparse, strict=True)]


def _check_finite(model: ModelBundle, grads: BatchGrads) -> None:
    """The step's one finiteness pass: raise naming the first gradient
    group that holds a NaN or inf."""
    groups = [
        *grads.dense.items(),
        *((prefix, sparse.vecs) for prefix, _, sparse in _sparse_groups(model, grads)),
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
    _check_finite(model, grads)
    adam.begin_step()
    for name, g in grads.dense.items():
        adam.update(name, params[name], g)
    for prefix, table, sparse in _sparse_groups(model, grads):
        apply_sparse_to_table(table, sparse, partial(adam.update_rows, prefix, table.weight))
    return losses


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10000
    epochs: int = 5
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def evaluate(model: ModelBundle, ds: EncodedDataset) -> tuple[EvalMetrics, CorrelationReport]:
    """AUC and logloss over the full set, one forward_chunks chunk at a
    time; cross-expert correlations over the first CEC_ROW_CAP rows' outputs."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    scores = np.empty(len(ds))
    kept: list[list[np.ndarray]] = [[] for _ in range(model.num_experts)]
    for start, fc in forward_chunks(model, ds.indices):
        scores[start : start + fc.y_hat.size] = fc.y_hat
        if start < CEC_ROW_CAP:
            for parts, o in zip(kept, fc.outputs):
                parts.append(o[: CEC_ROW_CAP - start])
    metrics = EvalMetrics(
        auc=auc(scores, ds.labels),
        logloss=bce(scores, ds.labels)[0],
        num_samples=len(ds),
    )
    return metrics, cec_report([np.concatenate(parts) for parts in kept])


def train_loop(
    model: ModelBundle,
    train_ds: EncodedDataset,
    valid_ds: EncodedDataset,
    config: TrainConfig,
) -> TrainReport:
    """Epochs of seeded-shuffle batches with early stopping on valid AUC.

    The epoch shuffle is reseeded as seed + epoch; the best-AUC parameters
    are restored into the model before returning. Identical (model seed,
    config, data) reruns produce identical numeric trajectories. A step
    that raises ValueError is re-raised with its epoch and batch in front.
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
    adam = Adam(lr=config.learning_rate)
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
        for b, batch in enumerate(batches):
            try:
                losses = train_step(
                    model,
                    train_ds.indices[batch.rows],
                    train_ds.labels[batch.rows],
                    adam,
                    params,
                )
            except ValueError as err:
                raise ValueError(f"epoch {epoch} batch {b}: {err}") from err
            loss_sum += losses.bce * batch.size
            objective_sum += losses.total * batch.size
        metrics, corr = evaluate(model, valid_ds)
        record = EpochRecord(
            epoch=epoch,
            train_logloss=loss_sum / len(train_ds),
            train_objective=objective_sum / len(train_ds),
            valid_auc=metrics.auc,
            valid_logloss=metrics.logloss,
            valid_cec_pairs=dict(corr.pairs),
            valid_cec_sum=corr.total,
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
    """Total objective and a dense gradient for every named parameter.

    Embedding grads go through the scatter train_step runs, with a rule
    that writes the summed rows into a zero array shaped like the table, so
    a gradcheck also checks the scatter.
    """
    losses, grads, _ = batch_objective(model, indices, labels)
    out = dict(grads.dense)
    for prefix, table, sparse in _sparse_groups(model, grads):
        dense = np.zeros_like(table.weight)
        apply_sparse_to_table(table, sparse, dense.__setitem__)
        out.update(prefixed(prefix, EmbeddingTable(dense, table.offsets).params))
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
        return forward_objective(model, indices, labels)[0].total

    try:
        return central_diff_gradcheck(objective, x0, analytic, h=h, tol=tol)
    finally:
        write_arrays(arrays, x0)
