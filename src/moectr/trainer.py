"""End-to-end training: the one-batch objective and its backward, which
weights the de-correlation grads, Adam updates (dense params + lazy
embedding rows), the epoch loop with early stopping, and evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import EncodedDataset, make_batches
from .embedding import EmbeddingTable, RowPlan, SparseGrad, apply_sparse_to_table, plan_rows
from .gating import gating_backward
from .losses import bce, decorrelation_backward, decorrelation_total
from .metrics import CorrelationReport, EvalMetrics, auc, cec_report
from .model import FullCache, ModelBundle, dense_modules, forward_chunks, forward_full, loss_backward, loss_targets, named_params, table_modules
from .nnet import prefixed
from .numerics import GradCheckReport, at_least, central_diff_gradcheck, cross_gram, finite_positive, first_non_finite, gram_blocks
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
    named_params. tables: (name prefix, table, duplicate-bearing sparse
    grad) per table_modules entry. plan: the batch's row plan; its keys
    are the rows a step writes in every table.
    """

    dense: dict[str, np.ndarray]
    tables: list[tuple[str, EmbeddingTable, SparseGrad]]
    plan: RowPlan


def forward_objective(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[StepLosses, FullCache, np.ndarray, list[tuple]]:
    """Forward pass and the total objective, without the backward:
    (losses, cache, dBCE/dy_hat, one decorrelation_total cache per
    model.loss_targets set, none when the loss is off). A finite-difference
    check needs only losses.total.
    """
    weight = model.loss.weight(labels.size)
    fc = forward_full(model, indices)
    bce_val, d_yhat = bce(fc.y_hat, labels)
    decor_val, caches = 0.0, []
    for mats in loss_targets(model, fc) if weight else []:
        value, cache = decorrelation_total(mats, model.loss.form)
        decor_val += value
        caches.append(cache)
    total = bce_val + weight * decor_val
    return StepLosses(total=total, bce=bce_val, decorrelation=decor_val), fc, d_yhat, caches


def batch_objective(
    model: ModelBundle, indices: np.ndarray, labels: np.ndarray
) -> tuple[StepLosses, BatchGrads, FullCache]:
    """forward_objective, then the full backward pass: LossConfig.weight is
    each de-correlation total's upstream gradient, and model.loss_backward
    adds each expert's weighted grads at the loss location. The experts'
    backward passes may run on the expert pool (see parallel); their
    embedding grads are packed here, in expert order, on one row plan."""
    losses, fc, d_yhat, caches = forward_objective(model, indices, labels)
    weight = model.loss.weight(labels.size)
    extra = [decorrelation_backward(cache, weight) for cache in caches]
    p = fc.y_hat
    d_logits = (d_yhat * p * (1.0 - p)).reshape(-1, 1)
    tower_grads, d_h = model.tower.backward(fc.tower_cache, d_logits)
    gate_grads, d_gate_embeds, d_outputs = gating_backward(
        model.gate, fc.gate_cache, fc.gate_weights, fc.outputs, d_h
    )

    plan = plan_rows(model.bank.gating_table.offsets, np.arange(indices.shape[1]), indices)
    expert_grads = []
    table_parts: list[list[SparseGrad]] = [[] for _ in model.bank.tables]
    backward = map_experts(model, labels.size, lambda m: loss_backward(model, fc, m, d_outputs[m], extra))
    for m, (grads_m, d_e) in enumerate(backward):
        expert_grads.append(grads_m)
        table_parts[model.bank.table_of[m]].append(SparseGrad.from_dense_rows(indices, d_e, plan))

    dense: dict[str, np.ndarray] = {}
    module_grads = [*expert_grads, gate_grads, tower_grads]  # dense_modules order
    for (prefix, _), grads in zip(dense_modules(model), module_grads, strict=True):
        dense.update(prefixed(prefix, grads))
    sparse = [*map(SparseGrad.concat, table_parts), SparseGrad.from_dense_rows(indices, d_gate_embeds, plan)]
    tables = [(*module, g) for module, g in zip(table_modules(model), sparse, strict=True)]
    return losses, BatchGrads(dense, tables, plan), fc


def apply_grads(grads: BatchGrads, adam: Adam, params: dict[str, np.ndarray]) -> None:
    """One optimizer step; t advances once for all groups, and ``params``
    holds every dense parameter by name. Every gradient is checked before
    anything moves, so a step either applies in full or raises with
    parameters, moments and t untouched."""
    groups = [*grads.dense.items(), *((prefix, sparse.vecs) for prefix, _, sparse in grads.tables)]
    if (bad := first_non_finite(groups)) is not None:
        raise ValueError(f"non-finite gradient in {bad}")
    adam.begin_step()
    for name, g in grads.dense.items():
        adam.update(name, params[name], g)
    for prefix, table, sparse in grads.tables:
        apply_sparse_to_table(table, sparse, partial(adam.update_rows, prefix, table.weight))


def train_step(
    model: ModelBundle,
    indices: np.ndarray,
    labels: np.ndarray,
    adam: Adam,
    params: dict[str, np.ndarray] | None = None,
) -> StepLosses:
    """One optimizer step on one batch: batch_objective, then apply_grads
    (``params`` defaults to the model's named_params)."""
    losses, grads, _ = batch_objective(model, indices, labels)
    apply_grads(grads, adam, dict(named_params(model)) if params is None else params)
    return losses


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10000
    epochs: int = 5
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        finite_positive(self.learning_rate)
        for name, least in (("batch_size", 1), ("epochs", 1), ("patience", 0), ("seed", 0)):
            at_least(name, getattr(self, name), least)


@dataclass
class EpochRecord:
    epoch: int
    train_logloss: float
    train_objective: float
    valid: EvalMetrics
    valid_cec: CorrelationReport
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def best_valid_auc(self) -> float:
        """The best epoch's validation AUC; NaN before the first epoch."""
        return self.epochs[self.best_epoch].valid.auc if self.best_epoch >= 0 else float("nan")


def run_warnings(report: TrainReport) -> list[str]:
    """``warning: ...`` lines for a finished run that went wrong without
    raising; a healthy run gets none. A best validation AUC that is not
    above chance (0.5), NaN included, means the run learned nothing usable."""
    warnings = []
    if not report.best_valid_auc > 0.5:
        warnings.append(f"warning: best valid AUC {report.best_valid_auc:.6f} is not above chance (0.5)")
    return warnings


def evaluate(model: ModelBundle, ds: EncodedDataset) -> tuple[EvalMetrics, CorrelationReport]:
    """AUC and logloss over the full set, one forward_chunks chunk at a
    time; cross-expert correlations over the first CEC_ROW_CAP rows' outputs.
    The set must hold both labels, as its AUC needs."""
    check_both_classes(ds, "evaluation")
    scores = np.empty(len(ds))
    kept: list[list[np.ndarray]] = [[] for _ in range(model.num_experts)]
    for start, y_hat, outputs in forward_chunks(model, ds.indices):
        scores[start : start + y_hat.size] = y_hat
        if start < CEC_ROW_CAP:
            for parts, o in zip(kept, outputs):
                parts.append(o[: CEC_ROW_CAP - start])
    metrics = EvalMetrics(
        auc=auc(scores, ds.labels),
        logloss=bce(scores, ds.labels)[0],
        num_samples=len(ds),
    )
    return metrics, cec_report([np.concatenate(parts) for parts in kept])


def check_both_classes(ds: EncodedDataset, name: str) -> None:
    """Raise unless ``ds`` holds both labels, as its AUC needs."""
    if len(ds) == 0 or ds.labels.min() == ds.labels.max():
        raise ValueError(f"{name} set needs both classes (0 and 1) for AUC")


class RowUndoLog:
    """The values the embedding tables' rows had at the best epoch, kept
    only for the rows written since, so restoring the best epoch costs
    memory in proportion to those rows, not to the tables.

    Every table of a bank shares one row layout, and a step writes the
    same rows in each (``BatchGrads.plan.keys``): ``save`` runs between
    the step's batch_objective and its apply_grads and keeps each row's
    current value in every table, the first time the row is written
    since ``clear``.
    """

    def __init__(self, tables: list[np.ndarray]):
        self.tables = tables
        self.saved = np.zeros(tables[0].shape[0], dtype=bool)
        self.rows: list[np.ndarray] = []
        self.values: list[list[np.ndarray]] = []  # per save, one block per table

    def save(self, rows: np.ndarray) -> None:
        fresh = rows[~self.saved[rows]]
        if fresh.size:
            self.saved[fresh] = True
            self.rows.append(fresh)
            self.values.append([table.take(fresh, axis=0) for table in self.tables])

    def clear(self) -> None:
        for rows in self.rows:
            self.saved[rows] = False
        self.rows, self.values = [], []

    def restore(self) -> None:
        """Write every saved row back into its table."""
        for rows, blocks in zip(self.rows, self.values):
            for table, block in zip(self.tables, blocks):
                table[rows] = block


def train_loop(
    model: ModelBundle,
    train_ds: EncodedDataset,
    valid_ds: EncodedDataset,
    config: TrainConfig,
) -> TrainReport:
    """Epochs of seeded-shuffle batches with early stopping on valid AUC.

    The epoch shuffle is reseeded as seed + epoch. ``report.best_epoch`` is
    the one record early stopping keeps: epoch 0, then each epoch whose
    valid AUC is above the best epoch's (a tie is not), and the loop stops
    once an epoch ends more than ``patience`` epochs after it. The best
    epoch's parameters are restored into the model before returning: the
    dense ones from a copy taken at the best epoch, the embedding tables
    from a RowUndoLog of the rows written since.
    Identical (model seed, config, data) reruns produce identical numeric
    trajectories. A step that raises ValueError is re-raised with its
    epoch and batch in front.
    """
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise ValueError("train and valid sets must be nonempty")
    check_both_classes(valid_ds, "validation")
    model.loss.weight(len(train_ds) % config.batch_size or config.batch_size)  # the smallest batch
    adam = Adam(lr=config.learning_rate)
    dense = dict(item for prefix, module in dense_modules(model) for item in module.param_items(prefix))
    undo = RowUndoLog([table.weight for _, table in table_modules(model)])
    report = TrainReport()
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        batches = make_batches(train_ds, config.batch_size, shuffle_seed=config.seed + epoch)
        loss_sum = 0.0
        objective_sum = 0.0
        for b, batch in enumerate(batches):
            try:
                losses, grads, _ = batch_objective(
                    model, train_ds.indices.take(batch.rows, axis=0), train_ds.labels.take(batch.rows)
                )
                if report.best_epoch >= 0:
                    undo.save(grads.plan.keys)
                apply_grads(grads, adam, dense)
            except ValueError as err:
                raise ValueError(f"epoch {epoch} batch {b}: {err}") from err
            loss_sum += losses.bce * batch.size
            objective_sum += losses.total * batch.size
        metrics, corr = evaluate(model, valid_ds)
        seconds = time.perf_counter() - tic
        report.epochs.append(
            EpochRecord(epoch, loss_sum / len(train_ds), objective_sum / len(train_ds), metrics, corr, seconds)
        )
        if report.best_epoch < 0 or metrics.auc > report.best_valid_auc:
            report.best_epoch = epoch
            best_dense = {name: arr.copy() for name, arr in dense.items()}
            undo.clear()
        elif epoch - report.best_epoch > config.patience:
            break
    for name, arr in dense.items():
        arr[...] = best_dense[name]
    undo.restore()
    return report


class KinkCrossed(Exception):
    """A finite-difference evaluation left the base point's smooth piece."""


def kink_sites(model: ModelBundle, fc: FullCache) -> list[np.ndarray]:
    """Every value whose sign picks the objective's smooth piece: each ReLU
    pre-activation the modules report through ``relu_inputs`` (tower, gate
    MLP, experts with their alignment heads) and, under cov_l1, each entry
    of the off-diagonal blocks of the centered cross-expert Gram. A dead
    column's entries are exactly 0 and stay 0 while no ReLU flips."""
    modules = [
        (model.tower, fc.tower_cache),
        (model.gate, fc.gate_cache),
        *zip(model.experts, fc.expert_caches),
    ]
    sites = [z for module, cache in modules for z in module.relu_inputs(cache)]
    if model.loss.active and model.loss.form == "cov_l1":
        for mats in loss_targets(model, fc):
            g = cross_gram(mats, standardize=False)[2]
            sites.append(gram_blocks(g, mats)[np.triu_indices(len(mats), 1)])
    return sites


def gradcheck_model(
    model: ModelBundle,
    indices: np.ndarray,
    labels: np.ndarray,
    h: float,
    tol: float,
) -> GradCheckReport:
    """Central-difference check of the full objective over every parameter
    group: embeddings, gating table, experts, alignment heads, gate MLP,
    tower. Every evaluation must keep the sign of each of the base point's
    kink sites, else KinkCrossed is raised: a difference across a kink says
    nothing about the gradient. The checker moves each parameter entry in
    place and writes its original back, so the model ends as it began.

    Embedding grads go through the scatter apply_grads runs, with a rule
    that writes the summed rows into a zero array shaped like the table, so
    the check also checks the scatter.
    """
    _, batch_grads, fc = batch_objective(model, indices, labels)
    base = [np.sign(z) for z in kink_sites(model, fc)]
    grads = dict(batch_grads.dense)
    for prefix, table, sparse in batch_grads.tables:
        dense = np.zeros_like(table.weight)
        apply_sparse_to_table(table, sparse, dense.__setitem__)
        grads.update(prefixed(prefix, EmbeddingTable(dense, table.offsets).params))

    def objective() -> float:
        losses, fc, _, _ = forward_objective(model, indices, labels)
        if not all(np.array_equal(np.sign(z), s) for z, s in zip(kink_sites(model, fc), base, strict=True)):
            raise KinkCrossed("a finite-difference step crossed a kink")
        return losses.total

    return central_diff_gradcheck(objective, dict(named_params(model)), grads, h=h, tol=tol)
