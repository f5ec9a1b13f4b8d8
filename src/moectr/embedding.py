"""Embedding tables for the two input paradigms, plus the gating table.

Shared-embedding ("se") keeps one table that every expert reads;
multi-embedding ("me") gives each expert an exclusive table. The gating
table is always separate so gate weights are computed from an
expert-independent representation of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DatasetSchema
from .nnet import Module


@dataclass
class EmbeddingTable(Module):
    """Every field's lookup rows in one array sharing one embedding width.

    Field f owns rows ``offsets[f]:offsets[f+1]`` of ``weight``, so a
    (field, row) pair is table row ``offsets[field] + row``. ``fields`` and
    ``params`` are per-field views of ``weight``: writing through them
    writes the table.
    """

    weight: np.ndarray  # (sum of D_f, d)
    offsets: np.ndarray  # (F+1,) int64, offsets[0] = 0, offsets[-1] = weight rows

    @property
    def fields(self) -> list[np.ndarray]:
        """Field f's (D_f, d) block, as a view."""
        return [self.weight[lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:])]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {f"field{f}": arr for f, arr in enumerate(self.fields)}

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class EmbeddingBank:
    mode: str  # "se" | "me"
    tables: list[EmbeddingTable]  # length 1 (se) or M (me)
    gating_table: EmbeddingTable

    def table_for_expert(self, m: int) -> int:
        """Physical table index backing expert m (se maps every m to 0)."""
        if self.mode == "se":
            return 0
        if m >= len(self.tables):
            raise ValueError(f"expert index {m} out of range")
        return m


def _init_table(schema: DatasetSchema, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """One draw for the whole table; it is bit-identical to one draw per
    field in schema order, since the generator fills rows in sequence."""
    scale = 1.0 / np.sqrt(dim)
    offsets = np.cumsum([0, *schema.cardinalities], dtype=np.int64)
    return EmbeddingTable(rng.uniform(-scale, scale, size=(int(offsets[-1]), dim)), offsets)


def init_bank(
    schema: DatasetSchema,
    mode: str,
    num_experts: int,
    dim: int,
    gate_dim: int,
    seed: int | np.random.SeedSequence,
) -> EmbeddingBank:
    """Build the bank with uniform [-1/sqrt(d), 1/sqrt(d)] entries.

    Each table draws from its own child of the seed, so "me" tables start
    pairwise different while the whole bank is reproducible.
    """
    if num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    if dim < 1 or gate_dim < 1:
        raise ValueError("embedding dims must be >= 1")
    if mode not in ("se", "me"):
        raise ValueError(f"unknown bank mode {mode!r}")
    n_tables = 1 if mode == "se" else num_experts
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(n_tables + 1)
    tables = [
        _init_table(schema, dim, np.random.default_rng(children[t]))
        for t in range(n_tables)
    ]
    gating = _init_table(schema, gate_dim, np.random.default_rng(children[-1]))
    return EmbeddingBank(mode=mode, tables=tables, gating_table=gating)


def _gather(table: EmbeddingTable, indices: np.ndarray) -> np.ndarray:
    """One fancy index over table rows. An index array whose column count
    is not the table's field count is rejected (it would broadcast against
    the offsets), and so is a row outside [0, cardinality) of its field,
    naming the field and row (numpy would read a neighbouring field's row)."""
    cards = np.diff(table.offsets)
    if indices.ndim != 2 or indices.shape[1] != cards.size:
        raise ValueError(
            f"lookup indices of shape {indices.shape} need {cards.size} columns, one per field"
        )
    n = indices.shape[0]
    if n and (indices.min() < 0 or (indices.max(axis=0) >= cards).any()):
        i, j = np.argwhere((indices < 0) | (indices >= cards))[0]
        raise ValueError(
            f"lookup of field {j}, row {indices[i, j]}: rows must be in [0, {cards[j]})"
        )
    return table.weight[indices + table.offsets[:-1]].reshape(n, cards.size * table.dim)


def lookup(bank: EmbeddingBank, table_index: int, batch_indices: np.ndarray) -> np.ndarray:
    """Concatenate per-field embedding rows: output row i is
    [emb(field 0), emb(field 1), ...] for sample i, in schema order."""
    return _gather(bank.tables[bank.table_for_expert(table_index)], batch_indices)


def lookup_gating(bank: EmbeddingBank, batch_indices: np.ndarray) -> np.ndarray:
    return _gather(bank.gating_table, batch_indices)


@dataclass
class SparseGrad:
    """Gradients for a subset of table rows, as parallel arrays.

    Entries may repeat the same (field, row) pair; consumers must sum
    duplicates before updating.
    """

    fields: np.ndarray  # (K,) int64
    rows: np.ndarray  # (K,) int64
    vecs: np.ndarray  # (K, d) float64

    @classmethod
    def from_dense_rows(cls, batch_indices: np.ndarray, d_embed: np.ndarray) -> "SparseGrad":
        """Adjoint carrier of lookup: one entry per (sample, field) pair,
        sample-major, so ``vecs`` views a C-contiguous (B, F*d) upstream
        gradient d_embed. A table row belongs to one field, so its
        duplicates still arrive in sample order.
        """
        n, f = batch_indices.shape
        vecs = d_embed.reshape(n * f, d_embed.shape[1] // f)
        return cls(np.tile(np.arange(f, dtype=np.int64), n), batch_indices.reshape(-1), vecs)

    @classmethod
    def concat(cls, grads: list["SparseGrad"]) -> "SparseGrad":
        return cls(
            np.concatenate([g.fields for g in grads]),
            np.concatenate([g.rows for g in grads]),
            np.concatenate([g.vecs for g in grads]),
        )

    def to_dense(self, table: EmbeddingTable) -> list[np.ndarray]:
        """Scatter-add into zero arrays shaped like the table (oracle path)."""
        dense = [np.zeros_like(a) for a in table.fields]
        for f, r, v in zip(self.fields, self.rows, self.vecs):
            dense[f][r] += v
        return dense


UpdateRule = Callable[[np.ndarray, np.ndarray], None]


def apply_sparse_to_table(table: EmbeddingTable, grads: SparseGrad, update: UpdateRule) -> None:
    """Sum duplicate (field, row) entries, then hand the unique table rows,
    ascending, to the update rule as ``update(rows, summed_grads)``, one
    call per field that has entries.

    Duplicates are summed in entry order, one ``np.bincount`` per embedding
    column, so every sum is bit-identical to a sequential ``np.add.at``.
    The rule mutates the table rows (the optimizer step lives in the
    trainer); rows that received no gradient are never touched.
    Precondition: every entry is in the table (the lookup of the same
    forward pass accepted its index) and every gradient is finite
    (``train_step`` checks that before any update).
    """
    if grads.rows.size == 0:
        return
    uniq, inverse = np.unique(table.offsets[grads.fields] + grads.rows, return_inverse=True)
    summed = np.empty((uniq.size, grads.vecs.shape[1]))
    for j, column in enumerate(np.ascontiguousarray(grads.vecs.T)):
        summed[:, j] = np.bincount(inverse, weights=column, minlength=uniq.size)
    # One call per field, not one over the whole table: a row-wise Adam
    # step over every row of a wide table at once makes temporaries that
    # no longer fit in cache, which measured slower than this split.
    bounds = np.searchsorted(uniq, table.offsets)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            update(uniq[lo:hi], summed[lo:hi])

