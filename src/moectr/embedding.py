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
from .numerics import at_least, one_of

# the expert-to-table map each mode builds for n experts
TABLE_MAPS = {"se": lambda n: (0,) * n, "me": lambda n: tuple(range(n))}
BANK_MODES = tuple(TABLE_MAPS)


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
    mode: str  # "se" | "me", as the bank was built; echoed in the model file
    tables: list[EmbeddingTable]  # length 1 (se) or M (me)
    table_of: tuple[int, ...]  # expert m reads tables[table_of[m]]
    gating_table: EmbeddingTable

    def __post_init__(self):  # one row plan per batch serves every table
        if any(not np.array_equal(t.offsets, self.gating_table.offsets) for t in self.tables):
            raise ValueError("every embedding table needs the gating table's field offsets")
        if set(self.table_of) != set(range(len(self.tables))):
            raise ValueError(f"expert-to-table map {self.table_of} must read each of the {len(self.tables)} table(s)")
        built = TABLE_MAPS[one_of(self.mode, BANK_MODES)](len(self.table_of))
        if self.table_of != built:
            raise ValueError(f"bank mode {self.mode!r} builds the expert-to-table map {built}, not {self.table_of}")


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

    TABLE_MAPS turns the mode into the expert-to-table map. Each
    table draws from its own child of the seed, so "me" tables start
    pairwise different while the whole bank is reproducible.
    """
    at_least("num_experts", num_experts, 1)
    at_least("embedding dims", min(dim, gate_dim), 1)
    table_of = TABLE_MAPS[one_of(mode, BANK_MODES)](num_experts)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    *children, gating_child = seed.spawn(len(set(table_of)) + 1)
    tables = [_init_table(schema, dim, np.random.default_rng(child)) for child in children]
    gating = _init_table(schema, gate_dim, np.random.default_rng(gating_child))
    return EmbeddingBank(mode, tables, table_of, gating)


def _gather(table: EmbeddingTable, indices: np.ndarray) -> np.ndarray:
    """One ``take`` of whole table rows, which copies the same bytes as
    ``weight[flat]`` in far less time. An index array whose column count
    is not the table's field count is rejected (it would broadcast against
    the offsets), and so is a row outside [0, cardinality) of its field,
    naming the field and row. That check must run first: ``take`` wraps a
    negative index to the table's end and reads a row past a field's
    cardinality from the next field."""
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
    return table.weight.take(indices + table.offsets[:-1], axis=0).reshape(n, cards.size * table.dim)


def lookup(bank: EmbeddingBank, expert: int, batch_indices: np.ndarray) -> np.ndarray:
    """Expert ``expert``'s input from table ``table_of[expert]``: output
    row i is [emb(field 0), emb(field 1), ...] for sample i, in schema order."""
    if not 0 <= expert < len(bank.table_of):
        raise ValueError(f"expert index {expert} out of range")
    return _gather(bank.tables[bank.table_of[expert]], batch_indices)


def lookup_gating(bank: EmbeddingBank, batch_indices: np.ndarray) -> np.ndarray:
    return _gather(bank.gating_table, batch_indices)


@dataclass(frozen=True)
class RowPlan:
    """A batch's (field, row) keys sorted once, shared by every table laid
    out on ``offsets``: entry k's table row is ``keys[inverse[k]]``."""

    offsets: np.ndarray  # (F+1,)
    keys: np.ndarray  # (U,) distinct table rows, ascending
    inverse: np.ndarray  # (K,)


def plan_rows(offsets: np.ndarray, fields: np.ndarray, rows: np.ndarray) -> RowPlan:
    """One ``np.unique`` over the table rows of (fields, rows), broadcast together, in C order."""
    keys, inverse = np.unique(offsets[fields] + rows, return_inverse=True)
    return RowPlan(offsets, keys, inverse.reshape(-1))


@dataclass
class SparseGrad:
    """Gradients for a subset of table rows, as parallel arrays, and their row plan.

    Entries may repeat the same (field, row) pair; consumers must sum
    duplicates before updating.
    """

    fields: np.ndarray  # (K,) int64
    rows: np.ndarray  # (K,) int64
    vecs: np.ndarray  # (K, d) float64
    plan: RowPlan

    @classmethod
    def from_dense_rows(cls, batch_indices: np.ndarray, d_embed: np.ndarray, plan: RowPlan) -> "SparseGrad":
        """Adjoint carrier of lookup: one entry per (sample, field) pair,
        sample-major, so ``vecs`` views a C-contiguous (B, F*d) upstream
        gradient d_embed. A table row belongs to one field, so its
        duplicates still arrive in sample order; ``plan`` is the batch's.
        """
        n, f = batch_indices.shape
        vecs = d_embed.reshape(n * f, d_embed.shape[1] // f)
        return cls(np.tile(np.arange(f, dtype=np.int64), n), batch_indices.reshape(-1), vecs, plan)

    @classmethod
    def concat(cls, grads: list["SparseGrad"]) -> "SparseGrad":
        """The parts' entries in turn; they must share one plan, tiled once per part."""
        plan = grads[0].plan
        if any(g.plan is not plan for g in grads):
            raise ValueError("SparseGrad.concat needs parts built on one row plan")
        return cls(
            np.concatenate([g.fields for g in grads]),
            np.concatenate([g.rows for g in grads]),
            np.concatenate([g.vecs for g in grads]),
            RowPlan(plan.offsets, plan.keys, np.tile(plan.inverse, len(grads))),
        )


UpdateRule = Callable[[np.ndarray, np.ndarray], None]


def apply_sparse_to_table(table: EmbeddingTable, grads: SparseGrad, update: UpdateRule) -> None:
    """Sum duplicate (field, row) entries, then hand the unique table rows,
    ascending, to the update rule as ``update(rows, summed_grads)``, one
    call per field that has entries.

    The keys were sorted once per batch, by the row plan every table shares;
    it must be built on this table's offsets. Duplicates are summed in entry
    order, one ``np.bincount`` per embedding column, so every sum is
    bit-identical to a sequential ``np.add.at``. The rule mutates the table
    rows (the optimizer step lives in the trainer); rows that received no
    gradient are never touched. Precondition: every entry is in the table
    (the lookup of the same forward pass accepted its index) and every
    gradient is finite (``trainer.apply_grads`` checks that before any update).
    """
    plan = grads.plan
    if not np.array_equal(plan.offsets, table.offsets):
        raise ValueError(f"the table at offsets {table.offsets.tolist()} got grads planned on {plan.offsets.tolist()}")
    summed = np.empty((plan.keys.size, grads.vecs.shape[1]))
    for j in range(grads.vecs.shape[1]):
        summed[:, j] = np.bincount(plan.inverse, weights=grads.vecs[:, j], minlength=plan.keys.size)
    # One call per field, not one over the whole table: a row-wise Adam
    # step over every row of a wide table at once makes temporaries that
    # no longer fit in cache, which measured slower than this split.
    bounds = np.searchsorted(plan.keys, table.offsets)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            update(plan.keys[lo:hi], summed[lo:hi])
