import re

import numpy as np
import pytest

from moectr import trainer
from moectr.data import DatasetSchema, FeatureField
from moectr.embedding import (
    EmbeddingBank,
    EmbeddingTable,
    SparseGrad,
    apply_sparse_to_table,
    init_bank,
    lookup,
    lookup_gating,
    plan_rows,
)
from moectr.experts import ExpertConfig
from moectr.losses import LossConfig
from moectr.model import build_model
from moectr.numerics import central_diff_gradcheck
from moectr.optim import Adam

SCHEMA = DatasetSchema(
    fields=(FeatureField("a", 4), FeatureField("b", 3)), label_column="y"
)


def _table(arrays: list[np.ndarray]) -> EmbeddingTable:
    """A table whose field f holds arrays[f], in order."""
    return EmbeddingTable(np.concatenate(arrays), np.cumsum([0, *map(len, arrays)]))


def _grads(table: EmbeddingTable, fields, rows, vecs) -> SparseGrad:
    """Hand-made entries, with their plan built by the trainer's function."""
    fields, rows = np.asarray(fields), np.asarray(rows)
    return SparseGrad(fields, rows, np.asarray(vecs), plan_rows(table.offsets, fields, rows))


def _to_dense(grads: SparseGrad, table: EmbeddingTable) -> list[np.ndarray]:
    """Scatter-add oracle: one entry at a time into zero arrays shaped like
    the table's fields."""
    dense = [np.zeros_like(a) for a in table.fields]
    for f, r, v in zip(grads.fields, grads.rows, grads.vecs):
        dense[f][r] += v
    return dense


class TestInitBank:
    def test_se_single_table(self):
        bank = init_bank(SCHEMA, "se", 5, 2, 2, seed=0)
        assert len(bank.tables) == 1
        assert bank.gating_table.dim == 2

    def test_me_tables_pairwise_different(self):
        bank = init_bank(SCHEMA, "me", 3, 2, 2, seed=0)
        assert len(bank.tables) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(
                    bank.tables[i].fields[0], bank.tables[j].fields[0]
                )

    def test_deterministic(self):
        a = init_bank(SCHEMA, "me", 2, 3, 2, seed=9)
        b = init_bank(SCHEMA, "me", 2, 3, 2, seed=9)
        for ta, tb in zip(a.tables, b.tables):
            for fa, fb in zip(ta.fields, tb.fields):
                np.testing.assert_array_equal(fa, fb)

    def test_scale_bound(self):
        bank = init_bank(SCHEMA, "se", 1, 4, 4, seed=1)
        bound = 1.0 / np.sqrt(4)
        for arr in bank.tables[0].fields:
            assert np.abs(arr).max() <= bound

    def test_bad_expert_count(self):
        with pytest.raises(ValueError):
            init_bank(SCHEMA, "me", 0, 2, 2, seed=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            init_bank(SCHEMA, "xx", 1, 2, 2, seed=0)


class TestLookup:
    def test_concatenation_order(self):
        table = _table(
            [
                np.array([[1.0, 2.0], [9.0, 9.0], [0.0, 0.0], [0.0, 0.0]]),
                np.array([[3.0, 4.0], [8.0, 8.0], [0.0, 0.0]]),
            ]
        )
        bank = EmbeddingBank(mode="se", tables=[table], table_of=(0,), gating_table=table)
        out = lookup(bank, 0, np.array([[0, 0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0, 4.0]])

    def test_se_mode_all_experts_equal(self):
        bank = init_bank(SCHEMA, "se", 3, 2, 2, seed=2)
        idx = np.array([[1, 2], [3, 0]])
        np.testing.assert_array_equal(lookup(bank, 0, idx), lookup(bank, 1, idx))
        np.testing.assert_array_equal(lookup(bank, 0, idx), lookup(bank, 2, idx))

    def test_me_mode_experts_differ(self):
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=2)
        idx = np.array([[1, 2], [3, 0]])
        assert not np.array_equal(lookup(bank, 0, idx), lookup(bank, 1, idx))

    @pytest.mark.parametrize("mode", ["se", "me"])
    @pytest.mark.parametrize("expert", [-1, 2])
    def test_out_of_range_expert(self, mode, expert):
        bank = init_bank(SCHEMA, mode, 2, 2, 2, seed=2)
        with pytest.raises(ValueError, match=f"^expert index {expert} out of range$"):
            lookup(bank, expert, np.array([[0, 0]]))

    def test_one_expert_draws_the_same_bank_in_both_modes(self):
        # one table either way, so both modes spawn the same seed children
        se, me = (init_bank(SCHEMA, mode, 1, 2, 3, seed=4) for mode in ("se", "me"))
        assert se.table_of == me.table_of == (0,)
        for a, b in zip([*se.tables, se.gating_table], [*me.tables, me.gating_table], strict=True):
            assert a.weight.tobytes() == b.weight.tobytes()

    def test_negative_row_rejected(self):
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=0)
        for gather in (lambda idx: lookup(bank, 1, idx), lambda idx: lookup_gating(bank, idx)):
            with pytest.raises(ValueError, match="field 1, row -2"):
                gather(np.array([[0, 0], [3, -2]]))

    def test_row_at_cardinality_rejected(self):
        # field "b" has 3 rows; numpy would raise a bare IndexError
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=0)
        for gather in (lambda idx: lookup(bank, 1, idx), lambda idx: lookup_gating(bank, idx)):
            with pytest.raises(ValueError, match=r"field 1, row 3: rows must be in \[0, 3\)"):
                gather(np.array([[0, 0], [3, 3]]))

    def test_row_past_a_non_last_field_rejected(self):
        # flat row 4 is field "b"'s row 0: inside the table, so a bare take would read it
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=0)
        for gather in (lambda idx: lookup(bank, 1, idx), lambda idx: lookup_gating(bank, idx)):
            with pytest.raises(ValueError, match=r"field 0, row 4: rows must be in \[0, 4\)"):
                gather(np.array([[4, 0]]))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_column_count_must_match_field_count(self, columns):
        # one column would broadcast against the two fields' offsets
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=0)
        idx = np.zeros((4, columns), dtype=np.int64)
        for gather in (lambda: lookup(bank, 1, idx), lambda: lookup_gating(bank, idx)):
            with pytest.raises(ValueError, match=rf"shape \(4, {columns}\) need 2 columns"):
                gather()

    def test_gating_lookup_uses_gating_table(self):
        bank = init_bank(SCHEMA, "me", 2, 2, 3, seed=2)
        out = lookup_gating(bank, np.array([[1, 2]]))
        assert out.shape == (1, 6)
        np.testing.assert_array_equal(out[0, :3], bank.gating_table.fields[0][1])


class TestGatherMatchesFancyIndex:
    """lookup gathers with take; its bytes are those of weight[flat rows]."""

    SCHEMA = DatasetSchema(
        fields=tuple(FeatureField(f"f{j}", c) for j, c in enumerate((5, 1, 9, 2))), label_column="y"
    )

    @staticmethod
    def _reference(table: EmbeddingTable, idx: np.ndarray) -> np.ndarray:
        return table.weight[idx + table.offsets[:-1]].reshape(idx.shape[0], idx.shape[1] * table.dim)

    def _batches(self, seed: int) -> list[np.ndarray]:
        cards = np.array(self.SCHEMA.cardinalities)
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, cards, size=(37, cards.size)),
            (cards - 1)[None, :],  # every field's last row
            np.zeros((0, cards.size), dtype=np.int64),
        ]

    @pytest.mark.parametrize("mode", ["se", "me"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_for_byte(self, mode, seed):
        bank = init_bank(self.SCHEMA, mode, 3, 4, 3, seed=seed)
        for idx in self._batches(seed):
            for m in range(3):
                table = bank.tables[bank.table_of[m]]
                out = lookup(bank, m, idx)
                assert out.shape == (idx.shape[0], idx.shape[1] * 4)
                assert out.tobytes() == self._reference(table, idx).tobytes()
            out = lookup_gating(bank, idx)
            assert out.tobytes() == self._reference(bank.gating_table, idx).tobytes()


def _sgd_rule(table):
    def rule(rows, grad_rows):
        table.weight[rows] -= grad_rows

    return rule


class TestApplySparseGrads:
    def test_empty_noop(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=0)
        before = [a.copy() for a in bank.tables[0].fields]
        grads = _grads(
            bank.tables[0], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 2))
        )
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(bank.tables[0]))
        for a, b in zip(bank.tables[0].fields, before):
            np.testing.assert_array_equal(a, b)

    def test_cancellation(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=0)
        before = [a.copy() for a in bank.tables[0].fields]
        g = np.array([[0.5, -0.25]])
        grads = _grads(bank.tables[0], [0, 0], [1, 1], np.vstack([g, -g]))
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(bank.tables[0]))
        for a, b in zip(bank.tables[0].fields, before):
            np.testing.assert_array_equal(a, b)

    def test_duplicates_summed_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=3)
        table = bank.tables[0]
        k = 20
        grads = _grads(table, rng.integers(0, 2, k), rng.integers(0, 3, k), rng.normal(size=(k, 2)))
        dense = _to_dense(grads, table)
        expected = [a - d for a, d in zip(table.fields, dense)]
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(table))
        for a, e in zip(table.fields, expected):
            np.testing.assert_allclose(a, e, atol=1e-15)

    def test_untouched_rows_bit_identical(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=4)
        table = bank.tables[0]
        before = [a.copy() for a in table.fields]
        grads = _grads(table, [0], [2], [[1.0, 1.0]])
        apply_sparse_to_table(table, grads, _sgd_rule(table))
        # only field 0 row 2 may differ
        mask = np.ones(4, dtype=bool)
        mask[2] = False
        np.testing.assert_array_equal(table.fields[0][mask], before[0][mask])
        np.testing.assert_array_equal(table.fields[1], before[1])
        assert not np.array_equal(table.fields[0][2], before[0][2])


def _add_at_reference(table: EmbeddingTable, grads: SparseGrad) -> list[tuple[list[int], np.ndarray]]:
    """Sequential np.add.at over table rows, as (table rows ascending,
    summed grads) per field with entries."""
    key = table.offsets[grads.fields] + grads.rows
    uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    summed = np.zeros((uniq.size, grads.vecs.shape[1]))
    np.add.at(summed, inverse, grads.vecs)
    u_fields = grads.fields[first]
    return [
        (uniq[u_fields == f].tolist(), summed[u_fields == f])
        for f in np.unique(u_fields).tolist()
    ]


def _recorded_updates(table: EmbeddingTable, grads: SparseGrad):
    calls = []
    apply_sparse_to_table(table, grads, lambda rows, g: calls.append((rows.tolist(), g.copy())))
    return calls


class TestScatterBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_add_at_exactly(self, seed):
        # duplicate-heavy, unsorted fields of mixed cardinality, magnitudes
        # 1e-8..1e8 so that any change of summation order shows
        rng = np.random.default_rng(seed)
        cards = [1, 3, 50, 2000, 7]
        table = _table([np.zeros((c, 4)) for c in cards])
        k = 3000
        fields = rng.integers(0, len(cards), k)
        rows = (rng.zipf(1.5, k) - 1) % np.array(cards)[fields]
        scale = 10.0 ** rng.uniform(-8, 8, size=(k, 1))
        vecs = rng.standard_normal((k, 4)) * scale
        grads = _grads(table, fields, rows, vecs)
        got = _recorded_updates(table, grads)
        expected = _add_at_reference(table, grads)
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, g), (_, e) in zip(got, expected):
            assert g.tobytes() == e.tobytes()

    def test_skips_fields_without_entries(self):
        # field 2 starts at table row 4 + 3 = 7
        table = _table([np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((2, 2))])
        grads = _grads(table, [2, 0, 2], [1, 3, 1], np.ones((3, 2)))
        calls = _recorded_updates(table, grads)
        assert [r for r, _ in calls] == [[3], [8]]
        np.testing.assert_array_equal(calls[1][1], [[2.0, 2.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_major_pack_matches_field_major(self, seed):
        # two experts' lookup gradients over duplicate-heavy indices: the
        # sample-major packing must sum every row in the order a field-major
        # packing (one field's samples after another) did, byte for byte
        rng = np.random.default_rng(seed)
        cards = [1, 3, 50, 7]
        table = _table([np.zeros((c, 4)) for c in cards])
        n = 400
        idx = (rng.zipf(1.5, (n, len(cards))) - 1) % np.array(cards)
        d_embeds = [
            rng.standard_normal((n, len(cards) * 4)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
            for _ in range(2)
        ]
        plan = plan_rows(table.offsets, np.arange(len(cards)), idx)
        packed = SparseGrad.concat([SparseGrad.from_dense_rows(idx, d, plan) for d in d_embeds])
        fields, rows = np.repeat(np.arange(len(cards)), n), idx.T.reshape(-1)
        field_major_plan = plan_rows(table.offsets, fields, rows)

        def field_major(d_embed):
            vecs = d_embed.reshape(n, len(cards), 4).transpose(1, 0, 2).reshape(-1, 4)
            return SparseGrad(fields, rows, np.ascontiguousarray(vecs), field_major_plan)

        reference = SparseGrad.concat([field_major(d) for d in d_embeds])
        got = _recorded_updates(table, packed)
        expected = _recorded_updates(table, reference)
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, g), (_, e) in zip(got, expected):
            assert g.tobytes() == e.tobytes()


def _bank_grads(bank: EmbeddingBank, idx: np.ndarray, rng) -> list[SparseGrad]:
    """One lookup gradient per expert (4) and one for the gate, packed per
    table on one plan as the trainer packs them, the gating table last;
    magnitudes 1e-8..1e8 so that any change of summation order shows."""
    plan = plan_rows(bank.gating_table.offsets, np.arange(idx.shape[1]), idx)

    def part(table):
        d_embed = rng.standard_normal((idx.shape[0], idx.shape[1] * table.dim))
        return SparseGrad.from_dense_rows(idx, d_embed * 10.0 ** rng.uniform(-8, 8, (idx.shape[0], 1)), plan)

    parts: list[list[SparseGrad]] = [[] for _ in bank.tables]
    for m in range(4):
        t = bank.table_of[m]
        parts[t].append(part(bank.tables[t]))
    return [*map(SparseGrad.concat, parts), part(bank.gating_table)]


class TestRowPlan:
    SCHEMA = DatasetSchema(
        fields=tuple(FeatureField(f"f{j}", c) for j, c in enumerate([1, 3, 50, 7, 3])),
        label_column="y",
    )

    @pytest.mark.parametrize("mode", ["se", "me"])
    def test_planned_scatter_matches_add_at_exactly(self, mode):
        # zipf rows repeat across samples; fields of equal cardinality repeat
        # the same row number across fields
        rng = np.random.default_rng(17)
        bank = init_bank(self.SCHEMA, mode, 4, 3, 2, seed=4)
        cards = np.diff(bank.gating_table.offsets)
        idx = (rng.zipf(1.5, (300, cards.size)) - 1) % cards
        assert (idx[:, 1] == idx[:, 4]).any()
        grads = _bank_grads(bank, idx, rng)
        assert len(grads) == len(bank.tables) + 1
        for table, g in zip([*bank.tables, bank.gating_table], grads):
            got = _recorded_updates(table, g)
            expected = _add_at_reference(table, g)
            assert [r for r, _ in got] == [r for r, _ in expected]
            for (_, a), (_, e) in zip(got, expected):
                assert a.tobytes() == e.tobytes()

    def test_concat_of_two_plans_raises(self):
        table = _table([np.zeros((4, 2)), np.zeros((3, 2))])
        idx = np.array([[0, 1], [3, 1]])
        parts = [
            SparseGrad.from_dense_rows(idx, np.ones((2, 4)), plan_rows(table.offsets, np.arange(2), idx))
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="one row plan"):
            SparseGrad.concat(parts)

    def test_plan_for_other_offsets_names_the_table(self):
        table = _table([np.zeros((4, 2)), np.zeros((3, 2))])
        other = _table([np.zeros((4, 2)), np.zeros((5, 2))])
        grads = _grads(other, [0, 1], [3, 4], np.ones((2, 2)))
        message = r"the table at offsets \[0, 4, 7\] got grads planned on \[0, 4, 9\]"
        with pytest.raises(ValueError, match=message):
            apply_sparse_to_table(table, grads, _sgd_rule(table))

    def test_bank_tables_share_the_gating_offsets(self):
        table = _table([np.zeros((4, 2)), np.zeros((3, 2))])
        other = _table([np.zeros((4, 2)), np.zeros((5, 2))])
        with pytest.raises(ValueError, match="gating table's field offsets"):
            EmbeddingBank(mode="se", tables=[other], table_of=(0,), gating_table=table)

    @pytest.mark.parametrize("table_of,tables", [((1,), 1), ((), 1), ((0, 0), 2)])
    def test_bank_map_reads_each_table(self, table_of, tables):
        # a map past the last table, an empty map, and a table no expert reads
        table = _table([np.zeros((4, 2)), np.zeros((3, 2))])
        message = f"expert-to-table map {table_of} must read each of the {tables} table(s)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddingBank(mode="se", tables=[table] * tables, table_of=table_of, gating_table=table)

    @pytest.mark.parametrize(
        "mode,table_of,built",
        [("me", (1, 0), (0, 1)), ("me", (0, 0), (0, 1)), ("se", (0, 1), (0, 0))],
        ids=["permuted-me", "shared-table-under-me", "two-tables-under-se"],
    )
    def test_bank_map_is_the_one_its_mode_builds(self, mode, table_of, built):
        # init_bank would rebuild another map from the mode on reload: a
        # permuted map reloads as another model, a shared one not at all
        table = _table([np.zeros((4, 2)), np.zeros((3, 2))])
        message = f"bank mode {mode!r} builds the expert-to-table map {built}, not {table_of}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddingBank(mode=mode, tables=[table] * len(set(table_of)), table_of=table_of, gating_table=table)

    @pytest.mark.parametrize("mode", ["se", "me"])
    def test_one_plan_per_training_step(self, monkeypatch, mode):
        model = build_model(
            SCHEMA, mode, [ExpertConfig(kind="fm", out_dim=3)] * 4,
            LossConfig(form="corr", alpha=0.5, location="output"),
            embed_dim=2, gate_hidden=(4,), tower_hidden=(4,), seed=1,
        )
        plans, scattered = [], []
        monkeypatch.setattr(trainer, "plan_rows", lambda *args: plans.append(plan_rows(*args)) or plans[-1])
        scatter = trainer.apply_sparse_to_table
        monkeypatch.setattr(
            trainer, "apply_sparse_to_table", lambda t, g, u: scattered.append(g.plan) or scatter(t, g, u)
        )
        idx = np.random.default_rng(2).integers(0, (4, 3), size=(8, 2))
        trainer.train_step(model, idx, np.array([0.0, 1.0] * 4), Adam(lr=0.1))
        assert len(plans) == 1
        # every table, the gating table last, scatters through the one sort
        assert len(scattered) == len(model.bank.tables) + 1 == (2 if mode == "se" else 5)
        assert all(p.keys is plans[0].keys for p in scattered)


class TestLookupAdjoint:
    def test_gather_scatter_transpose(self):
        # <lookup(B), G> as a function of the table entries: the analytic
        # gradient is the scatter-add of G; check by central differences.
        rng = np.random.default_rng(11)
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=5)
        table = bank.tables[0]
        idx = rng.integers(0, (4, 3), size=(5, 2))
        upstream = rng.normal(size=(5, 4))
        sparse = SparseGrad.from_dense_rows(idx, upstream, plan_rows(table.offsets, np.arange(2), idx))
        rep = central_diff_gradcheck(
            lambda: float((lookup(bank, 0, idx) * upstream).sum()),
            table.params,
            dict(zip(table.params, _to_dense(sparse, table))),
            h=1e-6,
            tol=1e-9,
        )
        assert rep.passed, rep

    def test_from_dense_rows_layout(self):
        # entry (sample i, field j) must carry d_embed[i, j*d:(j+1)*d]
        idx = np.array([[3, 1], [0, 2]])
        d_embed = np.arange(8, dtype=float).reshape(2, 4)
        sg = SparseGrad.from_dense_rows(idx, d_embed, plan_rows(np.array([0, 4, 7]), np.arange(2), idx))
        triples = {
            (int(f), int(r)): v.tolist()
            for f, r, v in zip(sg.fields, sg.rows, sg.vecs)
        }
        assert triples[(0, 3)] == [0.0, 1.0]
        assert triples[(1, 1)] == [2.0, 3.0]
        assert triples[(0, 0)] == [4.0, 5.0]
        assert triples[(1, 2)] == [6.0, 7.0]

    def test_from_dense_rows_vecs_view_d_embed(self):
        idx = np.array([[3, 1], [0, 2]])
        d_embed = np.arange(8, dtype=float).reshape(2, 4)
        sg = SparseGrad.from_dense_rows(idx, d_embed, plan_rows(np.array([0, 4, 7]), np.arange(2), idx))
        assert sg.vecs.shape == (4, 2)
        assert np.shares_memory(sg.vecs, d_embed)
