import numpy as np
import pytest

from moectr.data import DatasetSchema, FeatureField
from moectr.embedding import (
    EmbeddingBank,
    EmbeddingTable,
    SparseGrad,
    apply_sparse_to_table,
    init_bank,
    lookup,
    lookup_gating,
)
from moectr.numerics import central_diff_gradcheck, flatten_arrays, write_arrays

SCHEMA = DatasetSchema(
    fields=(FeatureField("a", 4), FeatureField("b", 3)), label_column="y"
)


def _table(arrays: list[np.ndarray]) -> EmbeddingTable:
    """A table whose field f holds arrays[f], in order."""
    return EmbeddingTable(np.concatenate(arrays), np.cumsum([0, *map(len, arrays)]))


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
        bank = EmbeddingBank(mode="se", tables=[table], gating_table=table)
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

    def test_me_out_of_range_expert(self):
        bank = init_bank(SCHEMA, "me", 2, 2, 2, seed=2)
        with pytest.raises(ValueError, match="out of range"):
            lookup(bank, 5, np.array([[0, 0]]))

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


def _sgd_rule(table):
    def rule(rows, grad_rows):
        table.weight[rows] -= grad_rows

    return rule


class TestApplySparseGrads:
    def test_empty_noop(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=0)
        before = [a.copy() for a in bank.tables[0].fields]
        grads = SparseGrad(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 2))
        )
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(bank.tables[0]))
        for a, b in zip(bank.tables[0].fields, before):
            np.testing.assert_array_equal(a, b)

    def test_cancellation(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=0)
        before = [a.copy() for a in bank.tables[0].fields]
        g = np.array([[0.5, -0.25]])
        grads = SparseGrad(
            np.array([0, 0]), np.array([1, 1]), np.vstack([g, -g])
        )
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(bank.tables[0]))
        for a, b in zip(bank.tables[0].fields, before):
            np.testing.assert_array_equal(a, b)

    def test_duplicates_summed_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=3)
        table = bank.tables[0]
        k = 20
        grads = SparseGrad(
            rng.integers(0, 2, k),
            rng.integers(0, 3, k),
            rng.normal(size=(k, 2)),
        )
        dense = grads.to_dense(table)  # scatter-add oracle
        expected = [a - d for a, d in zip(table.fields, dense)]
        apply_sparse_to_table(bank.tables[0], grads, _sgd_rule(table))
        for a, e in zip(table.fields, expected):
            np.testing.assert_allclose(a, e, atol=1e-15)

    def test_untouched_rows_bit_identical(self):
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=4)
        table = bank.tables[0]
        before = [a.copy() for a in table.fields]
        grads = SparseGrad(np.array([0]), np.array([2]), np.array([[1.0, 1.0]]))
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
        grads = SparseGrad(fields, rows, vecs)
        got = _recorded_updates(table, grads)
        expected = _add_at_reference(table, grads)
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, g), (_, e) in zip(got, expected):
            assert g.tobytes() == e.tobytes()

    def test_skips_fields_without_entries(self):
        # field 2 starts at table row 4 + 3 = 7
        table = _table([np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((2, 2))])
        grads = SparseGrad(np.array([2, 0, 2]), np.array([1, 3, 1]), np.ones((3, 2)))
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
        packed = SparseGrad.concat([SparseGrad.from_dense_rows(idx, d) for d in d_embeds])

        def field_major(d_embed):
            vecs = d_embed.reshape(n, len(cards), 4).transpose(1, 0, 2).reshape(-1, 4)
            fields = np.repeat(np.arange(len(cards)), n)
            return SparseGrad(fields, idx.T.reshape(-1), np.ascontiguousarray(vecs))

        reference = SparseGrad.concat([field_major(d) for d in d_embeds])
        got = _recorded_updates(table, packed)
        expected = _recorded_updates(table, reference)
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, g), (_, e) in zip(got, expected):
            assert g.tobytes() == e.tobytes()


class TestLookupAdjoint:
    def test_gather_scatter_transpose(self):
        # <lookup(B), G> as a function of the table entries: the analytic
        # gradient is the scatter-add of G; check by central differences.
        rng = np.random.default_rng(11)
        bank = init_bank(SCHEMA, "se", 1, 2, 2, seed=5)
        table = bank.tables[0]
        idx = rng.integers(0, (4, 3), size=(5, 2))
        upstream = rng.normal(size=(5, 4))
        sparse = SparseGrad.from_dense_rows(idx, upstream)
        analytic = flatten_arrays(sparse.to_dense(table))
        arrays = table.fields
        x0 = flatten_arrays(arrays)

        def objective(vec):
            write_arrays(arrays, vec)
            return float((lookup(bank, 0, idx) * upstream).sum())

        try:
            rep = central_diff_gradcheck(objective, x0, analytic, h=1e-6, tol=1e-9)
        finally:
            write_arrays(arrays, x0)
        assert rep.passed, rep

    def test_from_dense_rows_layout(self):
        # entry (sample i, field j) must carry d_embed[i, j*d:(j+1)*d]
        idx = np.array([[3, 1], [0, 2]])
        d_embed = np.arange(8, dtype=float).reshape(2, 4)
        sg = SparseGrad.from_dense_rows(idx, d_embed)
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
        sg = SparseGrad.from_dense_rows(idx, d_embed)
        assert sg.vecs.shape == (4, 2)
        assert np.shares_memory(sg.vecs, d_embed)
