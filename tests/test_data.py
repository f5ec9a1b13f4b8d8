import csv
import hashlib
import io
import re

import numpy as np
import pytest

from moectr import data
from moectr.data import (
    Batch,
    DatasetSchema,
    EncodedDataset,
    FeatureField,
    decimal_ids,
    fnv1a_buckets,
    gen_synthetic,
    hash_token,
    load_synthetic_csv,
    load_table,
    load_synthetic_params,
    make_batches,
    save_synthetic_params,
    save_table,
    split_dataset,
)
from moectr.metrics import auc
from moectr.numerics import sigmoid


def reference_fnv1a_64(data: bytes) -> int:
    # independent implementation, written from the published algorithm
    value = 14695981039346656037
    for byte in data:
        value = ((value ^ byte) * 1099511628211) % 2**64
    return value


class TestHashToken:
    def test_empty_string_offset_basis(self):
        assert hash_token("", 2**64) == 14695981039346656037

    def test_against_reference(self):
        for token in ["a", "abc", "field=value", "__MISSING__", "日本語"]:
            for d in [1, 2, 97, 2**32]:
                assert hash_token(token, d) == reference_fnv1a_64(token.encode("utf-8")) % d

    def test_cardinality_one(self):
        assert hash_token("anything", 1) == 0

    def test_deterministic(self):
        assert hash_token("x", 1000) == hash_token("x", 1000)

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            hash_token("x", 0)


EDGE_TOKENS = ["", "a", "a\0", "\0", "abc\0\0", "é", "日本語", "x" * 40, "y" * 39 + "\0", "a,b"]


def joined_spans(tokens: list[bytes]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The tokens as one buffer, with each token's start and length in it."""
    lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    return b"".join(tokens), np.cumsum(lengths) - lengths, lengths


class TestFnv1aBuckets:
    """The vectorised hash must equal hash_token, the scalar reference."""

    def test_matches_hash_token(self):
        rng = np.random.default_rng(5)
        tokens = [t.encode("utf-8") for t in EDGE_TOKENS]
        tokens += [bytes(rng.integers(0, 256, rng.integers(0, 45)).tolist()) for _ in range(2000)]
        for d in [1, 7, 100_000, 2**63 - 1]:
            expected = [hash_token(t, d) for t in tokens]
            assert fnv1a_buckets(*joined_spans(tokens), d).tolist() == expected

    def test_spans_in_any_order_with_a_cardinality_per_column(self):
        # a (rows, fields) block of spans, some repeated and out of buffer order
        tokens = [t.encode("utf-8") for t in EDGE_TOKENS] + [b"z" * 300]
        buf, starts, lengths = joined_spans(tokens)
        pick = np.random.default_rng(1).integers(0, len(tokens), (40, 3))
        cards = [50, 1, 2**63 - 1]
        got = fnv1a_buckets(buf, starts[pick], lengths[pick], np.array(cards))
        assert got.tolist() == [[hash_token(tokens[k], d) for k, d in zip(row, cards)] for row in pick]

    def test_empty_list(self):
        assert fnv1a_buckets(*joined_spans([]), 5).tolist() == []

    def test_bad_cardinality(self):
        with pytest.raises(ValueError, match="^cardinality must be >= 1, got 0$"):
            fnv1a_buckets(*joined_spans([b"x"]), 0)


def digit_strings(rng, count: int, low: int, high: int) -> list[str]:
    """``count`` random runs of ASCII digits, each of ``low`` to ``high`` - 1
    digits, leading zeros included."""
    return ["".join(rng.choice(list("0123456789"), rng.integers(low, high))) for _ in range(count)]


class TestDecimalIds:
    """The decimal fold must equal int(token), saturated at the cardinality."""

    def test_matches_int_with_leading_zeros(self):
        tokens = ["0", "00", "007", "0" * 18] + digit_strings(np.random.default_rng(7), 2000, 1, 19)
        got = decimal_ids(*joined_spans([t.encode() for t in tokens]), 2**63 - 1)
        assert got.tolist() == [int(t) for t in tokens]

    def test_rejects_every_bad_bucket_id_cell(self):
        # the cells the encoded reader must reject, at their cardinality of 30
        mark = TestLoadSyntheticCsv.test_bad_bucket_id_names_column_and_row.pytestmark[0]
        cells = [cell for cell, _ in mark.args[1]]
        got = decimal_ids(*joined_spans([c.encode() for c in cells]), 30)
        assert [v for v in got.tolist() if 0 <= v < 30] == []

    def test_saturates_on_ids_past_int64(self):
        cap = 2**63 - 1
        tokens = [str(cap - 1), str(cap), str(cap + 1), "9" * 19, "0" * 25 + "42", str(10**40 + 5)]
        tokens += digit_strings(np.random.default_rng(3), 500, 19, 60)
        got = decimal_ids(*joined_spans([t.encode() for t in tokens]), cap)
        assert got.tolist() == [min(int(t), cap) for t in tokens]

    def test_a_cardinality_per_column(self):
        tokens = [b"0", b"9", b"10", b"099", b"100", b"", b"5a"]
        buf, starts, lengths = joined_spans(tokens)
        pick = np.random.default_rng(2).integers(0, len(tokens), (30, 2))
        got = decimal_ids(buf, starts[pick], lengths[pick], np.array([10, 100]))
        want = [
            [min(int(tokens[k]), d) if tokens[k].isdigit() else -1 for k, d in zip(row, [10, 100])]
            for row in pick
        ]
        assert got.tolist() == want


SCHEMA = DatasetSchema(
    fields=(FeatureField("site", 50), FeatureField("device", 30)),
    label_column="click",
)


class TestLoadTable:
    def test_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click\ns1,d1,0\ns2,d2,1\ns3,d1,0\n")
        ds = load_table(path, SCHEMA)
        assert len(ds) == 3
        assert ds.labels.tolist() == [0.0, 1.0, 0.0]
        assert ds.indices[0, 0] == hash_token("s1", 50)
        assert ds.indices[1, 1] == hash_token("d2", 30)

    def test_missing_cell_sentinel(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click\ns1,,1\n")
        ds = load_table(path, SCHEMA)
        assert ds.indices[0, 1] == hash_token("__MISSING__", 30)

    def test_invalid_label_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click\na,b,0\na,b,1\na,b,0\na,b,2\n")
        with pytest.raises(ValueError, match="invalid label at line 5"):
            load_table(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,click\na,0\n")
        with pytest.raises(ValueError, match="device"):
            load_table(path, SCHEMA)

    @pytest.mark.parametrize("header", ["site,device,site,click", "site,device,click,click"])
    def test_repeated_referenced_column_rejected(self, tmp_path, header):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\na,b,1,0\n")
        repeated = header.split(",")[2]
        for reader in (load_table, load_synthetic_csv):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: column '{repeated}' appears 2 times in the header$"):
                reader(path, SCHEMA)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click,junk,junk\na,b,1,zzz,yyy\n")
        ds = load_table(path, SCHEMA)
        assert len(ds) == 1

    def test_hashes_every_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 3)
        path = tmp_path / "t.csv"
        tokens = [(f"s{i % 4}", f"d{i}" if i % 5 else "") for i in range(11)]
        body = "".join(f"{a},{b},{i % 2}\n" for i, (a, b) in enumerate(tokens))
        path.write_text("site,device,click\n" + body)
        ds = load_table(path, SCHEMA)
        expected = [
            [hash_token(a, 50), hash_token(b or "__MISSING__", 30)] for a, b in tokens
        ]
        assert ds.indices.tolist() == expected
        assert ds.labels.tolist() == [float(i % 2) for i in range(11)]

    def test_edge_tokens_hash_as_scalar_across_chunks(self, tmp_path, monkeypatch):
        # empty, NUL-ended, non-ASCII and 40-byte tokens, repeated in other
        # chunks and beside other lengths; each cell must equal hash_token
        monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 4)
        sites = EDGE_TOKENS * 2 + ["s1"]
        devices = EDGE_TOKENS[::-1] + ["d", "dd"] + EDGE_TOKENS[:9]
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "device", "click"])
            writer.writerows([a, b, i % 2] for i, (a, b) in enumerate(zip(sites, devices)))
        ds = load_table(path, SCHEMA)
        expected = [
            [hash_token(a or "__MISSING__", 50), hash_token(b or "__MISSING__", 30)]
            for a, b in zip(sites, devices)
        ]
        assert ds.indices.tolist() == expected

    def test_every_cell_hashes_as_scalar_across_chunk_boundaries(self, tmp_path, monkeypatch):
        # three reader rows a chunk: a quoted newline and comma, a blank line
        # opening a chunk whose feature cells are all empty, a short row, a
        # 10,000-character token beside 1-byte ones and one multi-byte token
        # in an ASCII chunk, under a header in another order than the schema
        monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 3)
        long = "q" * 10_000
        path = tmp_path / "t.csv"
        path.write_text(
            'device,click,junk,site\nd1,0,j,"a\nb,c"\nx,1,,s\ny,0,j,t\n\n,1,j,\n,0,,\n,1,z,\n'
            f"d,0\n{long},1,j,a\nb,0,j,c\n日本語,1,j,s\ne,0,j,f\n",
            encoding="utf-8",
        )
        rows = [
            ("a\nb,c", "d1", 0), ("s", "x", 1), ("t", "y", 0), ("", "", 1), ("", "", 0), ("", "", 1),
            ("", "d", 0), ("a", long, 1), ("c", "b", 0), ("s", "日本語", 1), ("f", "e", 0),
        ]
        ds = load_table(path, SCHEMA)
        assert ds.indices.tolist() == [
            [hash_token(site or "__MISSING__", 50), hash_token(device or "__MISSING__", 30)]
            for site, device, _ in rows
        ]
        assert ds.labels.tolist() == [float(click) for _, _, click in rows]

    def test_indices_below_cardinality(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = "\n".join(f"s{i},d{i},{i % 2}" for i in range(200))
        path.write_text("site,device,click\n" + rows + "\n")
        ds = load_table(path, SCHEMA)
        assert (ds.indices[:, 0] < 50).all()
        assert (ds.indices[:, 1] < 30).all()


def _toy_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return EncodedDataset(
        SCHEMA,
        np.column_stack([rng.integers(0, 50, n), rng.integers(0, 30, n)]),
        (rng.random(n) < 0.5).astype(float),
    )


class TestSplitDataset:
    def test_floor_allocation(self):
        ds = _toy_dataset(10)
        tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_remainder_to_train(self):
        ds = _toy_dataset(11)
        tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
        # floors are 6/2/2, one leftover row joins train
        assert (len(tr), len(va), len(te)) == (7, 2, 2)

    def test_deterministic(self):
        ds = _toy_dataset(30)
        a = split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
        b = split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_fractions_exceed_one(self):
        with pytest.raises(ValueError, match="fractions exceed 1"):
            split_dataset(_toy_dataset(), (0.9, 0.2, 0.1), seed=0)

    def test_concatenation_reproduces_input(self):
        ds = _toy_dataset(37, seed=5)
        tr, va, te = split_dataset(ds, (0.5, 0.3, 0.2), seed=11)
        perm = np.random.default_rng(11).permutation(37)
        merged_idx = np.vstack([tr.indices, va.indices, te.indices])
        merged_y = np.concatenate([tr.labels, va.labels, te.labels])
        inverse = np.argsort(perm)
        np.testing.assert_array_equal(merged_idx[inverse], ds.indices)
        np.testing.assert_array_equal(merged_y[inverse], ds.labels)


class TestMakeBatches:
    def test_sizes(self):
        batches = make_batches(_toy_dataset(5), 2)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_single_batch(self):
        batches = make_batches(_toy_dataset(4), 10)
        assert [b.size for b in batches] == [4]

    def test_shuffle_deterministic(self):
        ds = _toy_dataset(20)
        a = make_batches(ds, 6, shuffle_seed=9)
        b = make_batches(ds, 6, shuffle_seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.rows, y.rows)

    def test_rows_covered_once(self):
        ds = _toy_dataset(23)
        for seed in [None, 4]:
            batches = make_batches(ds, 5, shuffle_seed=seed)
            rows = np.concatenate([b.rows for b in batches])
            assert sorted(rows.tolist()) == list(range(23))


class TestGenSynthetic:
    def test_deterministic(self):
        a, pa = gen_synthetic(4, 20, 3, 500, seed=42)
        b, pb = gen_synthetic(4, 20, 3, 500, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.labels, b.labels)
        for ua, ub in zip(pa.u, pb.u):
            np.testing.assert_array_equal(ua, ub)

    def test_needs_two_fields(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 10, 2, 100, seed=0)

    def test_two_fields_draw_no_triple_term(self):
        ds, params = gen_synthetic(2, [5, 7], 3, 50, seed=6, c0=0.5)
        assert not any(v.any() for v in params.v)
        pair = (params.u[0].take(ds.indices[:, 0], axis=0) * params.u[1].take(ds.indices[:, 1], axis=0)).sum(axis=1)
        np.testing.assert_allclose(params.logits(ds.indices), 0.5 + pair, rtol=1e-12, atol=1e-12)

    def test_latent_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="latent_dim must be >= 1, got 0"):
            gen_synthetic(3, 10, 0, 100, seed=0)

    @pytest.mark.parametrize("cards", [[5, 0, 5], [5, 5, -2]])
    def test_cardinality_below_one_rejected(self, cards):
        with pytest.raises(ValueError, match=f"cardinalities must be >= 1, got {min(cards)}"):
            gen_synthetic(3, cards, 2, 100, seed=0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(pair_strength=float("nan")), "pair_strength must be a finite number, got nan"),
            (dict(triple_strength=float("nan")), "triple_strength must be a finite number, got nan"),
            (dict(c0=float("nan")), "c0 must be a finite number, got nan"),
            (dict(pair_strength=float("inf")), "pair_strength must be a finite number, got inf"),
            (dict(pair_strength=-1.0), "pair_strength must be >= 0.0, got -1.0"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ],
        ids=["nan-pair", "nan-triple", "nan-c0", "inf-pair", "negative-pair", "negative-seed"],
    )
    def test_bad_argument_rejected_naming_it(self, kwargs, message):
        # a NaN or inf strength or c0 used to return all-zero labels
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_synthetic(3, 5, 2, 200, **{"seed": 1, **kwargs})

    def test_zero_strengths_allowed(self):
        ds, params = gen_synthetic(3, 5, 2, 200, seed=1, pair_strength=0, triple_strength=0)
        assert not any(u.any() for u in params.u) and not any(v.any() for v in params.v)
        np.testing.assert_array_equal(params.logits(ds.indices), 0.0)

    def test_indices_in_range(self):
        ds, _ = gen_synthetic(3, [7, 11, 13], 2, 1000, seed=1)
        for j, card in enumerate([7, 11, 13]):
            assert ds.indices[:, j].max() < card
            assert ds.indices[:, j].min() >= 0

    def test_positive_rate_matches_generator(self):
        # Monte-Carlo oracle: empirical click rate vs the mean model
        # probability under the persisted parameters
        ds, params = gen_synthetic(6, 100, 4, 100_000, seed=9)
        expected = sigmoid(params.logits(ds.indices)).mean()
        assert abs(ds.labels.mean() - expected) < 0.02

    def test_true_logit_beats_constant_scorer(self):
        ds, params = gen_synthetic(5, 50, 3, 10_000, seed=13)
        scores = params.logits(ds.indices)
        # O(n^2) pairwise oracle (vectorized): P(pos > neg) + 0.5 P(tie)
        pos = scores[ds.labels == 1.0]
        neg = scores[ds.labels == 0.0]
        greater = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (greater + 0.5 * ties) / (pos.size * neg.size)
        assert oracle > 0.5
        assert auc(scores, ds.labels) == pytest.approx(oracle, abs=1e-12)

    def test_params_roundtrip(self, tmp_path):
        _, params = gen_synthetic(3, [5, 6, 7], 2, 10, seed=21, c0=0.25)
        path = tmp_path / "gen.params"
        save_synthetic_params(params, path)
        loaded = load_synthetic_params(path)
        assert loaded.seed == 21
        assert loaded.c0 == 0.25
        for a, b in zip(params.u, loaded.u):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.v, loaded.v):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: text + "seed = 99\n", "key 'seed' repeats line 2"),
            (lambda text: text + "latent_dim 2\n", "expected 'key = value'"),
            (lambda text: text.replace("\nv.2 = ", "\n# v.2 = "), "missing key 'v.2'"),
            (lambda text: text.replace("\nseed = 21", "\nseed = x"), "key 'seed': invalid literal for int() with base 10: 'x'"),
            (lambda text: re.sub(r"^(u\.0 = )[^,]*", r"\1abc", text, flags=re.M), "key 'u.0': could not convert string to float: 'abc'"),
            (lambda text: re.sub(r"^(u\.0 = .*),.*$", r"\1", text, flags=re.M), "key 'u.0': expected 10 numbers, got 9"),
            (lambda text: re.sub(r"^(v\.0 = .*),.*$", r"\1", text, flags=re.M), "key 'v.0': expected 5 numbers, got 4"),
            (lambda text: text.replace("\nlatent_dim = 2", "\nlatent_dim = 3"), "key 'u.0': expected 15 numbers, got 10"),
            (lambda text: text.replace("\ncardinality.0 = 5", "\ncardinality.0 = -5").replace("\nlatent_dim = 2", "\nlatent_dim = -2"),
             "key 'latent_dim': latent_dim must be >= 1, got -2"),
            (lambda text: text.replace("\ncardinality.1 = 6", "\ncardinality.1 = 0"), "key 'cardinality.1': cardinalities must be >= 1, got 0"),
            (lambda text: re.sub(r"^c0 = .*$", "c0 = nan", text, flags=re.M), "key 'c0': c0 must be a finite number, got 'nan'"),
            (lambda text: re.sub(r"^(u\.0 = )[^,]*", r"\1nan", text, flags=re.M), "key 'u.0': entry must be a finite number, got 'nan'"),
            (lambda text: re.sub(r"^(v\.1 = .*),[^,]*$", r"\1,-inf", text, flags=re.M), "key 'v.1': entry must be a finite number, got '-inf'"),
            (lambda text: text.replace("\nseed = 21", "\nseed = -1"), "key 'seed': seed must be >= 0, got -1"),
            (lambda text: text.replace("\nfields = 3", "\nfields = 1"), "key 'fields': num_fields must be >= 2, got 1"),
            (lambda text: text.replace("\nfields = 3", "\nfields = 2"), "line 12: unknown key 'cardinality.2'"),
            (lambda text: text + "typo_key = 5\n", "line 15: unknown key 'typo_key'"),
        ],
        ids=[
            "repeated-key", "no-equals", "missing-key", "seed-not-a-number", "word-in-u", "short-u", "short-v",
            "wrong-latent-dim", "negative-sizes", "zero-cardinality", "nan-c0", "nan-in-u", "inf-in-v",
            "negative-seed", "one-field", "fields-edited-down", "unknown-key",
        ],
    )
    def test_bad_params_file_rejected(self, tmp_path, edit, message):
        _, params = gen_synthetic(3, [5, 6, 7], 2, 10, seed=21)
        path = tmp_path / "gen.params"
        save_synthetic_params(params, path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}.*{re.escape(message)}$"):
            load_synthetic_params(path)

    def test_csv_roundtrip(self, tmp_path):
        ds, _ = gen_synthetic(3, 9, 2, 50, seed=2)
        path = tmp_path / "synth.csv"
        save_table(ds, path)
        back = load_synthetic_csv(path, ds.schema)
        np.testing.assert_array_equal(back.indices, ds.indices)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestLoadSyntheticCsv:
    @pytest.mark.parametrize(
        "cell,shown",
        [
            ("", "''"), ("7x", "'7x'"), ("2.0", "'2.0'"), ("30", "'30'"), ("-1", "'-1'"),
            ("1_0", "'1_0'"), ("\u0663", "'\u0663'"), (" 7", "' 7'"), ("+5", r"'\+5'"),
            ("12345678901234567890", "'12345678901234567890'"),
        ],
    )
    def test_bad_bucket_id_names_column_and_row(self, tmp_path, cell, shown):
        path = tmp_path / "t.csv"
        path.write_text(f"site,device,click\n1,2,0\n3,4,1\n\n5,{cell},0\n")
        with pytest.raises(
            ValueError, match=rf"column 'device', data row 3 \(line 5\): {shown} is not a bucket id"
        ):
            load_synthetic_csv(path, SCHEMA)

    def test_leading_zero_reads_as_its_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click\n07,0,1\n")
        assert load_synthetic_csv(path, SCHEMA).indices.tolist() == [[7, 0]]

    def test_short_row_reads_an_empty_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("site,device,click\n1,2,0\n3\n")
        with pytest.raises(ValueError, match="invalid label at line 3"):
            load_synthetic_csv(path, SCHEMA)
        path.write_text("site,click,device\n1,0,2\n3,1\n")
        with pytest.raises(ValueError, match=r"column 'device', data row 2 \(line 3\): ''"):
            load_synthetic_csv(path, SCHEMA)

    def test_reads_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 4)
        ds, _ = gen_synthetic(3, 9, 2, 23, seed=3)
        path = tmp_path / "synth.csv"
        save_table(ds, path)
        back = load_synthetic_csv(path, ds.schema)
        np.testing.assert_array_equal(back.indices, ds.indices)
        np.testing.assert_array_equal(back.labels, ds.labels)
        rows = path.read_text().splitlines()
        rows[15] = rows[15].replace(",", ",x", 1)  # data row 15, field f1
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"column 'f1', data row 15 \(line 16\)"):
            load_synthetic_csv(path, ds.schema)


@pytest.mark.parametrize("reader", [load_table, load_synthetic_csv], ids=["hashed", "encoded"])
def test_row_longer_than_the_header_is_an_error(tmp_path, reader):
    # an unquoted comma inside a token would otherwise shift the row's cells
    path = tmp_path / "t.csv"
    path.write_text('site,device,click\n1,2,0\n\n"3\n",4,1\n5,6,1,7\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: data row 3 \(line 6\) has 4 cells; the header has 3$"):
        reader(path, SCHEMA)


def _save_table_row_by_row(ds, path):
    """save_table as one writerow per row, the reference its block writer matches."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.field_names + [ds.schema.label_column])
        for i in range(len(ds)):
            writer.writerow([str(v) for v in ds.indices[i]] + [str(int(ds.labels[i]))])


@pytest.mark.parametrize("reader", [load_table, load_synthetic_csv], ids=["hashed", "encoded"])
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, reader):
    text = "site,device,click\n1,2,0\n3,4,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = reader(plain, SCHEMA), reader(marked, SCHEMA)
    assert got.schema == want.schema
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


READERS = pytest.mark.parametrize("reader", [load_table, load_synthetic_csv], ids=["hashed", "encoded"])
QUOTED = pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])


@READERS
@QUOTED
def test_field_past_the_csv_field_limit_names_its_row(tmp_path, reader, quoted):
    cell = "7" * 131_073
    if quoted:
        cell = f'"{cell}"'
    path = tmp_path / "t.csv"
    path.write_text(f"site,device,click\n1,2,0\n\n3,{cell},1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: data row 2 \(line 4\): field larger than field limit \(131072\)$"):
        reader(path, SCHEMA)


@READERS
@QUOTED
def test_field_limit_counts_characters_not_bytes(tmp_path, reader, quoted):
    # 65,537 two-byte characters: within the limit, so the bad label is what fails
    cell = "é" * 65_537
    if quoted:
        cell = f'"{cell}"'
    path = tmp_path / "t.csv"
    path.write_text(f"site,device,click\n1,{cell},x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid label at line 2$"):
        reader(path, SCHEMA)


@READERS
@QUOTED
def test_invalid_utf8_names_its_row(tmp_path, reader, quoted):
    path = tmp_path / "t.csv"
    path.write_bytes(b"site,device,click\n1,2,0\n\n3," + (b'"\xff"' if quoted else b"\xff") + b",1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: data row 2 \(line 4\): invalid UTF-8$"):
        reader(path, SCHEMA)


@READERS
def test_invalid_utf8_in_the_header_is_an_error(tmp_path, reader):
    path = tmp_path / "t.csv"
    path.write_bytes(b"site,device,click,\xff\n1,2,0,3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid UTF-8 in the header$"):
        reader(path, SCHEMA)


@READERS
@pytest.mark.parametrize(
    "cell", [b'"\xe2"\x82\xac', b'"' + b"7" * 131_000 + b"\xff" * 40 + b'"'], ids=["split-by-a-quote", "long-and-bad"]
)
def test_bad_bytes_in_a_quoted_cell_are_invalid_utf8(tmp_path, reader, cell):
    # the quote csv.reader removes must not join bytes into a character, and a
    # byte that is not UTF-8 is one character of the field limit
    path = tmp_path / "t.csv"
    path.write_bytes(b"site,device,click\n1," + cell + b",0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: data row 1 \(line 2\): invalid UTF-8$"):
        reader(path, SCHEMA)


@READERS
@QUOTED
def test_header_cell_past_the_csv_field_limit_is_an_error(tmp_path, reader, quoted):
    cell = "d" * 131_073
    if quoted:
        cell = f'"{cell}"'
    path = tmp_path / "t.csv"
    path.write_text(f"site,{cell},click\n1,2,0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: field larger than field limit \(131072\) in the header$"):
        reader(path, SCHEMA)


# one table, written so that each reading path takes some of it: both readers
# must load every version to the same arrays and fail with the same message
HEADER = ["click", "a", "b", "site", "device"]
HASHED = DatasetSchema((FeatureField("site", 2**63 - 1), FeatureField("device", 97)), "click")
ENCODED = DatasetSchema((FeatureField("a", 1000), FeatureField("b", 50)), "click")


def generated_rows(n: int = 25) -> list[list[str]]:
    """Encoded ids with leading zeros in a and b, the comma-free edge tokens
    in site and device, and device empty in every third row."""
    tokens = [t for t in EDGE_TOKENS if "," not in t]
    return [
        [str(r % 2), f"{7 * r:0{1 + r % 4}d}", f"{r:02d}", tokens[r % len(tokens)], "" if r % 3 == 0 else tokens[2 * r % len(tokens)]]
        for r in range(n)
    ]


def file_versions(rows: list[list[str]]) -> dict[str, tuple[str, list[int]]]:
    """Each version's text and the line on which each of its data rows ends."""
    table = [HEADER] + rows
    straight = list(range(2, len(table) + 1))

    def joined(part, end="\n"):
        return "".join(",".join(row) + end for row in part)

    quote_all = io.StringIO()
    csv.writer(quote_all, quoting=csv.QUOTE_ALL).writerows(table)
    last = rows[-1]
    versions = {
        "lf": (joined(table), straight),
        "no-final-newline": (joined(table)[:-1], straight),
        "final-lone-cr": (joined(table)[:-1] + "\r", straight),
        "crlf": (joined(table, "\r\n"), straight),
        "quote-all": (quote_all.getvalue(), straight),
        "bom": ("\ufeff" + joined(table), straight),
        "lone-cr": (joined(table[:9]) + joined(table[9:10], "\r") + joined(table[10:]), straight),
        "quote-in-last-chunk": (joined(table[:-1]) + ",".join(last[:3] + [f'"{last[3]}"'] + last[4:]) + "\n", straight),
    }
    text, lines = joined([HEADER]), []
    for r, row in enumerate(rows):  # blank lines, and short rows that drop their empty ends
        if r % 4 == 0:
            text += "\r\n" if r % 8 == 0 else "\n\n"
        while row[-1] == "":
            row = row[:-1]
        text += ",".join(row) + "\n"
        lines.append(text.count("\n"))
    versions["blank-and-short"] = (text, lines)
    return versions


def write_version(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("chunk_rows", [3, 7, 4096])
def test_every_version_reads_to_the_same_arrays(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", chunk_rows)
    rows = generated_rows()
    want = {
        load_table: [[hash_token(r[3] or "__MISSING__", 2**63 - 1), hash_token(r[4] or "__MISSING__", 97)] for r in rows],
        load_synthetic_csv: [[int(r[1]), int(r[2])] for r in rows],
    }
    labels = np.array([float(r[0]) for r in rows]).tobytes()
    for version, (text, _) in file_versions(rows).items():
        path = tmp_path / f"{version}.csv"
        write_version(path, text)
        for reader, schema in ((load_table, HASHED), (load_synthetic_csv, ENCODED)):
            ds = reader(path, schema)
            assert ds.indices.tobytes() == np.array(want[reader], np.int64).tobytes(), (version, reader.__name__)
            assert ds.labels.tobytes() == labels, (version, reader.__name__)


def _set(column: int, value: str):
    def edit(row):
        row[column] = value
        return row
    return edit


BOTH = (load_table, load_synthetic_csv)
FAULTS = {  # an edit of data row 11, the readers it fails, and the message
    "label": (_set(0, "2"), BOTH, "invalid label at line {line}"),
    "bucket-id": (_set(1, "7x"), (load_synthetic_csv,), "column 'a', data row 11 (line {line}): '7x' is not a bucket id in [0, 1000)"),
    "long-row": (lambda row: row + ["z"], BOTH, "data row 11 (line {line}) has 6 cells; the header has 5"),
    "utf-8": (_set(3, "s\udcff"), BOTH, "data row 11 (line {line}): invalid UTF-8"),
}


@pytest.mark.parametrize("chunk_rows", [3, 7, 4096])
@pytest.mark.parametrize("fault", FAULTS)
def test_every_version_fails_with_the_same_message(tmp_path, monkeypatch, chunk_rows, fault):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", chunk_rows)
    edit, readers, message = FAULTS[fault]
    rows = generated_rows()
    rows[10] = edit(rows[10])
    for version, (text, lines) in file_versions(rows).items():
        path = tmp_path / f"{version}.csv"
        write_version(path, text)
        for reader in readers:
            with pytest.raises(ValueError) as err:
                reader(path, HASHED if reader is load_table else ENCODED)
            assert str(err.value) == f"{path}: " + message.format(line=lines[10]), (version, reader.__name__)


class TestSaveTable:
    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 50_000])
    def test_bytes_match_the_row_loop(self, tmp_path, rows):
        ds, _ = gen_synthetic(6, 100_000, 2, 50_000, seed=4)
        ds = ds.take(np.arange(rows))
        digests = []
        for write in (save_table, _save_table_row_by_row):
            path = tmp_path / f"{write.__name__}.csv"
            write(ds, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestEncodedDatasetValidation:
    @pytest.mark.parametrize(
        "fields,label,message",
        [
            ((), "click", "^schema needs at least one field$"),
            ((FeatureField("site", 5), FeatureField("click", 2)), "click", "^label column must be distinct from feature columns$"),
        ],
        ids=["no-field", "label-is-a-field"],
    )
    def test_rejects_bad_schema(self, fields, label, message):
        with pytest.raises(ValueError, match=message):
            DatasetSchema(fields, label)

    @pytest.mark.parametrize(
        "indices,labels,message",
        [
            (np.zeros((2, 3)), np.zeros(2), "^indices shape does not match schema$"),
            (np.zeros(4), np.zeros(2), "^indices shape does not match schema$"),
            (np.zeros((2, 2)), np.zeros(3), "^labels length does not match indices$"),
        ],
        ids=["three-fields", "flat-indices", "three-labels"],
    )
    def test_rejects_mismatched_shapes(self, indices, labels, message):
        with pytest.raises(ValueError, match=message):
            EncodedDataset(SCHEMA, indices, labels)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            EncodedDataset(SCHEMA, np.zeros((2, 2), dtype=np.int64), np.array([0.0, 2.0]))

    def test_rejects_out_of_range_indices(self):
        idx = np.array([[50, 0], [0, 0]])
        with pytest.raises(ValueError, match="cardinality"):
            EncodedDataset(SCHEMA, idx, np.zeros(2))

    def test_empty_field_name_rejected(self):
        with pytest.raises(ValueError, match="^field name must not be empty$"):
            FeatureField("", 5)

    def test_zero_cardinality_field_rejected_naming_it(self):
        with pytest.raises(ValueError, match="^field 'site': cardinality must be >= 1, got 0$"):
            FeatureField("site", 0)

    def test_batch_size(self):
        assert Batch(np.arange(4)).size == 4
