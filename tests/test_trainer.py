import hashlib
import json
import re
import struct

import numpy as np
import pytest

from moectr import model as model_module
from moectr import trainer

from moectr.data import DatasetSchema, EncodedDataset, FeatureField, gen_synthetic, split_dataset
from moectr.embedding import EmbeddingTable, SparseGrad, lookup, lookup_gating
from moectr.experts import EXPERT_KINDS, ExpertConfig
from moectr.gradsuite import kink_margin, run_case, suite_cases
from moectr.losses import LossConfig, bce
from moectr.metrics import auc, cec_report
from moectr.model import (
    build_model,
    forward_full,
    load_model,
    named_params,
    param_count,
    predict,
    save_model,
    table_modules,
)
from moectr.numerics import row_softmax, sigmoid
from moectr.optim import Adam
from moectr.parallel import openblas
from moectr.trainer import (
    TrainConfig,
    batch_objective,
    evaluate,
    train_loop,
    train_step,
)

SCHEMA = DatasetSchema(
    fields=tuple(FeatureField(f"f{j}", 5) for j in range(3)), label_column="y"
)


def micro_model(loss=None, mode="me", seed=0, kinds=("crossnet", "crossnet")):
    loss = loss or LossConfig(form="corr", alpha=0.0)
    kind_cfg = {
        "crossnet": dict(cross_layers=2),
        "dnn": dict(hidden=(4,)),
        "fm": dict(),
        "cin": dict(cin_maps=(3,)),
    }
    cfgs = [ExpertConfig(kind=k, out_dim=3, **kind_cfg[k]) for k in kinds]
    return build_model(
        SCHEMA, mode, cfgs, loss, embed_dim=2, gate_hidden=(4,), tower_hidden=(4,), seed=seed
    )


def micro_batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 5, size=(n, 3))
    y = np.zeros(n)
    y[: n // 2] = 1.0
    return idx, y


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        adam = Adam(lr=0.1)
        p = np.array([1.0, -2.0])
        adam.begin_step()
        adam.update("p", p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_is_scaled_sign(self):
        adam = Adam(lr=0.05)
        p = np.array([1.0, 1.0, 1.0])
        g = np.array([3.0, -0.004, 1e-12])
        adam.begin_step()
        adam.update("p", p, g.copy())
        expected = 1.0 - 0.05 * g / (np.abs(g) + adam.eps)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_beta_zero_degenerates_to_sign_sgd(self):
        adam = Adam(lr=0.1, beta1=0.0, beta2=0.0)
        p = np.array([0.0])
        for _ in range(2):
            adam.begin_step()
            adam.update("p", p, np.array([4.0]))
        # each step moves by lr * g/(|g| + eps) ~= lr * sign(g)
        np.testing.assert_allclose(p, [-0.2], atol=1e-9)

    def test_sparse_rows_untouched_bit_identical(self):
        adam = Adam(lr=0.1)
        p = np.random.default_rng(0).normal(size=(6, 3))
        before = p.copy()
        adam.begin_step()
        adam.update_rows("p", p, np.array([1, 4]), np.ones((2, 3)))
        touched = np.zeros(6, dtype=bool)
        touched[[1, 4]] = True
        np.testing.assert_array_equal(p[~touched], before[~touched])
        assert not np.array_equal(p[touched], before[touched])

    def test_sparse_matches_dense_when_all_rows_touched_once(self):
        rng = np.random.default_rng(1)
        p1 = rng.normal(size=(4, 2))
        p2 = p1.copy()
        g = rng.normal(size=(4, 2))
        a1, a2 = Adam(lr=0.01), Adam(lr=0.01)
        for _ in range(3):
            a1.begin_step()
            a1.update("p", p1, g)
            a2.begin_step()
            a2.update_rows("p", p2, np.arange(4), g)
        np.testing.assert_allclose(p1, p2, atol=1e-15)


class TestBuildModel:
    def test_empty_expert_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_model(SCHEMA, "me", [], LossConfig())

    def test_mismatched_out_dims(self):
        cfgs = [
            ExpertConfig(kind="fm", out_dim=3),
            ExpertConfig(kind="fm", out_dim=4),
        ]
        with pytest.raises(ValueError, match="out_dim"):
            build_model(SCHEMA, "me", cfgs, LossConfig())

    def test_intermediate_requires_crossnet(self):
        cfgs = [ExpertConfig(kind="dnn", out_dim=3, hidden=(4,))] * 2
        with pytest.raises(ValueError, match="crossnet"):
            build_model(
                SCHEMA, "me", cfgs, LossConfig(form="corr", alpha=0.1, location="intermediate")
            )

    def test_intermediate_requires_equal_layers(self):
        cfgs = [
            ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2),
            ExpertConfig(kind="crossnet", out_dim=3, cross_layers=3),
        ]
        with pytest.raises(ValueError, match="equal cross layer"):
            build_model(
                SCHEMA, "me", cfgs, LossConfig(form="corr", alpha=0.1, location="intermediate")
            )

    def test_se_mode_single_table(self):
        model = micro_model(mode="se")
        assert len(model.bank.tables) == 1

    def test_param_count_closed_form(self):
        model = micro_model(kinds=("fm", "fm"))
        # bank: 2 tables x 3 fields x 5 x 2 + gating 3 x 5 x 2
        emb = 2 * 3 * 5 * 2 + 3 * 5 * 2
        # fm experts: align (3 x 2 + 3) each
        experts = 2 * (3 * 2 + 3)
        # gate mlp: 6 -> 4 -> 2: (4*6+4) + (2*4+2)
        gate = 4 * 6 + 4 + 2 * 4 + 2
        # tower: 3 -> 4 -> 1
        tower = 4 * 3 + 4 + 1 * 4 + 1
        assert param_count(model) == emb + experts + gate + tower

    def test_deterministic_init(self):
        a, b = micro_model(seed=7), micro_model(seed=7)
        for (na, pa), (nb, pb) in zip(named_params(a), named_params(b)):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)


class TestForwardFull:
    def test_straight_line_composition_oracle(self):
        model = micro_model(seed=3, kinds=("dnn", "fm"))
        idx, _ = micro_batch(6, seed=4)
        fc = forward_full(model, idx)
        outputs = []
        for m, expert in enumerate(model.experts):
            e = lookup(model.bank, m, idx)
            o, _ = expert.forward(e)
            outputs.append(o)
        ge = lookup_gating(model.bank, idx)
        logits, _ = model.gate.forward(ge)
        g = row_softmax(logits)
        h = sum(g[:, m : m + 1] * outputs[m] for m in range(2))
        tower_out, _ = model.tower.forward(h)
        expected = sigmoid(tower_out).ravel()
        np.testing.assert_allclose(fc.y_hat, expected, atol=1e-12)

    def test_single_expert_degenerate(self):
        model = micro_model(seed=5, kinds=("dnn",))
        idx, _ = micro_batch(5, seed=6)
        fc = forward_full(model, idx)
        np.testing.assert_allclose(fc.gate_weights, np.ones((5, 1)))
        tower_out, _ = model.tower.forward(fc.outputs[0])
        np.testing.assert_allclose(fc.y_hat, sigmoid(tower_out).ravel(), atol=1e-12)

    def test_zero_weights_constant_probability(self):
        model = micro_model(seed=8)
        for w, b in zip(model.tower.weights, model.tower.biases):
            w[...] = 0.0
            b[...] = 0.0
        model.tower.biases[-1][...] = 0.3
        idx, _ = micro_batch(7, seed=9)
        fc = forward_full(model, idx)
        np.testing.assert_allclose(fc.y_hat, np.full(7, sigmoid(np.array([0.3]))[0]))

    def test_predict_matches_forward(self, monkeypatch):
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 4)
        model = micro_model(seed=10)
        idx, _ = micro_batch(9, seed=11)
        np.testing.assert_allclose(predict(model, idx), forward_full(model, idx).y_hat)

    @pytest.mark.parametrize("mode,gathers", [("se", 1), ("me", 4)])
    def test_one_lookup_per_physical_table(self, mode, gathers, monkeypatch):
        calls = []

        def counting_lookup(bank, m, indices):
            calls.append(m)
            return lookup(bank, m, indices)

        monkeypatch.setattr(model_module, "lookup", counting_lookup)
        model = all_kinds_model(mode)
        idx = micro_batch(8, seed=12)[0]
        fc = forward_full(model, idx)
        assert len(calls) == gathers
        assert len({id(e) for e in fc.embeds}) == gathers
        for m, e in enumerate(fc.embeds):
            np.testing.assert_array_equal(e, lookup(model.bank, m, idx))


class TestTrainStep:
    def test_alpha_zero_invariant_to_loss_form(self):
        # with alpha 0, training is bit-identical whatever the form field says
        results = []
        for form in ("corr", "cov_l1", "none"):
            model = micro_model(LossConfig(form=form, alpha=0.0), seed=12)
            adam = Adam(lr=0.01)
            idx, y = micro_batch(8, seed=13)
            for _ in range(3):
                train_step(model, idx, y, adam)
            results.append(np.concatenate([a.ravel() for _, a in named_params(model)]))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_objective_decreases_on_average(self):
        # small-lr steps on a fixed batch should reduce the total loss in
        # nearly every seeded trial
        wins = 0
        for seed in range(10):
            model = micro_model(LossConfig(form="corr", alpha=0.5), seed=seed)
            adam = Adam(lr=0.003)
            idx, y = micro_batch(8, seed=100 + seed)
            first = batch_objective(model, idx, y)[0].total
            for _ in range(5):
                train_step(model, idx, y, adam)
            last = batch_objective(model, idx, y)[0].total
            wins += last < first
        assert wins >= 9

    def test_batch_of_one_rejected_when_active(self):
        model = micro_model(LossConfig(form="corr", alpha=0.5), seed=14)
        adam = Adam()
        idx, y = micro_batch(8, seed=15)
        with pytest.raises(ValueError, match="batch too small"):
            train_step(model, idx[:1], y[:1], adam)

    def test_decorrelation_reported(self):
        model = micro_model(LossConfig(form="corr", alpha=0.5), seed=16)
        adam = Adam()
        idx, y = micro_batch(8, seed=17)
        losses = train_step(model, idx, y, adam)
        assert losses.decorrelation > 0.0
        assert losses.total == pytest.approx(
            losses.bce + 0.5 * losses.decorrelation / 7.0
        )

    @pytest.mark.parametrize("bad", ["negative-row", "row-at-cardinality", "extra-column"])
    def test_negative_index_moves_nothing(self, bad):
        # the scatter trusts its entries, so the lookup must reject every
        # index outside the table before any parameter, moment or t moves:
        # a negative row would read the table's last row, and a row at
        # its field's cardinality the next field's first row
        model = all_kinds_model("se")
        idx, y = micro_batch(8, seed=1)
        if bad == "negative-row":
            idx[3, 2] = -1
            match = "field 2, row -1"
        elif bad == "row-at-cardinality":
            idx[3, 1] = 5
            match = "field 1, row 5"
        else:
            idx = np.hstack([idx, idx[:, :1]])
            match = r"shape \(8, 4\) need 3 columns"
        before = [arr.copy() for _, arr in named_params(model)]
        adam = Adam(lr=0.1)
        with pytest.raises(ValueError, match=match):
            train_step(model, idx, y, adam)
        assert adam.t == 0 and not adam.slots
        for (_, arr), old in zip(named_params(model), before):
            np.testing.assert_array_equal(arr, old)

    @pytest.mark.parametrize("mode", ["me", "se"])
    def test_one_adam_slot_per_table(self, mode):
        model = all_kinds_model(mode)
        adam = Adam(lr=0.01)
        train_step(model, *micro_batch(8, seed=2), adam)
        dense = [name for name, _ in named_params(model) if not name.startswith("bank.")]
        tables = [prefix for prefix, _ in table_modules(model)]
        assert len(adam.slots) == len(dense) + len(tables)
        assert sorted(adam.slots) == sorted(dense + tables)

    def test_non_finite_late_group_moves_nothing(self, monkeypatch):
        model = micro_model(LossConfig(form="corr", alpha=0.5), seed=18)
        adam = Adam(lr=0.01)
        idx, y = micro_batch(8, seed=19)
        train_step(model, idx, y, adam)  # every parameter now has moments
        params_before = {name: arr.copy() for name, arr in named_params(model)}
        moments_before = {key: (s.m.copy(), s.v.copy()) for key, s in adam.slots.items()}
        real = trainer.batch_objective

        def poisoned(*args):
            losses, grads, fc = real(*args)
            grads.sparse[-1].vecs[-1, 0] = np.nan  # the gating table, the last group applied
            return losses, grads, fc

        monkeypatch.setattr(trainer, "batch_objective", poisoned)
        with pytest.raises(ValueError, match="non-finite gradient in bank.gating"):
            train_step(model, idx, y, adam)
        assert adam.t == 1
        for name, arr in named_params(model):
            np.testing.assert_array_equal(arr, params_before[name])
        assert adam.slots.keys() == moments_before.keys()
        for key, state in adam.slots.items():
            np.testing.assert_array_equal(state.m, moments_before[key][0])
            np.testing.assert_array_equal(state.v, moments_before[key][1])


def _tiny_dataset(n=60, seed=0):
    ds, _ = gen_synthetic(3, 5, 2, n, seed=seed)
    return ds


class TestTrainLoop:
    def test_deterministic_reports(self):
        ds = _tiny_dataset()
        tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
        cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=3, patience=5, seed=2)
        reports = []
        for _ in range(2):
            model = micro_model(LossConfig(form="corr", alpha=0.3), seed=3)
            reports.append(train_loop(model, tr, va, cfg))
        assert reports[0].numeric_identity() == reports[1].numeric_identity()

    def test_patience_zero_stops_after_first_non_improving(self):
        ds = _tiny_dataset(80, seed=4)
        tr, va, _ = split_dataset(ds, (0.5, 0.4, 0.1), seed=5)
        model = micro_model(seed=6)
        cfg = TrainConfig(learning_rate=1e-6, batch_size=16, epochs=50, patience=0, seed=7)
        report = train_loop(model, tr, va, cfg)
        # lr ~ 0 keeps valid AUC flat, so epoch 1 cannot improve on epoch 0
        assert len(report.epochs) <= 3

    def test_best_params_restored(self):
        ds = _tiny_dataset(80, seed=8)
        tr, va, _ = split_dataset(ds, (0.6, 0.3, 0.1), seed=9)
        model = micro_model(seed=10)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=4, patience=10, seed=11)
        report = train_loop(model, tr, va, cfg)
        best = report.epochs[report.best_epoch]
        metrics, _ = evaluate(model, va)
        assert metrics.auc == best.valid_auc

    def test_empty_dataset_rejected(self):
        ds = _tiny_dataset()
        empty = EncodedDataset(ds.schema, ds.indices[:0], ds.labels[:0])
        with pytest.raises(ValueError, match="nonempty"):
            train_loop(micro_model(), empty, ds, TrainConfig())

    def test_negative_seed_rejected(self):
        # the epoch shuffle seeds a generator with seed + epoch
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_one_class_validation_rejected_before_training(self):
        ds = _tiny_dataset(60, seed=15)
        negatives = ds.labels == 0
        one_class = EncodedDataset(ds.schema, ds.indices[negatives], ds.labels[negatives])
        model = micro_model(seed=16)
        before = [arr.copy() for _, arr in named_params(model)]
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=1)
        with pytest.raises(ValueError, match="validation set needs both classes"):
            train_loop(model, ds, one_class, cfg)
        for (_, arr), old in zip(named_params(model), before):
            np.testing.assert_array_equal(arr, old)

    def test_final_batch_of_one_rejected_upfront(self):
        ds = _tiny_dataset(65, seed=12)  # 65 % 16 == 1
        model = micro_model(LossConfig(form="corr", alpha=0.4), seed=13)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=1, seed=14)
        with pytest.raises(ValueError, match="batch too small"):
            train_loop(model, ds, ds, cfg)

    def test_step_error_names_epoch_and_batch(self, monkeypatch):
        ds = _tiny_dataset(64, seed=17)
        model = micro_model(LossConfig(form="corr", alpha=0.4), seed=18)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=2, seed=19)
        real = trainer.batch_objective
        calls = []

        def poisoned(*args):
            losses, grads, fc = real(*args)
            calls.append(None)
            if len(calls) == 6:  # second batch of the second epoch
                grads.sparse[-1].vecs[0, 0] = np.inf
            return losses, grads, fc

        monkeypatch.setattr(trainer, "batch_objective", poisoned)
        with pytest.raises(ValueError, match="^epoch 1 batch 1: non-finite gradient in bank.gating"):
            train_loop(model, ds, ds, cfg)

    def test_learns_above_permutation_null(self):
        # trained valid AUC must beat 0.5 by more than 3 sigma of a
        # 100-shuffle permutation null on the same scores
        ds, _ = gen_synthetic(3, 5, 2, 3000, seed=30, pair_strength=3.0)
        tr, va, _ = split_dataset(ds, (0.7, 0.2, 0.1), seed=31)
        model = micro_model(seed=32, kinds=("fm", "fm"))
        cfg = TrainConfig(learning_rate=0.02, batch_size=128, epochs=12, patience=100, seed=33)
        report = train_loop(model, tr, va, cfg)
        scores = predict(model, va.indices)
        rng = np.random.default_rng(34)
        null = []
        for _ in range(100):
            shuffled = rng.permutation(va.labels)
            if shuffled.sum() in (0, shuffled.size):
                continue
            null.append(auc(scores, shuffled))
        threshold = 0.5 + 3.0 * float(np.std(null))
        assert report.best_valid_auc > threshold, (report.best_valid_auc, threshold)


class TestEvaluate:
    def test_perfect_scorer_auc_one(self, monkeypatch):
        # force the model to output the label by overwriting predictions:
        # instead, check evaluate against direct metric recomputation
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 16)
        ds = _tiny_dataset(50, seed=15)
        model = micro_model(seed=16)
        metrics, corr = evaluate(model, ds)
        scores = predict(model, ds.indices)
        assert metrics.auc == auc(scores, ds.labels)
        assert metrics.logloss == pytest.approx(bce(scores, ds.labels)[0])
        assert metrics.num_samples == 50

    def test_duplicate_experts_full_correlation(self):
        # identical expert states and identical tables -> identical outputs;
        # CEC of identical matrices is exactly 1 for a single output
        # dimension (wider outputs average in off-diagonal correlations)
        cfgs = [ExpertConfig(kind="crossnet", out_dim=1, cross_layers=2)] * 2
        model = build_model(
            SCHEMA, "se", cfgs, LossConfig(form="corr", alpha=0.0),
            embed_dim=2, gate_hidden=(4,), tower_hidden=(4,), seed=17,
        )
        src, dst = model.experts
        for (_, a), (_, b) in zip(src.param_items("x"), dst.param_items("x")):
            b[...] = a
        for e in model.experts:  # keep the aligned column non-constant
            e.align.biases[0][...] = 1.0
        ds = _tiny_dataset(40, seed=18)
        _, corr = evaluate(model, ds)
        assert corr.pairs[(0, 1)] == pytest.approx(1.0, abs=1e-6)

    def test_cec_report_matches_dumped_outputs(self, monkeypatch):
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 7)
        ds = _tiny_dataset(30, seed=19)
        model = micro_model(seed=20)
        _, corr = evaluate(model, ds)
        fc = forward_full(model, ds.indices)
        expected = cec_report(fc.outputs)
        assert corr.pairs == pytest.approx(expected.pairs)

    def test_row_cap_limits_cec_rows(self, monkeypatch):
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 10)
        monkeypatch.setattr(trainer, "CEC_ROW_CAP", 20)
        ds = _tiny_dataset(50, seed=21)
        model = micro_model(seed=22)
        _, corr_capped = evaluate(model, ds)
        fc = forward_full(model, ds.indices[:20])
        expected = cec_report(fc.outputs)
        assert corr_capped.pairs == pytest.approx(expected.pairs)


class TestPersistence:
    def test_roundtrip_bit_identical_evaluation(self, tmp_path):
        ds = _tiny_dataset(40, seed=23)
        model = micro_model(LossConfig(form="cov_l2", alpha=0.7, location="output"), seed=24)
        adam = Adam(lr=0.01)
        for _ in range(3):
            train_step(model, ds.indices[:16], ds.labels[:16], adam)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        m1, c1 = evaluate(model, ds)
        m2, c2 = evaluate(loaded, ds)
        assert m1.auc == m2.auc
        assert m1.logloss == m2.logloss
        assert c1.pairs == c2.pairs

    def test_named_params_write_through_to_lookup_and_file(self, tmp_path):
        # a table's per-field parameters are views of the one table array
        model = micro_model(seed=30)
        params = dict(named_params(model))
        params["bank.table1.field2"][3] = [7.0, -7.0]
        idx = np.array([[0, 0, 3]])
        np.testing.assert_array_equal(lookup(model.bank, 1, idx)[0, 4:], [7.0, -7.0])
        assert (lookup(model.bank, 0, idx)[0, 4:] != 7.0).all()
        path = tmp_path / "model.bin"
        save_model(model, path)
        _, blocks = _model_file_blocks(path.read_bytes())
        block = np.frombuffer(blocks["bank.table1.field2"][-5 * 2 * 8 :], dtype="<f8")
        np.testing.assert_array_equal(block.reshape(5, 2)[3], [7.0, -7.0])
        loaded = dict(named_params(load_model(path)))
        np.testing.assert_array_equal(loaded["bank.table1.field2"][3], [7.0, -7.0])

    def test_config_echo_roundtrip(self, tmp_path):
        model = micro_model(LossConfig(form="cov_l1", alpha=0.25, location="input"), seed=25)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.loss == model.loss
        assert loaded.mode == model.mode
        assert loaded.schema == model.schema
        assert [e.config for e in loaded.experts] == [e.config for e in model.experts]

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(micro_model(seed=26), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unrecognized model file"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(micro_model(seed=27), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_repeated_block_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(micro_model(seed=29), path)
        data = path.read_bytes()
        header, blocks = _model_file_blocks(data)
        first = next(iter(blocks.values()))
        swapped = b"".join(first if name == "tower.b1" else raw for name, raw in blocks.items())
        path.write_bytes(header + swapped + b"\0")
        with pytest.raises(ValueError, match="repeated parameter block"):
            load_model(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(micro_model(seed=28), path)
        data = bytearray(path.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda echo: echo.pop("embed_dim"), "config echo lacks key 'embed_dim'"),
            (lambda echo: echo["experts"][0].update(depth=2), "malformed config echo: .*'depth'"),
            (lambda echo: echo.update(tower_hidden=["four"]), "malformed config echo: '<' not supported"),
        ],
        ids=["missing-key", "unknown-expert-field", "string-width"],
    )
    def test_malformed_config_echo_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "model.bin"
        save_model(micro_model(seed=32), path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", data, 12)  # after magic + version
        echo = json.loads(data[20 : 20 + blob_len])
        edit(echo)
        blob = json.dumps(echo).encode("utf-8")
        path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob + data[20 + blob_len :])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_model(path)


def _model_file_blocks(data: bytes) -> tuple[bytes, dict[str, bytes]]:
    """Split a model file into its header (through the block count) and
    its raw parameter blocks, keyed by name in file order."""
    (blob_len,) = struct.unpack_from("<Q", data, 12)  # after magic + version
    pos = 20 + blob_len + 4
    header, blocks = data[:pos], {}
    while pos < len(data):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + name_len].decode("utf-8")
        end = pos + 2 + name_len
        ndim = data[end]
        shape = struct.unpack_from(f"<{ndim}Q", data, end + 1)
        end += 1 + 8 * ndim + 8 * int(np.prod(shape))
        blocks[name] = data[pos:end]
        pos = end
    return header, blocks


def all_kinds_model(mode: str, loss=None, gate_hidden=(4,), tower_hidden=(4,)):
    """One expert of every kind: dnn with two hidden layers and a final
    layer, fm, crossnet with two layers, cin with maps (3, 2)."""
    cfgs = [
        ExpertConfig(kind="dnn", out_dim=3, hidden=(4, 3), dnn_out=2),
        ExpertConfig(kind="fm", out_dim=3),
        ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2),
        ExpertConfig(kind="cin", out_dim=3, cin_maps=(3, 2)),
    ]
    loss = loss or LossConfig(form="corr", alpha=0.5, location="output")
    return build_model(
        SCHEMA, mode, cfgs, loss, embed_dim=2, gate_hidden=gate_hidden,
        tower_hidden=tower_hidden, seed=31,
    )


ALL_KINDS_DENSE_NAMES = [
    "expert.0.core.w0", "expert.0.core.b0",
    "expert.0.core.w1", "expert.0.core.b1",
    "expert.0.core.w2", "expert.0.core.b2",
    "expert.0.align.w", "expert.0.align.b",
    "expert.1.align.w", "expert.1.align.b",
    "expert.2.w0", "expert.2.b0", "expert.2.w1", "expert.2.b1",
    "expert.2.align.w", "expert.2.align.b",
    "expert.3.w0", "expert.3.w1",
    "expert.3.align.w", "expert.3.align.b",
    "gate.w0", "gate.b0", "gate.w1", "gate.b1",
    "tower.w0", "tower.b0", "tower.w1", "tower.b1",
]


class TestParamContract:
    """Parameter names are the model-file block names: pin them exactly."""

    @pytest.mark.parametrize("mode,tables", [("me", 4), ("se", 1)])
    def test_named_params_order_is_pinned(self, mode, tables):
        bank = [f"bank.table{t}.field{f}" for t in range(tables) for f in range(3)]
        bank += [f"bank.gating.field{f}" for f in range(3)]
        names = [name for name, _ in named_params(all_kinds_model(mode))]
        assert names == bank + ALL_KINDS_DENSE_NAMES

    @pytest.mark.parametrize("mode", ["me", "se"])
    def test_dense_grad_keys_are_the_non_embedding_params(self, mode):
        model = all_kinds_model(mode)
        idx, y = micro_batch(n=8, seed=32)
        _, grads, _ = batch_objective(model, idx, y)
        dense_names = [n for n, _ in named_params(model) if not n.startswith("bank.")]
        assert sorted(grads.dense) == sorted(dense_names)
        for name, arr in named_params(model):
            if name in grads.dense:
                assert grads.dense[name].shape == arr.shape


def _trained_state_digest(model, steps=6) -> str:
    """sha256 over every parameter and its two Adam moments after `steps`
    train_steps on duplicate-heavy batches (64 rows over 5 ids per field)."""
    adam = Adam(lr=0.05)
    rng = np.random.default_rng(7)
    for _ in range(steps):
        idx = rng.integers(0, 5, size=(64, 3))
        y = (rng.random(64) < 0.5).astype(float)
        train_step(model, idx, y, adam)
    moments = {name: (slot.m, slot.v) for name, slot in adam.slots.items()}
    for prefix, table in table_modules(model):
        # a field's moments are its rows of the table's one slot
        slot = adam.slots[prefix]
        m, v = (EmbeddingTable(a, table.offsets).params for a in (slot.m, slot.v))
        moments.update({f"{prefix}.{f}": (m[f], v[f]) for f in m})
    h = hashlib.sha256()
    for name, arr in named_params(model):
        for a in (arr, *moments[name]):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PINNED_ON = "SkylakeX"  # the OpenBLAS kernel the sha256 pins were recorded on


def _kernel_note() -> str:
    """The kernel these pins run on and the one they were recorded on: on
    another kernel the GEMMs may round differently, so a failing pin there
    need not mean a fault."""
    blas = openblas()
    core = f"OpenBLAS core {blas.core()}" if blas is not None else "a BLAS other than OpenBLAS"
    return f"ran on {core}; the pins were recorded on OpenBLAS core {PINNED_ON}"


class TestTrainedStateIsPinned:
    """Training numbers are pinned bit for bit: a change that reorders a
    sum in the scatter or an operation in Adam changes these digests. They
    hold for float64 numpy with OpenBLAS on x86-64; another BLAS may round
    the GEMMs differently."""

    @pytest.mark.parametrize(
        "make,digest",
        [
            (lambda: all_kinds_model("se"),
             "ad4d632f412228c84571a109750fc42aaa7429e16460ed9abee2497967a7e167"),
            (lambda: all_kinds_model("se", LossConfig(form="corr", alpha=0.5, location="input")),
             "43c134a8b3507404af8541c9635b83b8d39d9a1076174566707ca1b935e81b71"),
            (lambda: micro_model(LossConfig(form="corr", alpha=0.5), kinds=("cin", "cin")),
             "5fa8b404185e734e511ed4afb30c7352fe44711b7947c5c918d8aa9c22daf040"),
        ],
        ids=["se-all-kinds", "se-all-kinds-input-loss", "me-cin"],
    )
    def test_digest_after_steps(self, make, digest):
        assert _trained_state_digest(make()) == digest, _kernel_note()


def _model_file_digests(model, path, steps=5) -> tuple[str, str]:
    """sha256 of the save_model bytes at init and after `steps` train_steps
    on duplicate-heavy batches."""
    def digest() -> str:
        save_model(model, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    at_init = digest()
    adam = Adam(lr=0.05)
    rng = np.random.default_rng(11)
    for _ in range(steps):
        idx = rng.integers(0, 5, size=(32, 3))
        y = (rng.random(32) < 0.5).astype(float)
        train_step(model, idx, y, adam)
    return at_init, digest()


class TestModelFileIsPinned:
    """The model-file bytes (config echo and every parameter block) are
    pinned for all-kinds models in both modes, with gate/tower hidden
    widths that include none at all; same platform caveat as above."""

    @pytest.mark.parametrize(
        "mode,gate_hidden,tower_hidden,digests",
        [
            ("me", (4,), (4,), (
                "6a0a4326e0c33cb1289bfe4c8b0a70b11ce0ae718c17cec1af2363cad3ce9238",
                "a251eadec126c8904773d30ae5a8794c073a0c7d0fb8251c53195c13448c38f3",
            )),
            ("me", (), (), (
                "c8cc81a125c872add0cd6a673dba2d4c86962433d6d192d04feabcc6a01c20f5",
                "9019187f6b5e2d480998880fc2bf7484919f456161883a696bf30c1c009af379",
            )),
            ("me", (5, 3), (6,), (
                "3f2784684297f0651b7439503cc44e22427ec6ab65b2bf5ea6858a49ce369d3d",
                "dbf2a9a9082dcd63295019d2861364880393e87e4a2ea365d2a774595256ccf6",
            )),
            ("se", (4,), (4,), (
                "dabe6556cd3af5d65617fcab96d8e784a824aec2628193ccb7ea65d0ca503c02",
                "18c60bf9172219bd2e653ca94df664104f8cf1556a3a1015f2420e8368883d01",
            )),
            ("se", (), (), (
                "47f0c21e7c174c20a9916a0522c01ae44431367b02ed6136d60c02b0cc22df94",
                "54298dc0ba68ec05e4ac8ab74b5dea697e35971b1a6c6bf38f5dea7d93f09ebf",
            )),
            ("se", (5, 3), (6,), (
                "eca6c96838a60d8644dcacf9ca801097c07b1a7ea62a752e851b4bca0be9c710",
                "f2b64a3f76245db13f5bc71576cbae1149e5587d97dcec361d911e4985e4b704",
            )),
        ],
        ids=["me-4-4", "me-none", "me-5x3-6", "se-4-4", "se-none", "se-5x3-6"],
    )
    def test_save_model_digests(self, tmp_path, mode, gate_hidden, tower_hidden, digests):
        model = all_kinds_model(mode, gate_hidden=gate_hidden, tower_hidden=tower_hidden)
        assert _model_file_digests(model, tmp_path / "m.bin") == digests, _kernel_note()


def _first_entry_only(scatter):
    """A broken scatter that keeps only the first entry of every repeated
    (field, row), dropping the duplicates it should sum."""
    def broken(table, grads, update):
        key = grads.fields * (grads.rows.max() + 1) + grads.rows
        keep = np.sort(np.unique(key, return_index=True)[1])
        scatter(table, SparseGrad(grads.fields[keep], grads.rows[keep], grads.vecs[keep]), update)

    return broken


class TestSuiteCoverage:
    """The gradient suite reaches every backward path the trainer can take."""

    def test_every_cell_and_kind(self):
        cases = suite_cases()
        cells = {(c.mode, c.loss.form, c.loss.location) for c in cases if c.loss.active}
        assert cells == {
            (mode, form, loc)
            for mode in ("me", "se")
            for form in ("corr", "cov_l1", "cov_l2")
            for loc in ("output", "input", "intermediate")
        }
        assert sorted(c.mode for c in cases if not c.loss.active) == ["me", "se"]
        assert len({c.name for c in cases}) == len(cases)
        for case in cases:
            kinds = [cfg.kind for cfg in case.configs]
            assert len(kinds) >= 3, case.name
            if case.loss.location != "intermediate":
                assert set(EXPERT_KINDS) <= set(kinds), case.name


class TestGradcheckCoversTheScatter:
    """The analytic embedding gradients of gradcheck_model come through the
    scatter train_step runs, so a broken scatter fails the check."""

    @pytest.mark.parametrize("name", ["me corr@output", "se corr@output"])
    def test_duplicate_dropping_scatter_fails(self, monkeypatch, name):
        case = next(c for c in suite_cases() if c.name == name)
        assert run_case(case).passed
        monkeypatch.setattr(
            trainer, "apply_sparse_to_table", _first_entry_only(trainer.apply_sparse_to_table)
        )
        assert not run_case(case).passed


def _relu_sites(model, idx):
    """(bias, pre-activation) of every rectified layer, recomputed from the
    parameters: gate hidden layer, each expert's core and alignment head,
    tower hidden layer."""
    def rows(table):
        return np.concatenate([table.fields[f][idx[:, f]] for f in range(idx.shape[1])], axis=1)

    def affine(x, w, b, sites):
        z = x @ w.T + b
        sites.append((b, z))
        return np.maximum(z, 0.0)

    sites = []
    gate = model.gate
    hidden = affine(rows(model.bank.gating_table), gate.weights[0], gate.biases[0], sites)
    g = row_softmax(hidden @ gate.weights[1].T + gate.biases[1])
    outputs = []
    for m, expert in enumerate(model.experts):
        e = rows(model.bank.tables[model.bank.table_for_expert(m)])
        x0 = e.reshape(len(idx), expert.num_fields, expert.embed_dim)
        if expert.kind == "dnn":
            core = expert.core
            raw = affine(e, core.weights[0], core.biases[0], sites)
            raw = affine(raw, core.weights[1], core.biases[1], sites)
            raw = raw @ core.weights[2].T + core.biases[2]
        elif expert.kind == "fm":
            raw = 0.5 * (x0.sum(axis=1) ** 2 - (x0**2).sum(axis=1))
        elif expert.kind == "crossnet":
            raw = e
            for w, b in zip(expert.ws, expert.bs):
                raw = e * (raw @ w.T + b) + raw
        else:  # cin: X^k_h = sum_ij W[h, i, j] X^{k-1}_i * X^0_j, sum-pooled over d
            xk, pooled = x0, []
            for w in expert.ws:
                xk = np.einsum("hij,nid,njd->nhd", w, xk, x0)
                pooled.append(xk.sum(axis=2))
            raw = np.concatenate(pooled, axis=1)
        outputs.append(affine(raw, expert.align.weights[0], expert.align.biases[0], sites))
    h = sum(g[:, m : m + 1] * o for m, o in enumerate(outputs))
    affine(h, model.tower.weights[0], model.tower.biases[0], sites)
    return sites


class TestKinkMargin:
    """kink_margin reads every ReLU site of the model through the modules'
    relu_inputs: tower, gate, the dnn core and every alignment head."""

    @pytest.mark.parametrize("mode", ["me", "se"])
    def test_margin_is_the_smallest_relu_input(self, mode):
        model = all_kinds_model(mode)
        idx = micro_batch(8, seed=40)[0]
        sites = _relu_sites(model, idx)
        assert len(sites) == 8
        expected = min(np.abs(z).min() for _, z in sites)
        assert kink_margin(model, forward_full(model, idx)) == pytest.approx(expected, rel=1e-12)
        for bias, z in sites:  # put one entry of this site on its kink
            saved = bias.copy()
            bias[0] -= z[0, 0]
            assert kink_margin(model, forward_full(model, idx)) < 1e-12
            bias[...] = saved

    @pytest.mark.parametrize("mode", ["me", "se"])
    def test_cov_l1_skips_dead_columns(self, mode):
        # an alignment column dead on every row gives exact-zero cross
        # entries; they are not kinks, the live entries still are
        model = all_kinds_model(mode, loss=LossConfig(form="cov_l1", alpha=0.5))
        model.experts[1].align.biases[0][0] = -1e3
        idx = micro_batch(8, seed=40)[0]
        fc = forward_full(model, idx)
        assert not fc.outputs[1][:, 0].any()
        z = [o - o.mean(axis=0) for o in fc.outputs]
        live = [o.any(axis=0) for o in fc.outputs]
        cross = [
            np.abs(z[p].T @ z[q])[np.outer(live[p], live[q])].min()
            for p in range(len(z))
            for q in range(p + 1, len(z))
        ]
        relu = [np.abs(zr).min() for _, zr in _relu_sites(model, idx)]
        expected = min(*cross, *relu)
        assert expected > 1e-6  # the dead column's exact zeros are not in it
        assert kink_margin(model, fc) == pytest.approx(expected, rel=1e-9)
        # one live cross entry on its kink: live column j of output 2 made
        # orthogonal to centered live column i of output 0
        i, j = np.flatnonzero(live[0])[0], np.flatnonzero(live[2])[0]
        u = z[0][:, i]
        fc.outputs[2][:, j] -= (u @ z[2][:, j]) / (u @ u) * u
        assert fc.outputs[2][:, j].any()
        assert kink_margin(model, fc) < 1e-12
