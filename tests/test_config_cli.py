import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from moectr import cli, parallel
from moectr.cli import main
from moectr.config import (
    GRADCHECK_KEYS,
    RUN_KEYS,
    SPEC_PARAMETERS,
    SYNTH_DEFAULTS,
    SYNTH_KEYS,
    RunConfig,
    gradcheck_arguments,
    parse_expert_spec,
    synth_arguments,
)
from moectr.data import EncodedDataset, gen_synthetic, load_synthetic_params, parse_kv_text, save_synthetic_params, save_table
from moectr.gradsuite import run_suite, suite_cases
from moectr.losses import LossConfig
from moectr.model import save_model
from moectr.trainer import TrainConfig, train_loop

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestKvParsing:
    def test_comments_and_blanks(self):
        kv = parse_kv_text("# top\n\nkey = value  # trailing\nother=x\n")
        assert kv == {"key": "value", "other": "x"}

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"line 3: key 'lr' repeats line 2"):
            parse_kv_text("a = 1\nlr = 0.5\nlr = 0.01\n")
        with pytest.raises(ValueError, match="key 'lr' repeats line 2"):
            RunConfig.from_text("fields = a:10\nlr = 0.5\nlr = 0.01\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_file_errors_name_the_path(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("fields = a:10\nlearning_rate = 0.01\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(config))} line 2: unknown key"):
            RunConfig.from_file(config)
        sidecar = tmp_path / "gen.params"
        save_synthetic_params(gen_synthetic(3, [5, 6, 7], 2, 10, seed=21)[1], sidecar)
        sidecar.write_text(sidecar.read_text() + "seed = 3\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(sidecar))} line \d+: key 'seed' repeats"):
            load_synthetic_params(sidecar)


class TestExpertSpecParsing:
    def test_dnn(self):
        cfg = parse_expert_spec("dnn:500-500-500", 16)
        assert cfg.kind == "dnn"
        assert cfg.hidden == (500, 500, 500)
        assert cfg.out_dim == 16

    def test_fm(self):
        assert parse_expert_spec("fm", 8).kind == "fm"

    def test_crossnet_default_layers(self):
        assert parse_expert_spec("crossnet", 8).cross_layers == 3
        assert parse_expert_spec("crossnet:5", 8).cross_layers == 5

    def test_cin(self):
        assert parse_expert_spec("cin:16-16", 8).cin_maps == (16, 16)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown expert kind"):
            parse_expert_spec("transformer", 8)

    def test_fm_takes_no_params(self):
        with pytest.raises(ValueError):
            parse_expert_spec("fm:3", 8)


class TestRunConfig:
    def test_shipped_default_config_parses_to_paper_defaults(self):
        cfg = RunConfig.from_file(REPO_ROOT / "configs" / "default.cfg")
        assert cfg.train.learning_rate == 0.001
        assert cfg.train.batch_size == 10000
        assert cfg.tower_hidden == (500,)
        assert cfg.gate_hidden == (64,)
        assert cfg.embed_dim == 16
        assert cfg.mode == "me"
        assert len(cfg.expert_specs) == 2

    def test_loss_and_train_config(self):
        cfg = RunConfig.from_text(
            "fields = a:10, b:10\nloss_form = cov_l1\nalpha = 0.25\n"
            "loss_location = input\nlr = 0.01\nbatch_size = 64\nepochs = 2\n"
        )
        assert cfg.loss == LossConfig(form="cov_l1", alpha=0.25, location="input")
        assert cfg.train == TrainConfig(learning_rate=0.01, batch_size=64, epochs=2)

    def test_file_with_a_byte_order_mark_loads(self, tmp_path):
        text = "fields = a:10, b:3\nexperts = fm, fm\nepochs = 2\n"
        marked = tmp_path / "run.cfg"
        marked.write_text(text, encoding="utf-8-sig")
        assert RunConfig.from_file(marked) == RunConfig.from_text(text)

    def test_schema_requires_fields(self):
        with pytest.raises(ValueError, match="fields"):
            RunConfig.from_text("lr = 0.1\n").schema()

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'learning_rate'"):
            RunConfig.from_text("fields = a:10\nlearning_rate = 0.01\n")

    def test_datasets_need_a_train_entry(self):
        with pytest.raises(ValueError, match="^config needs a 'train' entry$"):
            RunConfig.from_text("fields = a:10, b:10\n").load_datasets()

    def test_bad_value_names_key_and_source(self, tmp_path):
        with pytest.raises(ValueError, match="^config: key 'lr': could not convert string to float: 'fast'"):
            RunConfig.from_text("fields = a:10\nlr = fast\n")
        config = tmp_path / "run.cfg"
        config.write_text("fields = a:ten\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(config))}: key 'fields': invalid literal"):
            RunConfig.from_file(config)
        spec = tmp_path / "spec.cfg"
        spec.write_text("rows = many\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(spec))}: key 'rows': invalid literal"):
            synth_arguments(spec)

    def test_repeated_field_rejected_at_load_naming_it(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("fields = a:10, b:3, a:5\nexperts = fm, fm\n")
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(config))}: key 'fields': field names must be unique: 'a' repeats"
        ):
            RunConfig.from_file(config)

    @pytest.mark.parametrize("key", ["seed", "split_seed"])
    def test_negative_seed_rejected_naming_key(self, key):
        with pytest.raises(ValueError, match=f"^config: key '{key}': seeds? must be >= 0, got -2$"):
            RunConfig.from_text(f"fields = a:10, b:10\n{key} = -2\n")

    @pytest.mark.parametrize(
        "value,expected",
        [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
    )
    def test_encoded_reads_booleans_in_any_case(self, value, expected):
        assert RunConfig.from_text(f"encoded = {value}\n").encoded is expected

    @pytest.mark.parametrize("value", ["ture", "on", ""])
    def test_encoded_rejects_other_words(self, value):
        with pytest.raises(ValueError, match=f"key 'encoded': expected true/false, yes/no or 1/0, got '{value}'"):
            RunConfig.from_text(f"encoded = {value}\n")

    def test_build_model_from_config(self):
        cfg = RunConfig.from_text(
            "fields = a:10, b:10\nexperts = fm, crossnet:2\nembed_dim = 4\n"
            "expert_out_dim = 4\ngate_hidden = 8\ntower_hidden = 8\nalpha = 0\n"
        )
        model = cfg.build()
        assert model.num_experts == 2
        assert model.experts[0].kind == "fm"
        assert model.experts[1].kind == "crossnet"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("mode = shared", "key 'mode': expected one of se, me, got 'shared'"),
            ("loss_form = cov", "key 'loss_form': expected one of corr, cov_l1, cov_l2, none, got 'cov'"),
            ("loss_location = hidden", "key 'loss_location': expected one of input, intermediate, output, got 'hidden'"),
            ("experts = fm, dnn:64-x", r"key 'experts': invalid literal for int\(\) with base 10: 'x'"),
            ("experts = fm, gbdt", "key 'experts': unknown expert kind 'gbdt'"),
            ("embed_dim = 0", "key 'embed_dim': dim must be >= 1, got 0"),
            ("gate_embed_dim = -1", "key 'gate_embed_dim': dim must be >= 1, got -1"),
            ("expert_out_dim = 0", "key 'expert_out_dim': dim must be >= 1, got 0"),
        ],
        ids=[
            "mode", "loss_form", "loss_location", "experts-bad-width", "experts-unknown-kind",
            "embed_dim-0", "gate_embed_dim--1", "expert_out_dim-0",
        ],
    )
    def test_model_key_rejected_at_load_naming_it(self, line, message):
        with pytest.raises(ValueError, match=f"^config: {message}$"):
            RunConfig.from_text(f"fields = a:10, b:10\n{line}\n")

    def test_model_keys_read_in_any_case(self):
        cfg = RunConfig.from_text("mode = SE\nloss_form = Cov_L2\nloss_location = INPUT\nexperts = FM, Dnn:4\n")
        assert (cfg.mode, cfg.loss.form, cfg.loss.location) == ("se", "cov_l2", "input")
        assert [c.kind for c in cfg.expert_configs()] == ["fm", "dnn"]

    @pytest.mark.parametrize("off", ["alpha = 0", "loss_form = none"])
    def test_batch_of_one_loads_with_the_loss_off(self, off):
        # with the loss on, the train command rejects it before reading data
        assert RunConfig.from_text(f"batch_size = 1\n{off}\n").train.batch_size == 1

    @pytest.mark.parametrize("key", ["gate_hidden", "tower_hidden"])
    def test_zero_width_rejected_naming_the_width(self, key):
        with pytest.raises(ValueError, match=f"^config: key '{key}': expected integers >= 1 joined by single '-', got '8-0'$"):
            RunConfig.from_text(f"fields = a:10, b:10\nexperts = fm\n{key} = 8-0\n")


class TestSynthSpec:
    def test_parse(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 100\nfields = 3\ncardinality = 10\nlatent_dim = 2\nseed = 5\n")
        spec = synth_arguments(path)
        assert spec["num_rows"] == 100
        assert spec["num_fields"] == 3
        assert spec["cardinalities"] == [10, 10, 10]
        assert "c0" not in spec  # gen_synthetic's own default stands

    def test_per_field_cardinalities(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nfields = 3\ncardinality = 4,5,6\n")
        assert synth_arguments(path)["cardinalities"] == [4, 5, 6]

    def test_cardinality_count_mismatch_rejected_naming_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nfields = 3\ncardinality = 5, 6\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key 'cardinality': 2 values for 3 fields"):
            synth_arguments(path)

    def test_negative_seed_rejected_naming_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nseed = -1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key 'seed': seed must be >= 0, got -1"):
            synth_arguments(path)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        assert synth_arguments(REPO_ROOT / "configs" / "synth_small.cfg")["num_rows"] == 20000
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\n# comment\ncardinalty = 4\n")
        with pytest.raises(ValueError, match=r"line 3: unknown key 'cardinalty'"):
            synth_arguments(path)


@pytest.fixture
def synth_csv(tmp_path):
    ds, _ = gen_synthetic(3, 12, 2, 400, seed=5, pair_strength=2.0)
    path = tmp_path / "data.csv"
    save_table(ds, path)
    return path, ds


def _train_config_text(csv_path):
    return (
        f"train = {csv_path}\n"
        "fields = f0:12, f1:12, f2:12\n"
        "label = label\n"
        "encoded = true\n"
        "split = 0.7, 0.2, 0.1\n"
        "experts = crossnet:2, crossnet:2\n"
        "mode = me\n"
        "embed_dim = 4\n"
        "expert_out_dim = 4\n"
        "gate_hidden = 8\n"
        "tower_hidden = 8\n"
        "loss_form = corr\n"
        "alpha = 0.5\n"
        "loss_location = output\n"
        "lr = 0.01\n"
        "batch_size = 64\n"
        "epochs = 2\n"
        "patience = 5\n"
        "seed = 3\n"
    )


def _train_at_intermediate_fails(tmp_path, experts, rule):
    """``train`` on _train_config_text with ``experts`` at the intermediate
    location fails at load naming the key; the train CSV is absent, so
    reading it would raise FileNotFoundError instead."""
    cfg_path = tmp_path / "run.cfg"
    text = _train_config_text(tmp_path / "absent.csv").replace("crossnet:2, crossnet:2", experts)
    cfg_path.write_text(text.replace("loss_location = output", "loss_location = intermediate"))
    model_path = tmp_path / "model.bin"
    message = f"{cfg_path}: key 'loss_location': {rule}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        main(["train", "--config", str(cfg_path), "--out", str(model_path)])
    assert not model_path.exists()


def _held_out_config_text(csv_path, **held_out):
    """_train_config_text with held-out files (valid, test) in place of its split."""
    text = _train_config_text(csv_path).replace("split = 0.7, 0.2, 0.1\n", "")
    return text + "".join(f"{key} = {path}\n" for key, path in held_out.items())


class TestCli:
    def test_train_eval_cec_roundtrip(self, tmp_path, synth_csv, capsys):
        csv_path, _ = synth_csv
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(csv_path))
        model_path = tmp_path / "model.bin"
        assert main(["train", "--config", str(cfg_path), "--out", str(model_path)]) == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "best epoch" in out
        assert "warning:" not in out

        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--model", str(model_path), "--data", str(csv_path),
            "--report", str(report_path), "--encoded",
        ]) == 0
        record = json.loads(report_path.read_text())
        assert set(record) >= {"auc", "logloss", "cec_pairs", "cec_sum"}
        assert 0.0 <= record["auc"] <= 1.0
        assert record["cec_pairs"][0].keys() == {"m1", "m2", "cec"}

        csv_out = tmp_path / "cec.csv"
        assert main([
            "cec-report", "--model", str(model_path), "--data", str(csv_path),
            "--csv", str(csv_out), "--encoded",
        ]) == 0
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "m1,m2,cec"
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == record["cec_pairs"][0]["cec"]

    @pytest.mark.parametrize(
        "readers,train_line,eval_line",
        [
            (
                {"cpu_count": lambda: 2, "blas_threads": lambda: 1},
                "experts: serial (experts too small: second-largest expert's params x batch rows = 2.3e+04 < 1e+08)",
                "evaluation experts: serial (experts too small: second-largest expert's params x batch rows = 2.9e+04 < 1e+08)",
            ),
            (
                {"POOL_MIN_WORK": 0, "cpu_count": lambda: 2, "blas_threads": lambda: 2},
                "experts: serial (OpenBLAS threads = 2; set OPENBLAS_NUM_THREADS=1)",
                "evaluation experts: serial (OpenBLAS threads = 2; set OPENBLAS_NUM_THREADS=1)",
            ),
            (
                {"POOL_MIN_WORK": 0, "cpu_count": lambda: 2, "blas_threads": lambda: 1},
                "experts: pool of 2 threads",
                "evaluation experts: pool of 2 threads",
            ),
            (  # a validation set longer than the chunk size the line reads is gated on one chunk
                {"EVAL_BATCH_ROWS": 50, "cpu_count": lambda: 2, "blas_threads": lambda: 1},
                "experts: serial (experts too small: second-largest expert's params x batch rows = 2.3e+04 < 1e+08)",
                "evaluation experts: serial (experts too small: second-largest expert's params x batch rows = 1.8e+04 < 1e+08)",
            ),
        ],
        ids=["too-small", "blas-2", "pool", "chunked"],
    )
    def test_train_prints_where_experts_run(self, tmp_path, synth_csv, capsys, monkeypatch, readers, train_line, eval_line):
        for name, value in readers.items():
            monkeypatch.setattr(cli if name == "EVAL_BATCH_ROWS" else parallel, name, value)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(synth_csv[0]))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "model.bin")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("data: ")
        assert lines[2:4] == [train_line, eval_line]
        assert sum(x.startswith("experts: ") for x in lines) == 1
        assert sum(x.startswith("evaluation experts: ") for x in lines) == 1

    def test_train_warns_after_best_epoch_when_auc_is_not_above_chance(self, tmp_path, synth_csv, capsys, monkeypatch):
        def chance_run(*args):
            report = train_loop(*args)
            report.epochs[report.best_epoch].valid.auc = 0.5
            return report

        monkeypatch.setattr(cli, "train_loop", chance_run)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(synth_csv[0]))
        model_path = tmp_path / "model.bin"
        assert main(["train", "--config", str(cfg_path), "--out", str(model_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        best = next(i for i, line in enumerate(lines) if line.startswith("best epoch"))
        assert lines[best].endswith("valid_auc=0.500000")
        assert lines[best + 1] == "warning: best valid AUC 0.500000 is not above chance (0.5)"
        assert sum(line.startswith("warning:") for line in lines) == 1
        assert model_path.exists()

    def test_test_file_without_valid_fails_at_load_naming_the_key(self, tmp_path, synth_csv):
        # the test file is absent, so reading it would raise FileNotFoundError instead
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(synth_csv[0]) + f"test = {tmp_path / 'absent.csv'}\n")
        model_path = tmp_path / "model.bin"
        message = "key 'test': needs a 'valid' entry; without one the 'train' file is split"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{cfg_path}: {message}')}$"):
            main(["train", "--config", str(cfg_path), "--out", str(model_path)])
        assert not model_path.exists()

    @pytest.mark.parametrize("key,value", [("split", "0.5, 0.25, 0.25"), ("split_seed", "9")])
    def test_split_with_a_valid_file_fails_at_load_naming_the_key(self, tmp_path, synth_csv, key, value):
        # the valid file is absent, so reading it would raise FileNotFoundError instead
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_held_out_config_text(synth_csv[0], valid=tmp_path / "absent.csv") + f"{key} = {value}\n")
        message = f"{cfg_path}: key '{key}': is not used when 'valid' is given"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "model.bin")])
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("key", ["valid", "test"])
    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_held_out_file_that_is_the_train_file_fails_at_load(self, tmp_path, synth_csv, key, link):
        csv_path, _ = synth_csv
        held_out = csv_path
        if link:
            held_out = tmp_path / "held_out.csv"
            held_out.symlink_to(csv_path)
        copy = tmp_path / "copy.csv"
        copy.write_text(csv_path.read_text())
        paths = {"valid": copy, "test": copy, key: held_out}
        cfg = RunConfig.from_text(_held_out_config_text(csv_path, **paths))
        with pytest.raises(ValueError, match=f"^{re.escape(str(held_out))}: key '{key}': is the 'train' file$"):
            cfg.load_datasets()
        cfg = RunConfig.from_text(_held_out_config_text(csv_path, valid=copy, test=copy))
        assert [len(ds) for ds in cfg.load_datasets()] == [400, 400, 400]  # a copy is another file

    def test_single_class_test_set_fails_before_the_first_step(self, tmp_path, synth_csv, capsys):
        csv_path, _ = synth_csv
        header, *rows = csv_path.read_text().splitlines()
        negatives = tmp_path / "negatives.csv"
        negatives.write_text("\n".join([header, *(row for row in rows if row.endswith(",0"))]) + "\n")
        valid = tmp_path / "valid.csv"  # a copy: the train file itself is rejected as a valid set
        valid.write_text(csv_path.read_text())
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_held_out_config_text(csv_path, valid=valid, test=negatives))
        model_path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match=r"^test set needs both classes \(0 and 1\) for AUC$"):
            main(["train", "--config", str(cfg_path), "--out", str(model_path)])
        assert not any(line.startswith("epoch") for line in capsys.readouterr().out.splitlines())
        assert not model_path.exists()

    def test_bad_row_in_a_held_out_file_names_the_file(self, tmp_path, synth_csv):
        csv_path, _ = synth_csv
        header, first, second, *rest = csv_path.read_bytes().split(b"\n")
        valid, test = tmp_path / "valid.csv", tmp_path / "test.csv"
        valid.write_bytes(b"\n".join([header, first, b"\xff" + second, *rest]))
        test.write_bytes(csv_path.read_bytes())
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_held_out_config_text(csv_path, valid=valid, test=test))
        model_path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(valid))}: data row 2 \(line 3\): invalid UTF-8$"):
            main(["train", "--config", str(cfg_path), "--out", str(model_path)])
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["eval", "cec-report"])
    @pytest.mark.parametrize("rows", ["one-class", "header-only"])
    def test_eval_commands_need_both_classes_naming_the_file(self, tmp_path, synth_csv, command, rows):
        csv_path, ds = synth_csv
        model_path = tmp_path / "model.bin"
        save_model(RunConfig.from_text(_train_config_text(csv_path)).build(), model_path)
        data = tmp_path / "eval.csv"
        if rows == "one-class":
            save_table(EncodedDataset(ds.schema, ds.indices[:50], np.ones(50)), data)
        else:
            data.write_text("f0,f1,f2,label\n")
        out = tmp_path / "out"
        flag = "--report" if command == "eval" else "--csv"
        message = f"{data}: evaluation set needs both classes (0 and 1) for AUC"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main([command, "--model", str(model_path), "--data", str(data), "--encoded", flag, str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("epochs", 0, "^{cfg}: key 'epochs': epochs must be >= 1, got 0$"),
            ("patience", -1, "^{cfg}: key 'patience': patience must be >= 0, got -1$"),
            ("split", "0.5, 0.6, 0.1", "^{cfg}: key 'split': fractions exceed 1$"),
            ("experts", "dnn:abc", r"^{cfg}: key 'experts': invalid literal for int\(\) with base 10: 'abc'$"),
            ("mode", "xx", "^{cfg}: key 'mode': expected one of se, me, got 'xx'$"),
            ("loss_form", "foo", "^{cfg}: key 'loss_form': expected one of corr, cov_l1, cov_l2, none, got 'foo'$"),
            ("loss_location", "foo", "^{cfg}: key 'loss_location': expected one of input, intermediate, output, got 'foo'$"),
            ("embed_dim", 0, "^{cfg}: key 'embed_dim': dim must be >= 1, got 0$"),
            ("lr", "inf", "^{cfg}: key 'lr': must be a finite number > 0, got inf$"),
            ("batch_size", 1, r"^{cfg}: key 'batch_size': batch too small for de-correlation: a batch would have 1 row\(s\)$"),
        ],
        ids=[
            "epochs-0", "patience--1", "split-over-1", "experts-bad-width", "mode", "loss_form", "loss_location", "embed_dim-0",
            "lr-inf", "batch_size-1",
        ],
    )
    def test_train_rejects_untrainable_config_before_reading_data(self, tmp_path, key, value, message):
        # the train CSV is absent, so reading it would raise FileNotFoundError instead
        cfg_path = tmp_path / "run.cfg"
        text = _train_config_text(tmp_path / "absent.csv")
        cfg_path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
        model_path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match=message.format(cfg=re.escape(str(cfg_path)))):
            main(["train", "--config", str(cfg_path), "--out", str(model_path)])
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "experts,rule",
        [("dnn:8, fm", "crossnet experts only"), ("crossnet:2, crossnet:3", "equal cross layer counts")],
    )
    def test_intermediate_location_rules_fail_at_load_naming_the_key(self, tmp_path, experts, rule):
        _train_at_intermediate_fails(tmp_path, experts, f"intermediate loss location requires {rule}")

    def test_intermediate_location_needs_a_cross_layer(self, tmp_path):
        # 0-layer crossnets give the loss no target set: an alpha > 0 run would train without it
        rule = "cross layer count at the intermediate loss location must be >= 1, got 0"
        _train_at_intermediate_fails(tmp_path, "crossnet:0, crossnet:0", rule)

    @pytest.mark.parametrize("command,option",[("train", "--out"), ("eval", "--report"), ("cec-report", "--csv"), ("gen-synth", "--out")])
    @pytest.mark.parametrize("bad", ["missing-directory", "directory", "empty", "an-input"])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, synth_csv, capsys, command, option, bad):
        csv_path, _ = synth_csv
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(csv_path))
        model_path = tmp_path / "model.bin"
        save_model(RunConfig.from_file(cfg_path).build(), model_path)
        spec = tmp_path / "spec.cfg"
        spec.write_text("rows = 200\nfields = 3\ncardinality = 8\nlatent_dim = 2\nseed = 11\n")
        data = ["--model", str(model_path), "--data", str(csv_path), "--encoded"]
        inputs = {"train": ["--config", str(cfg_path)], "eval": data, "cec-report": data, "gen-synth": ["--spec", str(spec)]}
        out = tmp_path / "out"
        if bad == "directory":
            out.mkdir()
            message = f"{option} {out}: is a directory"
        elif bad == "missing-directory":
            out = out / "result"
            message = f"{option} {out}: directory {out.parent} does not exist"
        elif bad == "empty":
            out = ""
            message = f"{option}: empty path"
        else:  # one input per command, so each kind of input is overwritten once
            out = {"train": cfg_path, "eval": csv_path, "cec-report": model_path, "gen-synth": spec}[command]
            message = f"{option} {out}: is the input {out}"
        files = sorted(tmp_path.rglob("*"))
        before = Path(out).read_bytes() if bad == "an-input" else None
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main([command, *inputs[command], option, str(out)])
        assert not any(line.startswith("epoch") for line in capsys.readouterr().out.splitlines())
        assert sorted(tmp_path.rglob("*")) == files
        if before is not None:
            assert Path(out).read_bytes() == before

    def test_gen_synth_sidecar_that_is_a_directory_fails_before_writing(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("rows = 200\nfields = 3\ncardinality = 8\nlatent_dim = 2\nseed = 11\n")
        out = tmp_path / "synth.csv"
        (tmp_path / "synth.csv.params").mkdir()
        message = f"--out sidecar {out}.params: is a directory"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main(["gen-synth", "--spec", str(spec), "--out", str(out)])
        assert not out.exists()

    def test_gen_synth(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("rows = 200\nfields = 3\ncardinality = 8\nlatent_dim = 2\nseed = 11\n")
        out = tmp_path / "synth.csv"
        assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "synth.csv.params").exists()
        header = out.read_text().split("\n", 1)[0]
        assert header == "f0,f1,f2,label"

    def test_gen_synth_writes_the_generators_bytes(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["gen-synth", "--spec", str(REPO_ROOT / "configs" / "synth_small.cfg"), "--out", str(out)]) == 0
        ds, params = gen_synthetic(6, [100] * 6, 2, 20000, seed=7, c0=0.0)  # synth_small.cfg's values
        save_table(ds, tmp_path / "expected.csv")
        save_synthetic_params(params, tmp_path / "expected.params")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "synth.csv.params").read_bytes() == (tmp_path / "expected.params").read_bytes()

    @pytest.mark.parametrize("reader", ["train", "gradcheck", "gen-synth", "sidecar"])
    def test_key_value_file_that_is_not_utf8_names_the_file(self, tmp_path, reader):
        path = tmp_path / "m.bin"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n\xba\n")  # the offset counts the byte-order mark
        read = {
            "train": lambda: main(["train", "--config", str(path), "--out", str(tmp_path / "out.bin")]),
            "gradcheck": lambda: main(["gradcheck", "--config", str(path)]),
            "gen-synth": lambda: main(["gen-synth", "--spec", str(path), "--out", str(tmp_path / "out.csv")]),
            "sidecar": lambda: load_synthetic_params(path),
        }[reader]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid UTF-8 at byte 12$"):
            read()

    def test_gradcheck_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "gc.cfg"
        path.write_text("gradcheck_h = 1e-5\ngradcheck_tl = 1e-12\n")
        with pytest.raises(ValueError, match=r"line 2: unknown key 'gradcheck_tl'"):
            main(["gradcheck", "--config", str(path)])

    def test_single_expert_model_reports_no_pairs(self, tmp_path, synth_csv, capsys):
        csv_path, _ = synth_csv
        cfg = RunConfig.from_text(_train_config_text(csv_path).replace("crossnet:2, crossnet:2", "crossnet:2"))
        model = cfg.build()
        train_ds, valid_ds, _ = cfg.load_datasets()
        report = train_loop(model, train_ds, valid_ds, cfg.train)
        assert [(r.valid_cec.pairs, r.valid_cec.total) for r in report.epochs] == [({}, 0.0)] * 2
        model_path = tmp_path / "model.bin"
        save_model(model, model_path)

        report_path = tmp_path / "report.json"
        data = ["--model", str(model_path), "--data", str(csv_path), "--encoded"]
        assert main(["eval", *data, "--report", str(report_path)]) == 0
        text = report_path.read_text()
        assert '"cec_pairs": [],' in text and '"cec_sum": 0.0\n' in text

        capsys.readouterr()
        csv_out = tmp_path / "cec.csv"
        assert main(["cec-report", *data, "--csv", str(csv_out)]) == 1
        assert capsys.readouterr().err == "model has a single expert; no pairs to report\n"
        assert not csv_out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("gradcheck_h", "abc", "could not convert string to float: 'abc'"),
            ("gradcheck_h", "0", "must be a finite number > 0, got '0'"),
            ("gradcheck_tol", "-1", "must be a finite number > 0, got '-1'"),
            ("gradcheck_tol", "nan", "must be a finite number > 0, got 'nan'"),
        ],
        ids=["h-not-a-number", "h-zero", "tol-negative", "tol-nan"],
    )
    def test_gradcheck_config_bad_value_names_file_and_key(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "gc.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key '{key}': {re.escape(message)}"):
            main(["gradcheck", "--config", str(path)])
        assert capsys.readouterr().out == ""

    def test_gradcheck_config_values_reach_the_suite(self, tmp_path, monkeypatch):
        path = tmp_path / "gc.cfg"
        path.write_text("gradcheck_h = 1e-6\ngradcheck_tol = 1e-3\n")
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda **kwargs: calls.append(kwargs) or [])
        assert main(["gradcheck", "--config", str(path)]) == 0
        path.write_text("gradcheck_tol = 1e-3\n")  # run_suite's own default step stands
        assert main(["gradcheck", "--config", str(path)]) == 0
        assert calls == [{"h": 1e-6, "tol": 1e-3}, {"tol": 1e-3}]

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(suite_cases())
        assert "FAIL" not in out


BOUNDARY_VALUES = ["nan", "inf", "-inf", "1e999", "-1", "0", "", "-3", "64--32", "8-", "8-0"]
LOADERS = {
    "run": (RunConfig.from_file, RUN_KEYS),
    "synth": (synth_arguments, SYNTH_KEYS),
    "gradcheck": (gradcheck_arguments, GRADCHECK_KEYS),
}
TEXT = {value: value for value in BOUNDARY_VALUES if value}  # a path or a column name is any non-empty text
# loader -> key -> {boundary value the key's rule allows: the value it loads
# as}; every other boundary value must fail at load naming the key
LOADS = {
    "run": {
        "train": TEXT, "valid": TEXT, "test": {}, "fields": {}, "label": TEXT, "encoded": {"0": False},
        "split": {}, "split_seed": {"0": 0}, "mode": {}, "experts": {}, "embed_dim": {}, "gate_embed_dim": {},
        "expert_out_dim": {}, "gate_hidden": {"": ()}, "tower_hidden": {"": ()}, "loss_form": {},
        "alpha": {"0": 0.0}, "loss_location": {}, "lr": {}, "batch_size": {}, "epochs": {},
        "patience": {"0": 0}, "seed": {"0": 0},
    },
    "synth": {
        "rows": {}, "fields": {}, "cardinality": {}, "latent_dim": {}, "seed": {"0": 0},
        "c0": {"0": 0.0, "-1": -1.0, "-3": -3.0},
    },
    "gradcheck": {"gradcheck_h": {}, "gradcheck_tol": {}},
}
# expert kind with a spec parameter -> {boundary value the parameter's rule
# allows: the ExpertConfig field value it loads as}
SPEC_LOADS = {"dnn": {}, "crossnet": {"0": 0, "": 3}, "cin": {}}
# run keys keep their bare ids; the other loaders' keys are prefixed, since
# "fields" and "seed" are keys of two loaders
KEY_CASES = [
    pytest.param(loader, key, id=key if loader == "run" else f"{loader}:{key}")
    for loader, (_, table) in LOADERS.items()
    for key in table
]


class TestLoadBoundary:
    """Every key of the run, synthetic-data and gradcheck configs against
    the values a config can carry in: each loads, where the key's rule
    allows it, or fails at load naming the source and the key."""

    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    @pytest.mark.parametrize("loader,key", KEY_CASES)
    def test_value_loads_or_fails_naming_the_key(self, tmp_path, loader, key, value):
        assert key in LOADS[loader], f"{loader} key {key!r} has no declared expectation"
        load, table = LOADERS[loader]
        path = tmp_path / "test.cfg"
        path.write_text(f"{key} = {value}\n")
        if value not in LOADS[loader][key]:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: key '{key}': "):
                load(path)
            return
        part, _, name = table[key][0].rpartition(".")
        loaded = load(path)
        if isinstance(loaded, dict):  # a function's keyword arguments
            assert loaded[name] == LOADS[loader][key][value]
        else:
            assert getattr(getattr(loaded, part) if part else loaded, name) == LOADS[loader][key][value]

    def test_every_key_has_a_declared_expectation(self):
        assert {loader: set(table) for loader, (_, table) in LOADERS.items()} == {
            loader: set(keys) for loader, keys in LOADS.items()
        }

    def test_every_key_target_is_a_real_field(self):
        cfg = RunConfig()
        for key, (target, _) in RUN_KEYS.items():
            part, _, name = target.rpartition(".")
            owner = getattr(cfg, part) if part else cfg
            assert name in {f.name for f in dataclasses.fields(owner)}, key
        targets = {target for target, _ in RUN_KEYS.values()}
        # every TrainConfig and LossConfig field has its key, and RunConfig copies none
        for part, cls in (("train", TrainConfig), ("loss", LossConfig)):
            assert {f"{part}.{f.name}" for f in dataclasses.fields(cls)} <= targets
        assert {f.name for f in dataclasses.fields(RunConfig)}.isdisjoint(
            f.name for cls in (TrainConfig, LossConfig) for f in dataclasses.fields(cls)
        )

    def test_every_spec_key_targets_an_argument_of_its_function(self):
        synth = {target for target, _ in SYNTH_KEYS.values()} | set(SYNTH_DEFAULTS)
        assert synth <= set(inspect.signature(gen_synthetic).parameters)
        gradcheck = {target for target, _ in GRADCHECK_KEYS.values()}
        assert gradcheck <= set(inspect.signature(run_suite).parameters)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_loss_and_train_config_reject_non_finite_values(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be a finite number >= 0, got "):
            LossConfig(alpha=alpha)
        with pytest.raises(ValueError, match="^must be a finite number > 0, got "):
            TrainConfig(learning_rate=alpha)

    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    @pytest.mark.parametrize("kind", SPEC_PARAMETERS)
    def test_spec_parameter_loads_or_fails_naming_the_key(self, kind, value):
        # "experts = <kind>:<value>": the spec parameter meets every boundary value too
        assert SPEC_LOADS.keys() == SPEC_PARAMETERS.keys()
        text = f"experts = {kind}:{value}\n"
        if value not in SPEC_LOADS[kind]:
            with pytest.raises(ValueError, match="^config: key 'experts': "):
                RunConfig.from_text(text)
            return
        (loaded,) = RunConfig.from_text(text).expert_configs()
        assert getattr(loaded, SPEC_PARAMETERS[kind][0]) == SPEC_LOADS[kind][value]

    @pytest.mark.parametrize("value", ["fm, ,fm", "fm, fm,"])
    def test_empty_expert_spec_fails_naming_the_key(self, value):
        with pytest.raises(ValueError, match="^config: key 'experts': unknown expert kind ''$"):
            RunConfig.from_text(f"experts = {value}\n")

    @pytest.mark.parametrize(
        "key,value,rule",
        [
            ("rows", "0", "num_rows must be >= 1, got 0"),
            ("fields", "1", "num_fields must be >= 2, got 1"),
            ("latent_dim", "0", "latent_dim must be >= 1, got 0"),
            ("cardinality", "5, 0", "cardinalities must be >= 1, got 0"),
        ],
        ids=["rows", "fields", "latent_dim", "cardinality"],
    )
    def test_generator_rule_fails_at_load_naming_the_key(self, tmp_path, key, value, rule):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"{key} = {value}\n")
        out = tmp_path / "synth.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(str(spec))}: key '{key}': {rule}$"):
            main(["gen-synth", "--spec", str(spec), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("value", ["a:10, :5", " :5, b:3"])
    def test_empty_field_name_fails_naming_the_key(self, value):
        with pytest.raises(ValueError, match="^config: key 'fields': field name must not be empty$"):
            RunConfig.from_text(f"fields = {value}\n")

    @pytest.mark.parametrize("value", ["nan, 0.1, 0.1", "0.8, -inf, 0.1"])
    def test_non_finite_split_fails_naming_the_key(self, value):
        with pytest.raises(ValueError, match="^config: key 'split': fractions must be positive, got "):
            RunConfig.from_text(f"split = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_c0_fails_naming_the_key(self, tmp_path, value):
        path = tmp_path / "spec.cfg"
        path.write_text(f"rows = 10\nc0 = {value}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key 'c0': c0 must be a finite number, got "):
            synth_arguments(path)
