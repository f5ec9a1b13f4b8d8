import json
import re
from pathlib import Path

import numpy as np
import pytest

from moectr import parallel
from moectr.cli import main
from moectr.config import RunConfig, SynthSpec, parse_expert_spec, parse_kv_text
from moectr.data import gen_synthetic, load_synthetic_params, save_synthetic_params, save_table
from moectr.gradsuite import suite_cases
from moectr.model import save_model
from moectr.trainer import train_loop

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
        assert cfg.lr == 0.001
        assert cfg.batch_size == 10000
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
        loss = cfg.loss_config()
        assert loss.form == "cov_l1" and loss.alpha == 0.25 and loss.location == "input"
        tc = cfg.train_config()
        assert tc.learning_rate == 0.01 and tc.batch_size == 64 and tc.epochs == 2

    def test_schema_requires_fields(self):
        with pytest.raises(ValueError, match="fields"):
            RunConfig.from_text("lr = 0.1\n").schema()

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'learning_rate'"):
            RunConfig.from_text("fields = a:10\nlearning_rate = 0.01\n")

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
            SynthSpec.from_file(spec)

    def test_repeated_field_rejected_at_load_naming_it(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("fields = a:10, b:3, a:5\nexperts = fm, fm\n")
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(config))}: key 'fields': field names must be unique: 'a' repeats"
        ):
            RunConfig.from_file(config)

    @pytest.mark.parametrize("key", ["seed", "split_seed"])
    def test_negative_seed_rejected_naming_key(self, key):
        with pytest.raises(ValueError, match=f"^config: key '{key}': seeds must be >= 0, got -2"):
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

    @pytest.mark.parametrize("key", ["gate_hidden", "tower_hidden"])
    def test_zero_width_rejected_naming_the_width(self, key):
        cfg = RunConfig.from_text(f"fields = a:10, b:10\nexperts = fm\n{key} = 8-0\n")
        with pytest.raises(ValueError, match="widths must be >= 1, got width 0"):
            cfg.build()


class TestSynthSpec:
    def test_parse(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 100\nfields = 3\ncardinality = 10\nlatent_dim = 2\nseed = 5\n")
        spec = SynthSpec.from_file(path)
        assert spec.rows == 100
        assert spec.num_fields == 3
        assert spec.cardinalities == [10, 10, 10]

    def test_per_field_cardinalities(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nfields = 3\ncardinality = 4,5,6\n")
        assert SynthSpec.from_file(path).cardinalities == [4, 5, 6]

    def test_cardinality_count_mismatch_rejected_naming_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nfields = 3\ncardinality = 5, 6\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key 'cardinality': 2 values for 3 fields"):
            SynthSpec.from_file(path)

    def test_negative_seed_rejected_naming_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\nseed = -1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: key 'seed': seeds must be >= 0, got -1"):
            SynthSpec.from_file(path)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        assert SynthSpec.from_file(REPO_ROOT / "configs" / "synth_small.cfg").rows == 20000
        path = tmp_path / "spec.cfg"
        path.write_text("rows = 10\n# comment\ncardinalty = 4\n")
        with pytest.raises(ValueError, match=r"line 3: unknown key 'cardinalty'"):
            SynthSpec.from_file(path)


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
        "readers,line",
        [
            (
                {"cpu_count": lambda: 2, "blas_threads": lambda: 1},
                "experts: serial (experts too small: second-largest expert's params x batch rows = 2.3e+04 < 1e+08)",
            ),
            (
                {"POOL_MIN_WORK": 0, "cpu_count": lambda: 2, "blas_threads": lambda: 2},
                "experts: serial (OpenBLAS threads = 2; set OPENBLAS_NUM_THREADS=1)",
            ),
            ({"POOL_MIN_WORK": 0, "cpu_count": lambda: 2, "blas_threads": lambda: 1}, "experts: pool of 2 threads"),
        ],
        ids=["too-small", "blas-2", "pool"],
    )
    def test_train_prints_where_experts_run(self, tmp_path, synth_csv, capsys, monkeypatch, readers, line):
        for name, value in readers.items():
            monkeypatch.setattr(parallel, name, value)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_train_config_text(synth_csv[0]))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "model.bin")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("data: ")
        assert lines[2] == line
        assert sum(x.startswith("experts: ") for x in lines) == 1

    def test_single_expert_model_reports_no_pairs(self, tmp_path, synth_csv, capsys):
        csv_path, _ = synth_csv
        cfg = RunConfig.from_text(_train_config_text(csv_path).replace("crossnet:2, crossnet:2", "crossnet:2"))
        model = cfg.build()
        train_ds, valid_ds, _ = cfg.load_datasets()
        report = train_loop(model, train_ds, valid_ds, cfg.train_config())
        assert [(r.valid_cec_pairs, r.valid_cec_sum) for r in report.epochs] == [({}, 0.0)] * 2
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
            ("epochs", 0, "^epochs must be >= "),
            ("patience", -1, "^patience must be >= "),
            ("split", "0.5, 0.6, 0.1", "^{cfg}: key 'split': fractions exceed 1$"),
            ("experts", "dnn:abc", r"^invalid literal for int\(\) with base 10: 'abc'$"),
            ("mode", "xx", "^unknown bank mode 'xx'$"),
            ("loss_form", "foo", "^unknown loss form 'foo'$"),
            ("embed_dim", 0, "^embedding dims must be >= 1$"),
        ],
        ids=["epochs-0", "patience--1", "split-over-1", "experts-bad-width", "mode", "loss_form", "embed_dim-0"],
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

    def test_gen_synth(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("rows = 200\nfields = 3\ncardinality = 8\nlatent_dim = 2\nseed = 11\n")
        out = tmp_path / "synth.csv"
        assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "synth.csv.params").exists()
        header = out.read_text().split("\n", 1)[0]
        assert header == "f0,f1,f2,label"

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
        report = train_loop(model, train_ds, valid_ds, cfg.train_config())
        assert [(r.valid_cec_pairs, r.valid_cec_sum) for r in report.epochs] == [({}, 0.0)] * 2
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

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(suite_cases())
        assert "FAIL" not in out
