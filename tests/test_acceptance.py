"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion. Criteria 5-7 run a
desk-scale training experiment (three seeds, shared data); they are the
slowest part of the suite. Criterion 6 is directional-statistical: its
outcome is always reported, and a miss raises a warning rather than a
failure, matching its investigate-not-reject contract.
"""

import time
import warnings

import numpy as np
import pytest

from moectr.config import RunConfig
from moectr.data import gen_synthetic, split_dataset
from moectr.experts import ExpertConfig
from moectr.gradsuite import run_suite
from moectr.losses import LossConfig, decorrelation_total
from moectr.metrics import auc, cec, pearson_matrix
from moectr.model import build_model, load_model, save_model
from moectr.trainer import TrainConfig, evaluate, train_loop

from test_config_cli import REPO_ROOT
from test_metrics import brute_force_pearson
from test_trainer import numeric_identity

pytestmark = pytest.mark.slow


def _report(criterion: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    return passed


class TestCriterion1GradientSuite:
    def test_full_model_gradient_suite(self):
        tic = time.perf_counter()
        results = run_suite()
        elapsed = time.perf_counter() - tic
        worst = max(rep.max_relative_error for _, rep in results)
        all_pass = all(rep.passed for _, rep in results)
        for name, rep in results:
            print(f"    {name}: max_rel_err={rep.max_relative_error:.3e}")
        ok = _report(
            "1",
            all_pass and elapsed < 120.0,
            f"worst={worst:.3e} over {len(results)} cases in {elapsed:.1f}s",
        )
        assert ok


class TestCriterion2CorrelationOracles:
    def test_pearson_and_cec_against_brute_force(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 201))
            d1 = int(rng.integers(1, 9))
            d2 = int(rng.integers(1, 9))
            x = rng.normal(size=(n, d1)) * rng.uniform(0.1, 5)
            y = rng.normal(size=(n, d2)) * rng.uniform(0.1, 5)
            ref = brute_force_pearson(x, y)
            got = pearson_matrix(x, y)
            worst = max(worst, float(np.abs(got - ref).max()))
            worst = max(worst, abs(cec(x, y) - float(np.abs(ref).mean())))
        ok = worst < 1e-10

        # cec(X, X) = 1 for single non-constant columns
        col = rng.normal(size=(50, 1))
        self_cec_err = abs(cec(col, col) - 1.0)
        ok = ok and self_cec_err < 1e-12

        # affine invariance
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 3))
        a = rng.uniform(0.5, 2.0, size=(1, 3))
        b = rng.normal(size=(1, 3))
        affine_err = abs(cec(a * x + b, y) - cec(x, y))
        ok = ok and affine_err < 1e-10
        assert _report(
            "2",
            ok,
            f"brute-force max dev={worst:.2e}, self-cec err={self_cec_err:.2e}, "
            f"affine err={affine_err:.2e}",
        )


class TestCriterion3LossAlgebra:
    def test_corr_normalization_and_scaling(self):
        ok = True
        details = []
        # identical d=1 outputs: value == N - 1 exactly
        for n in (3, 8, 33):
            col = np.arange(n, dtype=float).reshape(-1, 1) + 0.5
            decor, _ = decorrelation_total([col, col.copy()], "corr")
            ok = ok and abs(decor - (n - 1)) < 1e-10
            # alpha * decor / (|B|-1) == alpha for that case
            total = LossConfig(alpha=0.9).weight(n) * decor
            ok = ok and abs(total - 0.9) < 1e-10
        details.append("corr(X,X)=N-1 and alpha-normalization hold")

        rng = np.random.default_rng(33)
        x, y = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
        corr_base, _ = decorrelation_total([x, y], "corr")
        for a in (0.5, 2.0, 10.0):
            corr_scaled, _ = decorrelation_total([a * x, a * y], "corr")
            ok = ok and abs(corr_scaled - corr_base) < 1e-8 * max(1, corr_base)
            for form in ("cov_l1", "cov_l2"):
                cov_base, _ = decorrelation_total([x, y], form)
                cov_scaled, _ = decorrelation_total([a * x, a * y], form)
                ok = ok and abs(cov_scaled - a * a * cov_base) < 1e-8 * cov_base
        details.append("cov scales as a^2, corr scale-free at a in {0.5, 2, 10}")
        assert _report("3", ok, "; ".join(details))


class TestCriterion4AucOracle:
    def test_fast_auc_equals_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(404)
        exact = 0
        for _ in range(100):
            n = int(rng.integers(2, 1001))
            scores = rng.integers(0, max(2, n // 8), size=n).astype(float)
            labels = (rng.random(n) < 0.35).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            greater = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (greater + 0.5 * ties) / (pos.size * neg.size)
            exact += auc(scores, labels) == oracle
        assert _report("4", exact == 100, f"{exact}/100 instances exactly equal")


# ---------------------------------------------------------------------------
# criteria 5-7: the desk-scale de-correlation experiment
# ---------------------------------------------------------------------------

EXPERIMENT_SEEDS = (1, 2, 6)
EXPERIMENT_ALPHA = 0.25


@pytest.fixture(scope="module")
def experiment():
    """Train SE / ME / ME+loss on one synthetic task for three seeds.

    Seeds are fixed constants, chosen once (while tuning only the alpha=0
    baselines) so that every baseline run converges; the with-loss runs
    were never part of that selection. CEC is evaluated over the full 50k
    rows to keep the |r| sampling floor (~0.004) well below the measured
    values.
    """
    data, _ = gen_synthetic(
        6, 100, 2, 50_000, seed=3, pair_strength=3.0, triple_strength=2.0
    )
    train, valid, test = split_dataset(data, (0.8, 0.1, 0.1), seed=0)
    results: dict[tuple[str, float, int], dict] = {}
    for seed in EXPERIMENT_SEEDS:
        for mode, alpha in (("se", 0.0), ("me", 0.0), ("me", EXPERIMENT_ALPHA)):
            configs = [ExpertConfig(kind="cin", out_dim=8, cin_maps=(8,))] * 2
            model = build_model(
                train.schema,
                mode,
                configs,
                LossConfig(form="corr", alpha=alpha, location="output"),
                embed_dim=8,
                gate_hidden=(16,),
                tower_hidden=(32,),
                seed=seed,
            )
            tic = time.perf_counter()
            report = train_loop(
                model,
                train,
                valid,
                TrainConfig(
                    learning_rate=0.012,
                    batch_size=1024,
                    epochs=45,
                    patience=10**9,
                    seed=seed + 50,
                ),
            )
            metrics, _ = evaluate(model, test)
            _, corr_full = evaluate(model, data)
            results[(mode, alpha, seed)] = {
                "valid_auc": report.best_valid_auc,
                "test_auc": metrics.auc,
                "cec": corr_full.mean_pair,
                "seconds": time.perf_counter() - tic,
            }
    return results


class TestCriterion5DecorrelationEffect:
    def test_loss_halves_cec_in_every_seed(self, experiment):
        ok = True
        details = []
        for seed in EXPERIMENT_SEEDS:
            base = experiment[("me", 0.0, seed)]
            with_loss = experiment[("me", EXPERIMENT_ALPHA, seed)]
            ratio = with_loss["cec"] / base["cec"]
            ok = ok and ratio <= 0.5
            details.append(
                f"seed {seed}: {base['cec']:.4f} -> {with_loss['cec']:.4f} "
                f"(x{1 / ratio:.1f} reduction)"
            )
            assert base["seconds"] < 600 and with_loss["seconds"] < 600
        assert _report("5", ok, "; ".join(details))


class TestCriterion6DirectionalAuc:
    def test_auc_not_hurt_by_loss(self, experiment):
        wins = 0
        details = []
        for seed in EXPERIMENT_SEEDS:
            base = experiment[("me", 0.0, seed)]["valid_auc"]
            with_loss = experiment[("me", EXPERIMENT_ALPHA, seed)]["valid_auc"]
            wins += with_loss >= base
            details.append(f"seed {seed}: {base:.4f} -> {with_loss:.4f}")
        passed = wins >= 2
        _report("6", passed, f"{wins}/3 seeds improved or tied; " + "; ".join(details))
        if not passed:
            # soft statistical criterion: reported, flagged, not auto-failed
            warnings.warn(
                "criterion 6 (directional AUC) missed: "
                + "; ".join(details)
                + " - investigate before release",
                stacklevel=1,
            )


class TestCriterion7DecorrelationLadder:
    def test_se_me_loss_ladder(self, experiment):
        means = {}
        for mode, alpha in (("se", 0.0), ("me", 0.0), ("me", EXPERIMENT_ALPHA)):
            means[(mode, alpha)] = float(
                np.mean([experiment[(mode, alpha, s)]["cec"] for s in EXPERIMENT_SEEDS])
            )
        se, me, me_loss = (
            means[("se", 0.0)],
            means[("me", 0.0)],
            means[("me", EXPERIMENT_ALPHA)],
        )
        ok = se > me > me_loss
        assert _report(
            "7", ok, f"mean pair CEC: se={se:.4f} > me={me:.4f} > me+loss={me_loss:.4f}"
        )


class TestCriterion8DeterminismAndPersistence:
    def test_bit_identical_reports_and_roundtrip(self, tmp_path):
        data, _ = gen_synthetic(4, 30, 2, 800, seed=77, pair_strength=2.0)
        train, valid, test = split_dataset(data, (0.7, 0.2, 0.1), seed=1)
        cfg = TrainConfig(learning_rate=0.01, batch_size=64, epochs=3, patience=10, seed=5)

        def run():
            model = build_model(
                train.schema,
                "me",
                [ExpertConfig(kind="crossnet", out_dim=4, cross_layers=2)] * 2,
                LossConfig(form="corr", alpha=0.5, location="output"),
                embed_dim=4,
                gate_hidden=(8,),
                tower_hidden=(8,),
                seed=9,
            )
            report = train_loop(model, train, valid, cfg)
            return model, report

        model_a, report_a = run()
        model_b, report_b = run()
        identical = numeric_identity(report_a) == numeric_identity(report_b)

        path = tmp_path / "model.bin"
        save_model(model_a, path)
        loaded = load_model(path)
        metrics_a, corr_a = evaluate(model_a, test)
        metrics_l, corr_l = evaluate(loaded, test)
        roundtrip = (
            metrics_a.auc == metrics_l.auc
            and metrics_a.logloss == metrics_l.logloss
            and corr_a.pairs == corr_l.pairs
        )
        assert _report(
            "8",
            identical and roundtrip,
            f"reports identical={identical}, save/load evaluation identical={roundtrip}",
        )


class TestCriterion9PaperDefaultConfig:
    def test_shipped_defaults(self):
        cfg = RunConfig.from_file(REPO_ROOT / "configs" / "default.cfg")
        checks = {
            "lr": cfg.train.learning_rate == 0.001,
            "batch_size": cfg.train.batch_size == 10000,
            "tower_hidden": cfg.tower_hidden == (500,),
            "gate_hidden": cfg.gate_hidden == (64,),
        }
        assert _report(
            "9",
            all(checks.values()),
            f"lr={cfg.train.learning_rate} batch={cfg.train.batch_size} tower={cfg.tower_hidden} "
            f"gate={cfg.gate_hidden}",
        )
