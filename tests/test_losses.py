import math
import re

import numpy as np
import pytest

from moectr.losses import (
    LossConfig,
    bce,
    decorrelation_backward,
    decorrelation_total,
)
from moectr.numerics import central_diff_gradcheck, standardize_backward, standardize_columns


class TestBce:
    def test_half_probability(self):
        value, _ = bce(np.array([0.5]), np.array([1.0]))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_clipped(self):
        value, _ = bce(np.array([1.0]), np.array([1.0]))
        assert value == pytest.approx(-math.log(1.0 - 1e-7), abs=1e-12)
        assert value < 2e-7

    def test_confident_wrong(self):
        value, _ = bce(np.array([0.9]), np.array([0.0]))
        assert value == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        y = (rng.random(6) < 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, size=6)
        _, grad = bce(p, y)
        rep = central_diff_gradcheck(lambda: bce(p, y)[0], {"p": p}, {"p": grad}, h=1e-7, tol=1e-6)
        assert rep.passed, rep


IDENTITY_COLUMN = np.array([[1.0], [2.0], [3.0]])


def pair_oracle(o_p, o_q, form):
    """Stand-alone pair loss: one cross matrix per pair, standardized
    (corr) or centered (cov) on its own, with the hand-derived adjoint."""
    d = o_p.shape[1]
    if form == "corr":
        a, _, std_p = standardize_columns(o_p)
        b, _, std_q = standardize_columns(o_q)
    else:
        a = o_p - o_p.mean(axis=0, keepdims=True)
        b = o_q - o_q.mean(axis=0, keepdims=True)
    cross = a.T @ b
    if form == "cov_l1":
        value = float(np.abs(cross).sum()) / (d * d)
        g_cross = np.sign(cross) / (d * d)
    else:
        s = float(np.sqrt((cross**2).sum()))
        value = s / (d * d)
        g_cross = cross / (s * d * d) if s > 0.0 else np.zeros_like(cross)
    d_a, d_b = b @ g_cross.T, a @ g_cross
    if form == "corr":
        return value, standardize_backward(d_a, a, std_p), standardize_backward(d_b, b, std_q)
    return value, d_a - d_a.mean(axis=0), d_b - d_b.mean(axis=0)


class TestCorrLossPair:
    def test_identical_single_column_equals_n_minus_1(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN, IDENTITY_COLUMN.copy()], "corr")
        assert value == pytest.approx(2.0, abs=1e-12)  # N - 1

    def test_sign_blind(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN, -IDENTITY_COLUMN], "corr")
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_uncorrelated_columns_zero(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN, np.array([[1.0], [0.0], [1.0]])], "corr")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 3))
        base, _ = decorrelation_total([x, y], "corr")
        a = rng.uniform(0.5, 3.0, size=(1, 3))
        b = rng.normal(size=(1, 3)) * 5
        scaled, _ = decorrelation_total([a * x + b, y], "corr")
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_self_corr_matches_scaled_pearson(self):
        # corr(X, X) = ||(N-1) R(X, X)||_F / d^2 for non-constant columns
        from moectr.metrics import pearson_matrix

        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 4))
        value, _ = decorrelation_total([x, x], "corr")
        r = pearson_matrix(x, x)
        n = x.shape[0]
        expected = np.sqrt((((n - 1) * r) ** 2).sum()) / 16
        assert value == pytest.approx(expected, abs=1e-10)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="insufficient rows"):
            decorrelation_total([np.ones((1, 2)), np.ones((1, 2))], "corr")

    def test_constant_columns_zero_gradient(self):
        x = np.column_stack([np.ones(4), np.arange(4, dtype=float)])
        y = np.random.default_rng(3).normal(size=(4, 2))
        d_x, _ = decorrelation_backward(decorrelation_total([x, y], "corr")[1], 1.0)
        np.testing.assert_array_equal(d_x[:, 0], np.zeros(4))


class TestCovLossPair:
    def test_identical_column_l1(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN, IDENTITY_COLUMN], "cov_l1")
        assert value == pytest.approx(2.0, abs=1e-12)  # centered [-1,0,1], sum sq

    def test_identical_column_l2_coincides(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN, IDENTITY_COLUMN], "cov_l2")
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_constant_second_input(self):
        x = np.random.default_rng(4).normal(size=(5, 2))
        const = np.full((5, 2), 3.3)
        for form in ("cov_l1", "cov_l2"):
            value, _ = decorrelation_total([x, const], form)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        for form in ("cov_l1", "cov_l2"):
            base, _ = decorrelation_total([x, y], form)
            for a in (0.5, 2.0, 10.0):
                scaled, _ = decorrelation_total([a * x, a * y], form)
                assert scaled == pytest.approx(a * a * base, rel=1e-10)

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="^expected one of corr, cov_l1, cov_l2, got 'cov_linf'$"):
            decorrelation_total([IDENTITY_COLUMN, IDENTITY_COLUMN], "cov_linf")


class TestPairLossGradients:
    @pytest.mark.parametrize("form", ["corr", "cov_l1", "cov_l2"])
    def test_fd_on_random_instances(self, form):
        rng = np.random.default_rng(6)
        for trial in range(5):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            d_x, d_y = decorrelation_backward(decorrelation_total([x, y], form)[1], 1.0)
            rep = central_diff_gradcheck(
                lambda: decorrelation_total([x, y], form)[0], {"x": x, "y": y}, {"x": d_x, "y": d_y}
            )
            assert rep.passed, (form, trial, rep)


class TestDecorrelationTotal:
    def test_single_expert_zero(self):
        # no pairs: the generic path gives a zero total and zero gradients
        out = np.random.default_rng(7).normal(size=(3, 2))
        for form in ("corr", "cov_l1", "cov_l2"):
            value, cache = decorrelation_total([out], form)
            assert value == 0.0
            (grad,) = decorrelation_backward(cache, 5.0)
            np.testing.assert_array_equal(grad, np.zeros_like(out))

    def test_three_identical_experts(self):
        value, _ = decorrelation_total([IDENTITY_COLUMN] * 3, "corr")
        assert value == pytest.approx(6.0, abs=1e-12)  # 3 pairs x 2

    def test_permutation_symmetric(self):
        rng = np.random.default_rng(8)
        outs = [rng.normal(size=(6, 2)) for _ in range(4)]
        a, _ = decorrelation_total(outs, "cov_l2")
        b, _ = decorrelation_total(outs[::-1], "cov_l2")
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("form", ["corr", "cov_l1", "cov_l2"])
    def test_four_experts_match_pair_oracle(self, form):
        rng = np.random.default_rng(10)
        outs = [rng.normal(size=(11, 3)) * rng.uniform(0.5, 4.0) for _ in range(4)]
        outs[2][:, 1] = 2.5  # a constant column drops out of corr
        want_total, want_grads = 0.0, [np.zeros_like(o) for o in outs]
        for p in range(4):
            for q in range(p + 1, 4):
                value, d_p, d_q = pair_oracle(outs[p], outs[q], form)
                want_total += value
                want_grads[p] += d_p
                want_grads[q] += d_q
        total, cache = decorrelation_total(outs, form)
        grads = decorrelation_backward(cache, 1.0)
        assert total == pytest.approx(want_total, rel=1e-12)
        for got, want in zip(grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("form", ["corr", "cov_l1", "cov_l2"])
    def test_backward_scales_by_the_upstream_gradient(self, form):
        rng = np.random.default_rng(12)
        _, cache = decorrelation_total([rng.normal(size=(5, 2)) for _ in range(3)], form)
        for got, unit in zip(decorrelation_backward(cache, 0.35), decorrelation_backward(cache, 1.0), strict=True):
            assert got.tobytes() == (0.35 * unit).tobytes()

    def test_none_form_rejected(self):
        # "none" switches the loss off in LossConfig; it is not a pair form
        with pytest.raises(ValueError, match="^expected one of corr, cov_l1, cov_l2, got 'none'$"):
            decorrelation_total([IDENTITY_COLUMN] * 2, "none")


class TestWeight:
    @pytest.mark.parametrize("loss", [LossConfig(alpha=0.0), LossConfig(form="none", alpha=5.0)])
    @pytest.mark.parametrize("rows", [0, 1, 2, 1000])
    def test_off_is_zero_at_any_row_count(self, loss, rows):
        assert loss.weight(rows) == 0.0

    def test_plug_in(self):
        assert LossConfig(alpha=1.0).weight(3) == 0.5

    @pytest.mark.parametrize("rows", [1, 0])
    def test_active_loss_on_one_row_raises(self, rows):
        message = f"batch too small for de-correlation: a batch would have {rows} row(s)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LossConfig(form="cov_l2", alpha=0.3).weight(rows)

    def test_normalization_cancels_growth(self):
        # identical single-column pair: decor = N - 1, so the penalty term
        # is exactly alpha for any N
        for n in (3, 5, 17):
            col = np.arange(n, dtype=float).reshape(-1, 1)
            decor, _ = decorrelation_total([col, col.copy()], "corr")
            alpha = 0.7
            value = LossConfig(alpha=alpha).weight(n) * decor
            assert value == pytest.approx(alpha, abs=1e-10)


class TestLossConfig:
    def test_valid(self):
        cfg = LossConfig(form="cov_l1", alpha=0.5, location="input")
        assert cfg.active

    def test_alpha_zero_inactive(self):
        assert not LossConfig(form="corr", alpha=0.0).active

    def test_none_form_inactive(self):
        assert not LossConfig(form="none", alpha=5.0).active

    def test_bad_form(self):
        with pytest.raises(ValueError):
            LossConfig(form="banana")

    def test_bad_location(self):
        with pytest.raises(ValueError):
            LossConfig(location="sideways")
