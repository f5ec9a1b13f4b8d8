import numpy as np
import pytest

from moectr.losses import decorrelation_total
from moectr.metrics import auc, cec, cec_report, pearson_matrix


def brute_force_pearson(x, y):
    """Independent double-loop Pearson implementation (unbiased std)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    out = np.zeros((x.shape[1], y.shape[1]))
    for i in range(x.shape[1]):
        for j in range(y.shape[1]):
            xi = x[:, i] - x[:, i].mean()
            yj = y[:, j] - y[:, j].mean()
            sx = np.sqrt((xi**2).sum() / (n - 1))
            sy = np.sqrt((yj**2).sum() / (n - 1))
            if sx == 0.0 or sy == 0.0:
                out[i, j] = 0.0
            else:
                out[i, j] = (xi * yj).sum() / ((n - 1) * sx * sy)
    return out


def pairwise_auc_oracle(scores, labels):
    """O(n^2) concordance count, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    numerator = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                numerator += 1.0
            elif p == q:
                numerator += 0.5
    return numerator / (pos.size * neg.size)


class TestPearsonMatrix:
    def test_perfect_linear(self):
        r = pearson_matrix(np.array([[1.0], [2.0], [3.0]]), np.array([[2.0], [4.0], [6.0]]))
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_covariance(self):
        r = pearson_matrix(np.array([[1.0], [2.0], [3.0]]), np.array([[1.0], [0.0], [1.0]]))
        assert r[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_self_diagonal_ones(self):
        x = np.random.default_rng(0).normal(size=(20, 5))
        r = pearson_matrix(x, x)
        np.testing.assert_allclose(np.diag(r), np.ones(5), atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4)) * 100
        y = x + rng.normal(size=(50, 4)) * 0.001
        r = pearson_matrix(x, y)
        assert (np.abs(r) <= 1.0).all()

    def test_constant_columns_zero(self):
        x = np.column_stack([np.full(6, 2.0), np.arange(6, dtype=float)])
        y = np.random.default_rng(2).normal(size=(6, 3))
        r = pearson_matrix(x, y)
        np.testing.assert_array_equal(r[0], np.zeros(3))

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            d1 = int(rng.integers(1, 9))
            d2 = int(rng.integers(1, 9))
            x = rng.normal(size=(n, d1)) * rng.uniform(0.1, 10)
            y = rng.normal(size=(n, d2)) * rng.uniform(0.1, 10)
            np.testing.assert_allclose(
                pearson_matrix(x, y), brute_force_pearson(x, y), atol=1e-10
            )

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            pearson_matrix(np.ones((1, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize(
        "x,y,message",
        [
            (np.ones(3), np.ones((3, 2)), r"^expected 2-D array, got shape \(3,\)$"),
            (np.ones((3, 2)), np.ones((3, 2, 1)), r"^expected 2-D array, got shape \(3, 2, 1\)$"),
            (np.ones((3, 2)), np.ones((4, 2)), "^cross-Gram inputs must share the row count$"),
        ],
        ids=["flat-x", "3-d-y", "row-counts-differ"],
    )
    def test_rejects_inputs_that_are_not_one_batch_of_columns(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            pearson_matrix(x, y)


class TestCec:
    def test_self_single_column(self):
        x = np.array([[1.0], [2.0], [5.0]])
        assert cec(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated(self):
        assert cec(
            np.array([[1.0], [2.0], [3.0]]), np.array([[1.0], [0.0], [1.0]])
        ) == pytest.approx(0.0, abs=1e-12)

    def test_two_column_self_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        r = pearson_matrix(x, x)[0, 1]
        assert cec(x, x) == pytest.approx((2.0 + 2.0 * abs(r)) / 4.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=(25, 4))
        base = cec(x, y)
        a = rng.uniform(0.5, 4.0, size=(1, 3))
        b = rng.normal(size=(1, 3)) * 10
        assert cec(a * x + b, y) == pytest.approx(base, abs=1e-10)
        assert cec(-x, y) == pytest.approx(base, abs=1e-10)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(6)
        value = cec(rng.normal(size=(40, 3)), rng.normal(size=(40, 5)))
        assert 0.0 <= value <= 1.0


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_hand_example(self):
        value = auc(np.array([0.8, 0.7, 0.3, 0.2]), np.array([1, 0, 1, 0]))
        assert value == pytest.approx(0.75)

    def test_all_tied(self):
        assert auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_exactly_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 1001))
            # duplicated scores force tie handling
            scores = rng.integers(0, max(2, n // 10), size=n).astype(float)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            fast = auc(scores, labels)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            greater = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (greater + 0.5 * ties) / (pos.size * neg.size)
            assert fast == oracle  # exact equality, not approx

    def test_small_instance_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 5, size=n).astype(float)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pairwise_auc_oracle(scores, labels)


class TestCecReport:
    def test_identical_pair(self):
        x = np.array([[1.0], [2.0], [3.0]])
        report = cec_report([x, x.copy()])
        assert report.pairs[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_pair_count(self):
        rng = np.random.default_rng(9)
        outs = [rng.normal(size=(10, 2)) for _ in range(3)]
        report = cec_report(outs)
        assert sorted(report.pairs) == [(0, 1), (0, 2), (1, 2)]
        assert report.mean_pair == pytest.approx(report.total / 3, rel=1e-12)

    def test_independent_outputs_near_zero(self):
        rng = np.random.default_rng(10)
        outs = [rng.normal(size=(10_000, 4)) for _ in range(3)]
        report = cec_report(outs)
        assert all(v < 0.05 for v in report.pairs.values())

    def test_swap_symmetric(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        a = cec_report([x, y]).pairs[(0, 1)]
        b = cec_report([y, x]).pairs[(0, 1)]
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_output_has_no_pairs(self):
        report = cec_report([np.ones((5, 2))])
        assert report.pairs == {}
        assert report.total == 0.0
        assert report.mean_pair == 0.0

    def test_block_split_rejects_mixed_shapes(self):
        # pairwise metrics accept any widths; the M x M block split does not
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 3))
        with pytest.raises(ValueError, match="share one shape"):
            decorrelation_total([x, y], "corr")
        with pytest.raises(ValueError, match="share one shape"):
            cec_report([x, y])
        assert pearson_matrix(x, y).shape == (2, 3)
        assert 0.0 <= cec(x, y) <= 1.0

    def test_csv_format(self):
        rng = np.random.default_rng(12)
        outs = [rng.normal(size=(8, 2)) for _ in range(3)]
        report = cec_report(outs)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "m1,m2,cec"
        assert len(lines) == 4
        m1, m2, value = lines[1].split(",")
        assert (int(m1), int(m2)) == (0, 1)
        assert float(value) == report.pairs[(0, 1)]

    def test_rectangular_cec_for_heterogeneous_widths(self):
        # cec itself accepts mismatched widths (mean |r| over d1 x d2)
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=(30, 2)), rng.normal(size=(30, 5))
        assert pearson_matrix(x, y).shape == (2, 5)
        assert 0.0 <= cec(x, y) <= 1.0
