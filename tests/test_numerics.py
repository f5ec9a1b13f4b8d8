import math

import numpy as np
import pytest

from moectr.numerics import central_diff_gradcheck, row_softmax, sigmoid, standardize_columns
from moectr.trainer import KinkCrossed


class TestRowSoftmax:
    def test_symmetric_row(self):
        np.testing.assert_allclose(row_softmax([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_single_column(self):
        np.testing.assert_allclose(row_softmax([[5.0]]), [[1.0]], atol=0)

    def test_hand_computed(self):
        # exp(0)=1, exp(ln 3)=3 -> 1/4, 3/4
        out = row_softmax([[0.0, math.log(3.0)]])
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-14)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            row_softmax(np.zeros((0, 3)))

    def test_rows_sum_to_one_large_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-700, 700, size=(5, 7))
            s = row_softmax(x)
            np.testing.assert_allclose(s.sum(axis=1), np.ones(5), atol=1e-12)
            # entries in [0, 1]; spreads beyond ~745 underflow to exact 0
            assert (s >= 0).all() and (s <= 1).all()

    def test_entries_strictly_positive_moderate_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = row_softmax(rng.uniform(-30, 30, size=(4, 5)))
            assert (s > 0).all() and (s <= 1).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 4))
        c = rng.normal(size=(6, 1)) * 50
        np.testing.assert_allclose(row_softmax(x + c), row_softmax(x), atol=1e-12)


class TestStandardizeColumns:
    def test_simple_column(self):
        z, mean, std = standardize_columns([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(z, [[-1.0], [0.0], [1.0]], atol=1e-14)
        assert mean[0, 0] == 2.0
        assert std[0, 0] == 1.0

    def test_constant_column_maps_to_zeros(self):
        z, _, std = standardize_columns([[4.0], [4.0], [4.0]])
        np.testing.assert_array_equal(z, np.zeros((3, 1)))
        assert std[0, 0] == 0.0

    def test_constant_column_with_rounding_noise(self):
        # mean of three 0.1 values is not exactly 0.1 in floats; the
        # constant-column rule must still fire
        z, _, std = standardize_columns([[0.1], [0.1], [0.1]])
        np.testing.assert_array_equal(z, np.zeros((3, 1)))
        assert std[0, 0] == 0.0

    def test_already_standardized_unchanged(self):
        x = np.array([[-1.0], [0.0], [1.0]])
        z, _, _ = standardize_columns(x)
        np.testing.assert_allclose(z, x, atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 5)) * 3 + 1
        z1, _, _ = standardize_columns(x)
        z2, _, _ = standardize_columns(z1)
        np.testing.assert_allclose(z2, z1, atol=1e-10)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="insufficient rows for std"):
            standardize_columns([[1.0, 2.0]])

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(11, 4)) * 7 - 2
        z, _, _ = standardize_columns(x)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), np.ones(4), atol=1e-12)


class TestGradcheck:
    def test_quadratic(self):
        x = np.array([3.0])
        rep = central_diff_gradcheck(lambda: float(x[0] ** 2), {"x": x}, {"x": np.array([6.0])})
        assert rep.passed
        assert rep.max_relative_error < 1e-8

    def test_constant_function(self):
        rep = central_diff_gradcheck(lambda: 7.0, {"x": np.array([1.0, 2.0])}, {"x": np.zeros(2)})
        assert rep.passed
        assert rep.max_relative_error == 0.0

    def test_sine_at_zero(self):
        x = np.array([0.0])
        rep = central_diff_gradcheck(lambda: math.sin(x[0]), {"x": x}, {"x": np.array([1.0])})
        assert rep.max_relative_error < 1e-9

    def test_random_quadratics(self):
        # central differences are exact on polynomials of degree <= 2
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(1, 6)
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            x = rng.normal(size=n)
            grad = (a + a.T) @ x + b
            rep = central_diff_gradcheck(lambda: float(x @ a @ x + b @ x), {"x": x}, {"x": grad}, tol=1e-8)
            assert rep.passed, rep

    def test_non_finite_objective(self):
        with pytest.raises(ValueError, match="^objective not finite at block 'x' entry 0$"):
            central_diff_gradcheck(lambda: float("nan"), {"x": np.array([1.0])}, {"x": np.array([0.0])})

    def test_reports_worst_coordinate(self):
        # analytic gradient wrong only in entry (1, 0) of block "b"
        a, b = np.zeros(2), np.zeros((2, 2))
        rep = central_diff_gradcheck(
            lambda: float(a.sum() + 2.0 * b.sum()),
            {"a": a, "b": b},
            {"a": np.ones(2), "b": np.array([[2.0, 2.0], [5.0, 2.0]])},
        )
        assert not rep.passed
        assert rep.worst == ("b", 2)
        assert rep.max_relative_error == pytest.approx(3.0 / 5.0)

    def test_empty_blocks_pass(self):
        rep = central_diff_gradcheck(lambda: 0.0, {"x": np.zeros((0, 3))}, {"x": np.zeros((0, 3))})
        assert (rep.max_relative_error, rep.worst, rep.passed) == (0.0, None, True)


class TestGradcheckRestoresEveryArray:
    """Each entry is moved in place and written back, so every array holds
    its original bytes however the check ends."""

    @pytest.mark.parametrize(
        "raise_on,value,raises",
        [(None, None, None), (1, None, KinkCrossed), (3, None, KinkCrossed), (8, None, KinkCrossed), (None, np.inf, ValueError)],
        ids=["passes", "raises-on-call-1", "raises-on-call-3", "raises-on-call-8", "non-finite"],
    )
    def test_every_array_keeps_its_bytes(self, raise_on, value, raises):
        rng = np.random.default_rng(7)
        # a strided view, values that h shifts inexactly, and a 0-d block
        params = {
            "view": rng.normal(size=(4, 6))[::2, 1::2],
            "odd": np.array([0.1, 123.456, -3.7e-9]),
            "scalar": np.array(2.5),
        }
        before = {name: arr.tobytes() for name, arr in params.items()}
        calls = []

        def f():
            calls.append(None)
            if len(calls) == raise_on:
                raise KinkCrossed
            return value if value is not None else float(sum((arr**2).sum() for arr in params.values()))

        grads = {name: 2.0 * arr for name, arr in params.items()}
        if raises is None:
            assert central_diff_gradcheck(f, params, grads).passed
        else:
            with pytest.raises(raises):
                central_diff_gradcheck(f, params, grads)
        assert {name: arr.tobytes() for name, arr in params.items()} == before


class TestGradcheckRejectsMismatchedBlocks:
    @pytest.mark.parametrize("h", [0.0, -1e-6])
    def test_non_positive_step_rejected(self, h):
        with pytest.raises(ValueError, match="^h must be positive$"):
            central_diff_gradcheck(lambda: 0.0, {"x": np.zeros(2)}, {"x": np.zeros(2)}, h=h)

    def test_mismatched_key_names_the_blocks(self):
        with pytest.raises(ValueError, match=r"^gradient and parameter blocks differ: \['w', 'x'\]$"):
            central_diff_gradcheck(lambda: 0.0, {"x": np.zeros(2)}, {"w": np.zeros(2)})

    def test_mismatched_shape_names_the_block(self):
        with pytest.raises(ValueError, match=r"^block 'x': expected float64 of shape \(3, 2\), got float64 \(2, 3\)$"):
            central_diff_gradcheck(lambda: 0.0, {"x": np.zeros((2, 3))}, {"x": np.zeros((3, 2))})

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_parameter_names_the_block(self, dtype):
        x = np.ones(3, dtype=dtype)
        with pytest.raises(ValueError, match=rf"^block 'x': expected float64 of shape \(3,\), got {np.dtype(dtype)} \(3,\)$"):
            central_diff_gradcheck(lambda: 0.0, {"x": x}, {"x": np.zeros(3)})
        assert (x == 1).all()


class TestSigmoid:
    def test_sigmoid_stable(self):
        z = np.array([-800.0, 0.0, 800.0])
        p = sigmoid(z)
        assert p[0] == 0.0 and p[1] == 0.5 and p[2] == 1.0
