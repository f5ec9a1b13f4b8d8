import numpy as np
import pytest

from moectr.gating import aggregate_experts, build_gate, gate_weights, gating_backward
from moectr.numerics import central_diff_gradcheck, row_softmax


def _gn(gate_dim=4, hidden=(5,), m=3, seed=0, generic_point=False):
    rng = np.random.default_rng(seed)
    gn = build_gate(gate_dim, hidden, m, rng)
    if generic_point:
        # the final layer ships zero-initialized; gradient checks need a
        # generic point so the hidden-layer path carries signal
        for w, b in zip(gn.weights, gn.biases):
            w += rng.uniform(-0.3, 0.3, size=w.shape)
            b += rng.uniform(-0.3, 0.3, size=b.shape)
    return gn


class TestGateWeights:
    def test_single_expert_weight_one(self):
        gn = _gn(m=1)
        g, _ = gate_weights(gn, np.random.default_rng(1).normal(size=(4, 4)))
        np.testing.assert_allclose(g, np.ones((4, 1)), atol=0)

    def test_equal_logits_uniform(self):
        gn = _gn(m=4)
        # final layer ships zeroed, so every expert logit equals the bias
        gn.biases[-1][...] = 0.7
        g, _ = gate_weights(gn, np.random.default_rng(2).normal(size=(3, 4)))
        np.testing.assert_allclose(g, np.full((3, 4), 0.25), atol=1e-15)

    def test_matches_dense_oracle(self):
        gn = _gn(seed=3)
        x = np.random.default_rng(4).normal(size=(6, 4))
        g, _ = gate_weights(gn, x)
        h1 = np.maximum(x @ gn.weights[0].T + gn.biases[0], 0.0)
        logits = h1 @ gn.weights[1].T + gn.biases[1]
        np.testing.assert_allclose(g, row_softmax(logits), atol=1e-12)

    def test_rows_sum_to_one(self):
        gn = _gn(seed=5)
        g, _ = gate_weights(gn, np.random.default_rng(6).normal(size=(9, 4)) * 10)
        np.testing.assert_allclose(g.sum(axis=1), np.ones(9), atol=1e-12)


class TestAggregateExperts:
    def test_even_mix(self):
        g = np.array([[0.5, 0.5]])
        h = aggregate_experts(g, [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        np.testing.assert_allclose(h, [[0.5, 0.5]])

    def test_one_hot_selection(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        o1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        o2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        h = aggregate_experts(g, [o1, o2])
        np.testing.assert_allclose(h, [[5.0, 6.0], [3.0, 4.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        g = row_softmax(rng.normal(size=(5, 3)))
        outs = [rng.normal(size=(5, 4)) for _ in range(3)]
        h = aggregate_experts(g, outs)
        expected = np.zeros((5, 4))
        for i in range(5):
            for m in range(3):
                expected[i] += g[i, m] * outs[m][i]
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_linear_in_outputs(self):
        rng = np.random.default_rng(8)
        g = row_softmax(rng.normal(size=(4, 2)))
        outs = [rng.normal(size=(4, 3)) for _ in range(2)]
        h1 = aggregate_experts(g, outs)
        h2 = aggregate_experts(g, [3.0 * o for o in outs])
        np.testing.assert_allclose(h2, 3.0 * h1, atol=1e-12)

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="expert outputs"):
            aggregate_experts(np.ones((2, 3)) / 3, [np.zeros((2, 2))] * 2)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="^expert outputs must share one shape$"):
            aggregate_experts(np.ones((2, 2)) / 2, [np.zeros((2, 2)), np.zeros((2, 3))])


class TestGatingComposite:
    def test_logit_shift_leaves_everything_unchanged(self):
        # adding a per-sample constant to the gate logits changes neither
        # the weights nor the aggregate
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 3))
        shift = rng.normal(size=(6, 1)) * 20
        outs = [rng.normal(size=(6, 4)) for _ in range(3)]
        g1 = row_softmax(logits)
        g2 = row_softmax(logits + shift)
        np.testing.assert_allclose(g2, g1, atol=1e-12)
        h1 = aggregate_experts(g1, outs)
        h2 = aggregate_experts(g2, outs)
        np.testing.assert_allclose(h2, h1, atol=1e-12)


class TestGatingBackward:
    def test_zero_upstream(self):
        gn = _gn(seed=10)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4))
        outs = [rng.normal(size=(4, 5)) for _ in range(3)]
        g, gcache = gate_weights(gn, x)
        h = aggregate_experts(g, outs)
        grads, d_x, d_outs = gating_backward(gn, gcache, g, outs, np.zeros_like(h))
        assert all(np.all(v == 0) for v in grads.values())
        assert np.all(d_x == 0)
        assert all(np.all(d == 0) for d in d_outs)

    def test_single_expert_no_gate_gradient(self):
        # softmax over one logit is constantly 1, so nothing flows into
        # the gate MLP or the gating embedding
        gn = _gn(m=1, seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 4))
        outs = [rng.normal(size=(4, 5))]
        g, gcache = gate_weights(gn, x)
        h = aggregate_experts(g, outs)
        grads, d_x, d_outs = gating_backward(gn, gcache, g, outs, rng.normal(size=h.shape))
        assert np.allclose(d_x, 0.0, atol=1e-15)
        assert all(np.allclose(v, 0.0, atol=1e-15) for v in grads.values())

    def test_gradcheck(self):
        gn = _gn(seed=16, generic_point=True)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, 4))
        outs = [rng.normal(size=(5, 3)) for _ in range(3)]
        r = rng.normal(size=(5, 3))

        g, gcache = gate_weights(gn, x)
        grads, d_x, d_outs = gating_backward(gn, gcache, g, outs, r)

        def objective():
            return float((aggregate_experts(gate_weights(gn, x)[0], outs) * r).sum())

        inputs = {"x": x, **{f"out{m}": o for m, o in enumerate(outs)}}
        d_inputs = {"x": d_x, **{f"out{m}": d for m, d in enumerate(d_outs)}}
        rep = central_diff_gradcheck(objective, {**gn.params, **inputs}, {**grads, **d_inputs})
        assert rep.passed, rep
