import numpy as np
import pytest

from moectr.experts import ExpertConfig, make_expert
from moectr.nnet import AlignmentHead
from moectr.numerics import central_diff_gradcheck, flatten_arrays, write_arrays


def _identity_align(expert, width):
    expert.align.w = np.eye(width)
    expert.align.b = np.zeros(width)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestDnnExpert:
    def test_single_rectified_layer_identity(self):
        cfg = ExpertConfig(kind="dnn", out_dim=2, hidden=(2,))
        e = make_expert(cfg, 1, 2, _rng())
        e.core.weights[0] = np.eye(2)
        e.core.biases[0] = np.zeros(2)
        _identity_align(e, 2)
        out, _ = e.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_zero_weights_final_bias_broadcast(self):
        cfg = ExpertConfig(kind="dnn", out_dim=2, hidden=(), dnn_out=2)
        e = make_expert(cfg, 1, 2, _rng())
        e.core.weights[0][...] = 0.0
        e.core.biases[0][...] = [0.5, 0.25]
        _identity_align(e, 2)
        out, _ = e.forward(np.array([[1.0, 2.0], [3.0, -4.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(out, np.tile([0.5, 0.25], (3, 1)))

    def test_matches_dense_algebra_oracle(self):
        rng = _rng(3)
        cfg = ExpertConfig(kind="dnn", out_dim=3, hidden=(5,), dnn_out=4)
        e = make_expert(cfg, 2, 3, rng)
        x = rng.normal(size=(6, 6))
        out, _ = e.forward(x)
        h1 = np.maximum(x @ e.core.weights[0].T + e.core.biases[0], 0.0)
        raw = h1 @ e.core.weights[1].T + e.core.biases[1]
        expected = np.maximum(raw @ e.align.w.T + e.align.b, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_linear_single_layer_param_grad(self):
        # L = sum(O) with a pure linear core and identity alignment:
        # each row of the core weight gradient is the column-sum of inputs
        cfg = ExpertConfig(kind="dnn", out_dim=2, hidden=(), dnn_out=2)
        e = make_expert(cfg, 1, 2, _rng(1))
        e.core.biases[0][...] = [5.0, 5.0]  # keep alignment ReLU active
        _identity_align(e, 2)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]])
        out, cache = e.forward(x)
        grads, _ = e.backward(cache, np.ones_like(out))
        np.testing.assert_allclose(grads["core.w0"], np.tile(x.sum(axis=0), (2, 1)))

    def test_zero_upstream_zero_grads(self):
        cfg = ExpertConfig(kind="dnn", out_dim=2, hidden=(3,))
        e = make_expert(cfg, 2, 2, _rng(2))
        x = _rng(5).normal(size=(4, 4))
        out, cache = e.forward(x)
        grads, d_x = e.backward(cache, np.zeros_like(out))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(d_x == 0)

    def test_needs_some_layer(self):
        with pytest.raises(ValueError):
            ExpertConfig(kind="dnn", out_dim=2, hidden=(), dnn_out=None)


class TestFmExpert:
    def _raw(self, e, x):
        _, cache = e.forward(x)
        raw, _ = cache[2]
        return raw

    def test_two_fields_hand(self):
        cfg = ExpertConfig(kind="fm", out_dim=1)
        e = make_expert(cfg, 2, 1, _rng())
        raw = self._raw(e, np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(raw, [[6.0]])

    def test_single_field_zero(self):
        cfg = ExpertConfig(kind="fm", out_dim=1)
        e = make_expert(cfg, 1, 3, _rng())
        raw = self._raw(e, np.array([[1.5, -2.0, 7.0]]))
        np.testing.assert_allclose(raw, np.zeros((1, 3)), atol=1e-12)

    def test_three_fields_hand(self):
        cfg = ExpertConfig(kind="fm", out_dim=1)
        e = make_expert(cfg, 3, 1, _rng())
        raw = self._raw(e, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(raw, [[11.0]])  # 1*2 + 1*3 + 2*3

    def test_brute_force_pairwise_oracle(self):
        rng = _rng(8)
        for f in range(2, 9):
            d = int(rng.integers(1, 5))
            cfg = ExpertConfig(kind="fm", out_dim=2)
            e = make_expert(cfg, f, d, rng)
            x = rng.normal(size=(5, f * d))
            raw = self._raw(e, x)
            ev = x.reshape(5, f, d)
            expected = np.zeros((5, d))
            for i in range(f):
                for j in range(i + 1, f):
                    expected += ev[:, i, :] * ev[:, j, :]
            np.testing.assert_allclose(raw, expected, atol=1e-10)


class TestCrossNetExpert:
    def test_zero_layers_identity(self):
        cfg = ExpertConfig(kind="crossnet", out_dim=4, cross_layers=0)
        e = make_expert(cfg, 2, 2, _rng())
        x = _rng(1).normal(size=(3, 4))
        _, cache = e.forward(x)
        xs, _, _ = cache
        np.testing.assert_array_equal(xs[-1], x)

    def test_zero_weights_fixed_point(self):
        cfg = ExpertConfig(kind="crossnet", out_dim=4, cross_layers=3)
        e = make_expert(cfg, 2, 2, _rng(2))
        for l in range(3):
            e.ws[l][...] = 0.0
            e.bs[l][...] = 0.0
        x = _rng(1).normal(size=(3, 4))
        _, cache = e.forward(x)
        xs, _, _ = cache
        for layer_x in xs:
            np.testing.assert_array_equal(layer_x, x)

    def test_identity_weight_recurrence_hand(self):
        cfg = ExpertConfig(kind="crossnet", out_dim=2, cross_layers=1)
        e = make_expert(cfg, 1, 2, _rng(3))
        e.ws[0] = np.eye(2)
        e.bs[0] = np.zeros(2)
        _, cache = e.forward(np.array([[1.0, 2.0]]))
        xs, _, _ = cache
        np.testing.assert_allclose(xs[1], [[2.0, 6.0]])  # x0*(x0) + x0

    def test_reproducible(self):
        cfg = ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2)
        e = make_expert(cfg, 2, 2, _rng(4))
        x = _rng(5).normal(size=(4, 4))
        a, _ = e.forward(x)
        b, _ = e.forward(x)
        np.testing.assert_array_equal(a, b)


class TestCinExpert:
    def _pooled(self, e, x):
        _, cache = e.forward(x)
        raw, _ = cache[-1]
        return raw

    def test_all_ones_single_map_hand(self):
        cfg = ExpertConfig(kind="cin", out_dim=1, cin_maps=(1,))
        e = make_expert(cfg, 2, 2, _rng())
        e.ws[0][...] = 1.0
        pooled = self._pooled(e, np.array([[1.0, 2.0, 3.0, 4.0]]))
        # map = (X0_1 + X0_2) * (X0_1 + X0_2) = [16, 36]; pooled = 52
        np.testing.assert_allclose(pooled, [[52.0]])

    def test_zero_weights(self):
        cfg = ExpertConfig(kind="cin", out_dim=2, cin_maps=(3,))
        e = make_expert(cfg, 3, 2, _rng(1))
        e.ws[0][...] = 0.0
        pooled = self._pooled(e, _rng(2).normal(size=(4, 6)))
        np.testing.assert_array_equal(pooled, np.zeros((4, 3)))

    def test_single_field_self_product(self):
        cfg = ExpertConfig(kind="cin", out_dim=1, cin_maps=(1,))
        e = make_expert(cfg, 1, 3, _rng(2))
        e.ws[0][...] = 1.0
        x = np.array([[2.0, -1.0, 3.0]])
        pooled = self._pooled(e, x)
        np.testing.assert_allclose(pooled, [[(x[0] ** 2).sum()]])

    def test_triple_loop_oracle(self):
        rng = _rng(12)
        for trial in range(6):
            f = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            maps = tuple(int(m) for m in rng.integers(1, 4, size=rng.integers(1, 3)))
            cfg = ExpertConfig(kind="cin", out_dim=2, cin_maps=maps)
            e = make_expert(cfg, f, d, rng)
            x = rng.normal(size=(3, f * d))
            _, cache = e.forward(x)
            maps_out = e.feature_maps(cache)
            x0 = x.reshape(3, f, d)
            prev = x0
            for k, h_k in enumerate(maps):
                w = e.ws[k]
                nxt = np.zeros((3, h_k, d))
                for n in range(3):
                    for h in range(h_k):
                        for i in range(prev.shape[1]):
                            for j in range(f):
                                nxt[n, h] += w[h, i, j] * prev[n, i] * x0[n, j]
                np.testing.assert_allclose(maps_out[k], nxt, atol=1e-10)
                prev = nxt


def _per_sample_cin(e, x, d_out):
    """CIN as B small per-sample products: (H_k, H_{k-1}*F) @ (H_{k-1}*F, d)
    for each sample and an einsum over (B, d) for each dW. Returns the
    output, the feature maps (B, H_k, d), d_in and the dW of each layer."""
    n = x.shape[0]
    x0 = x.reshape(n, e.num_fields, e.embed_dim)
    xs, zs = [x0], []
    for w in e.ws:
        h, prev_h, f = w.shape
        z = (xs[-1][:, :, None, :] * x0[:, None, :, :]).reshape(n, prev_h * f, -1)
        xs.append(np.matmul(w.reshape(h, prev_h * f), z))
        zs.append(z)
    pooled = np.concatenate([m.sum(axis=2) for m in xs[1:]], axis=1)
    out, align_cache = e.align.forward(pooled)
    _, d_pooled = e.align.backward(align_cache, d_out)
    d_xs = [np.zeros_like(m) for m in xs]
    offset = 0
    for k, h in enumerate(e.maps):
        d_xs[k + 1] += d_pooled[:, offset : offset + h, None]
        offset += h
    d_ws = [None] * len(e.ws)
    for k in range(len(e.ws) - 1, -1, -1):
        w = e.ws[k]
        h, prev_h, f = w.shape
        d_ws[k] = np.einsum("nhd,nzd->hz", d_xs[k + 1], zs[k], optimize=True).reshape(w.shape)
        d_z = np.matmul(w.reshape(h, prev_h * f).T, d_xs[k + 1]).reshape(n, prev_h, f, -1)
        d_xs[k] += (d_z * x0[:, None, :, :]).sum(axis=2)
        d_xs[0] += (d_z * xs[k][:, :, None, :]).sum(axis=1)
    return out, xs[1:], d_xs[0].reshape(n, -1), d_ws


def _assert_same_up_to_order(got, want):
    """rtol 1e-12, with an absolute floor at 1e-12 of the array's largest
    entry: an entry that cancels to far below its terms keeps only the
    absolute error the terms' summation order leaves (at d=1 the
    per-sample products run as matrix-vector products)."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestCinMatchesPerSampleFormulation:
    """The one-GEMM-per-layer CIN against the per-sample formulation it
    replaced: same output, maps and gradients up to summation order."""

    @pytest.mark.parametrize("maps", [(8,), (3, 2), (4, 4, 4)], ids=str)
    @pytest.mark.parametrize("batch", [1, 7, 64, 1024])
    @pytest.mark.parametrize("fields,dim", [(6, 8), (1, 8), (6, 1)])
    def test_output_maps_and_gradients(self, maps, batch, fields, dim):
        rng = _rng(batch + 10 * len(maps) + fields + dim)
        e = make_expert(ExpertConfig(kind="cin", out_dim=4, cin_maps=maps), fields, dim, rng)
        e.align.b[...] = rng.uniform(-0.3, 0.3, size=e.align.b.shape)
        x = rng.normal(size=(batch, fields * dim))
        d_out = rng.normal(size=(batch, 4))
        out, cache = e.forward(x)
        grads, d_in = e.backward(cache, d_out)
        ref_out, ref_maps, ref_d_in, ref_d_ws = _per_sample_cin(e, x, d_out)
        _assert_same_up_to_order(out, ref_out)
        for got, want in zip(e.feature_maps(cache), ref_maps, strict=True):
            _assert_same_up_to_order(got, want)
        _assert_same_up_to_order(d_in, ref_d_in)
        for k, want in enumerate(ref_d_ws):
            _assert_same_up_to_order(grads[f"w{k}"], want)


class TestAlignmentHead:
    def test_identity_on_nonnegative(self):
        head = AlignmentHead(np.eye(3), np.zeros(3))
        x = np.array([[0.0, 1.0, 2.5]])
        out, _ = head.forward(x)
        np.testing.assert_array_equal(out, x)

    def test_negative_clamped(self):
        head = AlignmentHead(np.eye(2), np.zeros(2))
        out, _ = head.forward(np.array([[-3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[0.0, 4.0]])

    def test_random_vs_dense_oracle(self):
        rng = _rng(6)
        head = AlignmentHead.build(4, 3, rng)
        x = rng.normal(size=(5, 4))
        out, _ = head.forward(x)
        np.testing.assert_allclose(
            out, np.maximum(x @ head.w.T + head.b, 0.0), atol=1e-12
        )


def _expert_gradcheck(kind, seed, f=3, d=2, batch=4, **cfg_kw):
    """Scalar objective sum(O * R); checks expert params and the input.

    Biases are randomized: zero-initialized biases put ReLU kinks exactly
    at the evaluation point (dead rows give z == 0), where the gradient
    does not exist and central differences are meaningless.
    """
    rng = np.random.default_rng(seed)
    cfg = ExpertConfig(kind=kind, out_dim=3, **cfg_kw)
    e = make_expert(cfg, f, d, rng)
    for name, arr in e.param_items("e"):
        if ".b" in name and arr.ndim == 1:
            arr[...] = rng.uniform(-0.3, 0.3, size=arr.shape)
    x = rng.normal(size=(batch, f * d))
    r = rng.normal(size=(batch, 3))
    params = [arr for _, arr in e.param_items("e")]
    names = [name for name, _ in e.param_items("e")]
    arrays = params + [x]
    x0 = flatten_arrays(arrays)
    out, cache = e.forward(x)
    grads, d_x = e.backward(cache, r)
    analytic = flatten_arrays(
        [grads[n.removeprefix("e.")] for n in names] + [d_x]
    )

    def objective(vec):
        write_arrays(arrays, vec)
        o, _ = e.forward(x)
        return float((o * r).sum())

    try:
        return central_diff_gradcheck(objective, x0, analytic, h=1e-5, tol=1e-4)
    finally:
        write_arrays(arrays, x0)


class TestExpertBackward:
    @pytest.mark.parametrize(
        "kind,kw,seed",
        [
            ("dnn", dict(hidden=(4,)), 101),
            ("dnn", dict(hidden=(4, 3), dnn_out=2), 102),
            ("fm", dict(), 103),
            ("crossnet", dict(cross_layers=2), 104),
            ("crossnet", dict(cross_layers=0), 105),
            ("cin", dict(cin_maps=(3, 2)), 106),
        ],
    )
    def test_gradcheck(self, kind, kw, seed):
        rep = _expert_gradcheck(kind, seed, **kw)
        assert rep.passed, (kind, kw, rep)

    def test_crossnet_layer_injection_gradcheck(self):
        # objective includes terms on intermediate layer outputs
        rng = np.random.default_rng(42)
        cfg = ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2)
        e = make_expert(cfg, 3, 2, rng)
        x = rng.normal(size=(4, 6))
        r = rng.normal(size=(4, 3))
        injections = [rng.normal(size=(4, 6)) for _ in range(2)]
        params = [arr for _, arr in e.param_items("e")]
        names = [name for name, _ in e.param_items("e")]
        arrays = params + [x]
        x0 = flatten_arrays(arrays)
        _, cache = e.forward(x)
        grads, d_x = e.backward(cache, r, layer_grads=injections)
        analytic = flatten_arrays([grads[n.removeprefix("e.")] for n in names] + [d_x])

        def objective(vec):
            write_arrays(arrays, vec)
            o, ch = e.forward(x)
            value = float((o * r).sum())
            for inj, layer_x in zip(injections, e.layer_outputs(ch)):
                value += float((inj * layer_x).sum())
            return value

        try:
            rep = central_diff_gradcheck(objective, x0, analytic, h=1e-5, tol=1e-4)
        finally:
            write_arrays(arrays, x0)
        assert rep.passed, rep

    def test_non_crossnet_rejects_layer_grads(self):
        cfg = ExpertConfig(kind="fm", out_dim=2)
        e = make_expert(cfg, 2, 2, _rng())
        x = _rng(1).normal(size=(3, 4))
        _, cache = e.forward(x)
        with pytest.raises(ValueError, match="crossnet"):
            e.backward(cache, np.zeros((3, 2)), layer_grads=[np.zeros((3, 4))])

    def test_cache_shape_mismatch(self):
        cfg = ExpertConfig(kind="crossnet", out_dim=2, cross_layers=2)
        e = make_expert(cfg, 2, 2, _rng())
        x = _rng(1).normal(size=(3, 4))
        _, cache = e.forward(x)
        with pytest.raises(ValueError):
            e.backward(cache, np.zeros((3, 2)), layer_grads=[np.zeros((3, 4))])


class TestInputIsReadOnly:
    """Experts that share an embedding table read one shared input array,
    so no expert may write to it in forward or backward."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ExpertConfig(kind="dnn", out_dim=3, hidden=(4, 3), dnn_out=2),
            ExpertConfig(kind="fm", out_dim=3),
            ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2),
            ExpertConfig(kind="cin", out_dim=3, cin_maps=(3, 2)),
        ],
        ids=lambda c: c.kind,
    )
    def test_forward_and_backward_leave_input_unchanged(self, cfg):
        rng = _rng(21)
        e = make_expert(cfg, 3, 2, rng)
        x = rng.normal(size=(5, 6))
        before = x.copy()
        x.flags.writeable = False
        out, cache = e.forward(x)
        layer_grads = None
        if cfg.kind == "crossnet":
            layer_grads = [rng.normal(size=(5, 6)) for _ in range(cfg.cross_layers)]
        e.backward(cache, rng.normal(size=out.shape), layer_grads=layer_grads)
        assert x.tobytes() == before.tobytes()


class TestCoreOutput:
    @pytest.mark.parametrize(
        "cfg",
        [
            ExpertConfig(kind="dnn", out_dim=3, hidden=(4, 3), dnn_out=2),
            ExpertConfig(kind="fm", out_dim=3),
            ExpertConfig(kind="crossnet", out_dim=3, cross_layers=2),
            ExpertConfig(kind="cin", out_dim=3, cin_maps=(3, 2)),
        ],
        ids=lambda c: c.kind,
    )
    def test_alignment_of_core_output_is_the_expert_output(self, cfg):
        rng = _rng(22)
        e = make_expert(cfg, 3, 2, rng)
        out, cache = e.forward(rng.normal(size=(5, 6)))
        aligned, _ = e.align.forward(e.core_output(cache))
        assert aligned.tobytes() == out.tobytes()
