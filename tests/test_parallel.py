"""The expert pool: pooled training steps and evaluation chunks are
byte-identical to serial ones, results come back in expert order, a
worker's error moves nothing and reaches the caller, the gate decides from
its readers alone, and evaluation holds at most one expert cache per pool
worker."""

import os
import signal
import threading
import time
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from moectr import model as model_module
from moectr import parallel
from moectr.data import DatasetSchema, FeatureField
from moectr.experts import ExpertConfig
from moectr.losses import LossConfig
from moectr.model import build_model, forward_chunks, forward_full, named_params, predict
from moectr.optim import Adam
from moectr.trainer import evaluate, train_step

from test_trainer import (
    _tiny_dataset,
    _trained_state_digest,
    adam_state,
    all_kinds_model,
    assert_same_adam_state,
    micro_batch,
    micro_model,
)


@pytest.fixture
def force_pool(monkeypatch):
    """A context manager under which every model of two or more experts
    runs on the pool: the size rule is off, two CPUs are reported (a
    one-CPU host runs the two threads by turns), and OpenBLAS is set to
    one thread through the handle the gate reads, then set back."""
    blas = parallel.openblas()
    if blas is None:
        pytest.skip("pinning one BLAS thread needs numpy's OpenBLAS")

    cpus = max(2, parallel.cpu_count())

    @contextmanager
    def pooled():
        before = blas.get_num_threads()
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "POOL_MIN_WORK", 0)
            patch.setattr(parallel, "cpu_count", lambda: cpus)
            blas.set_num_threads(1)
            try:
                yield
            finally:
                blas.set_num_threads(before)

    return pooled


def _crossnets(mode):
    loss = LossConfig(form="corr", alpha=0.5, location="intermediate")
    return micro_model(loss, mode=mode, seed=4, kinds=("crossnet",) * 3)


def _input_loss(mode):
    return all_kinds_model(mode, LossConfig(form="corr", alpha=0.5, location="input"))


def _arrays(obj):
    """Every array in a nested cache, depth first."""
    if isinstance(obj, np.ndarray):
        return [obj]
    return [a for item in obj for a in _arrays(item)]


class TestPooledIsSerial:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: all_kinds_model("me"),
            lambda: all_kinds_model("se"),
            lambda: _input_loss("me"),
            lambda: _input_loss("se"),
            lambda: _crossnets("me"),
            lambda: _crossnets("se"),
        ],
        ids=[
            "me-all-kinds-output", "se-all-kinds-output", "me-all-kinds-input",
            "se-all-kinds-input", "me-crossnets-intermediate", "se-crossnets-intermediate",
        ],
    )
    def test_trained_state_digest(self, force_pool, make):
        assert parallel.serial_reason(make(), 64) is not None
        serial = _trained_state_digest(make())
        with force_pool():
            model = make()
            assert parallel.serial_reason(model, 64) is None
            pooled = _trained_state_digest(model)
        assert pooled == serial

    def test_slow_first_expert_keeps_expert_order(self, force_pool, monkeypatch):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=3)
        serial = forward_full(model, idx)
        first = model.experts[0]
        real = first.forward
        ran_on = []

        def slow(embeds):
            time.sleep(0.05)  # the other experts finish first
            ran_on.append(threading.current_thread().name)
            return real(embeds)

        monkeypatch.setattr(first, "forward", slow)
        with force_pool():
            pooled = forward_full(model, idx)
        assert ran_on[0].startswith("moectr-expert")
        assert len(pooled.outputs) == len(pooled.expert_caches) == model.num_experts
        for a, b in zip(serial.outputs, pooled.outputs, strict=True):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(serial.expert_caches, pooled.expert_caches, strict=True):
            for x, y in zip(_arrays(a), _arrays(b), strict=True):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(serial.y_hat, pooled.y_hat)

    def test_worker_error_moves_nothing_and_the_pool_recovers(self, force_pool, monkeypatch):
        model = all_kinds_model("se")
        adam = Adam(lr=0.01)
        idx, y = micro_batch(8, seed=19)
        with force_pool():
            train_step(model, idx, y, adam)  # every parameter now has moments
            params_before = {name: arr.copy() for name, arr in named_params(model)}
            state_before = adam_state(adam)
            raised_on = []

            def broken(cache, d_out):
                raised_on.append(threading.current_thread().name)
                raise ValueError("broken expert backward")

            with monkeypatch.context() as patch:
                patch.setattr(model.experts[1], "backward", broken)
                with pytest.raises(ValueError, match="^broken expert backward$"):
                    train_step(model, idx, y, adam)
            assert raised_on[0].startswith("moectr-expert")
            assert adam.t == 1
            for name, arr in named_params(model):
                np.testing.assert_array_equal(arr, params_before[name])
            assert_same_adam_state(adam, state_before)
            train_step(model, idx, y, adam)
        assert adam.t == 2


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_pool(self, force_pool):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=7)
        with force_pool():
            expected = forward_full(model, idx).y_hat  # the pool's threads now run here
            pid = os.fork()
            if pid == 0:  # the child: none of those threads came along
                code = 1
                try:
                    code = 0 if np.array_equal(forward_full(model, idx).y_hat, expected) else 2
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 30.0
            while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            if status[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's pooled forward did not finish")
        assert os.waitstatus_to_exitcode(status[1]) == 0


def _shaped(experts, fields, embed_dim, mode="me"):
    """A model with a benchmark workload's expert shapes and tiny tables."""
    schema = DatasetSchema(tuple(FeatureField(f"f{j}", 3) for j in range(fields)))
    loss = LossConfig(form="corr", alpha=1.0, location="output")
    return build_model(schema, mode, list(experts), loss, embed_dim=embed_dim, gate_hidden=(4,), tower_hidden=(4,), seed=0)


REF_DNN = _shaped([ExpertConfig(kind="dnn", out_dim=16, hidden=(500, 500, 500))] * 2, 6, 16)


class TestGate:
    @pytest.fixture
    def readers(self, monkeypatch):
        """Readers that allow the pool; a test overrides one of them."""
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        return monkeypatch

    def test_pool_when_every_rule_holds(self, readers):
        assert parallel.serial_reason(REF_DNN, 2000) is None
        assert parallel.describe(REF_DNN, 2000) == "experts: pool of 2 threads"

    @pytest.mark.parametrize(
        "reader,value,reason",
        [
            ("blas_threads", 2, "OpenBLAS threads = 2; set OPENBLAS_NUM_THREADS=1"),
            ("blas_threads", None, "OpenBLAS thread count unreadable"),
            ("cpu_count", 1, "1 CPU"),
        ],
        ids=["blas-2", "blas-unreadable", "one-cpu"],
    )
    def test_serial_when_a_reader_says_so(self, readers, reader, value, reason):
        readers.setattr(parallel, reader, lambda: value)
        assert parallel.serial_reason(REF_DNN, 2000) == reason
        assert parallel.describe(REF_DNN, 2000) == f"experts: serial ({reason})"

    def test_serial_with_one_expert(self, readers):
        readers.setattr(parallel, "POOL_MIN_WORK", 0)
        assert parallel.serial_reason(micro_model(kinds=("dnn",)), 2000) == "one expert"

    @pytest.mark.parametrize(
        "model,rows,work",
        [
            (REF_DNN, 2000, 557_516 * 2000),
            (
                _shaped(
                    [
                        ExpertConfig(kind="fm", out_dim=8),
                        ExpertConfig(kind="crossnet", out_dim=8, cross_layers=2),
                        ExpertConfig(kind="dnn", out_dim=8, hidden=(64,)),
                        ExpertConfig(kind="fm", out_dim=8),
                    ],
                    26, 8, mode="se",
                ),
                4096,
                13_896 * 4096,
            ),
            (_shaped([ExpertConfig(kind="cin", out_dim=8, cin_maps=(8,))] * 2, 6, 8), 1024, 360 * 1024),
        ],
        ids=["ref_dnn", "wide_sparse", "desk_cin"],
    )
    def test_size_rule_on_the_benchmark_shapes(self, readers, model, rows, work):
        assert parallel.expert_work(model, rows) == work
        reason = parallel.serial_reason(model, rows)
        if work >= parallel.POOL_MIN_WORK:
            assert reason is None
        else:
            assert reason.startswith("experts too small: ")

    def test_executor_has_at_most_two_workers(self, readers):
        readers.setattr(parallel, "cpu_count", lambda: 64)
        threads = threading.active_count()
        assert parallel.serial_reason(REF_DNN, 2000) is None
        assert parallel.executor()._max_workers == parallel.POOL_WORKERS == 2
        assert threading.active_count() == threads


def _watch_caches(model, monkeypatch, hold_s=0.0):
    """Wrap every expert's forward to record, after it returns, how many of
    the expert caches made so far are still alive and which thread ran it;
    each forward keeps its cache for hold_s more seconds before returning."""
    held, alive, threads = [], [], []

    def watched(expert):
        real = expert.forward

        def forward(embeds):
            out, cache = real(embeds)
            held.append(weakref.ref(expert.core_output(cache)))  # an array only the cache holds
            alive.append(sum(ref() is not None for ref in held))
            threads.append(threading.current_thread().name)
            time.sleep(hold_s)  # another worker's forward returns meanwhile
            return out, cache

        return forward

    for expert in model.experts:
        monkeypatch.setattr(expert, "forward", watched(expert))
    return alive, threads


class TestCacheFreeEvaluation:
    def test_chunks_carry_outputs_and_predictions_only(self):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=5)
        full = forward_full(model, idx)
        ((start, y_hat, outputs),) = forward_chunks(model, idx)
        assert start == 0
        for a, b in zip(full.outputs, outputs, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(full.y_hat, y_hat)

    def test_each_expert_cache_dies_before_the_next_forward(self, monkeypatch):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=6)
        alive, _ = _watch_caches(model, monkeypatch)
        list(forward_chunks(model, idx))
        assert alive == [1] * model.num_experts


class TestPooledEvaluation:
    """Evaluation chunks on the pool give the serial bytes, and each worker
    drops its expert's cache as the forward returns."""

    @pytest.mark.parametrize("mode", ["me", "se"])
    def test_chunks_predict_and_evaluate_match_serial(self, force_pool, monkeypatch, mode):
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 16)
        ds = _tiny_dataset(40, seed=41)  # chunks of 16, 16 and 8 rows
        model = all_kinds_model(mode)
        serial_chunks = list(forward_chunks(model, ds.indices))
        serial_scores = predict(model, ds.indices)
        serial_metrics, serial_corr = evaluate(model, ds)
        with force_pool():
            assert parallel.serial_reason(model, 8) is None
            _, threads = _watch_caches(model, monkeypatch)
            pooled_chunks = list(forward_chunks(model, ds.indices))
            pooled_scores = predict(model, ds.indices)
            pooled_metrics, pooled_corr = evaluate(model, ds)
        assert len(threads) == 3 * 3 * model.num_experts
        assert all(name.startswith("moectr-expert") for name in threads)
        assert [start for start, _, _ in pooled_chunks] == [0, 16, 32]
        for (s0, y0, out0), (s1, y1, out1) in zip(serial_chunks, pooled_chunks, strict=True):
            assert s0 == s1
            assert y0.tobytes() == y1.tobytes()
            assert [o.tobytes() for o in out0] == [o.tobytes() for o in out1]
        assert serial_scores.tobytes() == pooled_scores.tobytes()
        assert serial_metrics == pooled_metrics
        assert serial_corr.pairs == pooled_corr.pairs
        assert serial_corr.total == pooled_corr.total

    def test_worker_error_reaches_evaluate(self, force_pool, monkeypatch):
        model = all_kinds_model("me")
        ds = _tiny_dataset(20, seed=42)
        raised_on = []

        def broken(embeds):
            raised_on.append(threading.current_thread().name)
            raise ValueError("broken expert forward")

        with force_pool():
            with monkeypatch.context() as patch:
                patch.setattr(model.experts[2], "forward", broken)
                with pytest.raises(ValueError, match="^broken expert forward$"):
                    evaluate(model, ds)
            metrics, _ = evaluate(model, ds)  # the pool still runs
        assert raised_on[0].startswith("moectr-expert")
        assert metrics.num_samples == 20

    def test_at_most_one_cache_per_worker(self, force_pool, monkeypatch):
        monkeypatch.setattr(model_module, "EVAL_BATCH_ROWS", 8)
        model = all_kinds_model("se")
        idx, _ = micro_batch(16, seed=43)
        with force_pool():
            alive, threads = _watch_caches(model, monkeypatch, hold_s=0.02)
            list(forward_chunks(model, idx))
        assert len(alive) == 2 * model.num_experts
        assert all(name.startswith("moectr-expert") for name in threads)
        assert 1 <= max(alive) <= parallel.POOL_WORKERS
