"""The expert pool: pooled steps are byte-identical to serial ones, results
come back in expert order, a worker's error moves nothing, the gate decides
from its readers alone, and evaluation holds no expert caches."""

import os
import signal
import threading
import time
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from moectr import parallel
from moectr.data import DatasetSchema, FeatureField
from moectr.experts import ExpertConfig
from moectr.losses import LossConfig
from moectr.model import build_model, forward_chunks, forward_full, named_params
from moectr.optim import Adam
from moectr.trainer import train_step

from test_trainer import _trained_state_digest, all_kinds_model, micro_batch, micro_model


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
            moments_before = {key: (s.m.copy(), s.v.copy()) for key, s in adam.slots.items()}
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
            assert adam.slots.keys() == moments_before.keys()
            for key, state in adam.slots.items():
                np.testing.assert_array_equal(state.m, moments_before[key][0])
                np.testing.assert_array_equal(state.v, moments_before[key][1])
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
    return build_model(schema, mode, list(experts), loss, embed_dim=embed_dim, gate_hidden=(4,), tower_hidden=(4,))


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


class TestCacheFreeEvaluation:
    def test_chunks_carry_outputs_and_predictions_only(self):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=5)
        full = forward_full(model, idx)
        ((start, fc),) = forward_chunks(model, idx)
        assert start == 0
        assert fc.embeds == fc.expert_caches == fc.gate_cache == fc.tower_cache == []
        for a, b in zip(full.outputs, fc.outputs, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(full.gate_weights, fc.gate_weights)
        np.testing.assert_array_equal(full.y_hat, fc.y_hat)

    def test_each_expert_cache_dies_before_the_next_forward(self, monkeypatch):
        model = all_kinds_model("me")
        idx, _ = micro_batch(8, seed=6)
        held = []
        alive_at_next = []

        def watched(expert):
            real = expert.forward

            def forward(embeds):
                alive_at_next.extend(ref() is not None for ref in held)
                out, cache = real(embeds)
                held.append(weakref.ref(cache[-1][0][1]))  # the alignment head's pre-activation
                return out, cache

            return forward

        for expert in model.experts:
            monkeypatch.setattr(expert, "forward", watched(expert))
        list(forward_chunks(model, idx))
        assert len(held) == model.num_experts
        assert alive_at_next == [False] * (model.num_experts * (model.num_experts - 1) // 2)
