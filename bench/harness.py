"""Timed and traced runs of one workload, the correctness gate, and the
metrics they report. Imported by run.py after the BLAS thread count is set.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from moectr import data, trainer

import layers
from spans import ROOT, Tracer
from workloads import Prepared, Seeds, Workload, gradcheck_shrunk, guard_workload, ingest, prepare, same_samples

SETUP_REPEATS = 3
MIN_STEPS = 6  # a median even when a step takes seconds
MIN_EVALS = 5
MIN_INGESTS = 3
EVAL_SHARE = 0.2  # of training-step time, spent on interleaved eval passes
INGEST_SHARE = 0.15  # of training-step time, spent on interleaved re-ingests
# Host-speed probe: a fixed pure-Python loop, timed between program calls.
PROBE_LOOPS = 20_000
PROBE_BURST = 3
PROBE_EVERY_S = 0.25
# The probe's time on the 2-CPU host the bounds were set on, in its fast
# state; timings are reported as if every run had that host speed.
PROBE_REFERENCE_S = 1.5e-3

GUARDS = ("valid_auc", "valid_cec", "train_logloss")


@dataclass
class Ops:
    """Operations attempted and failed: steps, eval passes, ingests and
    the correctness checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


# ---- machine --------------------------------------------------------------


def _openblas():
    """(config string, runtime thread count) of numpy's OpenBLAS, if found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return "unknown", None


def _git_commit(root: str) -> str:
    """HEAD's commit, read from the loose ref or, after `git pack-refs`,
    from .git/packed-refs."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info(root: str, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config, runtime_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": config,
        "blas_threads_requested": blas_threads,
        "blas_threads_runtime": runtime_threads,
        "git_commit": _git_commit(root),
        "seed": seed,
    }


# ---- statistics -----------------------------------------------------------


class HostSpeed:
    """Readings of the host-speed probe. A shared host changes speed by a
    third and more from minute to minute, and the program's timings move
    with the probe's; scaling them by factor() reports every run at the
    reference host speed. Readings are taken between program calls, never
    during one, so the program cannot change them."""

    def __init__(self):
        self.readings: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < PROBE_EVERY_S:
            return
        for _ in range(PROBE_BURST):
            tic = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i
            self.readings.append(time.perf_counter() - tic)
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Multiply a measured duration by this to get it at reference speed.
        The mean, not the median: the host flips between two speeds, and the
        mean follows the mix of the two as smoothly as summed timings do."""
        return PROBE_REFERENCE_S / statistics.fmean(self.readings)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples above it,
    and that percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * k / (len(xs) - 1)


# ---- phases ---------------------------------------------------------------


def setup(
    wl: Workload, seed: int, workdir: str, repeats: int, ops: Ops, host: HostSpeed
) -> tuple[Prepared, list[float]]:
    """Prepare the workload `repeats` times; return the last preparation and
    each repeat's seconds. A repeat generates, writes and ingests the data,
    builds the model and takes one warm-up step, so the first measured step
    finds every buffer in place. The host is probed around every repeat."""
    times: list[float] = []
    prep = None
    for _ in range(repeats):
        prep = None
        gc.collect()
        host.sample(force=True)
        tic = time.perf_counter()
        prep = prepare(wl, Seeds.single(seed), workdir)
        first = data.make_batches(prep.train, wl.batch_size, shuffle_seed=seed)[0]
        trainer.train_step(
            prep.model, prep.train.indices[first.rows], prep.train.labels[first.rows], prep.adam, prep.params
        )
        times.append(time.perf_counter() - tic)
        ops.record(prep.ingest.faithful, "ingest returned other samples than were written")
    host.sample(force=True)
    return prep, times


def batches(train, batch_size: int, shuffle_seed: int):
    """Batches of the training split, epoch after epoch."""
    epoch = 0
    while True:
        for batch in data.make_batches(train, batch_size, shuffle_seed=shuffle_seed + epoch):
            yield train.indices[batch.rows], train.labels[batch.rows]
        epoch += 1


def _direct(call):
    return call()


def checked(ops: Ops, failure: str, call, valid) -> tuple[float, object]:
    """(seconds, result) of call(); it counts as failed when it raises or
    valid(result) is false."""
    tic = time.perf_counter()
    try:
        result = call()
        seconds = time.perf_counter() - tic
        ok = valid(result)
    except Exception:
        seconds = time.perf_counter() - tic
        traceback.print_exc()
        result, ok = None, False
    ops.record(ok, failure)
    return seconds, result


def checked_step(prep: Prepared, indices, labels, ops: Ops, around=_direct):
    """(seconds, StepLosses) of one training step, run through `around`,
    which may trace it."""
    return checked(
        ops,
        "training step raised or gave a non-finite loss",
        lambda: around(lambda: trainer.train_step(prep.model, indices, labels, prep.adam, prep.params)),
        lambda losses: math.isfinite(losses.total),
    )


def checked_eval(prep: Prepared, ops: Ops, around=_direct) -> float:
    """Seconds of one evaluation pass over the validation split (AUC,
    logloss and CEC)."""
    return checked(
        ops,
        "evaluation raised or gave an invalid AUC or logloss",
        lambda: around(lambda: trainer.evaluate(prep.model, prep.valid)),
        lambda r: 0.0 <= r[0].auc <= 1.0 and math.isfinite(r[0].logloss) and r[1] is not None,
    )[0]


def checked_ingest(prep: Prepared, wl: Workload, ops: Ops, around=_direct) -> float:
    """Seconds of re-reading the set-up's CSV; it must give the same samples."""
    first = prep.ingest
    return checked(
        ops,
        "re-ingest raised or returned other samples than the first ingest",
        lambda: around(lambda: ingest(wl, first.path, first.dataset.schema)),
        lambda again: same_samples(again, first.dataset),
    )[0]


@dataclass
class Window:
    steps: list[float] = field(default_factory=list)  # seconds per training step
    rows: int = 0
    evals: list[float] = field(default_factory=list)  # seconds per eval pass
    ingests: list[float] = field(default_factory=list)  # seconds per re-ingest


def measure(
    prep: Prepared, wl: Workload, seed: int, seconds: float, ops: Ops, host: HostSpeed, around=None
) -> Window:
    """A closed loop of training steps for `seconds`. Between steps, an eval
    pass runs whenever evaluation has had less than EVAL_SHARE of the step
    time so far, and a re-ingest whenever ingest has had less than
    INGEST_SHARE, so every rate samples the whole window rather than one
    stretch of it; the host is probed at most every PROBE_EVERY_S.
    `around(kind, index)` may wrap each operation."""
    around = around or (lambda kind, index: _direct)
    w = Window()
    stream = batches(prep.train, wl.batch_size, seed)
    start = time.perf_counter()
    while True:
        host.sample()
        over = time.perf_counter() - start >= seconds
        if over and len(w.steps) >= MIN_STEPS and len(w.evals) >= MIN_EVALS and len(w.ingests) >= MIN_INGESTS:
            return w
        if not over or len(w.steps) < MIN_STEPS:
            indices, labels = next(stream)
            w.steps.append(checked_step(prep, indices, labels, ops, around("step", len(w.steps)))[0])
            w.rows += len(labels)
        busy = sum(w.steps)
        if sum(w.evals) < EVAL_SHARE * busy or (over and len(w.evals) < MIN_EVALS):
            w.evals.append(checked_eval(prep, ops, around("eval", len(w.evals))))
        if sum(w.ingests) < INGEST_SHARE * busy or (over and len(w.ingests) < MIN_INGESTS):
            w.ingests.append(checked_ingest(prep, wl, ops, around("ingest", len(w.ingests))))


def guard(wl: Workload, workdir: str, ops: Ops) -> dict[str, float]:
    """Quality after the workload's guard run (fixed seeds, learnable data,
    fixed step count). train_logloss is the trainer's epoch figure: the
    row-weighted mean batch BCE over the last epoch of guard steps (over all
    of them if there are fewer)."""
    g = wl.guard
    gwl = guard_workload(wl)
    prep = prepare(gwl, g.seeds, workdir)
    per_epoch = math.ceil(len(prep.train) / gwl.batch_size)
    stream = batches(prep.train, gwl.batch_size, g.seeds.shuffle)
    last_epoch: list[tuple[int, float]] = []
    for step in range(g.steps):
        indices, labels = next(stream)
        if step % per_epoch == 0:
            last_epoch.clear()
        losses = checked_step(prep, indices, labels, ops)[1]
        last_epoch.append((len(labels), losses.bce if losses else math.nan))
    metrics, report = trainer.evaluate(prep.model, prep.valid)
    rows = sum(n for n, _ in last_epoch)
    train_logloss = sum(n * loss for n, loss in last_epoch) / rows
    return {"valid_auc": metrics.auc, "valid_cec": report.mean_pair, "train_logloss": train_logloss}


def correctness(wl: Workload, seed: int, workdir: str, bounds: dict[str, float], ops: Ops) -> dict:
    """The quality guard against the stored reference, and the gradient
    check of a shrunken copy of the model; both run outside every timer."""
    values = guard(wl, workdir, ops)
    for name in GUARDS:
        ref = wl.guard.reference[name]
        ok = abs(values[name] - ref) <= bounds[name] * abs(ref)
        ops.record(ok, f"{name}={values[name]!r} is not within {bounds[name]} of reference {ref!r}")
    report = gradcheck_shrunk(wl, seed)
    ops.record(report.passed, f"gradcheck failed: max relative error {report.max_relative_error:.3e}")
    return {"guard": values, "gradcheck_max_rel_err": report.max_relative_error}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- the two kinds of run -------------------------------------------------


def run_timed(wl: Workload, seed: int, seconds: float, workdir: str, bounds: dict, import_s: float):
    """End-to-end metrics; nothing is wrapped but the timers."""
    ops = Ops()
    setup_host, window_host = HostSpeed(), HostSpeed()
    prep, setup_times = setup(wl, seed, workdir, SETUP_REPEATS, ops, setup_host)
    w = measure(prep, wl, seed, seconds, ops, window_host)
    valid_rows, ingest_rows = len(prep.valid), len(prep.ingest.dataset)
    prep = None
    gc.collect()
    checks = correctness(wl, seed, workdir, bounds, ops)
    tail_s, tail_pct = tail(w.steps)
    guard_values = checks["guard"]
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "train_rows_per_s": w.rows / sum(w.steps),
        "step_ms_p50": 1000.0 * statistics.median(w.steps),
        "step_ms_tail": 1000.0 * tail_s,
        "eval_rows_per_s": valid_rows * len(w.evals) / sum(w.evals),
        "ingest_rows_per_s": ingest_rows * len(w.ingests) / sum(w.ingests),
    }
    fs, fw = setup_host.factor(), window_host.factor()
    metrics = {
        "setup_s": (raw["setup_s"] * fs, "s"),
        "train_rows_per_s": (raw["train_rows_per_s"] / fw, "rows/s"),
        "step_ms_p50": (raw["step_ms_p50"] * fw, "ms"),
        "step_ms_tail": (raw["step_ms_tail"] * fw, "ms"),
        "eval_rows_per_s": (raw["eval_rows_per_s"] / fw, "rows/s"),
        "ingest_rows_per_s": (raw["ingest_rows_per_s"] / fw, "rows/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "valid_auc": (guard_values["valid_auc"], "ratio"),
        "valid_cec": (guard_values["valid_cec"], "ratio"),
        "train_logloss": (guard_values["train_logloss"], "nats"),
    }
    details = {
        "raw_at_host_speed": raw,
        "host_factor_setup": fs,
        "host_factor_window": fw,
        "steps": len(w.steps),
        "step_ms_tail_percentile": tail_pct,
        "eval_passes": len(w.evals),
        "ingest_passes": len(w.ingests),
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "gradcheck_max_rel_err": checks["gradcheck_max_rel_err"],
    }
    samples = {
        "step_s": w.steps,
        "eval_s": w.evals,
        "ingest_s": w.ingests,
        "probe_setup_s": setup_host.readings,
        "probe_window_s": window_host.readings,
    }
    return metrics, details, ops, samples


def _ms(by_name: dict[str, float], count: int, *names: str) -> float:
    """Summed self milliseconds of the named spans, per root."""
    return 1000.0 * sum(by_name.get(n, 0.0) for n in names) / max(count, 1)


def run_traced(wl: Workload, seed: int, seconds: float, workdir: str, bounds: dict):
    """Per-layer self times and counts over the same window as a timed run.
    Every other step is traced, so traced and untraced steps see the same
    mix of batches and their ratio is the cost of tracing; every eval pass
    and re-ingest is traced."""
    ops = Ops()
    prep, _ = setup(wl, seed, workdir, 1, ops, HostSpeed())
    tracer = Tracer()
    probes = layers.LayerProbes()
    roots = {"step": "trainer.step", "eval": "eval", "ingest": "ingest"}

    def around(kind: str, index: int):
        if kind == "step" and index % 2 == 0:
            return _direct

        def traced(call):
            probes.phase = roots[kind]
            if kind == "ingest":
                layers.install_ingest(tracer, probes)
            else:
                layers.install_model(tracer, probes, prep.model)
            try:
                with tracer.span(roots[kind]):
                    return call()
            finally:
                tracer.uninstall()
                probes.settle()

        return traced

    w = measure(prep, wl, seed, seconds, ops, HostSpeed(), around)
    state_mib = sum(s.m.nbytes + s.v.nbytes for s in prep.adam.slots.values()) / 2**20
    prep = None
    gc.collect()
    checks = correctness(wl, seed, workdir, bounds, ops)

    n, wall, by = tracer.summary("trainer.step")
    step_roots = [s.end - s.start for s in tracer.spans if s.parent == ROOT and s.name == "trainer.step"]
    n_eval, _, by_eval = tracer.summary("eval")
    n_ingest, _, by_ingest = tracer.summary("ingest")
    kinds = sorted({e.kind for e in wl.experts})
    forward = [f"experts.{k}.forward" for k in kinds]
    backward = [f"experts.{k}.backward" for k in kinds]

    def per_step(name: str) -> float:
        return probes.counts[("trainer.step", name)] / max(n, 1)

    entries = per_step("embedding.entries")
    metrics = {
        "embedding.lookup_ms": (_ms(by, n, "embedding.lookup"), "ms"),
        "embedding.pack_ms": (_ms(by, n, "embedding.pack"), "ms"),
        "embedding.scatter_ms": (_ms(by, n, "embedding.scatter"), "ms"),
        "experts.forward_ms": (_ms(by, n, *forward), "ms"),
        "experts.backward_ms": (_ms(by, n, *backward), "ms"),
        "gating.forward_ms": (_ms(by, n, "gating.forward"), "ms"),
        "gating.backward_ms": (_ms(by, n, "gating.backward"), "ms"),
        "nnet.tower.forward_ms": (_ms(by, n, "nnet.tower.forward"), "ms"),
        "nnet.tower.backward_ms": (_ms(by, n, "nnet.tower.backward"), "ms"),
        "losses.bce_ms": (_ms(by, n, "losses.bce"), "ms"),
        "losses.decorrelation_ms": (_ms(by, n, "losses.decorrelation"), "ms"),
        "optim.dense_ms": (_ms(by, n, "optim.dense"), "ms"),
        "optim.rows_ms": (_ms(by, n, "optim.rows"), "ms"),
        "model.forward_self_ms": (_ms(by, n, "model.forward"), "ms"),
        "trainer.step_self_ms": (_ms(by, n, "trainer.step"), "ms"),
        "embedding.entries": (entries, "count"),
        "embedding.rows_touched": (per_step("embedding.rows_touched"), "count"),
        "embedding.dedup_ratio": (per_step("embedding.rows_touched") / entries, "ratio"),
        "optim.rows_updated": (per_step("optim.rows_updated"), "count"),
        "optim.state_mb": (state_mib, "MiB"),
        "experts.cache_mb": (sum(per_step(f"experts.{k}.cache_bytes") for k in kinds) / 2**20, "MiB"),
        "losses.decorrelation_pairs": (per_step("losses.decorrelation_pairs"), "count"),
        "eval.embedding.lookup_ms": (_ms(by_eval, n_eval, "embedding.lookup"), "ms"),
        "eval.experts.forward_ms": (_ms(by_eval, n_eval, *forward), "ms"),
        "eval.metrics.auc_ms": (_ms(by_eval, n_eval, "metrics.auc"), "ms"),
        "eval.metrics.cec_ms": (_ms(by_eval, n_eval, "metrics.cec"), "ms"),
        "data.ingest_ms": (_ms(by_ingest, n_ingest, "data.ingest"), "ms"),
        "data.rows_hashed": (probes.counts[("ingest", "data.rows_hashed")] / max(n_ingest, 1), "count"),
        "trace.overhead_share": (statistics.median(step_roots) / statistics.median(w.steps[0::2]) - 1.0, "ratio"),
        "trace.coverage_share": (1.0 - by.get("trainer.step", 0.0) / wall, "ratio"),
    }
    per_kind = {}
    for k in kinds:
        per_kind[f"experts.{k}.forward_ms"] = _ms(by, n, f"experts.{k}.forward")
        per_kind[f"experts.{k}.backward_ms"] = _ms(by, n, f"experts.{k}.backward")
        per_kind[f"experts.{k}.cache_mb"] = per_step(f"experts.{k}.cache_bytes") / 2**20
        per_kind[f"eval.experts.{k}.forward_ms"] = _ms(by_eval, n_eval, f"experts.{k}.forward")
    details = {
        "traced_steps": n,
        "untraced_steps": len(w.steps[0::2]),
        "traced_eval_passes": n_eval,
        "traced_ingests": n_ingest,
        "per_kind": per_kind,
        "self_ms_per_step": {k: 1000.0 * v / max(n, 1) for k, v in sorted(by.items())},
        "gradcheck_max_rel_err": checks["gradcheck_max_rel_err"],
        "guard": checks["guard"],
        "wrappers_removed": not tracer.installed,
    }
    return metrics, details, ops, {"spans": tracer.records()}
