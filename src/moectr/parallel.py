"""Expert parallelism: the experts of a training step run their forward and
backward passes, and those of an evaluation chunk their forwards, on one
two-thread pool when that pays, serially otherwise.

Given the embeddings, each expert's forward and backward read and write
only its own arrays, and BLAS releases the GIL, so two experts' GEMMs run
at once (expert parallelism inside one process, as in GShard). Results are
collected in expert order, so every later sum runs in the serial order and
the bytes are the same either way. ``serial_reason`` is the one place that
decides; the pool is used only when all of these hold:

- the model has two or more experts;
- this process may run on two or more CPUs;
- numpy's OpenBLAS reports exactly one thread. A multithreaded BLAS under
  the pool is slower than no pool, and it rounds GEMMs differently. An
  unreadable count, or another BLAS, means serial. The setting is read,
  never changed;
- the second-largest expert's dense parameter count times the rows of the
  batch or evaluation chunk is at least POOL_MIN_WORK. Below it the pool
  gains a few percent at most and raises peak memory by more than that.

The rules are checked in that order, cheapest first: the gate runs on
every training forward and backward and on every evaluation chunk.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

POOL_WORKERS = 2
POOL_MIN_WORK = 1e8  # second-largest expert's dense params x batch rows

T = TypeVar("T")


@dataclass(frozen=True)
class OpenBlas:
    """ctypes entry points of the OpenBLAS that numpy loaded."""

    get_corename: Callable[[], bytes]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]  # for tests that pin one thread; moectr never calls it

    def core(self) -> str:
        """The kernel family OpenBLAS picked for this CPU, e.g. SkylakeX."""
        return self.get_corename().decode()


@functools.cache
def openblas() -> OpenBlas | None:
    """numpy's bundled OpenBLAS, or None for another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    corename, get_threads, set_threads = (
                        getattr(lib, f"{prefix}{name}{suffix}")
                        for name in ("get_corename", "get_num_threads", "set_num_threads")
                    )
                except AttributeError:
                    continue
                corename.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                return OpenBlas(corename, get_threads, set_threads)
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, None when it cannot be read."""
    blas = openblas()
    return blas.get_num_threads() if blas is not None else None


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def expert_work(model, rows: int) -> int:
    """The second-largest expert's dense parameter count times `rows`: the
    work the shorter of the two busiest pool threads gets."""
    sizes = sorted((sum(a.size for a in e.params.values()) for e in model.experts), reverse=True)
    return sizes[1] * rows if len(sizes) > 1 else 0


def serial_reason(model, rows: int) -> str | None:
    """Why the experts of a `rows`-row batch or evaluation chunk run
    serially, or None when they run on the pool."""
    if model.num_experts < 2:
        return "one expert"
    cpus = cpu_count()
    if cpus < 2:
        return f"{cpus} CPU"
    threads = blas_threads()
    if threads is None:
        return "OpenBLAS thread count unreadable"
    if threads != 1:
        return f"OpenBLAS threads = {threads}; set OPENBLAS_NUM_THREADS=1"
    work = expert_work(model, rows)
    if work < POOL_MIN_WORK:
        return (
            f"experts too small: second-largest expert's params x batch rows = "
            f"{work:.2g} < {POOL_MIN_WORK:.0e}"
        )
    return None


def describe(model, rows: int) -> str:
    """One line about where the experts of a `rows`-row batch or evaluation
    chunk run, and why serially if they do."""
    reason = serial_reason(model, rows)
    return f"experts: serial ({reason})" if reason else f"experts: pool of {POOL_WORKERS} threads"


@functools.cache
def executor() -> ThreadPoolExecutor:
    """The process's one expert pool; its threads start on first use."""
    return ThreadPoolExecutor(max_workers=POOL_WORKERS, thread_name_prefix="moectr-expert")


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=executor.cache_clear)


def map_experts(model, rows: int, fn: Callable[[int], T]) -> Iterable[T]:
    """fn(m) for every expert m of a `rows`-row batch or evaluation chunk,
    in expert order. Serially they run lazily, one as each result is taken.
    On the pool they run at once, and every call has finished before the
    results come back, or the error of the first call in expert order that
    raised."""
    if serial_reason(model, rows) is not None:
        return map(fn, range(model.num_experts))
    futures = [executor().submit(fn, m) for m in range(model.num_experts)]
    wait(futures)
    return [f.result() for f in futures]
