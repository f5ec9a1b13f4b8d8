"""moectr benchmark: one seeded training workload per invocation.

    python3 bench/run.py --workload desk_cin --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run imports moectr from the
checkout's src/, prints every metric by name with its unit, writes the full
result (machine, metrics, details, every timing sample and, when traced,
every span) to .bench_work/results/, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. The exit code is 0 only when every operation and correctness check
passed. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
# One BLAS thread: every workload is one closed loop in one process, and
# on a shared 2-core box a second BLAS thread waits for a core as often as
# it helps, which measures the scheduler rather than the program.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("desk_cin", "ref_dnn", "wide_sparse")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "moectr", "__init__.py")):
        print(f"no moectr sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [SRC, BENCH_DIR]

    import harness
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    machine = harness.machine_info(ROOT, args.seed, threads)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    wl = WORKLOADS[args.workload]
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    if args.trace:
        metrics, details, ops, records = harness.run_traced(wl, args.seed, args.seconds, WORKDIR, bounds)
    else:
        metrics, details, ops, records = harness.run_timed(wl, args.seed, args.seconds, WORKDIR, bounds, import_s)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(machine)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    share = ops.failed / max(ops.attempted, 1)
    print(f"ops_failed_share = {share!r} ratio ({ops.failed} of {ops.attempted})")
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    for note in ops.notes:
        print(f"FAILED: {note}")

    result_path = os.path.join(WORKDIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": machine,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "ops": {"attempted": ops.attempted, "failed": ops.failed, "notes": ops.notes},
                "details": details,
                **records,
            },
            fh,
        )
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"benchmark does not measure {missing}", file=sys.stderr)
        return 2
    correct = ops.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
