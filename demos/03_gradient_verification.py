"""Finite-difference verification of every hand-written backward pass.

Builds micro models (two or three experts, shared or per-expert tables,
three hashed fields, batch of six) for every expert kind, pair-loss form,
and loss location, then compares the
analytic gradient of the total objective against central differences for
every parameter: embedding tables, gating table, expert cores, alignment
heads, gate MLP, and tower.

Run:  PYTHONPATH=src python3 demos/03_gradient_verification.py
"""

import time

from moectr.gradsuite import run_suite

tic = time.perf_counter()
print(f"{'case':38s} {'max rel err':>12s}  verdict")
print("-" * 62)
failed = 0
for name, report in run_suite(h=1e-5, tol=1e-4):
    verdict = "ok" if report.passed else "FAIL"
    print(f"{name:38s} {report.max_relative_error:12.3e}  {verdict}")
    failed += not report.passed
print("-" * 62)
print(f"{time.perf_counter() - tic:.1f}s; {failed} failing case(s)")
raise SystemExit(1 if failed else 0)
