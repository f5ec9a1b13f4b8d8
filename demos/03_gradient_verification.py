"""Finite-difference verification of every hand-written backward pass.

Builds one micro model (three hashed fields, batch of six) for every cell
of embedding mode (shared or per-expert tables) x pair-loss form x loss
location, plus BCE alone in each mode: 20 cases. Each holds one expert of
every kind (four experts; the DNN has a linear final layer), or three
crossnets at the intermediate location.
It then compares the analytic gradient of the total objective against
central differences for every parameter: embedding tables, gating table,
expert cores, alignment heads, gate MLP, and tower.

Run:  PYTHONPATH=src python3 demos/03_gradient_verification.py
"""

import time

from moectr.gradsuite import run_suite

tic = time.perf_counter()
print(f"{'case':38s} {'max rel err':>12s}  verdict")
print("-" * 62)
failed = 0
for name, report in run_suite():
    verdict = "ok" if report.passed else "FAIL worst={}[{}]".format(*report.worst)
    print(f"{name:38s} {report.max_relative_error:12.3e}  {verdict}")
    failed += not report.passed
print("-" * 62)
print(f"{time.perf_counter() - tic:.1f}s; {failed} failing case(s)")
raise SystemExit(1 if failed else 0)
