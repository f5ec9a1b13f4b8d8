"""Seed plumbing: the same seed gives bit-identical quality guards."""

import dataclasses

import pytest

import harness
from workloads import WORKLOADS


def _small(name: str):
    wl = WORKLOADS[name]
    guard = dataclasses.replace(wl.guard, rows=1200, cardinality=50, batch_size=128, steps=3)
    return dataclasses.replace(wl, guard=guard)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guard_is_bit_identical_across_runs(name, tmp_path):
    wl = _small(name)
    ops = harness.Ops()
    first = harness.guard(wl, str(tmp_path), ops)
    second = harness.guard(wl, str(tmp_path), ops)
    assert first == second
    assert ops.failed == 0 and ops.attempted == 2 * wl.guard.steps


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shrunken_model_passes_gradcheck(name):
    report = harness.gradcheck_shrunk(WORKLOADS[name], seed=0)
    assert report.passed, report.max_relative_error
