"""The correctness gate and the tail statistic."""

import math

import harness


def test_failed_operations_are_counted():
    ops = harness.Ops()
    harness.checked(ops, "raises", lambda: 1 / 0, lambda r: True)
    harness.checked(ops, "not finite", lambda: math.nan, math.isfinite)
    seconds, result = harness.checked(ops, "fine", lambda: 2.0, math.isfinite)
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.notes == ["raises", "not finite"]
    assert result == 2.0 and seconds >= 0.0


def test_tail_keeps_ten_samples_above_it():
    values = [float(v) for v in range(100)]
    value, pct = harness.tail(values)
    assert value == 89.0 and sum(v > value for v in values) == 10
    assert math.isclose(pct, 100.0 * 89 / 99)
    assert harness.tail(values[:11]) == (0.0, 0.0)
    # too few samples for ten above any of them: the slowest one
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    sha = "9746454b12469081deac43aef1803b6228bd4ba7"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert harness._git_commit(str(tmp_path)) == sha
    (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    assert harness._git_commit(str(tmp_path)) == "a" * 40
    assert harness._git_commit(str(tmp_path / "elsewhere")).startswith("unknown")
