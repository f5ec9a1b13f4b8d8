"""Where the traced run wraps moectr, and what it counts there.

Each entry patches a public function or method at the place its caller
looks it up (the trainer's and the model module's globals, the expert and
optimizer classes, the model's tower instance) and names the layer its
time is charged to. Counters are collected by probes that run after the
wrapped call returns, outside its span.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from moectr import data, embedding, model, optim, trainer
from moectr.model import ModelBundle
from spans import Tracer


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_bytes(obj, exclude: np.ndarray | None = None) -> int:
    """Bytes of the distinct arrays reachable through lists and tuples,
    skipping the memory of ``exclude`` (the expert's own input)."""
    seen = {id(_base(exclude))} if exclude is not None else set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            base = _base(item)
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


class LayerProbes:
    """Counters keyed by (phase, name); the caller sets the phase to the
    root span the next calls run under."""

    def __init__(self):
        self.phase = ""
        self.counts: Counter = Counter()
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def expert_forward(self, kind: str):
        def probe(args, result):
            _, cache = result
            self.add(f"experts.{kind}.cache_bytes", held_bytes(cache, exclude=args[1]))

        return probe

    def scatter(self, args, result) -> None:
        grads = args[1]
        self.add("embedding.entries", grads.rows.size)
        self._pending.append((grads.fields, grads.rows))

    def rows(self, args, result) -> None:
        self.add("optim.rows_updated", len(args[3]))

    def decorrelation(self, args, result) -> None:
        m = len(args[0])
        self.add("losses.decorrelation_pairs", m * (m - 1) // 2)

    def ingest_hashed(self, args, result) -> None:
        self.add("data.rows_hashed", len(result))

    def settle(self) -> None:
        """Count the distinct rows handed to each scatter; call after the
        step's span has closed."""
        for fields, rows in self._pending:
            key = fields * (int(rows.max(initial=0)) + 1) + rows
            self.add("embedding.rows_touched", np.unique(key).size)
        self._pending.clear()


def install_ingest(tracer: Tracer, probes: LayerProbes) -> None:
    tracer.patch(data, "load_table", "data.ingest", probes.ingest_hashed)
    tracer.patch(data, "load_synthetic_csv", "data.ingest")


def install_model(tracer: Tracer, probes: LayerProbes, bundle: ModelBundle) -> None:
    """Wrap every layer a training step or an evaluation pass calls."""
    tracer.patch(trainer, "forward_full", "model.forward")
    tracer.patch(model, "lookup", "embedding.lookup")
    tracer.patch(model, "lookup_gating", "embedding.lookup")
    for cls in sorted({type(e) for e in bundle.experts}, key=lambda c: c.kind):
        tracer.patch(cls, "forward", f"experts.{cls.kind}.forward", probes.expert_forward(cls.kind))
        tracer.patch(cls, "backward", f"experts.{cls.kind}.backward")
    tracer.patch(model, "gate_weights", "gating.forward")
    tracer.patch(model, "aggregate_experts", "gating.forward")
    tracer.patch(trainer, "gating_backward", "gating.backward")
    tracer.patch(bundle.tower, "forward", "nnet.tower.forward")
    tracer.patch(bundle.tower, "backward", "nnet.tower.backward")
    tracer.patch(trainer, "bce", "losses.bce")
    tracer.patch(trainer, "decorrelation_total", "losses.decorrelation", probes.decorrelation)
    tracer.patch(embedding.SparseGrad, "from_dense_rows", "embedding.pack")
    tracer.patch(embedding.SparseGrad, "concat", "embedding.pack")
    tracer.patch(trainer, "apply_sparse_to_table", "embedding.scatter", probes.scatter)
    tracer.patch(optim.Adam, "update", "optim.dense")
    tracer.patch(optim.Adam, "update_rows", "optim.rows", probes.rows)
    tracer.patch(trainer, "auc", "metrics.auc")
    tracer.patch(trainer, "cec_report", "metrics.cec")
