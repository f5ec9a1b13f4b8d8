"""The span tracer: self-time arithmetic and clean removal of its wrappers."""

import math
import time

import numpy as np

import layers
from moectr import embedding, model, optim, trainer
from moectr.data import DatasetSchema, FeatureField
from moectr.experts import CinExpert, DnnExpert, ExpertConfig
from moectr.losses import LossConfig
from moectr.model import build_model, named_params
from spans import ROOT, Tracer


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Fake:
    def leaf(self):
        _busy(0.002)

    def middle(self):
        _busy(0.001)
        self.leaf()
        self.leaf()

    @classmethod
    def make(cls):
        _busy(0.001)
        return cls()


def test_nested_self_times_add_up_to_root_wall():
    tracer = Tracer()
    fake = Fake()
    tracer.patch(Fake, "leaf", "leaf")
    tracer.patch(Fake, "middle", "middle")
    tracer.patch(Fake, "make", "make")
    try:
        for _ in range(3):
            with tracer.span("step"):
                Fake.make()
                fake.middle()
                _busy(0.001)  # not wrapped: the gap
    finally:
        tracer.uninstall()

    roots, wall, by_name = tracer.summary("step")
    assert roots == 3
    assert set(by_name) == {"step", "make", "middle", "leaf"}
    assert math.isclose(sum(by_name.values()), wall, rel_tol=1e-12, abs_tol=1e-12)
    # the gap is the root's own time, about 1 ms of every 7 ms step
    gap_share = by_name["step"] / wall
    assert 0.0 < gap_share < 0.5
    assert by_name["leaf"] > by_name["middle"] > 0.0
    assert all(s.parent == ROOT or s.start >= tracer.spans[s.parent].start for s in tracer.spans)
    assert all(s.end >= s.start for s in tracer.spans)


def test_uninstall_restores_every_kind_of_attribute():
    tracer = Tracer()
    fake = Fake()
    originals = {name: vars(Fake)[name] for name in ("leaf", "make")}
    tracer.patch(Fake, "leaf", "leaf")
    tracer.patch(Fake, "make", "make")
    tracer.patch(fake, "middle", "middle")  # instance attribute shadowing the class
    assert tracer.installed
    fake.middle()
    tracer.uninstall()
    assert not tracer.installed
    assert vars(Fake)["leaf"] is originals["leaf"]
    assert vars(Fake)["make"] is originals["make"]
    assert "middle" not in vars(fake)
    count = len(tracer.spans)
    fake.middle()
    Fake.make()
    assert len(tracer.spans) == count


def _tiny_model(mode="me"):
    schema = DatasetSchema(tuple(FeatureField(f"f{j}", 7) for j in range(3)))
    configs = [
        ExpertConfig(kind="cin", out_dim=3, cin_maps=(2,)),
        ExpertConfig(kind="dnn", out_dim=3, hidden=(4,)),
    ]
    bundle = build_model(
        schema,
        mode,
        configs,
        LossConfig(form="corr", alpha=0.5, location="output"),
        embed_dim=2,
        gate_hidden=(4,),
        tower_hidden=(4,),
        seed=3,
    )
    rng = np.random.default_rng(5)
    indices = rng.integers(0, 7, size=(16, 3))
    labels = (rng.random(16) < 0.5).astype(float)
    labels[:2] = (0.0, 1.0)
    return bundle, indices, labels


def _patched_state(bundle):
    return (
        trainer.forward_full,
        trainer.apply_sparse_to_table,
        trainer.bce,
        trainer.decorrelation_total,
        trainer.gating_backward,
        trainer.auc,
        trainer.cec_report,
        model.lookup,
        model.lookup_gating,
        model.gate_weights,
        model.aggregate_experts,
        vars(optim.Adam)["update"],
        vars(optim.Adam)["update_rows"],
        vars(embedding.SparseGrad)["from_dense_rows"],
        vars(embedding.SparseGrad)["concat"],
        vars(CinExpert)["forward"],
        vars(CinExpert)["backward"],
        vars(DnnExpert)["forward"],
        vars(DnnExpert)["backward"],
        dict(vars(bundle.tower)),
    )


def test_traced_step_covers_the_step_and_leaves_originals_behind():
    bundle, indices, labels = _tiny_model(mode="se")
    adam = optim.Adam(lr=0.01)
    params = dict(named_params(bundle))
    before = _patched_state(bundle)
    tracer = Tracer()
    probes = layers.LayerProbes()
    probes.phase = "trainer.step"
    layers.install_model(tracer, probes, bundle)
    try:
        with tracer.span("trainer.step"):
            trainer.train_step(bundle, indices, labels, adam, params)
    finally:
        tracer.uninstall()
    probes.settle()

    after = _patched_state(bundle)
    assert all(a is b for a, b in zip(before[:-1], after[:-1]))
    assert before[-1] == after[-1]

    roots, wall, by_name = tracer.summary("trainer.step")
    assert roots == 1
    assert math.isclose(sum(by_name.values()), wall, rel_tol=1e-12, abs_tol=1e-12)
    assert {
        "model.forward",
        "embedding.lookup",
        "embedding.pack",
        "embedding.scatter",
        "experts.cin.forward",
        "experts.cin.backward",
        "experts.dnn.forward",
        "experts.dnn.backward",
        "gating.forward",
        "gating.backward",
        "nnet.tower.forward",
        "nnet.tower.backward",
        "losses.bce",
        "losses.decorrelation",
        "optim.dense",
        "optim.rows",
    } <= set(by_name)
    # optim.rows runs inside the scatter, so the scatter's self time excludes it
    rows_span = next(s for s in tracer.spans if s.name == "optim.rows")
    assert tracer.spans[rows_span.parent].name == "embedding.scatter"

    counts = probes.counts
    # se mode: both experts' entries land in one table, plus the gating table
    assert counts[("trainer.step", "embedding.entries")] == 3 * indices.size
    touched = counts[("trainer.step", "embedding.rows_touched")]
    assert touched == counts[("trainer.step", "optim.rows_updated")]
    assert 0 < touched <= 2 * indices.size
    assert counts[("trainer.step", "losses.decorrelation_pairs")] == 1
    assert counts[("trainer.step", "experts.cin.cache_bytes")] > 0
