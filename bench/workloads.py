"""The three benchmark workloads: how each makes its data, builds its model
and checks itself. README.md says why each one was chosen.

Every input comes from a seed. The measured window uses the --seed of the
invocation; the quality guard always uses the workload's fixed guard seeds,
data and step count, so its values depend on the program alone and can be
compared with the reference stored here.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from moectr import data
from moectr.data import DatasetSchema, EncodedDataset, FeatureField
from moectr.experts import ExpertConfig
from moectr.gradsuite import MICRO_BATCH, MICRO_CARD, MICRO_EMBED, MICRO_OUT, kink_margin, micro_schema
from moectr.losses import LossConfig
from moectr.model import ModelBundle, build_model, forward_full, named_params
from moectr.numerics import GradCheckReport
from moectr.optim import Adam
from moectr.trainer import gradcheck_model

GRADCHECK_H = 1e-5
GRADCHECK_TOL = 1e-4
GRADCHECK_MARGIN = 1e-3  # smallest forward-pass ReLU margin a checked micro model may have
GRADCHECK_TRIES = 200  # micro models drawn before giving up on finding such a margin


@dataclass(frozen=True)
class Seeds:
    data: int
    split: int
    model: int
    shuffle: int  # epoch e shuffles with shuffle + e

    @classmethod
    def single(cls, seed: int) -> "Seeds":
        return cls(seed, seed, seed, seed)


@dataclass
class Ingested:
    dataset: EncodedDataset
    path: str  # the CSV the reader read
    faithful: bool  # the reader returned exactly the generated samples


@dataclass(frozen=True)
class Guard:
    """A short training run from fixed seeds on learnable data: the
    workload's model and optimizer, trained on learnable_data with a small
    cardinality so that every id is seen often enough to be learned. Its
    AUC ends clearly above 0.5 and its logloss clearly below log 2, so a
    change that stops training shows outside the bound of `reference`."""

    seeds: Seeds
    rows: int
    cardinality: int
    batch_size: int
    steps: int
    reference: dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    experts: tuple[ExpertConfig, ...]
    loss: LossConfig
    embed_dim: int
    gate_hidden: tuple[int, ...]
    tower_hidden: tuple[int, ...]
    learning_rate: float
    batch_size: int
    make_data: Callable[["Workload", int, str], Ingested]
    reader: str  # the moectr.data function that ingests the CSV
    fields: int
    rows: int
    cardinality: int  # embedding rows per field (hash buckets for wide_sparse)
    guard: Guard


# ---- data -----------------------------------------------------------------


def ingest(wl: Workload, path: str, schema: DatasetSchema) -> EncodedDataset:
    """Read the CSV with the workload's reader, looked up at call time."""
    return getattr(data, wl.reader)(path, schema)


def same_samples(a: EncodedDataset, b: EncodedDataset) -> bool:
    return np.array_equal(a.indices, b.indices) and np.array_equal(a.labels, b.labels)


def _roundtrip_encoded(wl: Workload, ds: EncodedDataset, workdir: str) -> Ingested:
    """Write generated bucket ids as CSV and read them back with the
    encoded reader (the CLI's ``encoded = true`` path)."""
    path = os.path.join(workdir, f"{wl.name}.csv")
    data.save_table(ds, path)
    back = ingest(wl, path, ds.schema)
    return Ingested(back, path, same_samples(back, ds))


def learnable_data(wl: Workload, seed: int, workdir: str) -> Ingested:
    """The acceptance experiment's data: strong pair and triple mechanisms."""
    ds, _ = data.gen_synthetic(
        wl.fields, wl.cardinality, 2, wl.rows, seed=seed, pair_strength=3.0, triple_strength=2.0
    )
    return _roundtrip_encoded(wl, ds, workdir)


def ref_data(wl: Workload, seed: int, workdir: str) -> Ingested:
    ds, _ = data.gen_synthetic(wl.fields, wl.cardinality, 2, wl.rows, seed=seed)
    return _roundtrip_encoded(wl, ds, workdir)


WIDE_CHECKED_ROWS = 64


def wide_data(wl: Workload, seed: int, workdir: str) -> Ingested:
    """Raw 8-hex-digit tokens per field, hashed by load_table (FNV-1a) into
    wl.cardinality buckets. Raw vocabularies are spread like Criteo's 26
    categorical columns, from a handful of values to twice the buckets."""
    vocab = [int(v) for v in np.geomspace(4, 2 * wl.cardinality, wl.fields).round()]
    ds, _ = data.gen_synthetic(wl.fields, vocab, 2, wl.rows, seed=seed)
    names = [f"c{j}" for j in range(wl.fields)]
    path = os.path.join(workdir, f"{wl.name}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", *names])
        labels = ds.labels.astype(np.int64)
        for i in range(len(ds)):
            writer.writerow([labels[i], *(f"{v:08x}" for v in ds.indices[i])])
    schema = DatasetSchema(tuple(FeatureField(n, wl.cardinality) for n in names))
    back = ingest(wl, path, schema)
    checked = np.random.default_rng(seed).choice(len(ds), size=WIDE_CHECKED_ROWS, replace=False)
    faithful = np.array_equal(back.labels, ds.labels) and all(
        back.indices[i, j] == data.hash_token(f"{ds.indices[i, j]:08x}", wl.cardinality)
        for i in checked
        for j in range(wl.fields)
    )
    return Ingested(back, path, faithful)


# ---- workloads ------------------------------------------------------------

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk_cin",
            mode="me",
            experts=(ExpertConfig(kind="cin", out_dim=8, cin_maps=(8,)),) * 2,
            loss=LossConfig(form="corr", alpha=0.25, location="output"),
            embed_dim=8,
            gate_hidden=(16,),
            tower_hidden=(32,),
            learning_rate=0.012,
            batch_size=1024,
            make_data=learnable_data,
            reader="load_synthetic_csv",
            fields=6,
            rows=50_000,
            cardinality=100,
            # the acceptance experiment's seed-1 with-loss run, first 6 epochs
            guard=Guard(
                seeds=Seeds(data=3, split=0, model=1, shuffle=51),
                rows=50_000,
                cardinality=100,
                batch_size=1024,
                steps=240,
                reference={
                    "valid_auc": 0.7218343519976421,
                    "valid_cec": 0.02977887348209792,
                    "train_logloss": 0.48464499139517436,
                },
            ),
        ),
        Workload(
            name="ref_dnn",
            mode="me",
            experts=(ExpertConfig(kind="dnn", out_dim=16, hidden=(500, 500, 500)),) * 2,
            loss=LossConfig(form="corr", alpha=1.0, location="output"),
            embed_dim=16,
            gate_hidden=(64,),
            tower_hidden=(500,),
            learning_rate=0.001,
            batch_size=2000,
            make_data=ref_data,
            reader="load_synthetic_csv",
            fields=6,
            rows=50_000,
            cardinality=100_000,
            guard=Guard(
                seeds=Seeds.single(0),
                rows=10_000,
                cardinality=10,
                batch_size=128,
                steps=80,
                reference={
                    "valid_auc": 0.6948072070476781,
                    "valid_cec": 0.005152100811121376,
                    "train_logloss": 0.6554369646353804,
                },
            ),
        ),
        Workload(
            name="wide_sparse",
            mode="se",
            experts=(
                ExpertConfig(kind="fm", out_dim=8),
                ExpertConfig(kind="crossnet", out_dim=8, cross_layers=2),
                ExpertConfig(kind="dnn", out_dim=8, hidden=(64,)),
                ExpertConfig(kind="fm", out_dim=8),
            ),
            loss=LossConfig(form="corr", alpha=1.0, location="output"),
            embed_dim=8,
            gate_hidden=(16,),
            tower_hidden=(32,),
            learning_rate=0.02,
            batch_size=4096,
            make_data=wide_data,
            reader="load_table",
            fields=26,
            rows=20_480,
            cardinality=100_000,
            guard=Guard(
                seeds=Seeds.single(0),
                rows=20_000,
                cardinality=20,
                batch_size=512,
                steps=96,
                reference={
                    "valid_auc": 0.5966445435490613,
                    "valid_cec": 0.018109430377849137,
                    "train_logloss": 0.5952555417754067,
                },
            ),
        ),
    )
}


# ---- set-up, guard, gradient check ---------------------------------------


@dataclass
class Prepared:
    train: EncodedDataset
    valid: EncodedDataset
    model: ModelBundle
    adam: Adam
    params: dict[str, np.ndarray]
    ingest: Ingested


def prepare(wl: Workload, seeds: Seeds, workdir: str) -> Prepared:
    """Data (generated, written, ingested), split and a fresh model."""
    ingested = wl.make_data(wl, seeds.data, workdir)
    train, valid, _ = data.split_dataset(ingested.dataset, (0.8, 0.1, 0.1), seed=seeds.split)
    bundle = build_model(
        train.schema,
        wl.mode,
        list(wl.experts),
        wl.loss,
        embed_dim=wl.embed_dim,
        gate_hidden=wl.gate_hidden,
        tower_hidden=wl.tower_hidden,
        seed=seeds.model,
    )
    return Prepared(
        train, valid, bundle, Adam(lr=wl.learning_rate), dict(named_params(bundle)), ingested
    )


def shrink(config: ExpertConfig) -> ExpertConfig:
    """Same kind and depth, micro widths."""
    return replace(
        config,
        out_dim=MICRO_OUT,
        hidden=(4,) * len(config.hidden),
        dnn_out=None if config.dnn_out is None else MICRO_OUT,
        cin_maps=(3,) * len(config.cin_maps),
    )


def guard_workload(wl: Workload) -> Workload:
    """The workload as its guard trains it: same model and optimizer, the
    guard's learnable data, rows and batch size."""
    g = wl.guard
    return replace(
        wl,
        name=f"{wl.name}-guard",
        make_data=learnable_data,
        reader="load_synthetic_csv",
        rows=g.rows,
        cardinality=g.cardinality,
        batch_size=g.batch_size,
    )


def gradcheck_shrunk(wl: Workload, seed: int) -> GradCheckReport:
    """Whole-model central-difference check on a micro copy of the workload's
    model: same embedding mode, expert kinds and count, loss form, location
    and alpha. Like moectr.gradsuite.run_case, the seed advances only on
    forward-pass kink margins, never on the gradient comparison."""
    configs = [shrink(c) for c in wl.experts]
    for attempt in range(GRADCHECK_TRIES):
        s = seed + 101 * attempt
        bundle = build_model(
            micro_schema(),
            wl.mode,
            configs,
            wl.loss,
            embed_dim=MICRO_EMBED,
            gate_hidden=(4,) * len(wl.gate_hidden),
            tower_hidden=(4,) * len(wl.tower_hidden),
            seed=s,
        )
        rng = np.random.default_rng(s + 1000)
        for _, arr in named_params(bundle):
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
        indices = rng.integers(0, MICRO_CARD, size=(MICRO_BATCH, micro_schema().num_fields))
        labels = np.zeros(MICRO_BATCH)
        labels[: MICRO_BATCH // 2] = 1.0
        if kink_margin(bundle, forward_full(bundle, indices)) < GRADCHECK_MARGIN:
            continue
        return gradcheck_model(bundle, indices, labels, h=GRADCHECK_H, tol=GRADCHECK_TOL)
    raise RuntimeError(f"no kink-free micro model found for {wl.name}")
