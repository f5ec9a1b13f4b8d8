"""Model assembly: embedding bank + experts + gating + tower as one bundle,
the full forward pass, the parameter registry (every module under its name
prefix), the de-correlation loss targets and where their gradients enter
each expert's backward, and versioned binary persistence.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .data import DatasetSchema, FeatureField, reraise_naming
from .embedding import EmbeddingBank, EmbeddingTable, init_bank, lookup, lookup_gating
from .experts import Expert, ExpertConfig, make_expert
from .gating import aggregate_experts, build_gate, gate_weights
from .losses import LossConfig
from .nnet import Mlp, Module
from .numerics import at_least, first_non_finite, sigmoid
from .parallel import map_experts

MODEL_MAGIC = b"MOECTRBN"
MODEL_VERSION = 1
EVAL_BATCH_ROWS = 8192  # rows per forward pass when predicting or evaluating


@dataclass
class ModelBundle:
    schema: DatasetSchema
    bank: EmbeddingBank
    experts: list[Expert]
    gate: Mlp
    tower: Mlp
    loss: LossConfig
    seed: int

    @property
    def num_experts(self) -> int:
        return len(self.experts)


def check_experts(expert_configs: list[ExpertConfig], loss: LossConfig) -> None:
    """A nonempty expert list sharing one out_dim; an intermediate loss
    location needs crossnets only, with one cross layer count of at least 1
    (each cross layer is a loss target set)."""
    if not expert_configs:
        raise ValueError("expert list must be nonempty")
    if len({c.out_dim for c in expert_configs}) != 1:
        raise ValueError("all experts must share out_dim")
    if loss.location == "intermediate":
        if any(c.kind != "crossnet" for c in expert_configs):
            raise ValueError("intermediate loss location requires crossnet experts only")
        if len({c.cross_layers for c in expert_configs}) != 1:
            raise ValueError("intermediate loss location requires equal cross layer counts")
        at_least("cross layer count at the intermediate loss location", expert_configs[0].cross_layers, 1)


def build_model(
    schema: DatasetSchema,
    mode: str,
    expert_configs: list[ExpertConfig],
    loss: LossConfig,
    *,
    embed_dim: int,
    gate_dim: int | None = None,
    gate_hidden: tuple[int, ...],
    tower_hidden: tuple[int, ...],
    seed: int,
) -> ModelBundle:
    """Deterministically initialize every component from one seed.

    Homogeneous vs heterogeneous is just the kind mix in expert_configs;
    shared vs multi embedding is the bank mode. The widths and the seed have
    no defaults here: a run's come from its RunConfig and TrainConfig.
    """
    check_experts(expert_configs, loss)
    if gate_dim is None:
        gate_dim = embed_dim
    m = len(expert_configs)
    children = np.random.SeedSequence(seed).spawn(m + 3)
    bank = init_bank(schema, mode, m, embed_dim, gate_dim, children[0])
    experts = [
        make_expert(cfg, schema.num_fields, embed_dim, np.random.default_rng(children[1 + i]))
        for i, cfg in enumerate(expert_configs)
    ]
    gate = build_gate(
        gate_dim * schema.num_fields, gate_hidden, m, np.random.default_rng(children[m + 1])
    )
    tower = Mlp.build(expert_configs[0].out_dim, tower_hidden, 1, np.random.default_rng(children[m + 2]))
    return ModelBundle(schema, bank, experts, gate, tower, loss, seed)


def table_modules(model: ModelBundle) -> list[tuple[str, EmbeddingTable]]:
    """(name prefix, table): expert tables by physical index, then gating."""
    bank = model.bank
    return [
        *((f"bank.table{t}", table) for t, table in enumerate(bank.tables)),
        ("bank.gating", bank.gating_table),
    ]


def dense_modules(model: ModelBundle) -> list[tuple[str, Module]]:
    """(name prefix, module): every expert in order, the gate, the tower."""
    return [
        *((f"expert.{m}", expert) for m, expert in enumerate(model.experts)),
        ("gate", model.gate),
        ("tower", model.tower),
    ]


def named_params(model: ModelBundle) -> list[tuple[str, np.ndarray]]:
    """Every trainable array with a stable name, in a stable order; the
    names are the model file's block names."""
    return [
        item
        for prefix, module in table_modules(model) + dense_modules(model)
        for item in module.param_items(prefix)
    ]


def param_count(model: ModelBundle) -> int:
    return sum(arr.size for _, arr in named_params(model))


@dataclass
class FullCache:
    """Everything the backward pass and the loss-location routing need, each value once."""

    embeds: list[np.ndarray]  # e^(m), (B, F*d) per expert; one array per physical table
    expert_caches: list
    outputs: list[np.ndarray]  # aligned O^(m), (B, out_dim)
    gate_cache: list  # the gate Mlp's cache
    gate_weights: np.ndarray  # (B, M), rows sum to 1
    tower_cache: list
    y_hat: np.ndarray  # (B,)


def _expert_inputs(model: ModelBundle, indices: np.ndarray) -> list[np.ndarray]:
    """e^(m) per expert. Each table is gathered once; experts that share it
    (every expert in "se") read the same array, which none writes to."""
    gathered: dict[int, np.ndarray] = {}
    for m, t in enumerate(model.bank.table_of):
        if t not in gathered:
            gathered[t] = lookup(model.bank, m, indices)
    return [gathered[t] for t in model.bank.table_of]


def _head(model: ModelBundle, indices: np.ndarray, outputs: list[np.ndarray]):
    """gating -> tower -> sigmoid: (gate weights, gate cache, tower cache, y_hat)."""
    g, gate_cache = gate_weights(model.gate, lookup_gating(model.bank, indices))
    logits, tower_cache = model.tower.forward(aggregate_experts(g, outputs))
    return g, gate_cache, tower_cache, sigmoid(logits).ravel()


def forward_full(model: ModelBundle, indices: np.ndarray) -> FullCache:
    """The training forward, lookup -> experts (+alignment) -> gating -> tower
    -> sigmoid, keeping every cache; the experts may run on the expert pool."""
    embeds = _expert_inputs(model, indices)
    results = map_experts(model, indices.shape[0], lambda m: model.experts[m].forward(embeds[m]))
    outputs, expert_caches = (list(part) for part in zip(*results))
    g, gate_cache, tower_cache, y_hat = _head(model, indices, outputs)
    return FullCache(embeds, expert_caches, outputs, gate_cache, g, tower_cache, y_hat)


def loss_targets(model: ModelBundle, fc: FullCache) -> list[list[np.ndarray]]:
    """The matrix sets the de-correlation loss reads at model.loss.location:
    [aligned outputs] ("output"), [embedding matrices] ("input"), or one
    set per cross layer ("intermediate", crossnet only)."""
    if model.loss.location == "intermediate":
        layered = (e.layer_outputs(c) for e, c in zip(model.experts, fc.expert_caches))
        return [list(layer) for layer in zip(*layered)]
    return [fc.outputs if model.loss.location == "output" else fc.embeds]


def loss_backward(model: ModelBundle, fc: FullCache, m: int, d_out: np.ndarray, decor: list[list[np.ndarray]]):
    """Expert m's (param grads, d_embeds), with its de-correlation grads
    ``decor[s][m]`` (already weighted; per target set s, empty when the loss
    is off) added where loss_targets read them: to d_out ("output"), as the
    cross layers' layer_grads ("intermediate"), or to d_embeds ("input")."""
    expert, cache = model.experts[m], fc.expert_caches[m]
    location = model.loss.location if decor else None
    if location == "output":
        d_out = d_out + decor[0][m]
    if location == "intermediate":  # crossnets only, by check_experts
        return expert.backward(cache, d_out, layer_grads=[grads[m] for grads in decor])
    grads_m, d_e = expert.backward(cache, d_out)
    return grads_m, d_e + decor[0][m] if location == "input" else d_e


def forward_chunks(model: ModelBundle, indices: np.ndarray) -> Iterator[tuple[int, np.ndarray, list[np.ndarray]]]:
    """(first row, y_hat, aligned expert outputs) per EVAL_BATCH_ROWS-row chunk, in order.
    The experts may run on the expert pool, gated on the chunk's rows; each
    cache is dropped as its forward returns, so at most one per pool worker
    is alive."""
    for start in range(0, indices.shape[0], EVAL_BATCH_ROWS):
        chunk = indices[start : start + EVAL_BATCH_ROWS]
        embeds = _expert_inputs(model, chunk)
        outputs = list(map_experts(model, chunk.shape[0], lambda m: model.experts[m].forward(embeds[m])[0]))
        yield start, _head(model, chunk, outputs)[-1], outputs


def predict(model: ModelBundle, indices: np.ndarray) -> np.ndarray:
    """Click probabilities, computed one forward_chunks chunk at a time."""
    parts = [y_hat for _, y_hat, _ in forward_chunks(model, indices)]
    return np.concatenate(parts) if parts else np.zeros(0)


def _config_echo(model: ModelBundle) -> dict:
    """The build arguments; the expert and loss entries are the config
    dataclasses field by field, the widths are read off the modules."""
    return {
        "schema": {
            "fields": [[f.name, f.cardinality] for f in model.schema.fields],
            "label": model.schema.label_column,
        },
        "mode": model.bank.mode,
        "experts": [asdict(e.config) for e in model.experts],
        "loss": asdict(model.loss),
        "embed_dim": model.bank.tables[0].dim,
        "gate_dim": model.bank.gating_table.dim,
        "gate_hidden": [w.shape[0] for w in model.gate.weights[:-1]],
        "tower_hidden": [w.shape[0] for w in model.tower.weights[:-1]],
        "seed": model.seed,
    }


def _model_from_echo(echo: dict) -> ModelBundle:
    schema = DatasetSchema(
        fields=tuple(FeatureField(n, c) for n, c in echo["schema"]["fields"]),
        label_column=echo["schema"]["label"],
    )
    configs = [
        ExpertConfig(**{**e, "hidden": tuple(e["hidden"]), "cin_maps": tuple(e["cin_maps"])})
        for e in echo["experts"]
    ]
    loss = LossConfig(**echo["loss"])
    return build_model(
        schema,
        echo["mode"],
        configs,
        loss,
        embed_dim=echo["embed_dim"],
        gate_dim=echo["gate_dim"],
        gate_hidden=tuple(echo["gate_hidden"]),
        tower_hidden=tuple(echo["tower_hidden"]),
        seed=echo["seed"],
    )


def _check_finite(path, items) -> None:
    """Raise naming the first parameter block that holds NaN or inf."""
    if (name := first_non_finite(items)) is not None:
        raise ValueError(f"{path}: parameter block {name!r} holds NaN or inf")


def save_model(model: ModelBundle, path) -> None:
    """Versioned binary: magic, version, JSON config echo, then one named
    little-endian float64 block per parameter array; a model holding NaN
    or inf is refused before the file is opened."""
    items = named_params(model)
    _check_finite(path, items)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        blob = json.dumps(_config_echo(model)).encode("utf-8")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(items)))
        for name, arr in items:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    """The next n bytes; a length past the end of the file is refused unread."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated model file")
    return fh.read(n)


def load_model(path) -> ModelBundle:
    """Rebuild from the config echo, then overwrite every parameter block.

    Every parameter must appear in exactly one finite block and the file must
    end after the last block; anything else is rejected naming the path.
    Loaded parameters are byte-for-byte what was saved, so evaluation after
    a round trip is bit-identical.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
                raise ValueError("unrecognized model file")
            (version,) = struct.unpack("<I", _read_exact(fh, 4))
            if version != MODEL_VERSION:
                raise ValueError(f"unsupported model file version: {version}")
            (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8))
            blob = _read_exact(fh, blob_len)
            try:
                model = _model_from_echo(json.loads(blob.decode("utf-8")))
            except KeyError as err:
                raise ValueError(f"config echo lacks key {err}") from err
            except (TypeError, ValueError) as err:
                raise ValueError(f"malformed config echo: {err}") from err
            params = dict(named_params(model))
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            if count != len(params):
                raise ValueError("parameter block count does not match config")
            for _ in range(count):
                (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
                name = _read_exact(fh, name_len).decode("utf-8")
                (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
                shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim))
                arr = params.pop(name, None)
                if arr is None:
                    raise ValueError(f"unexpected or repeated parameter block {name!r}")
                if arr.shape != shape:
                    raise ValueError(f"parameter block {name!r} has shape {shape}; the config needs {arr.shape}")
                data = _read_exact(fh, arr.size * 8)
                arr[...] = np.frombuffer(data, dtype="<f8").reshape(shape)
            if fh.read(1):
                raise ValueError("trailing bytes after the last parameter block")
    except ValueError as err:
        reraise_naming(path, err)
    _check_finite(path, named_params(model))
    return model
