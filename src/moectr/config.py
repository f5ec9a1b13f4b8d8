"""Key-value run configuration for the command-line tools.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored. Lists are comma-separated; layer widths inside one expert spec are
dash-separated. Run and synthetic-data configs reject unknown keys. See
configs/default.cfg for a fully commented example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from .data import DatasetSchema, EncodedDataset, FeatureField, load_synthetic_csv, load_table, split_dataset
from .experts import ExpertConfig
from .losses import LossConfig
from .model import ModelBundle, build_model
from .trainer import TrainConfig


def parse_kv_text(text: str, known: Collection[str] | None = None, source: str = "config") -> dict[str, str]:
    """Parse ``key = value`` lines; a repeated key is an error naming both
    lines, and with ``known`` given, so is any other key. Errors read
    ``<source> line N: ...``."""
    kv: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source} line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if known is not None and key not in known:
            raise ValueError(f"{source} line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{source} line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        kv[key] = value.strip()
    return kv


def parse_kv_file(path, known: Collection[str] | None = None) -> dict[str, str]:
    """parse_kv_text over a file; errors name the path."""
    with open(path, encoding="utf-8") as fh:
        return parse_kv_text(fh.read(), known, source=str(path))


def _ints(value: str, sep: str = "-") -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(sep) if tok != "")


def parse_expert_spec(spec: str, out_dim: int) -> ExpertConfig:
    """One expert: "dnn:64-64", "crossnet:3", "cin:16-16", or "fm"."""
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if kind == "dnn":
        if not rest:
            raise ValueError("dnn expert spec needs hidden widths, e.g. dnn:64-64")
        return ExpertConfig(kind="dnn", out_dim=out_dim, hidden=_ints(rest))
    if kind == "fm":
        if rest:
            raise ValueError("fm expert spec takes no parameters")
        return ExpertConfig(kind="fm", out_dim=out_dim)
    if kind == "crossnet":
        return ExpertConfig(
            kind="crossnet", out_dim=out_dim, cross_layers=int(rest) if rest else 3
        )
    if kind == "cin":
        if not rest:
            raise ValueError("cin expert spec needs map widths, e.g. cin:16-16")
        return ExpertConfig(kind="cin", out_dim=out_dim, cin_maps=_ints(rest))
    raise ValueError(f"unknown expert kind {kind!r}")


def _fields(value: str) -> tuple[FeatureField, ...]:
    pairs = (tok.strip().partition(":") for tok in value.split(","))
    return tuple(FeatureField(name.strip(), int(card)) for name, _, card in pairs)


def _bool(value: str) -> bool:
    """true/false, yes/no or 1/0, in any case."""
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, yes/no or 1/0, got {value!r}")


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError(f"seeds must be >= 0, got {seed}")
    return seed


def _split(value: str) -> tuple[float, float, float]:
    parts = [float(tok) for tok in value.split(",")]
    if len(parts) != 3:
        raise ValueError("split needs three fractions")
    return (parts[0], parts[1], parts[2])


# config key -> (RunConfig attribute, parser of the value text)
RUN_KEYS = {
    "train": ("train_path", str),
    "valid": ("valid_path", str),
    "test": ("test_path", str),
    "fields": ("fields", _fields),
    "label": ("label", str),
    "encoded": ("encoded", _bool),
    "split": ("split", _split),
    "split_seed": ("split_seed", _seed),
    "mode": ("mode", str.lower),
    "experts": ("expert_specs", lambda value: tuple(t.strip() for t in value.split(",") if t.strip())),
    "embed_dim": ("embed_dim", int),
    "gate_embed_dim": ("gate_embed_dim", int),
    "expert_out_dim": ("expert_out_dim", int),
    "gate_hidden": ("gate_hidden", _ints),
    "tower_hidden": ("tower_hidden", _ints),
    "loss_form": ("loss_form", str.lower),
    "alpha": ("alpha", float),
    "loss_location": ("loss_location", str.lower),
    "lr": ("lr", float),
    "batch_size": ("batch_size", int),
    "epochs": ("epochs", int),
    "patience": ("patience", int),
    "seed": ("seed", _seed),
}
SYNTH_KEYS = {
    "rows": ("rows", int),
    "fields": ("num_fields", int),
    "cardinality": ("cardinalities", lambda value: [int(tok) for tok in value.split(",")]),
    "latent_dim": ("latent_dim", int),
    "seed": ("seed", _seed),
    "c0": ("c0", float),
}


def _apply_keys(obj, table: dict, kv: dict[str, str], source: str):
    """Set obj's attribute for every parsed key through its table row; a
    value its parser rejects raises ``<source>: key 'k': ...``."""
    for key, value in kv.items():
        attr, parse = table[key]
        try:
            setattr(obj, attr, parse(value))
        except ValueError as err:
            raise ValueError(f"{source}: key {key!r}: {err}") from err
    return obj


@dataclass
class RunConfig:
    """Everything a training run needs, with paper-style defaults."""

    # data
    train_path: str | None = None
    valid_path: str | None = None
    test_path: str | None = None
    fields: tuple[FeatureField, ...] = ()
    label: str = "label"
    encoded: bool = False  # cells are literal bucket ids (synthetic CSVs)
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = 0
    # model
    mode: str = "me"
    expert_specs: tuple[str, ...] = ("dnn:500-500-500", "dnn:500-500-500")
    embed_dim: int = 16
    gate_embed_dim: int | None = None
    expert_out_dim: int = 16
    gate_hidden: tuple[int, ...] = (64,)
    tower_hidden: tuple[int, ...] = (500,)
    # loss
    loss_form: str = "corr"
    alpha: float = 1.0
    loss_location: str = "output"
    # training
    lr: float = 0.001
    batch_size: int = 10000
    epochs: int = 5
    patience: int = 2
    seed: int = 0

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return _apply_keys(cls(), RUN_KEYS, parse_kv_text(text, RUN_KEYS), "config")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return _apply_keys(cls(), RUN_KEYS, parse_kv_file(path, RUN_KEYS), str(path))

    def schema(self) -> DatasetSchema:
        if not self.fields:
            raise ValueError("config needs a 'fields' entry")
        return DatasetSchema(fields=self.fields, label_column=self.label)

    def expert_configs(self) -> list[ExpertConfig]:
        return [parse_expert_spec(s, self.expert_out_dim) for s in self.expert_specs]

    def loss_config(self) -> LossConfig:
        return LossConfig(form=self.loss_form, alpha=self.alpha, location=self.loss_location)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.lr,
            batch_size=self.batch_size,
            epochs=self.epochs,
            patience=self.patience,
            seed=self.seed,
        )

    def build(self) -> ModelBundle:
        return build_model(
            self.schema(),
            self.mode,
            self.expert_configs(),
            self.loss_config(),
            embed_dim=self.embed_dim,
            gate_dim=self.gate_embed_dim,
            gate_hidden=self.gate_hidden,
            tower_hidden=self.tower_hidden,
            seed=self.seed,
        )

    def _load_csv(self, path) -> EncodedDataset:
        return (load_synthetic_csv if self.encoded else load_table)(path, self.schema())

    def load_datasets(self) -> tuple[EncodedDataset, EncodedDataset, EncodedDataset]:
        """Explicit valid/test paths win; otherwise split the train file."""
        if self.train_path is None:
            raise ValueError("config needs a 'train' entry")
        train = self._load_csv(self.train_path)
        if self.valid_path is not None:
            valid = self._load_csv(self.valid_path)
            test = self._load_csv(self.test_path) if self.test_path else valid
            return train, valid, test
        return split_dataset(train, self.split, self.split_seed)


@dataclass
class SynthSpec:
    """Config for the synthetic-data generator command."""

    rows: int = 10000
    num_fields: int = 6
    cardinalities: list[int] = field(default_factory=lambda: [100] * 6)
    latent_dim: int = 4
    seed: int = 0
    c0: float = 0.0

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        """An absent cardinality means 100 per field; one value applies to
        every field."""
        kv = parse_kv_file(path, SYNTH_KEYS)
        spec = _apply_keys(cls(cardinalities=[]), SYNTH_KEYS, kv, str(path))
        if len(spec.cardinalities) <= 1:
            spec.cardinalities = (spec.cardinalities or [100]) * spec.num_fields
        return spec
