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


def parse_kv_text(text: str, known: Collection[str] | None = None) -> dict[str, str]:
    """Parse ``key = value`` lines; with ``known`` given, any other key is an
    error naming the key and its line."""
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if known is not None and key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        kv[key] = value.strip()
    return kv


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


RUN_KEYS = (
    "train", "valid", "test", "fields", "label", "encoded", "split", "split_seed",
    "mode", "experts", "embed_dim", "gate_embed_dim", "expert_out_dim", "gate_hidden",
    "tower_hidden", "loss_form", "alpha", "loss_location", "lr", "batch_size", "epochs",
    "patience", "seed",
)
SYNTH_KEYS = ("rows", "fields", "cardinality", "latent_dim", "seed", "c0")


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
        kv = parse_kv_text(text, RUN_KEYS)
        cfg = cls()
        if "train" in kv:
            cfg.train_path = kv["train"]
        if "valid" in kv:
            cfg.valid_path = kv["valid"]
        if "test" in kv:
            cfg.test_path = kv["test"]
        if "fields" in kv:
            parsed = []
            for tok in kv["fields"].split(","):
                name, _, card = tok.strip().partition(":")
                parsed.append(FeatureField(name.strip(), int(card)))
            cfg.fields = tuple(parsed)
        cfg.label = kv.get("label", cfg.label)
        if "encoded" in kv:
            cfg.encoded = kv["encoded"].lower() in ("1", "true", "yes")
        if "split" in kv:
            parts = [float(tok) for tok in kv["split"].split(",")]
            if len(parts) != 3:
                raise ValueError("split needs three fractions")
            cfg.split = (parts[0], parts[1], parts[2])
        cfg.split_seed = int(kv.get("split_seed", cfg.split_seed))
        cfg.mode = kv.get("mode", cfg.mode).lower()
        if "experts" in kv:
            cfg.expert_specs = tuple(
                tok.strip() for tok in kv["experts"].split(",") if tok.strip()
            )
        cfg.embed_dim = int(kv.get("embed_dim", cfg.embed_dim))
        if "gate_embed_dim" in kv:
            cfg.gate_embed_dim = int(kv["gate_embed_dim"])
        cfg.expert_out_dim = int(kv.get("expert_out_dim", cfg.expert_out_dim))
        if "gate_hidden" in kv:
            cfg.gate_hidden = _ints(kv["gate_hidden"])
        if "tower_hidden" in kv:
            cfg.tower_hidden = _ints(kv["tower_hidden"])
        cfg.loss_form = kv.get("loss_form", cfg.loss_form).lower()
        cfg.alpha = float(kv.get("alpha", cfg.alpha))
        cfg.loss_location = kv.get("loss_location", cfg.loss_location).lower()
        cfg.lr = float(kv.get("lr", cfg.lr))
        cfg.batch_size = int(kv.get("batch_size", cfg.batch_size))
        cfg.epochs = int(kv.get("epochs", cfg.epochs))
        cfg.patience = int(kv.get("patience", cfg.patience))
        cfg.seed = int(kv.get("seed", cfg.seed))
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

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
        schema = self.schema()
        if self.encoded:
            return load_synthetic_csv(path, schema)
        return load_table(path, schema)

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
        with open(path, encoding="utf-8") as fh:
            kv = parse_kv_text(fh.read(), SYNTH_KEYS)
        spec = cls()
        spec.rows = int(kv.get("rows", spec.rows))
        spec.num_fields = int(kv.get("fields", spec.num_fields))
        if "cardinality" in kv:
            cards = [int(tok) for tok in kv["cardinality"].split(",")]
            if len(cards) == 1:
                cards = cards * spec.num_fields
            spec.cardinalities = cards
        else:
            spec.cardinalities = [100] * spec.num_fields
        spec.latent_dim = int(kv.get("latent_dim", spec.latent_dim))
        spec.seed = int(kv.get("seed", spec.seed))
        spec.c0 = float(kv.get("c0", spec.c0))
        return spec
