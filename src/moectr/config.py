"""Key-value run configuration for the command-line tools.

Format: ``data.parse_kv_text``'s ``key = value`` lines. Lists are
comma-separated; layer widths inside one expert spec are dash-separated.
Run, synthetic-data and gradcheck configs reject unknown keys. See
configs/default.cfg for a fully commented example.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from .data import DatasetSchema, EncodedDataset, FeatureField, check_field_count, check_split, check_synthetic
from .data import load_synthetic_csv, load_table, naming_key, parse_kv_file, parse_kv_text, split_dataset
from .embedding import BANK_MODES
from .experts import ExpertConfig
from .losses import LossConfig
from .model import ModelBundle, build_model, check_experts
from .numerics import at_least, finite_positive, one_of
from .trainer import TrainConfig


def _ints(value: str) -> tuple[int, ...]:
    """Integers >= 1 joined by single '-', e.g. "64-32"; an empty value is
    none, and an empty token reads as 0, so the rule rejects it."""
    widths = tuple(int(tok) if tok else 0 for tok in value.split("-")) if value else ()
    if widths and min(widths) < 1:
        raise ValueError(f"expected integers >= 1 joined by single '-', got {value!r}")
    return widths


# expert kind -> the ExpertConfig field its spec parameter sets, and its parser
SPEC_PARAMETERS = {"dnn": ("hidden", _ints), "crossnet": ("cross_layers", int), "cin": ("cin_maps", _ints)}


def parse_expert_spec(spec: str, out_dim: int) -> ExpertConfig:
    """One expert: "dnn:64-64", "crossnet:3", "cin:16-16", or "fm". A spec
    without its parameter keeps ExpertConfig's default for it, and
    ExpertConfig's own rule checks the kind and the values."""
    kind, _, rest = spec.partition(":")
    kind, rest = kind.strip().lower(), rest.strip()
    if not rest:
        return ExpertConfig(kind=kind, out_dim=out_dim)
    if kind not in SPEC_PARAMETERS:
        raise ValueError(f"only {', '.join(SPEC_PARAMETERS)} expert specs take a parameter, got {spec.strip()!r}")
    name, parse = SPEC_PARAMETERS[kind]
    return ExpertConfig(kind=kind, out_dim=out_dim, **{name: parse(rest)})


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
    return at_least("seed", int(value), 0)


def _dim(value: str) -> int:
    return at_least("dim", int(value), 1)


def _nonempty(value: str) -> str:
    """A path or a column name: any text but the empty one."""
    if not value:
        raise ValueError("must not be empty, got ''")
    return value


def _expert_specs(value: str) -> tuple[str, ...]:
    """Comma-separated expert specs, each checked by parse_expert_spec; an
    empty one reads as kind '', so the kind rule rejects it."""
    specs = tuple(t.strip() for t in value.split(","))
    for spec in specs:
        parse_expert_spec(spec, out_dim=1)  # expert_out_dim is checked on its own
    return specs


# config key -> (RunConfig attribute, or "train."/"loss." and a field of the
# TrainConfig/LossConfig that checks it; parser of the value text)
RUN_KEYS = {
    "train": ("train_path", _nonempty),
    "valid": ("valid_path", _nonempty),
    "test": ("test_path", _nonempty),
    "fields": ("fields", _fields),
    "label": ("label", _nonempty),
    "encoded": ("encoded", _bool),
    "split": ("split", lambda value: check_split([float(tok) for tok in value.split(",")])),
    "split_seed": ("split_seed", _seed),
    "mode": ("mode", lambda value: one_of(value.lower(), BANK_MODES)),
    "experts": ("expert_specs", _expert_specs),
    "embed_dim": ("embed_dim", _dim),
    "gate_embed_dim": ("gate_embed_dim", _dim),
    "expert_out_dim": ("expert_out_dim", _dim),
    "gate_hidden": ("gate_hidden", _ints),
    "tower_hidden": ("tower_hidden", _ints),
    "loss_form": ("loss.form", str.lower),
    "alpha": ("loss.alpha", float),
    "loss_location": ("loss.location", str.lower),
    "lr": ("train.learning_rate", float),
    "batch_size": ("train.batch_size", int),
    "epochs": ("train.epochs", int),
    "patience": ("train.patience", int),
    "seed": ("train.seed", int),
}
# gen-synth spec key -> (gen_synthetic argument, parser checking the value by
# gen_synthetic's own rule); gradcheck config key -> (run_suite argument, parser)
SYNTH_KEYS = {
    key: (name, lambda value, name=name, parse=parse: check_synthetic(name, parse(value)))
    for key, name, parse in (
        ("rows", "num_rows", int), ("fields", "num_fields", int),
        ("cardinality", "cardinalities", lambda value: [int(tok) for tok in value.split(",")]),
        ("latent_dim", "latent_dim", int), ("seed", "seed", int), ("c0", "c0", float),
    )
}
GRADCHECK_KEYS = {
    "gradcheck_h": ("h", finite_positive),
    "gradcheck_tol": ("tol", finite_positive),
}


def _apply_keys(obj, table: dict, kv: dict[str, str], source: str):
    """Set each key's target through its table row: an attribute of obj,
    or for ``part.name`` a dataclasses.replace copy of ``obj.part``, whose
    own rule then runs. A rejected value fails naming its key."""
    for key, value in kv.items():
        target, parse = table[key]
        part, _, name = target.rpartition(".")
        with naming_key(source, key):
            parsed = parse(value)
            if part:
                setattr(obj, part, replace(getattr(obj, part), **{name: parsed}))
            else:
                setattr(obj, name, parsed)
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
    # the objects the run uses; their defaults and rules are the only ones
    loss: LossConfig = LossConfig(alpha=1.0)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls._from_kv(parse_kv_text(text, RUN_KEYS), "config")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls._from_kv(parse_kv_file(path, RUN_KEYS), str(path))

    @classmethod
    def _from_kv(cls, kv: dict[str, str], source: str) -> "RunConfig":
        """Apply the keys; a config that names fields builds its schema
        here, so a bad field list fails at load naming the key and source,
        and so do an expert list that the loss location rules out, a batch
        size too small for an active loss, a test file without a valid file
        and a split of a train file that a valid file leaves whole."""
        cfg = _apply_keys(cls(), RUN_KEYS, kv, source)
        if cfg.fields:
            with naming_key(source, "fields"):
                cfg.schema()
        with naming_key(source, "loss_location"):
            check_experts(cfg.expert_configs(), cfg.loss)
        with naming_key(source, "batch_size"):
            cfg.loss.weight(cfg.train.batch_size)
        if cfg.test_path is not None and cfg.valid_path is None:
            with naming_key(source, "test"):
                raise ValueError("needs a 'valid' entry; without one the 'train' file is split")
        for key in ("split", "split_seed"):
            if key in kv and cfg.valid_path is not None:
                with naming_key(source, key):
                    raise ValueError("is not used when 'valid' is given")
        return cfg

    def schema(self) -> DatasetSchema:
        if not self.fields:
            raise ValueError("config needs a 'fields' entry")
        return DatasetSchema(fields=self.fields, label_column=self.label)

    def expert_configs(self) -> list[ExpertConfig]:
        return [parse_expert_spec(s, self.expert_out_dim) for s in self.expert_specs]

    def build(self) -> ModelBundle:
        return build_model(
            self.schema(),
            self.mode,
            self.expert_configs(),
            self.loss,
            embed_dim=self.embed_dim,
            gate_dim=self.gate_embed_dim,
            gate_hidden=self.gate_hidden,
            tower_hidden=self.tower_hidden,
            seed=self.train.seed,
        )

    def _load_csv(self, path) -> EncodedDataset:
        return (load_synthetic_csv if self.encoded else load_table)(path, self.schema())

    def load_datasets(self) -> tuple[EncodedDataset, EncodedDataset, EncodedDataset]:
        """Explicit valid/test paths win; otherwise split the train file.
        A valid or test path that names the train file (``os.path.samefile``,
        so also through a link) fails: its rows would be training rows."""
        if self.train_path is None:
            raise ValueError("config needs a 'train' entry")
        train = self._load_csv(self.train_path)
        for key, path in (("valid", self.valid_path), ("test", self.test_path)):
            if path is not None and os.path.samefile(path, self.train_path):
                with naming_key(path, key):
                    raise ValueError("is the 'train' file")
        if self.valid_path is not None:
            valid = self._load_csv(self.valid_path)
            test = self._load_csv(self.test_path) if self.test_path else valid
            return train, valid, test
        return split_dataset(train, self.split, self.split_seed)


# the gen-synth command's defaults for gen_synthetic's arguments that have
# none of their own; one cardinality applies to every field
SYNTH_DEFAULTS = {"num_rows": 10000, "num_fields": 6, "cardinalities": [100], "latent_dim": 4, "seed": 0}


def synth_arguments(path) -> dict:
    """gen_synthetic's keyword arguments from a gen-synth spec file:
    SYNTH_DEFAULTS, then the file's keys."""
    args = vars(_apply_keys(SimpleNamespace(**SYNTH_DEFAULTS), SYNTH_KEYS, parse_kv_file(path, SYNTH_KEYS), str(path)))
    if len(args["cardinalities"]) == 1:
        args["cardinalities"] = args["cardinalities"] * args["num_fields"]
    with naming_key(str(path), "cardinality"):
        check_field_count(args["cardinalities"], args["num_fields"])
    return args


def gradcheck_arguments(path) -> dict:
    """run_suite's keyword arguments that a gradcheck config file sets;
    run_suite's own defaults stand for the rest."""
    return vars(_apply_keys(SimpleNamespace(), GRADCHECK_KEYS, parse_kv_file(path, GRADCHECK_KEYS), str(path)))
