"""Whole-model finite-difference verification on micro configurations.

Each case builds a tiny model (B <= 8, F <= 4, d <= 4, M = 2 or 3) in the
multi-embedding ("me") or shared-embedding ("se") mode, draws a seeded
batch, and checks the analytic gradient of the total objective for every
parameter group against central differences. Covers all four expert kinds,
all three pair-loss forms, all three loss locations, the shared table that
sums every expert's gradient, and three-expert Grams; the gate MLP, gating
table, and tower are exercised by every case. Seeds whose forward pass lies
near a kink are skipped; the ReLU sites come from each module's
``relu_inputs``, so no module's cache layout is read here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetSchema, FeatureField
from .experts import ExpertConfig
from .losses import LossConfig
from .model import build_model, forward_full, loss_targets, named_params
from .numerics import GradCheckReport, cross_gram, gram_blocks
from .trainer import gradcheck_model

MICRO_FIELDS = 3
MICRO_CARD = 5
MICRO_EMBED = 2
MICRO_OUT = 3
MICRO_BATCH = 6
KINK_MARGIN = 1e-3  # smallest |pre-activation| a checked micro model may have
MAX_TRIES = 25  # seeds drawn per case before giving up on that margin


@dataclass
class SuiteCase:
    name: str
    configs: list[ExpertConfig]
    loss: LossConfig
    seed: int
    mode: str = "me"


def _dnn(out=MICRO_OUT, final=None):
    return ExpertConfig(kind="dnn", out_dim=out, hidden=(4,), dnn_out=final)


def _fm(out=MICRO_OUT):
    return ExpertConfig(kind="fm", out_dim=out)


def _crossnet(out=MICRO_OUT, layers=2):
    return ExpertConfig(kind="crossnet", out_dim=out, cross_layers=layers)


def _cin(out=MICRO_OUT):
    return ExpertConfig(kind="cin", out_dim=out, cin_maps=(3, 2))


def suite_cases() -> list[SuiteCase]:
    corr_out = LossConfig(form="corr", alpha=0.7, location="output")
    return [
        SuiteCase("dnn corr@output", [_dnn(), _dnn()], corr_out, seed=11),
        SuiteCase("fm corr@output", [_fm(), _fm()], corr_out, seed=12),
        SuiteCase("crossnet corr@output", [_crossnet(), _crossnet()], corr_out, seed=13),
        SuiteCase("cin corr@output", [_cin(), _cin()], corr_out, seed=14),
        SuiteCase(
            "crossnet cov_l1@output",
            [_crossnet(), _crossnet()],
            LossConfig(form="cov_l1", alpha=0.7, location="output"),
            seed=15,
        ),
        SuiteCase(
            "crossnet cov_l2@output",
            [_crossnet(), _crossnet()],
            LossConfig(form="cov_l2", alpha=0.7, location="output"),
            seed=16,
        ),
        SuiteCase(
            "dnn corr@input",
            [_dnn(final=MICRO_OUT), _dnn(final=MICRO_OUT)],
            LossConfig(form="corr", alpha=0.7, location="input"),
            seed=17,
        ),
        SuiteCase(
            "crossnet corr@intermediate",
            [_crossnet(), _crossnet()],
            LossConfig(form="corr", alpha=0.7, location="intermediate"),
            seed=18,
        ),
        SuiteCase(
            "hetero dnn+cin corr@output", [_dnn(), _cin()], corr_out, seed=19
        ),
        SuiteCase(
            "bce only (alpha=0)",
            [_dnn(), _crossnet()],
            LossConfig(form="corr", alpha=0.0, location="output"),
            seed=20,
        ),
        SuiteCase(
            "se hetero dnn+cin corr@output", [_dnn(), _cin()], corr_out, seed=21, mode="se"
        ),
        SuiteCase(
            "se crossnet cov_l2@output",
            [_crossnet(), _crossnet()],
            LossConfig(form="cov_l2", alpha=0.7, location="output"),
            seed=22,
            mode="se",
        ),
        SuiteCase("M=3 dnn+fm+cin corr@output", [_dnn(), _fm(), _cin()], corr_out, seed=23),
        SuiteCase(
            "M=3 dnn+fm+crossnet cov_l1@output",
            [_dnn(), _fm(), _crossnet()],
            LossConfig(form="cov_l1", alpha=0.7, location="output"),
            seed=24,
        ),
    ]


def micro_schema() -> DatasetSchema:
    return DatasetSchema(
        fields=tuple(FeatureField(f"f{j}", MICRO_CARD) for j in range(MICRO_FIELDS))
    )


def kink_margin(model, fc) -> float:
    """Distance of the forward pass from the nearest non-differentiable point.

    Central differences are only meaningful where the objective is smooth
    in an h-neighborhood; this takes |pre-activation| at every ReLU site
    each module reports through ``relu_inputs`` (tower, gate MLP, experts
    with their alignment heads) and, for the L1 covariance form, |entry| of
    the centered cross matrices (sign kink), read from the off-diagonal
    blocks of the centered cross-expert Gram.
    """
    modules = [
        (model.tower, fc.tower_cache),
        (model.gate, fc.gate_cache),
        *zip(model.experts, fc.expert_caches),
    ]
    vals = [float(np.abs(z).min()) for module, cache in modules for z in module.relu_inputs(cache)]
    if model.loss.active and model.loss.form == "cov_l1":
        for mats in loss_targets(model, fc):
            _, _, g = cross_gram(mats, standardize=False)
            pairs = gram_blocks(g, mats)[np.triu_indices(len(mats), 1)]
            vals.append(float(np.abs(pairs).min()))
    return min(vals)


def run_case(case: SuiteCase, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Gradcheck the case on the first seed whose forward pass clears the
    differentiability margin.

    The seed advance looks only at forward quantities, never at the
    gradient comparison, so a wrong backward pass cannot slip through.
    """
    for attempt in range(MAX_TRIES):
        seed = case.seed + 101 * attempt
        model = build_model(
            micro_schema(),
            case.mode,
            case.configs,
            case.loss,
            embed_dim=MICRO_EMBED,
            gate_hidden=(4,),
            tower_hidden=(4,),
            seed=seed,
        )
        rng = np.random.default_rng(seed + 1000)
        # genericize the parameter point: exact zeros (biases, the gate's
        # zero-initialized final layer) would leave whole paths with a
        # vacuous 0 == 0 comparison
        for _, arr in named_params(model):
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
        indices = rng.integers(0, MICRO_CARD, size=(MICRO_BATCH, MICRO_FIELDS))
        labels = np.zeros(MICRO_BATCH)
        labels[: MICRO_BATCH // 2] = 1.0
        if kink_margin(model, forward_full(model, indices)) < KINK_MARGIN:
            continue
        return gradcheck_model(model, indices, labels, h=h, tol=tol)
    raise RuntimeError(f"no kink-free micro configuration found for {case.name!r}")


def run_suite(h: float = 1e-5, tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    return [(case.name, run_case(case, h=h, tol=tol)) for case in suite_cases()]
