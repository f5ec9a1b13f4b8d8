"""Whole-model finite-difference verification on micro configurations.

The suite is generated, not listed: every cell of embedding mode {me, se}
x pair-loss form {corr, cov_l1, cov_l2} x loss location {output, input,
intermediate}, plus BCE alone (alpha = 0) per mode, 20 cases. Output, input
and alpha = 0 cases hold one expert of each kind (M = 4); intermediate
cases hold three crossnets, the only kind model.check_experts allows there
(model.loss_backward routes their grads into each cross layer). Each
case builds a tiny model (B = 6, F = 3, d = 2), draws a seeded batch, and
checks the analytic gradient of the total objective for every parameter
group (embedding tables, gating table, experts, alignment heads, gate MLP,
tower) against central differences of the forward-only objective. A seed
whose finite differences cross a kink (``trainer.kink_sites``) is redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetSchema, FeatureField
from .experts import ExpertConfig
from .losses import LOSS_LOCATIONS, PAIR_FORMS, LossConfig
from .model import build_model, named_params
from .numerics import GRADCHECK_H, GRADCHECK_TOL, GradCheckReport
from .trainer import KinkCrossed, gradcheck_model, kink_sites

MICRO_FIELDS = 3
MICRO_CARD = 5
MICRO_EMBED = 2
MICRO_OUT = 3
MICRO_BATCH = 6
MAX_TRIES = 100  # seeds drawn per case before giving up on a draw that crosses no kink

# one micro expert of every kind; intermediate cases hold three crossnets
CROSSNET = ExpertConfig(kind="crossnet", out_dim=MICRO_OUT, cross_layers=2)
ALL_KINDS = (
    ExpertConfig(kind="dnn", out_dim=MICRO_OUT, hidden=(4,), dnn_out=3),
    ExpertConfig(kind="fm", out_dim=MICRO_OUT),
    CROSSNET,
    ExpertConfig(kind="cin", out_dim=MICRO_OUT, cin_maps=(3, 2)),
)
MODES = ("me", "se")


@dataclass
class SuiteCase:
    name: str
    configs: list[ExpertConfig]
    loss: LossConfig
    seed: int
    mode: str = "me"


def suite_cases() -> list[SuiteCase]:
    """Every (mode, form, location) cell at alpha = 0.7, then BCE alone
    (alpha = 0) per mode; each case is named ``<mode> <form>@<location>``."""
    cells = [
        (mode, LossConfig(form, 0.7, loc)) for mode in MODES for form in PAIR_FORMS for loc in LOSS_LOCATIONS
    ]
    cells += [(mode, LossConfig("corr", 0.0, "output")) for mode in MODES]
    return [
        SuiteCase(
            f"{mode} {loss.form}@{loss.location}" + ("" if loss.active else " (alpha=0)"),
            [CROSSNET] * 3 if loss.location == "intermediate" else list(ALL_KINDS),
            loss,
            seed=11 + i,
            mode=mode,
        )
        for i, (mode, loss) in enumerate(cells)
    ]


def micro_schema() -> DatasetSchema:
    return DatasetSchema(
        fields=tuple(FeatureField(f"f{j}", MICRO_CARD) for j in range(MICRO_FIELDS))
    )


def kink_margin(model, fc) -> float:
    """Smallest |kink site| of a forward pass (``trainer.kink_sites``)."""
    return min(float(np.abs(z).min()) for z in kink_sites(model, fc))


def run_case(case: SuiteCase, h: float = GRADCHECK_H, tol: float = GRADCHECK_TOL) -> GradCheckReport:
    """Gradcheck the case on the first seed whose finite differences
    cross no kink.

    The seed advance looks only at the signs of forward quantities, never
    at the gradient comparison, so a wrong backward pass cannot slip through.
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
        try:
            return gradcheck_model(model, indices, labels, h=h, tol=tol)
        except KinkCrossed:
            continue
    raise RuntimeError(f"no kink-free micro configuration found for {case.name!r}")


def run_suite(h: float = GRADCHECK_H, tol: float = GRADCHECK_TOL) -> list[tuple[str, GradCheckReport]]:
    return [(case.name, run_case(case, h=h, tol=tol)) for case in suite_cases()]
