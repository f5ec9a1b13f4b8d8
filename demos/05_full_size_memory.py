"""configs/default.cfg at full size: 1M rows per field, float64.

Builds the paper-reference model of configs/default.cfg (six fields of
1,000,000 rows each, one 16-wide table per expert plus the gating table,
two dnn:500-500-500 experts, tower 500), trains one epoch of 50,000
generated rows at the config's batch size and learning rate, then
evaluates on 10,000 more. It prints the milliseconds of each step and the
process's peak resident memory (VmHWM, read from /proc/self/status, so
Linux only).

The three tables alone are 2.3 GB. Adam keeps row-wise moments only for
the rows that have had a gradient, so the run's peak stays far below the
tables plus two dense moment arrays each (about 6.9 GB).

Run:  PYTHONPATH=src python3 demos/05_full_size_memory.py

Needs about 3.5 GB of free memory and takes about 15 seconds.
"""

import time
from pathlib import Path

from moectr.config import RunConfig
from moectr.data import EncodedDataset, gen_synthetic, make_batches
from moectr.model import named_params, param_count
from moectr.optim import Adam
from moectr.trainer import evaluate, train_step

TRAIN_ROWS, VALID_ROWS = 50_000, 10_000


def vm_hwm_mib() -> float:
    """Peak resident set of this process so far, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


cfg = RunConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")
schema = cfg.schema()
model = cfg.build()
tables_mib = sum(arr.nbytes for name, arr in named_params(model) if name.startswith("bank.")) / 2**20
print(f"model: {param_count(model):,} params, embedding tables {tables_mib:,.0f} MiB")

data, _ = gen_synthetic(
    schema.num_fields, [f.cardinality for f in schema.fields], 4, TRAIN_ROWS + VALID_ROWS, seed=0
)
train = EncodedDataset(schema, data.indices[:TRAIN_ROWS], data.labels[:TRAIN_ROWS])
valid = EncodedDataset(schema, data.indices[TRAIN_ROWS:], data.labels[TRAIN_ROWS:])
print(f"after set-up: VmHWM {vm_hwm_mib():,.0f} MiB")

adam = Adam(lr=cfg.train.learning_rate)
params = dict(named_params(model))
for b, batch in enumerate(make_batches(train, cfg.train.batch_size, shuffle_seed=cfg.train.seed)):
    tic = time.perf_counter()
    losses = train_step(model, train.indices.take(batch.rows, axis=0), train.labels.take(batch.rows), adam, params)
    print(f"step {b}: {1000 * (time.perf_counter() - tic):,.0f} ms, objective {losses.total:.4f}")

touched = {key: state.used for key, state in adam.slots.items() if key.startswith("bank.")}
state_mib = sum(state.m.nbytes + state.v.nbytes for state in adam.slots.values()) / 2**20
print(f"rows with moments: {touched}; Adam state {state_mib:,.0f} MiB")
tic = time.perf_counter()
metrics, corr = evaluate(model, valid)
print(f"valid: auc={metrics.auc:.4f} cec_sum={corr.total:.4f} ({time.perf_counter() - tic:.1f} s)")
print(f"VmHWM {vm_hwm_mib():,.0f} MiB")
