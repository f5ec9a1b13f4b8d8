"""Dataset schema, CSV ingestion with feature hashing, a synthetic
click-log generator for desk-scale experiments, and the key-value text
parser that its parameter sidecar and every config file share.

File format: UTF-8 CSV, first line header, one label column holding literal
"0"/"1", every other referenced column treated as a categorical token and
hashed into its field's bucket range. Empty cells map to the sentinel token
"__MISSING__" and are hashed like any other token. A row may hold fewer
cells than the header (the rest read as empty) but not more. Each chunk of
rows is hashed in one FNV-1a pass over a byte buffer of all its cells.
"""

from __future__ import annotations

import csv
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .numerics import at_least, sigmoid

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

MISSING_TOKEN = "__MISSING__"


def hash_token(token: str | bytes, cardinality: int) -> int:
    """FNV-1a 64-bit hash of the token bytes, reduced modulo cardinality.

    Bit-exact across runs and platforms; strings are hashed as UTF-8.
    """
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if isinstance(token, str):
        token = token.encode("utf-8")
    h = FNV_OFFSET
    for b in token:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h % cardinality


@dataclass(frozen=True)
class FeatureField:
    """One categorical column with its hash-bucket count."""

    name: str
    cardinality: int

    def __post_init__(self):
        at_least(f"field {self.name!r}: cardinality", self.cardinality, 1)


@dataclass(frozen=True)
class DatasetSchema:
    fields: tuple[FeatureField, ...]
    label_column: str = "label"

    def __post_init__(self):
        if len(self.fields) == 0:
            raise ValueError("schema needs at least one field")
        names = [f.name for f in self.fields]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ValueError(f"field names must be unique: {repeated[0]!r} repeats")
        if self.label_column in names:
            raise ValueError("label column must be distinct from feature columns")

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    @property
    def cardinalities(self) -> list[int]:
        return [f.cardinality for f in self.fields]

    @property
    def num_fields(self) -> int:
        return len(self.fields)


@dataclass
class EncodedDataset:
    """Hashed samples: indices[i, f] in [0, D_f), labels in {0, 1}."""

    schema: DatasetSchema
    indices: np.ndarray  # (N, F) int64
    labels: np.ndarray  # (N,) float64, values 0.0 / 1.0

    def __post_init__(self):
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.float64)
        if self.indices.ndim != 2 or self.indices.shape[1] != self.schema.num_fields:
            raise ValueError("indices shape does not match schema")
        if self.labels.shape != (self.indices.shape[0],):
            raise ValueError("labels length does not match indices")
        if not np.isin(self.labels, (0.0, 1.0)).all():
            raise ValueError("labels must be 0 or 1")
        cards = np.asarray(self.schema.cardinalities, dtype=np.int64)
        if (self.indices < 0).any() or (self.indices >= cards[None, :]).any():
            raise ValueError("index out of field cardinality range")

    def __len__(self) -> int:
        return self.indices.shape[0]

    def take(self, rows: np.ndarray) -> "EncodedDataset":
        """The dataset's rows ``rows`` (integer row numbers), in that order."""
        return EncodedDataset(self.schema, self.indices.take(rows, axis=0), self.labels.take(rows))


@dataclass
class Batch:
    """Row offsets into an EncodedDataset."""

    rows: np.ndarray  # (B,) int64

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


CSV_CHUNK_ROWS = 4096  # rows held as text at once while reading or writing


def _read_csv(path, schema: DatasetSchema, encode) -> EncodedDataset:
    """Shared body of the two readers: header check, then per chunk of rows
    the row-length and label checks and one ``encode(cells, width, columns,
    cards)``, where ``cells`` holds the chunk's rows one after another,
    ``width`` cells each. It returns the (rows, fields) bucket ids of the
    cells at ``columns``, -1 where a cell is not one.

    Blank lines are skipped, a short row's missing cells read as empty and a
    row longer than the header is an error.
    """
    index_parts, label_parts = [], []
    done = 0  # data rows read before the current chunk
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        width = len(header)
        position = {name: j for j, name in enumerate(header)}
        for col in schema.field_names + [schema.label_column]:
            if col not in position:
                raise ValueError(f"missing column {col!r} in {path}")
            if header.count(col) > 1:
                raise ValueError(
                    f"column {col!r} appears {header.count(col)} times in the header of {path}"
                )
        columns = [position[name] for name in schema.field_names]
        cards = np.array(schema.cardinalities, dtype=np.int64)
        while chunk := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
            rows = [row for row in chunk if row]
            counts = np.fromiter(map(len, rows), np.int64, len(rows))
            if (counts > width).any():
                i = int(np.argmax(counts > width))
                line = _line_of(path, done + i + 1)
                raise ValueError(f"data row {done + i + 1} (line {line}) has {counts[i]} cells; the header has {width}")
            if (counts < width).any():
                rows = [row + [""] * (width - len(row)) for row in rows]
            cells = list(itertools.chain.from_iterable(rows))
            del chunk, rows  # the flat list now holds the chunk's text
            raw = np.array(cells[position[schema.label_column] :: width], dtype=str)
            bad = np.flatnonzero((raw != "0") & (raw != "1"))
            if bad.size:
                raise ValueError(f"invalid label at line {_line_of(path, done + bad[0] + 1)}")
            label_parts.append((raw == "1").astype(np.float64))
            part = encode(cells, width, columns, cards)
            bad = np.argwhere(((part < 0) | (part >= cards)).T)  # field by field
            if bad.size:
                j, i = bad[0].tolist()
                fld, row_no = schema.fields[j], done + i + 1
                raise ValueError(
                    f"column {fld.name!r}, data row {row_no} (line "
                    f"{_line_of(path, row_no)}): {cells[i * width + columns[j]]!r} is not a "
                    f"bucket id in [0, {fld.cardinality})"
                )
            index_parts.append(part)
            done += len(cells) // width
            del cells  # free this chunk's text before the next is read
    indices = np.concatenate([np.empty((0, schema.num_fields), np.int64), *index_parts])
    return EncodedDataset(schema, indices, np.concatenate([np.empty(0), *label_parts]))


def _line_of(path, data_row: int) -> int:
    """Line on which the given 1-based data row ends (for error messages)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = (row for row in itertools.islice(reader, 1, None) if row)
        next(itertools.islice(rows, data_row - 1, None))
        return reader.line_num


def _hash_chunk(cells: list[str], width: int, columns: list[int], cards: np.ndarray) -> np.ndarray:
    """FNV-1a bucket of every referenced cell, hashed in one pass over one
    UTF-8 buffer of all the chunk's cells; an empty cell reads as
    MISSING_TOKEN, which ends the buffer."""
    buf = ("".join(cells) + MISSING_TOKEN).encode("utf-8")
    sized = cells if buf.isascii() else [cell.encode("utf-8") for cell in cells]
    lengths = np.fromiter(map(len, sized), np.int64, len(cells))
    starts = (np.cumsum(lengths) - lengths).reshape(-1, width)[:, columns]
    lengths = lengths.reshape(-1, width)[:, columns]
    empty = lengths == 0
    starts[empty], lengths[empty] = len(buf) - len(MISSING_TOKEN), len(MISSING_TOKEN)
    return fnv1a_buckets(buf, starts, lengths, cards)


def fnv1a_buckets(buf: bytes, starts: np.ndarray, lengths: np.ndarray, cardinality) -> np.ndarray:
    """``hash_token(buf[s : s + n], cardinality)`` for every start s and
    length n at once, in wrapping uint64 arithmetic; ``cardinality``
    broadcasts against ``starts``, so each column may take its own.

    The spans are sorted longest first, so byte position p updates only the
    leading spans longer than p.
    """
    at_least("cardinality", int(np.min(cardinality)), 1)
    data = np.frombuffer(buf, np.uint8)
    lengths = np.ravel(lengths)
    order = np.argsort(-lengths)
    at = np.ravel(starts).take(order)  # each span's next byte
    longer = np.searchsorted(-lengths.take(order), -np.arange(lengths.max(initial=0)), side="left")
    h = np.full(lengths.size, FNV_OFFSET, dtype=np.uint64)
    for k in longer.tolist():
        h[:k] ^= data.take(at[:k])
        h[:k] *= np.uint64(FNV_PRIME)
        at[:k] += 1
    hashes = np.empty(np.shape(starts), np.uint64)
    hashes.reshape(-1)[order] = h
    return np.remainder(hashes, np.asarray(cardinality, np.uint64), out=hashes).view(np.int64)


def _bucket_cells(cells: list[str], width: int, columns: list[int], cards: np.ndarray) -> np.ndarray:
    """Cells taken as literal bucket ids, column by column: a cell is one
    only if it is a run of ASCII digits. Any other cell reads as -1, an id
    past int64 as its column's cardinality."""
    part = np.empty((len(cells) // width, len(columns)), np.int64)
    for j, column in enumerate(cells[c::width] for c in columns):
        joined = "".join(column)
        # on ASCII text bytes.isdigit gives str.isdigit's answer, ten times faster
        if joined.isascii() and joined.encode().isdigit():
            try:  # fails on an empty cell or an id past int64
                part[:, j] = np.fromiter(map(int, column), np.int64, len(column))
                continue
            except (ValueError, OverflowError):
                pass
        part[:, j] = [min(int(c), cards[j]) if c.isascii() and c.isdigit() else -1 for c in column]
    return part


def load_table(path, schema: DatasetSchema) -> EncodedDataset:
    """Read a CSV file and hash every categorical cell into its field range.

    Missing/empty cells become the "__MISSING__" sentinel. The label column
    must hold the literal strings "0" or "1". Row order is preserved.
    """
    return _read_csv(path, schema, _hash_chunk)


def save_table(ds: EncodedDataset, path) -> None:
    """Write hashed indices back out as CSV (tokens are the bucket ids).

    Loading such a file with cardinality D_f >= max bucket id does not
    reproduce the ids (they get re-hashed); this writer exists so synthetic
    datasets round-trip through the same CSV interface as real logs. Use
    load_synthetic_csv to read files written here.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.field_names + [ds.schema.label_column])
        for i in range(0, len(ds), CSV_CHUNK_ROWS):
            block = slice(i, i + CSV_CHUNK_ROWS)
            writer.writerows(np.column_stack([ds.indices[block], ds.labels[block].astype(np.int64)]).tolist())


def load_synthetic_csv(path, schema: DatasetSchema) -> EncodedDataset:
    """Read a CSV written by save_table, taking cells as literal bucket ids."""
    return _read_csv(path, schema, _bucket_cells)


def check_split(fractions) -> tuple[float, float, float]:
    """The train/valid/test fractions as a 3-tuple; raise unless there are
    three, each positive, summing to at most 1."""
    if len(fractions) != 3:
        raise ValueError("split needs three fractions")
    tr, va, te = fractions
    if not (tr > 0 and va > 0 and te > 0):  # a nan compares false
        raise ValueError(f"fractions must be positive, got {tr!r}, {va!r}, {te!r}")
    if tr + va + te > 1.0 + 1e-9:
        raise ValueError("fractions exceed 1")
    return tr, va, te


def split_dataset(
    ds: EncodedDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[EncodedDataset, EncodedDataset, EncodedDataset]:
    """Deterministic shuffle then contiguous train/valid/test assignment.

    Sizes are floor(N * fraction) for each split; leftover rows go to train.
    The shuffle is ``np.random.default_rng(seed).permutation(N)`` and the
    permuted order is cut as [train | valid | test].
    """
    tr, va, te = check_split(fractions)
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    n_tr = math.floor(n * tr)
    n_va = math.floor(n * va)
    n_te = math.floor(n * te)
    n_tr += n - (n_tr + n_va + n_te)  # remainder to train
    a, b = n_tr, n_tr + n_va
    return ds.take(perm[:a]), ds.take(perm[a:b]), ds.take(perm[b : b + n_te])


def make_batches(
    ds: EncodedDataset, batch_size: int, shuffle_seed: int | None = None
) -> list[Batch]:
    """Cut the dataset into batches covering every row exactly once.

    All batches have the requested size except possibly the last. With a
    shuffle seed the row order is a deterministic permutation.
    """
    at_least("batch_size", batch_size, 1)
    n = len(ds)
    order = np.arange(n, dtype=np.int64)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    return [Batch(order[i : i + batch_size]) for i in range(0, n, batch_size)]


def parse_kv_text(text: str, known: Collection[str] | None = None, source: str = "config") -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment and blank lines
    are skipped. A repeated key is an error naming both lines, and with
    ``known`` given, so is any other key. Errors read ``<source> line N: ...``."""
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
    with open(path, encoding="utf-8-sig") as fh:
        return parse_kv_text(fh.read(), known, source=str(path))


@contextmanager
def naming_key(source: str, key: str):
    """Re-raise a rejected value as ``<source>: key '<key>': <reason>``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{source}: key {key!r}: {err}") from err


@dataclass
class SyntheticParams:
    """Ground-truth generator parameters, persisted for oracle computations.

    The click logit mixes two interaction mechanisms so that parallel
    experts have genuinely different patterns to specialize on:
      - pairwise:  sum over field pairs of <U[x_i], U[x_j]>
      - triple:    sum over field triples of V[x_i] * V[x_j] * V[x_k]
    """

    seed: int
    c0: float
    u: list[np.ndarray] = field(default_factory=list)  # field f: (D_f, d_u)
    v: list[np.ndarray] = field(default_factory=list)  # field f: (D_f,)

    def logits(self, indices: np.ndarray) -> np.ndarray:
        """True log-odds for each sample row of hashed feature ids."""
        n, f = indices.shape
        uvec = np.stack(
            [self.u[j].take(indices[:, j], axis=0) for j in range(f)], axis=1
        )  # (N, F, d_u)
        total = uvec.sum(axis=1)  # (N, d_u)
        pair = 0.5 * ((total**2).sum(axis=1) - (uvec**2).sum(axis=(1, 2)))
        vval = np.stack([self.v[j].take(indices[:, j]) for j in range(f)], axis=1)  # (N, F)
        p1 = vval.sum(axis=1)
        p2 = (vval**2).sum(axis=1)
        p3 = (vval**3).sum(axis=1)
        triple = (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0
        return self.c0 + pair + triple


# gen_synthetic's lower bound per argument; two fields is the fewest with a pair
SYNTHETIC_MINIMUM = {"num_fields": 2, "num_rows": 1, "latent_dim": 1, "cardinalities": 1}


def check_synthetic(name: str, value):
    """``value`` of gen_synthetic's argument ``name``, raising unless it (or,
    for a list of cardinalities, each entry) is at least its minimum."""
    at_least(name, min(value) if isinstance(value, list) else value, SYNTHETIC_MINIMUM[name])
    return value


def check_field_count(cardinalities: list[int], num_fields: int) -> list[int]:
    """``cardinalities``, raising unless it holds one value per field."""
    if len(cardinalities) != num_fields:
        raise ValueError(f"{len(cardinalities)} values for {num_fields} fields")
    return cardinalities


def gen_synthetic(
    num_fields: int,
    cardinalities: list[int] | int,
    latent_dim: int,
    num_rows: int,
    seed: int,
    c0: float = 0.0,
    pair_strength: float = 1.0,
    triple_strength: float = 1.0,
) -> tuple[EncodedDataset, SyntheticParams]:
    """Draw a synthetic CTR dataset with two latent interaction mechanisms.

    Feature ids are uniform per field; labels are Bernoulli in the sigmoid
    of the SyntheticParams logit. Latent tables are scaled so the pairwise
    mechanism contributes logit std ~= pair_strength and the triple
    mechanism ~= triple_strength. Fully deterministic given the seed
    (fixed draw order: U tables, V tables, ids, label noise).
    """
    check_synthetic("num_fields", num_fields)
    check_synthetic("num_rows", num_rows)
    if isinstance(cardinalities, int):
        cardinalities = [cardinalities] * num_fields
    check_field_count(cardinalities, num_fields)
    check_synthetic("latent_dim", latent_dim)
    check_synthetic("cardinalities", cardinalities)
    rng = np.random.default_rng(seed)
    n_pairs = num_fields * (num_fields - 1) // 2
    n_triples = num_fields * (num_fields - 1) * (num_fields - 2) // 6
    u_scale = pair_strength**0.5 * (n_pairs * latent_dim) ** -0.25
    v_scale = (
        triple_strength ** (1.0 / 3.0) * n_triples ** (-1.0 / 6.0)
        if n_triples > 0
        else 0.0
    )
    params = SyntheticParams(seed=seed, c0=c0)
    for card in cardinalities:
        params.u.append(rng.normal(0.0, u_scale, size=(card, latent_dim)))
    for card in cardinalities:
        params.v.append(rng.normal(0.0, v_scale, size=card))
    indices = np.empty((num_rows, num_fields), dtype=np.int64)
    for j, card in enumerate(cardinalities):
        indices[:, j] = rng.integers(0, card, size=num_rows)
    probs = sigmoid(params.logits(indices))
    labels = (rng.random(num_rows) < probs).astype(np.float64)
    schema = DatasetSchema(
        fields=tuple(
            FeatureField(f"f{j}", card) for j, card in enumerate(cardinalities)
        ),
        label_column="label",
    )
    return EncodedDataset(schema, indices, labels), params


def save_synthetic_params(params: SyntheticParams, path) -> None:
    """Persist generator parameters as documented key-value text.

    Keys: seed, c0, fields, latent_dim, cardinality.<f>, u.<f> (row-major
    comma floats), v.<f>. Floats use %.17g so they round-trip exactly.
    """
    lines = [
        "# synthetic generator parameters",
        f"seed = {params.seed}",
        f"c0 = {params.c0!r}",
        f"fields = {len(params.u)}",
        f"latent_dim = {params.u[0].shape[1]}",
    ]
    for j, (u, v) in enumerate(zip(params.u, params.v)):
        lines.append(f"cardinality.{j} = {u.shape[0]}")
        lines.append(f"u.{j} = " + ",".join("%.17g" % x for x in u.ravel()))
        lines.append(f"v.{j} = " + ",".join("%.17g" % x for x in v.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_synthetic_params(path) -> SyntheticParams:
    """Inverse of save_synthetic_params. A missing key, a value that is not
    a number, a count below 1, and a u.<f> or v.<f> that does not hold
    cardinality.<f> rows of its width are ValueErrors naming the file and
    the key."""
    kv = parse_kv_file(path)

    def count(tok: str) -> int:
        return at_least("count", int(tok), 1)

    def numbers(key: str, parse=float, size: int = 1) -> list:
        """The comma-separated values of ``key``, raising unless there are ``size``."""
        if key not in kv:
            raise ValueError(f"{path}: missing key {key!r}")
        with naming_key(str(path), key):
            values = [parse(tok) for tok in kv[key].split(",")]
            if len(values) != size:
                raise ValueError(f"expected {size} numbers, got {len(values)}")
        return values

    latent_dim = numbers("latent_dim", count)[0]
    params = SyntheticParams(seed=numbers("seed", int)[0], c0=numbers("c0")[0])
    for j in range(numbers("fields", count)[0]):
        card = numbers(f"cardinality.{j}", count)[0]
        params.u.append(np.array(numbers(f"u.{j}", float, card * latent_dim)).reshape(card, latent_dim))
        params.v.append(np.array(numbers(f"v.{j}", float, card)))
    return params
