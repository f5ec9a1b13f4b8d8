"""Dataset schema, CSV ingestion with feature hashing, a synthetic
click-log generator for desk-scale experiments, and the key-value text
parser that its parameter sidecar and every config file share.

File format: UTF-8 CSV, first line header, one label column holding literal
"0"/"1", every other referenced column treated as a categorical token and
hashed into its field's bucket range. Empty cells map to the sentinel token
"__MISSING__" and are hashed like any other token. A row may hold fewer
cells than the header (the rest read as empty) but not more.

Both readers turn each chunk of CSV_CHUNK_ROWS lines into one layout: a
byte buffer and the start and length of every cell of every row. numpy
finds the cells from the chunk's bytes, no Python string per cell, unless
it meets a '"' or a '\r' not followed by '\n'; ``csv.reader``, the only
path that reads quoted cells, parses the header line and, from such a
chunk (or header), the rest of the file. One step turns either's cells
into rows. Then load_table hashes each layout in one FNV-1a pass over its
buffer and load_synthetic_csv folds it into decimal bucket ids.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection, Iterator, NamedTuple, NoReturn

import numpy as np

from .numerics import at_least, finite, sigmoid

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
        if not self.name:
            raise ValueError("field name must not be empty")
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


CSV_CHUNK_ROWS = 4096  # lines held at once while reading, rows while writing


class _Chunk(NamedTuple):
    """The layout of one chunk of data rows: cell j of row i is the UTF-8
    text ``buf[starts[i, j] : starts[i, j] + lengths[i, j]]``, and row i is
    data row ``done + i + 1``, ending on line ``lines[i]``. The cells a short
    row lacks are empty."""

    buf: bytes
    starts: np.ndarray  # (rows, width) int64
    lengths: np.ndarray  # (rows, width) int64
    lines: np.ndarray  # (rows,) int64
    done: int  # data rows before this chunk


def _read_csv(path, schema: DatasetSchema, encode) -> EncodedDataset:
    """Shared body of the two readers: header check, then per chunk the
    label check and one ``encode(buf, starts, lengths, cards)`` over the
    chunk's layout cut to the (rows, fields) cells of the schema's fields.
    It returns their bucket ids, -1 where a cell is not one."""
    index_parts, label_parts = [], []
    with open(path, "rb") as fh:
        try:
            chunks = _chunks(fh)
            try:
                header = next(chunks)
                "".join(header).encode("utf-8")
            except csv.Error as err:
                raise ValueError(f"{err} in the header") from err
            except UnicodeEncodeError as err:
                raise ValueError("invalid UTF-8 in the header") from err
            position = {name: j for j, name in enumerate(header)}
            for col in schema.field_names + [schema.label_column]:
                if col not in position:
                    raise ValueError(f"missing column {col!r}")
                if header.count(col) > 1:
                    raise ValueError(f"column {col!r} appears {header.count(col)} times in the header")
            columns = [position[name] for name in schema.field_names]
            label = position[schema.label_column]
            cards = np.array(schema.cardinalities, dtype=np.int64)
            for chunk in chunks:
                one_byte = chunk.lengths[:, label] == 1
                raw = np.zeros(len(chunk.lines), np.uint8)
                raw[one_byte] = np.frombuffer(chunk.buf, np.uint8).take(chunk.starts[one_byte, label])
                bad = np.flatnonzero((raw != ord("0")) & (raw != ord("1")))
                if bad.size:
                    raise ValueError(f"invalid label at line {chunk.lines[bad[0]]}")
                label_parts.append((raw == ord("1")).astype(np.float64))
                part = encode(chunk.buf, chunk.starts[:, columns], chunk.lengths[:, columns], cards)
                bad = np.argwhere(((part < 0) | (part >= cards)).T)  # field by field
                if bad.size:
                    j, i = bad[0].tolist()
                    start, length = chunk.starts[i, columns[j]], chunk.lengths[i, columns[j]]
                    raise ValueError(
                        f"column {schema.fields[j].name!r}, data row {chunk.done + i + 1} (line "
                        f"{chunk.lines[i]}): {chunk.buf[start : start + length].decode()!r} is not a "
                        f"bucket id in [0, {schema.fields[j].cardinality})"
                    )
                index_parts.append(part)
        except ValueError as err:
            reraise_naming(path, err)
    indices = np.concatenate([np.empty((0, schema.num_fields), np.int64), *index_parts])
    return EncodedDataset(schema, indices, np.concatenate([np.empty(0), *label_parts]))


def _chunks(fh) -> Iterator:
    """Yield the header of a CSV file opened in binary mode, then its data
    rows in chunks of CSV_CHUNK_ROWS lines. ``csv.reader`` parses the header
    line alone, and chunks are tokenised from their bytes up to the first
    that only ``csv.reader`` reads: from there, or from the start if the
    header holds a quote or a '\\r' that does not end it, the rest of the
    file goes through ``csv.reader``."""
    first = fh.readline()
    at = done = line = 0  # where csv.reader starts, and the data rows and lines before it
    if b'"' not in first and b"\r" not in first.removesuffix(b"\r\n"):
        header = next(csv.reader([first.removeprefix(codecs.BOM_UTF8).decode("utf-8", "surrogateescape")]), [])
        yield header
        line = 1
        while True:
            at = fh.tell()
            lines = list(itertools.islice(fh, CSV_CHUNK_ROWS))
            if not lines:
                return
            chunk = _tokenise(b"".join(lines), len(header), done, line)
            if chunk is None:
                break
            yield chunk
            done += len(chunk.lines)
            line += len(lines)
    fh.seek(at)
    # bytes that are not UTF-8 read as lone surrogates, so that their row can be named
    with io.TextIOWrapper(fh, "utf-8" if line else "utf-8-sig", "surrogateescape", newline="") as text:
        reader = csv.reader(text)
        if not line:
            header = next(reader, [])
            yield header
        yield from _reader_chunks(reader, len(header), done, line)


def _tokenise(buf: bytes, width: int, done: int, line: int) -> _Chunk | None:
    """The layout of whole lines, the first of them line ``line + 1``, found
    with numpy: a cell ends at each ',' and each '\\n' (or the '\\r' before
    it), and a line of one empty cell is blank. None if they hold a quote
    or a '\\r' not followed by '\\n', which only ``csv.reader`` reads."""
    if b'"' in buf:
        return None
    if not buf.endswith(b"\n"):
        buf += b"\n"
    data = np.frombuffer(buf, np.uint8)
    crlf = b"\r" in buf
    if crlf and (data.take(np.flatnonzero(data == ord("\r")) + 1) != ord("\n")).any():  # buf ends in '\n'
        return None
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    starts = np.concatenate([[0], ends[:-1] + 1])
    last = np.flatnonzero(data.take(ends) == ord("\n"))  # each line's last cell
    if crlf:
        ends[last] -= data.take(ends[last] - 1) == ord("\r")
    lengths = ends - starts
    counts = np.diff(last, prepend=-1)  # cells per line
    blank = (counts == 1) & (lengths.take(last) == 0)
    if blank.any():
        in_row = np.repeat(~blank, counts)
        starts, lengths = starts[in_row], lengths[in_row]
    kept = np.flatnonzero(~blank)  # the line of each row
    counts, lines = counts.take(kept), line + 1 + kept
    limit = csv.field_size_limit()
    for cell in np.flatnonzero(lengths > limit).tolist():  # its bytes bound its characters
        if len(buf[starts[cell] : starts[cell] + lengths[cell]].decode("utf-8", "surrogateescape")) > limit:
            _bad_cell(cell, counts, lines, done, f"field larger than field limit ({limit})")
    return _layout(buf, starts, lengths, counts, lines, width, done)


def _reader_chunks(reader, width: int, done: int, line: int) -> Iterator[_Chunk]:
    """The layout of each chunk of rows ``reader`` reads, its cells joined
    into one buffer; line ``line + reader.line_num`` is the reader's."""
    while True:
        rows, lines, records = [], [], 0
        try:
            for records, row in enumerate(itertools.islice(reader, CSV_CHUNK_ROWS), 1):
                if row:
                    rows.append(row)
                    lines.append(line + reader.line_num)
        except csv.Error as err:
            _bad_row(done + len(rows) + 1, line + reader.line_num, str(err))
        if records == 0:
            return
        cells = list(itertools.chain.from_iterable(rows))
        text = "".join(cells)
        # a lone surrogate (a byte that is not UTF-8) encodes to three bytes that no
        # decoder takes, where its own byte could form UTF-8 with bytes past a quote
        buf = text.encode("utf-8", "surrogatepass")
        sized = cells if len(buf) == len(text) else [cell.encode("utf-8", "surrogatepass") for cell in cells]
        lengths = np.fromiter(map(len, sized), np.int64, len(cells))
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        yield _layout(buf, np.cumsum(lengths) - lengths, lengths, counts, np.array(lines, np.int64), width, done)
        done += len(rows)


def _layout(
    buf: bytes, starts: np.ndarray, lengths: np.ndarray, counts: np.ndarray, lines: np.ndarray, width: int, done: int
) -> _Chunk:
    """The chunk of rows whose cells, ``counts[i]`` of them in row i, are
    the spans of ``buf`` at ``starts`` of ``lengths`` in order, row i ending
    on line ``lines[i]``. Raise if a row has more than ``width`` cells or
    ``buf`` is not UTF-8; the cells a short row lacks are empty."""
    too_long = np.flatnonzero(counts > width)
    if too_long.size:
        i = too_long[0]
        raise ValueError(f"data row {done + i + 1} (line {lines[i]}) has {counts[i]} cells; the header has {width}")
    if not buf.isascii():
        try:
            buf.decode("utf-8")
        except UnicodeDecodeError as err:  # its first bad byte lies in a cell
            _bad_cell(int(np.searchsorted(starts, err.start, side="right")) - 1, counts, lines, done, "invalid UTF-8")
    if (counts == width).all():
        return _Chunk(buf, starts.reshape(-1, width), lengths.reshape(-1, width), lines, done)
    filled = np.arange(width) < counts[:, None]
    grid = np.zeros((2, len(counts), width), np.int64)
    grid[0][filled], grid[1][filled] = starts, lengths
    return _Chunk(buf, grid[0], grid[1], lines, done)


def _bad_cell(cell: int, counts: np.ndarray, lines: np.ndarray, done: int, reason: str) -> NoReturn:
    """Raise ``reason`` for the row holding cell ``cell`` of a layout."""
    i = int(np.searchsorted(np.cumsum(counts), cell, side="right"))
    _bad_row(done + i + 1, lines[i], reason)


def _bad_row(row: int, line: int, reason: str) -> NoReturn:
    raise ValueError(f"data row {row} (line {line}): {reason}")


def _hash_cells(buf: bytes, starts: np.ndarray, lengths: np.ndarray, cards: np.ndarray) -> np.ndarray:
    """FNV-1a bucket of every cell; an empty cell reads as MISSING_TOKEN,
    which ends the hashed buffer."""
    empty = lengths == 0
    starts = np.where(empty, len(buf), starts)
    lengths = np.where(empty, len(MISSING_TOKEN), lengths)
    return fnv1a_buckets(buf + MISSING_TOKEN.encode(), starts, lengths, cards)


def _longest_first(buf: bytes, starts: np.ndarray, lengths: np.ndarray):
    """The order that sorts the spans ``buf[s : s + n]`` (start s, length n)
    longest first, and a walk over their bytes: for byte position p = 0, 1,
    ... it yields the number k of spans longer than p and the byte at p of
    each of the k leading spans in that order."""
    data = np.frombuffer(buf, np.uint8)
    lengths = np.ravel(lengths)
    order = np.argsort(-lengths)
    at = np.ravel(starts).take(order)  # each span's next byte
    longer = np.searchsorted(-lengths.take(order), -np.arange(lengths.max(initial=0)), side="left")

    def walk():
        for k in longer.tolist():
            yield k, data.take(at[:k])
            at[:k] += 1

    return order, walk()


def fnv1a_buckets(buf: bytes, starts: np.ndarray, lengths: np.ndarray, cardinality) -> np.ndarray:
    """``hash_token(buf[s : s + n], cardinality)`` for every start s and
    length n at once, in wrapping uint64 arithmetic; ``cardinality``
    broadcasts against ``starts``, so each column may take its own.

    The spans are sorted longest first, so byte position p updates only the
    leading spans longer than p.
    """
    at_least("cardinality", int(np.min(cardinality)), 1)
    order, walk = _longest_first(buf, starts, lengths)
    h = np.full(order.size, FNV_OFFSET, dtype=np.uint64)
    for k, byte in walk:
        h[:k] ^= byte
        h[:k] *= np.uint64(FNV_PRIME)
    hashes = np.empty(np.shape(starts), np.uint64)
    hashes.reshape(-1)[order] = h
    return np.remainder(hashes, np.asarray(cardinality, np.uint64), out=hashes).view(np.int64)


def decimal_ids(buf: bytes, starts: np.ndarray, lengths: np.ndarray, cardinality) -> np.ndarray:
    """Every span ``buf[s : s + n]`` read as a decimal bucket id, folded
    over the same longest-first walk as fnv1a_buckets: -1 where a span is
    empty or holds a byte that is not an ASCII digit, and ``cardinality``
    (which broadcasts against ``starts``) where the id is at or past it,
    however many digits it has. Leading zeros read as their value."""
    order, walk = _longest_first(buf, starts, lengths)
    cap = np.broadcast_to(np.asarray(cardinality, np.uint64), np.shape(starts)).ravel().take(order)
    top = (cap + np.uint64(9)) // np.uint64(10)  # from here on, ten times the id is past cap
    ids = np.zeros(order.size, np.uint64)
    digits = np.ravel(lengths).take(order) > 0
    for k, byte in walk:
        byte = byte - np.uint8(ord("0"))  # any other byte wraps past 9
        digits[:k] &= byte <= 9
        ids[:k] = np.minimum(np.minimum(ids[:k], top[:k]) * np.uint64(10) + byte, cap[:k])
    ids = ids.view(np.int64)
    ids[~digits] = -1
    out = np.empty(np.shape(starts), np.int64)
    out.reshape(-1)[order] = ids
    return out


def load_table(path, schema: DatasetSchema) -> EncodedDataset:
    """Read a CSV file and hash every categorical cell into its field range.

    Missing/empty cells become the "__MISSING__" sentinel. The label column
    must hold the literal strings "0" or "1". Row order is preserved.
    """
    return _read_csv(path, schema, _hash_cells)


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
    return _read_csv(path, schema, decimal_ids)


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
    """parse_kv_text over a UTF-8 file, less a leading byte-order mark; errors name the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        reraise_naming(path, ValueError(f"invalid UTF-8 at byte {err.start}"))
    return parse_kv_text(text, known, source=str(path))


def reraise_naming(source, err: ValueError) -> NoReturn:
    """Raise ``err`` again as ``<source>: <reason>``."""
    raise ValueError(f"{source}: {err}") from err


@contextmanager
def naming_key(source: str, key: str):
    """Re-raise a rejected value as ``<source>: key '<key>': <reason>``."""
    try:
        yield
    except ValueError as err:
        reraise_naming(f"{source}: key {key!r}", err)


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


# gen_synthetic's lower bound per argument; two fields is the fewest with a
# pair. A float bound marks a float argument, which must also be finite.
SYNTHETIC_MINIMUM = {"num_fields": 2, "num_rows": 1, "latent_dim": 1, "cardinalities": 1, "seed": 0,
                     "c0": -math.inf, "pair_strength": 0.0, "triple_strength": 0.0}


def check_synthetic(name: str, value):
    """``value`` of gen_synthetic's argument ``name``, raising unless it (or,
    for a list of cardinalities, each entry) is at least its minimum; a
    float argument is returned as a float."""
    least = SYNTHETIC_MINIMUM[name]
    value = finite(name, value) if isinstance(least, float) else value
    at_least(name, min(value) if isinstance(value, list) else value, least)
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
    scalars = dict(num_fields=num_fields, num_rows=num_rows, latent_dim=latent_dim, seed=seed, c0=c0,
                   pair_strength=pair_strength, triple_strength=triple_strength)
    for name, value in scalars.items():
        check_synthetic(name, value)
    if isinstance(cardinalities, int):
        cardinalities = [cardinalities] * num_fields
    check_synthetic("cardinalities", check_field_count(cardinalities, num_fields))
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
    a number, a non-finite c0, u.<f> or v.<f> entry, a count below 1, and a
    u.<f> or v.<f> that does not hold cardinality.<f> rows of its width are
    ValueErrors naming the file and the key."""
    kv = parse_kv_file(path)

    def count(tok: str) -> int:
        return at_least("count", int(tok), 1)

    def numbers(key: str, parse=lambda tok: finite("entry", tok), size: int = 1) -> list:
        """The comma-separated values of ``key``, raising unless there are ``size``."""
        if key not in kv:
            raise ValueError(f"{path}: missing key {key!r}")
        with naming_key(str(path), key):
            values = [parse(tok) for tok in kv[key].split(",")]
            if len(values) != size:
                raise ValueError(f"expected {size} numbers, got {len(values)}")
        return values

    latent_dim = numbers("latent_dim", count)[0]
    params = SyntheticParams(seed=numbers("seed", int)[0], c0=numbers("c0", lambda tok: check_synthetic("c0", tok))[0])
    for j in range(numbers("fields", count)[0]):
        card = numbers(f"cardinality.{j}", count)[0]
        params.u.append(np.array(numbers(f"u.{j}", size=card * latent_dim)).reshape(card, latent_dim))
        params.v.append(np.array(numbers(f"v.{j}", size=card)))
    return params
