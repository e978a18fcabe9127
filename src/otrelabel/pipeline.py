"""Data ingestion, the in-memory run :func:`repair`, and the file run
:func:`run_pipeline` (ingest, :func:`repair`, report artifacts).  The
theory suite runs in :mod:`otrelabel.synthetic`, whose artifacts are
written here; the labeling-function banks live in :mod:`otrelabel.lfbank`,
whose raw tables are read here (:func:`read_raw_csv`).

File formats
------------
Features CSV: UTF-8, header row, comma-separated, ``.`` decimal.  Any
number of numeric feature columns (finite numbers, in any spelling
Python's ``float`` accepts), one group column with values ``0``/``1``,
and an optional label column with values ``-1``/``1``/``+1``; no name
appears twice.

Votes CSV: header exactly ``lf_0,...,lf_{m-1}``, values ``-1``, ``0``,
``1`` or ``+1``, row-aligned with the features CSV.

Both: an optional UTF-8 BOM, LF, CRLF or CR line ends, csv quoting, and
whitespace around any cell or header name.  Every row has the header's
width and no line is blank.  Each CSV is opened once and read in blocks
of whole lines, every byte hashed as it is read, so a run digests the
bytes it parsed: features blocks of about ``core.ROW_BLOCK_BYTES``, votes
blocks of 1/16 of that, since the votes' byte pass holds up to 16
temporary bytes an input byte.  Plain files (ASCII body, no quotes,
canonical spellings, as :func:`write_votes_csv` writes) are parsed block
by block, a byte pass for votes, numpy's C reader plus a spelling check
for features, into an output that grows in place; any other file, or one
with a block that is not plain, is read again from its start through
the same handle and takes an exact cell-by-cell pass that reports each
bad cell on its own line, up to ``MAX_CELL_ERRORS`` lines plus a count
of the rest.

Config file: flat ``key=value`` lines (``#`` starts a comment).  The
accepted keys are the field names of :class:`PipelineConfig`; each value
is parsed by its field's annotation.

All artifacts are written atomically (temp file then rename), and a rerun
with identical inputs and config produces byte-identical data
artifacts; only the manifest's timestamp and stage timings vary, and both
are excluded from the manifest digest.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import logging
import os
import stat
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from typing import (
    BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, Union)

import numpy as np
import scipy

from . import __version__, core
from .core import (
    MAX_CELL_ERRORS,
    GroupedDataset,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    _unchecked,
    _workers,
    cell_error,
    fields_dict,
    row_blocks,
    validate_dataset,
)
from .estimate import per_group_accuracies, triplet_accuracies
from .labelmodel import (
    EndModel, fit_label_model, infer_pseudolabels, predict, train_end_model)
from .metrics import fairness_report, lf_delta_report
from .transport import RelabelResult, sbm_transport

logger = logging.getLogger("otrelabel")


# ---------------------------------------------------------------------------
# configuration


_PARSE_BY_TYPE: dict[str, Callable[[str], object]] = {
    "int": int, "float": float, "str": str}
_FIELD_PARSERS = {
    f.name: _PARSE_BY_TYPE[f.type] for f in fields(PipelineConfig)}


def parse_config_value(key: str, text: str) -> object:
    """Parse ``text`` as a value of the PipelineConfig field ``key``.

    Raises KeyError for an unknown key and ValueError for a value that
    does not parse; callers say where the value came from.
    """
    return _FIELD_PARSERS[key](text)


def parse_config_text(text: str) -> dict:
    """Parse flat key=value config text into a keyword dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = parse_config_value(key, value)
        except ValueError as exc:
            raise ValidationError(
                f"config line {lineno}: bad value {value!r} for {key}") from exc
    return out


# ---------------------------------------------------------------------------
# input reading and CSV ingestion

_GROUPS = {"0": 0, "1": 1}
_LABELS = {"-1": -1, "1": 1, "+1": 1}
_VOTES = {"-1": -1, "0": 0, "1": 1, "+1": 1}
# the vote each byte spells in _plain_votes ("-" stands for -1); 2: none
_BYTE_VOTE = np.array([{45: -1, 48: 0, 49: 1}.get(b, 2) for b in range(256)],
                      np.int8)


@contextmanager
def _read(path: str) -> Iterator[BinaryIO]:
    """The input file ``path`` open for reading bytes: the one place an
    input is opened.  Anything but a regular file is refused before it is
    opened, so a FIFO fails instead of blocking and a loader can go back to
    the file's start.  An error opening or reading it is an input error."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValidationError(f"{path}: not a regular file")
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc


def _line_blocks(fh: BinaryIO, sha, row_bytes: int) -> Iterator[bytes]:
    """The open file ``fh``'s first line, then the rest of it in blocks of
    whole lines of about ROW_BLOCK_BYTES // ``row_bytes`` bytes, ``row_bytes``
    being a parse's temporary bytes per input byte (a longer line is a block
    of its own), each fed to the hash ``sha`` as it is read.  Only the last
    block can lack a line end."""
    # read(n) allocates n bytes before it reads
    step = max(1, min(core.ROW_BLOCK_BYTES // row_bytes,
                      os.fstat(fh.fileno()).st_size))
    block = fh.readline()
    while block:
        sha.update(block)
        yield block
        start = fh.tell()  # the block ends with the line of its step-th byte
        end = fh.seek(step - 1, os.SEEK_CUR) + len(fh.readline())
        fh.seek(start)
        block = fh.read(end - start)  # one read, and no copy to complete it


def _load(path: str, role: str, digests: Optional[dict[str, str]],
          row_bytes: int, plain: Callable, exact: Callable):
    """What the input file ``path`` holds, parsed from one open handle.

    When its first line is a plain header (:func:`_plain_header`) and a body
    follows, ``plain(header, blocks)`` gets the header's names and an
    iterator over the body's blocks of lines, cut for ``row_bytes``
    temporary bytes per input byte (:func:`_line_blocks`).  When it returns
    None (for a block or header that is not plain) or is not called, the
    file is read again from its start and ``exact(header, rows)`` gets what
    :func:`_read_rows` reads from all of it, so every error is the exact
    pass's.  The SHA-256 of the bytes the value was parsed from joins
    ``digests``, if given, under ``role``.
    """
    sha = hashlib.sha256()
    with _read(path) as fh:
        blocks = _line_blocks(fh, sha, row_bytes)
        header = _plain_header(next(blocks, b""))
        start = next(blocks, b"") if header else b""
        value = plain(header, chain([start], blocks)) if start else None
        if value is None:
            fh.seek(0)
            data = fh.read()
            sha = hashlib.sha256(data)
    if value is None:
        header, rows = _read_rows(path, data)
        del data  # the rows hold the text
        value = exact(header, rows)
    if digests is not None:
        digests[role] = sha.hexdigest()
    return value


def _decode(path: str, data: bytes) -> str:
    """The input file ``path``'s bytes ``data`` as UTF-8 text, without a
    leading BOM; a byte that is not UTF-8 is named by its offset."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: byte {exc.start} (0x{data[exc.start]:02x}) is not "
            f"UTF-8: {exc.reason}") from None


def read_text(path: str) -> str:
    """The text of the UTF-8 input file ``path``, without a leading BOM."""
    with _read(path) as fh:
        data = fh.read()
    return _decode(path, data)


def _read_rows(path: str, data: bytes) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(_decode(path, data), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: file is empty") from None
    rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return [h.strip() for h in header], rows


def _require_width(path: str, header: list[str],
                   rows: list[list[str]]) -> list[list[str]]:
    """``rows`` once each has the header's width.  Callers check the header
    first, so a file's first fault is the same in every framing."""
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {i} has {len(row)} fields, "
                                  f"expected {len(header)}")
    return rows


def _require_unique(path: str, header: list[str]) -> None:
    repeated = [name for name, n in Counter(header).items() if n > 1]
    if repeated:
        raise ValidationError(f"{path}: duplicate column names "
                              f"{', '.join(map(repr, repeated))}")


def _plain_header(line: bytes) -> Optional[list[str]]:
    """The stripped names of a file's first line if it is plain: an
    optional BOM, then UTF-8 text with no quote and no CR, then an LF or
    CRLF line end; else None.  ``csv`` splits such a line at ","."""
    text = line.removeprefix(codecs.BOM_UTF8)
    if not text.endswith(b"\n"):
        return None
    text = text[:-1].removesuffix(b"\r")
    if not text or b'"' in text or b"\r" in text:
        return None
    try:
        return [h.strip() for h in text.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None


def _plain_bytes(data: bytes) -> bool:
    """Whether a block of body lines can be read in place: its first line
    is not blank, and it holds no quote, no CR but before an LF and only
    ASCII bytes."""
    return (data[:1] not in (b"", b"\n", b"\r") and b'"' not in data
            and (b"\r" not in data
                 or data.count(b"\r") == data.count(b"\r\n"))
            and np.frombuffer(data, np.uint8).max() <= 127)


def _plain_table(data: bytes, header: list[str], features: list[str],
                 text: list[str]) -> Optional[np.ndarray]:
    """The rows of a plain block of body lines ``data``, as numpy's C
    reader parses them in one call, else None: field ``x`` holds the float
    ``features``, fields ``group`` and ``label`` the ``text`` cells, each
    spelled as the exact pass reads it, and every feature is finite.  ``S3``
    is longer than any accepted spelling, so a truncated cell never passes;
    ``csv`` and ``float`` read such a block alike."""
    if not _plain_bytes(data):
        return None
    dtype = [("x", np.float64, (len(features),))] + [
        (role, "S3") for role in ("group", "label")[:len(text)]]
    try:
        table = np.loadtxt(io.BytesIO(data),  # shares the bytes
                           dtype, delimiter=",", comments=None, ndmin=1,
                           encoding="ascii",
                           usecols=[header.index(h) for h in features + text])
    except ValueError:
        return None
    n_lines = data.count(b"\n") + (not data.endswith(b"\n"))
    # numpy skips blank lines, and cells past a line's last column; it
    # reads any text into the group and label fields
    return table if len(table) == n_lines \
        and data.count(b",") == n_lines * (len(header) - 1) \
        and np.isfinite(table["x"]).all() \
        and np.isin(table["group"], np.array([*_GROUPS], "S3")).all() \
        and (len(text) == 1
             or np.isin(table["label"], np.array([*_LABELS], "S3")).all()) \
        else None


def _plain_votes(data: bytes, m: int) -> Optional[np.ndarray]:
    """The n x m votes of a plain block of body lines ``data`` whose every
    cell is ``-1``, ``0`` or ``1`` then its column's separator, else None:
    once every ``-`` is seen to precede a ``1``, dropping those ``1`` bytes
    leaves one byte per cell.  Its blocks are 1/16 of ROW_BLOCK_BYTES, as
    it holds at most 16 temporary bytes a byte: 8 the lookup's index, 1 a
    CRLF copy."""
    if not _plain_bytes(data):
        return None
    a = np.frombuffer(data, np.uint8)
    if b"\r" in data:
        a = a[a != ord("\r")]  # CRLF: each \r precedes a \n
    if a[-1] != ord("\n"):  # the last line, without its line end
        a = np.append(a, np.uint8(ord("\n")))
    minus = a[:-1] == ord("-")
    cells = a[np.concatenate(([True], ~minus))]  # never empty: ends in \n
    if (minus & (a[1:] != ord("1"))).any() or len(cells) % (2 * m):
        return None  # "-0" too, which the exact pass reports
    cells = cells.reshape(-1, m, 2)
    sep = np.frombuffer(b"," * (m - 1) + b"\n", np.uint8)
    if (cells[..., 1] != sep).any():
        return None
    votes = np.take(_BYTE_VOTE, cells[..., 0])
    return None if (votes > 1).any() else votes


def _parse_cells(path: str, rows: list[list[str]], columns: list[tuple],
                 dtype) -> np.ndarray:
    """The exact pass: parse stripped cells one at a time into one output
    column per ``(index, parse, message)`` in ``columns``.

    ``parse`` raises ValueError or KeyError on a bad cell.  Bad cells are
    reported in row-major order, one line each ending in the cell's repr;
    past MAX_CELL_ERRORS of them the rest are only counted
    (:func:`core.cell_error`).
    """
    out = np.empty((len(rows), len(columns)), dtype=dtype)
    lines: list[str] = []
    n_bad = 0
    for r, row in enumerate(rows):
        for c, (i, parse, message) in enumerate(columns):
            cell = row[i].strip()
            try:
                out[r, c] = parse(cell)
            except (ValueError, KeyError):
                n_bad += 1
                if n_bad <= MAX_CELL_ERRORS:
                    lines.append(f"{path}: row {r + 2}{message}{cell!r}")
    if n_bad:
        raise cell_error(lines, n_bad)
    return out


def _append(out: np.ndarray, rows: np.ndarray) -> None:
    """Append ``rows`` to ``out`` in place: its buffer grows by a realloc,
    so a loader never holds its output twice.  No view of ``out`` may
    exist, as numpy cannot check that when the caller holds a reference."""
    n = len(out)
    out.resize((n + len(rows),) + out.shape[1:], refcheck=False)
    out[n:] = rows


def load_features_csv(
    path: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
    *,
    digests: Optional[dict[str, str]] = None,
) -> GroupedDataset:
    """Parse a features CSV into a GroupedDataset, preserving row order.

    ``label_col`` is optional in the file; when present it must contain
    -1/1.  Errors carry 1-based row numbers (the header is row 1) and
    column names, one line per bad cell.  The SHA-256 of the bytes parsed
    joins ``digests``, if given, under ``"features"``.
    """
    def roles(header):
        """The feature columns and the text ones (the group column, then
        any label column) of a header that names each column once."""
        _require_unique(path, header)
        if group_col not in header:
            raise ValidationError(
                f"{path}: missing group column {group_col!r}")
        text = [group_col] + ([label_col] if label_col in header else [])
        names = [h for h in header if h not in text]
        if not names:
            raise ValidationError(f"{path}: no feature columns")
        return names, text

    def plain(header, blocks):
        try:
            names, text = roles(header)
        except ValidationError:
            return None  # the exact pass reports it after any fault before
        features = np.empty((0, len(names)))
        groups = np.empty(0, np.int64)
        labels = np.empty(0, np.int64) if len(text) == 2 else None
        for block in blocks:
            table = _plain_table(block, header, names, text)
            if table is None:
                return None
            _append(features, table["x"])
            _append(groups, table["group"] == b"1")
            if labels is not None:
                _append(labels, np.where(table["label"] == b"-1", -1, 1))
        for values in (features, groups, labels):
            if values is not None:
                values.setflags(write=False)
        # every value is checked, and a GroupedDataset's copy would hold
        # the features twice
        return _unchecked(GroupedDataset, features=features, groups=groups,
                          labels=labels)

    def exact(header, rows):
        names, text = roles(header)
        col_idx = {h: i for i, h in enumerate(header)}
        columns = [(col_idx[name], float,
                    f", column {name!r}: non-numeric value ")
                   for name in names]
        columns.append((col_idx[group_col], _GROUPS.__getitem__,
                        ": unknown group value "))
        if len(text) == 2:
            columns.append((col_idx[label_col], _LABELS.__getitem__,
                            ": label must be -1 or 1, got "))
        values = _parse_cells(path, _require_width(path, header, rows),
                              columns, np.float64)
        d = len(names)
        features = values[:, :d]
        bad = np.argwhere(~np.isfinite(features))
        if len(bad):
            raise cell_error([f"{path}: row {r + 2}, column {names[c]!r}: "
                              f"non-finite value {features[r, c]}"
                              for r, c in bad[:MAX_CELL_ERRORS]], len(bad))
        return GroupedDataset(features, values[:, d],
                              values[:, d + 1] if len(text) == 2 else None)

    return _load(path, "features", digests, 1, plain, exact)


def load_votes_csv(
    path: str, *, digests: Optional[dict[str, str]] = None,
) -> WeakLabelMatrix:
    """Parse a votes CSV (header lf_0..lf_{m-1}, values in {-1, 0, 1}).
    The SHA-256 of the bytes parsed joins ``digests``, if given, under
    ``"votes"``."""
    def names(m):
        return [f"lf_{j}" for j in range(m)]

    def plain(header, blocks):
        if header != names(len(header)):
            return None  # as in load_features_csv
        votes = np.empty((0, len(header)), np.int8)
        for block in blocks:
            cells = _plain_votes(block, len(header))
            if cells is None:
                return None
            _append(votes, cells)
        votes.setflags(write=False)
        return _unchecked(WeakLabelMatrix, votes=votes)

    def exact(header, rows):
        if header != names(len(header)):
            raise ValidationError(
                f"{path}: votes header must be {','.join(names(len(header)))}")
        columns = [(c, _VOTES.__getitem__, f", lf_{c}: illegal vote ")
                   for c in range(len(header))]
        return WeakLabelMatrix(_parse_cells(
            path, _require_width(path, header, rows), columns, np.int8))

    return _load(path, "votes", digests, 16, plain, exact)


def read_raw_csv(path: str) -> dict[str, list[str]]:
    """Read a raw (possibly non-numeric) CSV into column -> string values."""
    with _read(path) as fh:
        data = fh.read()
    header, rows = _read_rows(path, data)
    _require_unique(path, header)
    _require_width(path, header, rows)
    return {name: [row[i].strip() for row in rows]
            for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# artifact writing


def _atomic_write(path: str, content: Union[str, Iterable[bytes]]) -> None:
    """Write ``content``, text or UTF-8 byte chunks, to ``path`` through a
    temporary file in its directory: the one place a file is written.  An
    unwritable path is an input error."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines([content.encode()] if isinstance(content, str)
                              else content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> None:
    """Rows of string cells, comma-joined and unquoted (every cell is a
    number's text or a header name)."""
    _atomic_write(path, "".join(
        ",".join(row) + "\n" for row in (header, *rows)))


def write_votes_csv(wl: WeakLabelMatrix, path: str) -> None:
    """Write the votes in row blocks through a token lookup, byte-identical
    to ``csv.writer``; numpy pads the two-byte tokens with NUL bytes."""
    def chunks():
        yield (",".join(f"lf_{j}" for j in range(wl.m)) + "\n").encode()
        # 9 bytes a cell: the padded tokens, their bytes and those unpadded;
        # the tokens are indexed by the vote itself, so -1 reads the last
        for rows in row_blocks(wl.n, 9 * wl.m):
            cells = np.take(np.array([b"0,", b"1,", b"-1,"]), wl.votes[rows])
            cells[:, -1] = np.take(np.array([b"0\n", b"1\n", b"-1\n"]),
                                   wl.votes[rows, -1])
            yield cells.tobytes().replace(b"\0", b"")
    _atomic_write(path, chunks())


def _write_pseudolabels(path: str, probs: np.ndarray,
                        hard: np.ndarray) -> None:
    """The ``_write_csv`` bytes of ``repr(prob),str(label)`` rows, built in
    row blocks with one ``repr`` per distinct probability of the block (by
    bits: -0.0 stays)."""
    ends = {label: f",{label}\n" for label in np.unique(hard).tolist()}

    def chunks():
        yield b"prob,label\n"
        # a row holds about 128 bytes of Python strings and ints
        for rows in row_blocks(len(probs), 128):
            bits, row_of = np.unique(probs[rows].view(np.int64),
                                     return_inverse=True)
            text = list(map(repr, bits.view(np.float64).tolist()))
            yield "".join([text[i] + ends[label] for i, label in zip(
                row_of.tolist(), hard[rows].tolist())]).encode()
    _atomic_write(path, chunks())


def write_json(obj, path: str) -> None:
    """Indented, key-sorted JSON of ``obj``, each non-JSON object in it as
    its ``to_dict()`` (NaN fields as ``null``); any other NaN is refused."""
    _atomic_write(path, json.dumps(
        obj, indent=2, sort_keys=True, allow_nan=False,
        default=lambda report: report.to_dict()) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one pipeline run.

    The digest covers config, run options, input digests keyed by role
    and version only, so it depends on content, not on the input paths,
    timings, the timestamp or the numeric environment (numpy and scipy
    versions, CPUs in the affinity set), which are informational.
    :func:`run_pipeline` fills the input digests and the timings in as its
    stages finish.
    """

    config: dict
    options: dict
    input_paths: dict[str, str]
    input_digests: dict[str, str]
    stage_timings_ms: dict[str, float]
    version: str
    created_unix: float
    failed_stage: Optional[str] = None
    environment: dict = field(default_factory=lambda: {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "cpus": _workers()})

    def digest(self) -> str:
        stable = json.dumps(
            {"config": self.config, "options": self.options,
             "inputs": self.input_digests, "version": self.version},
            sort_keys=True)
        return hashlib.sha256(stable.encode()).hexdigest()

    def to_dict(self) -> dict:
        """The manifest's fields by name, plus its ``digest``."""
        return fields_dict(self) | {"digest": self.digest()}


# ---------------------------------------------------------------------------
# pipeline

STAGES = ("ingest", "estimate", "transport", "label_model", "end_model",
          "reports")  # the manifest's stage names, in run order


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Record the block's elapsed ms in ``timings[stage]`` unless it raises."""
    started = time.perf_counter()
    yield
    timings[stage] = (time.perf_counter() - started) * 1000.0


@dataclass(frozen=True, eq=False)
class RunResult:
    """What a run's stages computed.  ``group_acc`` and ``relabel`` are
    None in a passthrough run."""

    group_acc: Optional[np.ndarray]
    relabel: Optional[RelabelResult]
    repaired: WeakLabelMatrix
    global_acc: np.ndarray
    probs: np.ndarray
    hard: np.ndarray
    end_model: EndModel
    end_preds: np.ndarray


def repair(ds: GroupedDataset, wl: WeakLabelMatrix, cfg: PipelineConfig,
           passthrough: bool = False,
           timings: Optional[dict[str, float]] = None) -> RunResult:
    """Run estimate -> transport -> label model -> end model on arrays.

    Precondition: ``validate_dataset(ds, wl)`` has passed; ``repair`` does
    not run it again, though the public ``per_group_accuracies`` and
    ``sbm_transport`` each do.  The stages read ``ds.without_labels()``:
    gold labels never steer a run.  The input votes' per-group accuracies
    pick each LF's transport direction, and the repaired votes' global
    accuracies weight the posterior; ``passthrough=True`` skips the first
    two stages (the plain weak-supervision baseline).  Each stage's elapsed
    ms join ``timings`` under its :data:`STAGES` name once it finishes.
    """
    timings = {} if timings is None else timings
    blind = ds.without_labels()
    with _timed(timings, "estimate"):
        group_acc = None if passthrough else per_group_accuracies(wl, blind)
    with _timed(timings, "transport"):
        relabel = None if passthrough else sbm_transport(
            blind, wl, group_acc, cfg)
        repaired = wl if passthrough else relabel.new_votes
    with _timed(timings, "label_model"):
        global_acc = triplet_accuracies(repaired)[0]
        probs, hard = infer_pseudolabels(fit_label_model(global_acc), repaired)
    with _timed(timings, "end_model"):
        end_model = train_end_model(blind.features, probs)
        _, end_preds = predict(end_model, blind.features)
    return RunResult(group_acc, relabel, repaired, global_acc, probs, hard,
                     end_model, end_preds)


def run_pipeline(
    cfg: PipelineConfig,
    features_path: str,
    votes_path: str,
    out_dir: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
    passthrough: bool = False,
) -> RunManifest:
    """Ingest the two CSVs, :func:`repair` them, then write the reports.

    Writes ``votes_repaired.csv``, ``pseudolabels.csv``, ``fairness.json``
    and ``manifest.json`` into ``out_dir``.  Ingest loads, pair-checks and
    digests the inputs; gold labels, when present, are read only by the
    reports.  The manifest is built when the run starts; the digests and
    each stage's elapsed ms join it as they are known.  A run that raises
    writes that manifest with ``failed_stage`` set to the first of
    :data:`STAGES` without a timing, or ``"reports"`` if all have one.
    """
    timings: dict[str, float] = {}
    digests: dict[str, str] = {}
    manifest = RunManifest(cfg.to_dict(), dict(
        passthrough=passthrough, group_col=group_col, label_col=label_col),
        dict(features=features_path, votes=votes_path), digests, timings,
        __version__, time.time())
    try:
        with _timed(timings, "ingest"):
            read: dict[str, str] = {}
            ds = load_features_csv(features_path, group_col, label_col,
                                   digests=read)
            wl = load_votes_csv(votes_path, digests=read)
            validate_dataset(ds, wl)
            digests.update(read)

        run = repair(ds, wl, cfg, passthrough, timings)

        with _timed(timings, "reports"):
            if ds.labels is None:
                fairness: dict = {
                    "skipped": True,
                    "reason": "no gold labels in the features file",
                }
                logger.info("gold labels absent; metrics stage skipped")
            else:
                fairness = {
                    "skipped": False,
                    "per_lf": lf_delta_report(wl, run.repaired, ds),
                    "pseudolabels": fairness_report(run.hard, ds.labels,
                                                    ds.groups),
                    "end_model": fairness_report(run.end_preds, ds.labels,
                                                 ds.groups),
                }
            fairness["manifest_digest"] = manifest.digest()
            write_votes_csv(run.repaired,
                            os.path.join(out_dir, "votes_repaired.csv"))
            _write_pseudolabels(os.path.join(out_dir, "pseudolabels.csv"),
                                run.probs, run.hard)
            write_json(fairness, os.path.join(out_dir, "fairness.json"))
        write_json(manifest, os.path.join(out_dir, "manifest.json"))
        return manifest
    except Exception:
        failed = next((s for s in STAGES if s not in timings), "reports")
        try:
            write_json(replace(manifest, failed_stage=failed),
                       os.path.join(out_dir, "manifest.json"))
        except ValidationError:
            pass  # the original error is the one to report
        raise


# ---------------------------------------------------------------------------
# theory-suite and regime artifacts


def write_theory_artifacts(bundle: dict, out_dir: str) -> None:
    """Emit the JSON bundle plus one plot-ready CSV per sweep report,
    with header ``<value>,measured,bound_or_limit``.  A NaN value, null in
    the bundle (:func:`core.fields_dict`), is ``nan`` in its CSV."""
    write_json(bundle, os.path.join(out_dir, "theory_report.json"))
    for name, filename, value_name in (
            ("shift_limit", "shift_sweep.csv", "shift"),
            ("lipschitz", "lipschitz.csv", "theta0"),
            ("map_error_bound", "map_error_sweep.csv", "n")):
        report = bundle[name]
        _write_csv(os.path.join(out_dir, filename),
                   [value_name, "measured", "bound_or_limit"],
                   ([repr(float("nan" if x is None else x)) for x in row]
                    for row in zip(report["sweep_values"], report["measured"],
                                   report["bound_or_limit"])))


def write_regime_csv(profile, path: str) -> None:
    """Plot-ready CSV of a RegimeProfile's per-group curves."""
    _write_csv(path, ["group", "farthest_distance", "cumulative_accuracy"],
               ([str(k), repr(float(dist)), repr(float(acc))]
                for k, curve in enumerate(profile.curves)
                for dist, acc in curve))
