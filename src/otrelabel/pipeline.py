"""Data ingestion and the end-to-end repair run with its report
artifacts.  The theory suite runs in :mod:`otrelabel.synthetic`, whose
artifacts are written here; the labeling-function banks live in
:mod:`otrelabel.lfbank`, whose raw tables are read here
(:func:`read_raw_csv`).

File formats
------------
Features CSV: UTF-8, header row, comma-separated, ``.`` decimal.  Any
number of numeric feature columns (any spelling Python's ``float``
accepts), one group column with values ``0``/``1``, and an optional
label column with values ``-1``/``1``/``+1``.

Votes CSV: header exactly ``lf_0,...,lf_{m-1}``, values ``-1``, ``0``,
``1`` or ``+1``, row-aligned with the features CSV.

Both: an optional UTF-8 BOM, LF, CRLF or CR line ends, csv quoting, and
whitespace around any cell or header name.  Every row has the header's
width and no line is blank.  Files in the plain subset of this syntax
(ASCII body, no quotes, canonical group, label and vote spellings, as
:func:`write_votes_csv` writes) are parsed by numpy in one pass; any
other file by an exact cell-by-cell pass that reports each bad cell on
its own line, up to ``MAX_CELL_ERRORS`` lines plus a count of the rest.

Config file: flat ``key=value`` lines (``#`` starts a comment).  The
accepted keys are the field names of :class:`PipelineConfig`; each value
is parsed by its field's annotation, with booleans spelled ``on``/``off``.

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
import tempfile
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    MAX_CELL_ERRORS,
    GroupedDataset,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    cell_error,
    validate_dataset,
)
from .estimate import estimate_accuracies
from .labelmodel import fit_label_model, infer_pseudolabels, predict, train_end_model
from .metrics import fairness_report, lf_delta_report
from .transport import sbm_transport

logger = logging.getLogger("otrelabel")


# ---------------------------------------------------------------------------
# configuration


def _parse_on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


_PARSE_BY_TYPE: dict[str, Callable[[str], object]] = {
    "int": int, "float": float, "str": str, "bool": _parse_on_off}
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


def load_config(path: str, overrides: Optional[dict] = None) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            kwargs = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if overrides:
        kwargs.update(overrides)
    return PipelineConfig(**kwargs)


# ---------------------------------------------------------------------------
# CSV ingestion

_GROUPS = {"0": 0, "1": 1}
_LABELS = {"-1": -1, "1": 1, "+1": 1}
_VOTES = {"-1": -1, "0": 0, "1": 1, "+1": 1}


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    header = [h.strip() for h in header]
    width = len(header)
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i} has {len(row)} fields, expected {width}")
    return header, rows


def _plain_table(path: str, dtype) -> Optional[tuple]:
    """``(header, values, body)`` for a file in the plain subset of the
    CSV syntax, else None; never raises.

    Plain: no quote characters, LF or CRLF line ends, no blank line, an
    ASCII body that numpy's C reader parses into ``dtype`` values, and as
    many columns as the header.  On such a file ``csv`` splits rows and
    cells exactly where numpy does, and a float cell numpy accepts gets
    the value ``float`` gives it; callers still check the spelling of
    integer cells, which numpy reads more loosely (``-0``, ``01``).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    data = data.removeprefix(codecs.BOM_UTF8).replace(b"\r\n", b"\n")
    head, _, body = data.partition(b"\n")
    if (not head or body[:1] in (b"", b"\n") or b'"' in data
            or b"\r" in data or not body.isascii()):
        return None
    try:
        header = [h.strip() for h in head.decode("utf-8").split(",")]
        values = np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",",
                            comments=None, ndmin=2, encoding="ascii")
    except ValueError:  # UnicodeDecodeError is one too
        return None
    n_lines = body.count(b"\n") + (not body.endswith(b"\n"))
    if values.shape != (n_lines, len(header)):  # numpy skips blank lines
        return None
    return header, values, body


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


def load_features_csv(
    path: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
) -> GroupedDataset:
    """Parse a features CSV into a GroupedDataset, preserving row order.

    ``label_col`` is optional in the file; when present it must contain
    -1/1.  Errors carry 1-based row numbers (the header is row 1) and
    column names, one line per bad cell.
    """
    plain = _plain_table(path, np.float64)
    header, rows = (plain[0], None) if plain else _read_rows(path)
    if group_col not in header:
        raise ValidationError(f"{path}: missing group column {group_col!r}")
    has_labels = label_col is not None and label_col in header
    skip = {group_col} | ({label_col} if has_labels else set())
    feature_cols = [h for h in header if h not in skip]
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns")
    col_idx = {h: i for i, h in enumerate(header)}
    columns = [(col_idx[name], float, f", column {name!r}: non-numeric value ")
               for name in feature_cols]
    columns.append((col_idx[group_col], _GROUPS.__getitem__,
                    ": unknown group value "))
    if has_labels:
        columns.append((col_idx[label_col], _LABELS.__getitem__,
                        ": label must be -1 or 1, got "))
    index = [i for i, _, _ in columns]

    if plain is not None:
        # numpy reads group and label cells loosely ("0.0", "+0"), so
        # check their text; U3 is longer than any accepted spelling, so
        # a truncated cell never passes
        text = np.loadtxt(io.BytesIO(plain[2]), dtype="U3", delimiter=",",
                          comments=None, usecols=index[len(feature_cols):],
                          ndmin=2, encoding="ascii")
        if np.isin(text[:, 0], list(_GROUPS)).all() and (
                not has_labels or np.isin(text[:, 1], list(_LABELS)).all()):
            values = plain[1][:, index]
        else:
            plain = None
    if plain is None:
        values = _parse_cells(path, rows or _read_rows(path)[1], columns,
                              np.float64)
    d = len(feature_cols)
    return GroupedDataset(values[:, :d], values[:, d],
                          values[:, d + 1] if has_labels else None)


def load_votes_csv(path: str) -> WeakLabelMatrix:
    """Parse a votes CSV (header lf_0..lf_{m-1}, values in {-1, 0, 1})."""
    plain = _plain_table(path, np.int64)
    header, rows = (plain[0], None) if plain else _read_rows(path)
    expected = [f"lf_{j}" for j in range(len(header))]
    if header != expected:
        raise ValidationError(
            f"{path}: votes header must be {','.join(expected)}")
    if plain is not None:
        votes, body = plain[1:]
        count = np.bincount(np.frombuffer(body, np.uint8), minlength=256)
        # bytes only from "-01,\n", one digit per cell and no "-0": every
        # cell is spelled -1, 0 or 1
        if (count.sum() == count[list(b"-01,\n")].sum()
                and count[ord("0")] + count[ord("1")] == votes.size
                and count[ord("-")] == np.count_nonzero(votes == -1)):
            return WeakLabelMatrix(votes)
    columns = [(c, _VOTES.__getitem__, f", lf_{c}: illegal vote ")
               for c in range(len(header))]
    return WeakLabelMatrix(_parse_cells(
        path, rows or _read_rows(path)[1], columns, np.int64))


def read_raw_csv(path: str) -> dict[str, list[str]]:
    """Read a raw (possibly non-numeric) CSV into column -> string values."""
    header, rows = _read_rows(path)
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names")
    return {name: [row[i].strip() for row in rows]
            for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# artifact writing


def _atomic_write(path: str, write_fn: Callable) -> None:
    """Write ``path`` through a temporary file in its directory; an
    unwritable path is an input error."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                write_fn(fh)
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
    number's text or a header name), written one at a time."""
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")

    _atomic_write(path, write)


def write_votes_csv(wl: WeakLabelMatrix, path: str) -> None:
    """Write the votes through a token lookup, byte-identical to
    ``csv.writer``; numpy pads the two-byte tokens with NUL bytes."""
    cells = np.array([b"-1,", b"0,", b"1,"])[wl.votes + 1]
    cells[:, -1] = np.array([b"-1\n", b"0\n", b"1\n"])[wl.votes[:, -1] + 1]
    header = ",".join(f"lf_{j}" for j in range(wl.m)) + "\n"
    body = cells.tobytes().replace(b"\0", b"").decode("ascii")
    _atomic_write(path, lambda fh: fh.write(header + body))


def write_json(obj: dict, path: str) -> None:
    _atomic_write(path, lambda fh: fh.write(
        json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one pipeline run.

    The digest covers config, input digests and version only, so it is
    stable across reruns; timings and the timestamp are informational.
    """

    config: dict
    input_digests: dict[str, str]
    stage_timings_ms: dict[str, float]
    version: str
    created_unix: float
    failed_stage: Optional[str] = None

    def digest(self) -> str:
        stable = json.dumps(
            {"config": self.config, "inputs": self.input_digests,
             "version": self.version},
            sort_keys=True)
        return hashlib.sha256(stable.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "input_digests": self.input_digests,
            "stage_timings_ms": self.stage_timings_ms,
            "version": self.version,
            "created_unix": self.created_unix,
            "failed_stage": self.failed_stage,
            "digest": self.digest(),
        }


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(
    cfg: PipelineConfig,
    features_path: str,
    votes_path: str,
    out_dir: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
    passthrough: bool = False,
) -> RunManifest:
    """Execute estimate -> transport -> label model -> end model -> reports.

    Writes ``votes_repaired.csv``, ``pseudolabels.csv``, ``fairness.json``
    and ``manifest.json`` into ``out_dir``.  With ``passthrough=True`` the
    transport stage is skipped entirely and pseudolabels come from the raw
    votes (the plain weak-supervision baseline).  Gold labels, when
    present, are used only by the report stage.
    """
    timings: dict[str, float] = {}
    stage = "ingest"

    def finish_stage(name: str, started: float) -> float:
        timings[name] = (time.perf_counter() - started) * 1000.0
        return time.perf_counter()

    try:
        t0 = time.perf_counter()
        ds = load_features_csv(features_path, group_col, label_col)
        wl = load_votes_csv(votes_path)
        report = validate_dataset(ds, wl)
        if report:
            raise ValidationError("; ".join(report))
        blind = ds.without_labels()
        t0 = finish_stage("ingest", t0)

        stage = "estimate"
        est, _ = estimate_accuracies(wl, blind)
        t0 = finish_stage("estimate", t0)

        stage = "transport"
        if passthrough:
            repaired = wl
        else:
            repaired = sbm_transport(blind, wl, est, cfg).new_votes
        t0 = finish_stage("transport", t0)

        stage = "label_model"
        # estimation is deterministic, so unchanged votes keep their estimate
        if np.array_equal(repaired.votes, wl.votes):
            repaired_est = est
        else:
            repaired_est, _ = estimate_accuracies(repaired, blind)
        params = fit_label_model(repaired_est, cfg.class_balance)
        probs, hard = infer_pseudolabels(params, repaired)
        t0 = finish_stage("label_model", t0)

        stage = "end_model"
        end_model = None
        end_preds = None
        if cfg.end_model:
            end_model = train_end_model(ds.features, probs, cfg.l2)
            _, end_preds = predict(end_model, ds.features)
        t0 = finish_stage("end_model", t0)

        stage = "reports"
        manifest = RunManifest(
            config=cfg.to_dict(),
            input_digests={
                features_path: _sha256(features_path),
                votes_path: _sha256(votes_path),
            },
            stage_timings_ms=timings,
            version=__version__,
            created_unix=time.time(),
        )
        if ds.labels is None:
            fairness: dict = {
                "skipped": True,
                "reason": "no gold labels in the features file",
                "manifest_digest": manifest.digest(),
            }
            logger.info("gold labels absent; metrics stage skipped")
        else:
            per_lf = lf_delta_report(wl, repaired, ds.labels, ds.groups)
            fairness = {
                "skipped": False,
                "per_lf": [
                    {"name": row["name"],
                     "before": row["before"].to_dict(),
                     "after": row["after"].to_dict(),
                     "delta": row["delta"]}
                    for row in per_lf
                ],
                "pseudolabels": fairness_report(
                    hard, ds.labels, ds.groups).to_dict(),
                "end_model": (
                    fairness_report(end_preds, ds.labels, ds.groups).to_dict()
                    if end_preds is not None else None),
                "manifest_digest": manifest.digest(),
            }

        write_votes_csv(repaired, os.path.join(out_dir, "votes_repaired.csv"))
        _write_csv(os.path.join(out_dir, "pseudolabels.csv"), ["prob", "label"],
                   zip(map(repr, probs.tolist()), map(str, hard.tolist())))
        write_json(fairness, os.path.join(out_dir, "fairness.json"))
        timings["reports"] = (time.perf_counter() - t0) * 1000.0
        write_json(manifest.to_dict(), os.path.join(out_dir, "manifest.json"))
        return manifest
    except Exception:
        failed = RunManifest(
            config=cfg.to_dict(),
            input_digests={},
            stage_timings_ms=timings,
            version=__version__,
            created_unix=time.time(),
            failed_stage=stage,
        )
        try:
            write_json(failed.to_dict(), os.path.join(out_dir, "manifest.json"))
        except ValidationError:
            pass  # the original error is the one to report
        raise


# ---------------------------------------------------------------------------
# theory-suite and regime artifacts


def write_theory_artifacts(bundle: dict, out_dir: str) -> None:
    """Emit the JSON bundle plus plot-ready CSVs for the two sweeps."""
    write_json(bundle, os.path.join(out_dir, "theory_report.json"))

    def sweep_csv(report: dict, path: str, value_name: str):
        _write_csv(path, [value_name, "measured", "bound_or_limit"],
                   ([repr(float(x)) for x in row]
                    for row in zip(report["sweep_values"], report["measured"],
                                   report["bound_or_limit"])))

    sweep_csv(bundle["shift_limit"],
              os.path.join(out_dir, "shift_sweep.csv"), "shift")
    sweep_csv(bundle["map_error_bound"],
              os.path.join(out_dir, "map_error_sweep.csv"), "n")
    lp = bundle["lipschitz"]
    _write_csv(os.path.join(out_dir, "lipschitz.csv"),
               ["theta0", "max_ratio", "bound"],
               ([repr(float(x)) for x in row]
                for row in zip(lp["theta0"], lp["max_ratio"], lp["bound"])))


def write_regime_csv(profile, path: str) -> None:
    """Plot-ready CSV of a RegimeProfile's per-group curves."""
    _write_csv(path, ["group", "farthest_distance", "cumulative_accuracy"],
               ([str(k), repr(float(dist)), repr(float(acc))]
                for k, curve in enumerate(profile.curves)
                for dist, acc in curve))
