"""Shared data model, validation, and error taxonomy.

Conventions used throughout the package:

* weak labels (votes) take values in ``{-1, 0, +1}`` where ``0`` means the
  labeling function abstained on that row, stored as ``int8``, one byte a
  cell: arithmetic on them widens first (``votes.T @ votes`` in int8
  overflows);
* exactly two groups, encoded ``0`` and ``1``;
* gold labels, when present, are in ``{-1, +1}`` and are used for
  evaluation only.

Containers are frozen dataclasses wrapping read-only numpy arrays, so they
can be shared across workers without defensive copies.  Each fact about
the inputs has one owner: :class:`WeakLabelMatrix` checks vote values,
:class:`GroupedDataset` finite features and group and label values, and
:func:`validate_dataset` what only the pair can get wrong, equal row counts
and two non-empty groups.  Each raises one error, one line per violation.
Stages that receive a container do not check it again, and containers
derived from a checked one skip the value checks.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

VOTE_VALUES = (-1, 0, 1)
MAX_CELL_ERRORS = 20  # bad cells listed in one error; the rest are counted
ROW_MISMATCH = "row-count mismatch: {} feature rows vs {} vote rows"
ROW_BLOCK_BYTES = 1 << 18  # one row block of an n x m temporary


class ValidationError(ValueError):
    """Raised for malformed or inconsistent inputs."""


class NumericalError(ArithmeticError):
    """Raised when a computation degenerates (singular matrix, underflow,
    non-finite objective, unusable moment estimates)."""


def cell_error(lines: list[str], n_bad: int) -> ValidationError:
    """One error from the lines of the first MAX_CELL_ERRORS of ``n_bad``
    bad cells, counting the rest."""
    more = n_bad - MAX_CELL_ERRORS
    tail = [f"... and {more} more bad cells"] if more > 0 else []
    return ValidationError("\n".join(lines + tail))


def _frozen_array(x, dtype) -> np.ndarray:
    a = np.array(x, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


def _unchecked(cls, **values):
    """A ``cls`` container holding ``values`` without running its checks:
    for values taken from a container that already passed them."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of ``n`` rows, each at least one row and, at
    ``row_bytes`` of temporaries per row, within ROW_BLOCK_BYTES."""
    step = max(1, ROW_BLOCK_BYTES // row_bytes)
    return [slice(start, start + step) for start in range(0, n, step)]


def fields_dict(obj) -> dict:
    """A dataclass's fields by name, each tuple as a list and each NaN
    float, at any depth of the tuples, as None (JSON null)."""
    def value(x):
        if isinstance(x, tuple):
            return [value(v) for v in x]
        return None if isinstance(x, float) and math.isnan(x) else x
    return {f.name: value(getattr(obj, f.name)) for f in fields(obj)}


def _workers() -> int:
    """CPUs the process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextmanager
def fan_out():
    """``(workers, each)`` for a ``with`` block: ``each(fn, n)`` calls
    ``fn(worker, i)`` for every i < n on up to :func:`_workers` workers,
    the calling thread (0) and helper threads (none for one worker), each
    taking the next i; it returns once all have, or raises their error."""
    workers = _workers()
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        def each(fn, n):
            left = iter(range(n))  # next() is atomic under the GIL
            def run(worker):
                for i in left:
                    fn(worker, i)
            helpers = [pool.submit(run, w) for w in range(1, min(workers, n))]
            run(0)
            for helper in helpers:
                helper.result()
        yield workers, each


def require_count(name: str, value) -> int:
    """``value`` as a Python int once it is an integer >= 1; ``bool``
    (an ``int`` subclass) and non-integers such as 2.0 are rejected,
    numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _vote_shape(v: np.ndarray) -> np.ndarray:
    if v.ndim != 2:
        raise ValidationError(f"votes must be 2-D, got ndim={v.ndim}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise ValidationError(f"votes must be at least 1x1, got {v.shape}")
    return v


def require_values(x: np.ndarray, allowed: tuple, what: str) -> np.ndarray:
    """``x`` once every entry, as given (before an int cast truncates 0.5
    to 0), is in ``allowed``; else an error naming each bad entry's row,
    and its column as ``lf`` in a matrix.  Two boolean masks at a time:
    ``np.isin`` copies integer input."""
    bad = x != allowed[0]
    for v in allowed[1:]:
        bad &= x != v
    bad = np.argwhere(bad)
    if len(bad):
        raise cell_error(
            [f"illegal {what} value {x[tuple(i)]} at row {i[0]}"
             + (f", lf {i[1]}" if len(i) > 1 else "")
             for i in bad[:MAX_CELL_ERRORS]], len(bad))
    return x


@dataclass(frozen=True)
class WeakLabelMatrix:
    """n x m matrix of labeling-function votes in {-1, 0, +1}, as int8."""

    votes: np.ndarray

    def __post_init__(self):
        v = require_values(_vote_shape(np.asarray(self.votes)),
                           VOTE_VALUES, "vote")
        object.__setattr__(self, "votes", _frozen_array(v, np.int8))

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def restrict_rows(self, mask: np.ndarray) -> "WeakLabelMatrix":
        """The rows ``mask`` selects; their values are not checked again."""
        rows = _vote_shape(self.votes[np.asarray(mask)])
        rows.setflags(write=False)
        return _unchecked(WeakLabelMatrix, votes=rows)


@dataclass(frozen=True)
class GroupedDataset:
    """Feature matrix plus group assignment and optional gold labels."""

    features: np.ndarray
    groups: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        f = _frozen_array(self.features, np.float64)
        g = np.asarray(self.groups)
        if f.ndim != 2:
            raise ValidationError(f"features must be 2-D, got ndim={f.ndim}")
        if g.shape != (f.shape[0],):
            raise ValidationError(
                f"groups must be a length-{f.shape[0]} vector, got {g.shape}")
        if self.labels is not None:
            l = np.asarray(self.labels)
            if l.shape != (f.shape[0],):
                raise ValidationError(
                    f"labels must be a length-{f.shape[0]} vector, "
                    f"got {l.shape}")
            l = require_values(l, (-1, 1), "label")
            object.__setattr__(self, "labels", _frozen_array(l, np.int64))
        finite = np.isfinite(f)
        if not finite.all():
            bad = np.argwhere(~finite)
            raise cell_error(
                [f"non-finite feature value {f[r, c]} at row {r}, column {c}"
                 for r, c in bad[:MAX_CELL_ERRORS]], len(bad))
        g = require_values(g, (0, 1), "group")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "groups", _frozen_array(g, np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def group_mask(self, k: int) -> np.ndarray:
        return self.groups == k

    def without_labels(self) -> "GroupedDataset":
        """The dataset with gold labels stripped; estimation and transport
        stages receive their inputs through this so labels cannot leak.
        Shares the read-only features and groups, not checked again."""
        return _unchecked(GroupedDataset, features=self.features,
                          groups=self.groups, labels=None)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the end-to-end repair pipeline.

    The fields are the only list of config keys: config files and the
    ``run`` flags accept exactly these names, parse each value by the
    field's annotation and take the help text from the field's metadata.
    Defaults mirror the reference transport settings: 1 nearest neighbor,
    entropic regularization 1 with 10 scaling rounds; the linear map's
    ridge follows the features' variance.  A run takes its Sinkhorn
    tolerance, class prior and L2 penalty from the defaults of
    ``sinkhorn_plan``, ``fit_label_model`` and ``train_end_model``.
    """

    ot_type: str = field(default="none", metadata={
        "help": "transport type: none, linear or sinkhorn"})
    knn_k: int = field(default=1, metadata={
        "help": "nearest neighbors used for re-labeling"})
    sinkhorn_eta: float = field(default=1.0, metadata={
        "help": "entropic regularization strength"})
    sinkhorn_max_iter: int = field(default=10, metadata={
        "help": "scaling rounds"})
    tie_tol: float = field(default=0.01, metadata={
        "help": "skip transport when group accuracies are this close"})

    def __post_init__(self):
        # one loop stores every float and int field as a Python float or
        # int: NaN passes the range checks below, True or 2.5 would fail
        # later as a TypeError, and a numpy float32 in writing the manifest
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                if type(value) is bool or not isinstance(value, numbers.Real):
                    raise ValidationError(
                        f"{f.name} must be a number, got {value!r}")
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{f.name} must be finite, got {value}")
                object.__setattr__(self, f.name, float(value))
            if f.type == "int":
                object.__setattr__(self, f.name, require_count(f.name, value))
        if self.ot_type not in ("none", "linear", "sinkhorn"):
            raise ValidationError(f"unknown ot_type {self.ot_type!r}")
        if self.sinkhorn_eta <= 0:
            raise ValidationError("sinkhorn_eta must be positive")
        if self.tie_tol < 0:
            raise ValidationError("tie_tol must be nonnegative")

    to_dict = fields_dict


def validate_dataset(ds: GroupedDataset, wl: WeakLabelMatrix) -> None:
    """Raise one ValidationError, one line per violation, unless the pair
    has equal row counts and two non-empty groups: the facts neither
    container can check alone.  Side-effect free."""
    report = [] if ds.n == wl.n else [ROW_MISMATCH.format(ds.n, wl.n)]
    report += [f"empty group {k}" for k in (0, 1) if k not in ds.groups]
    if report:
        raise ValidationError("\n".join(report))
