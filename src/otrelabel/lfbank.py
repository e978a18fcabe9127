"""Built-in labeling-function banks and their evaluation over a raw table.

A rule is a tuple ``(name, test, test, ...)`` that votes +1 on a row where
any of its tests holds and -1 elsewhere.  A test is one of

* ``(column, frozenset_of_spellings)``: the cell is one of the spellings,
  by exact Python string equality (case, spaces and NUL bytes count);
* ``(column, (low, high))``: the cell, read by Python's ``float``, lies
  in the closed interval [low, high].  ``x > v`` is the interval
  ``[np.nextafter(v, inf), inf]``: the same floats, and no NaN.

Rules are evaluated one table column at a time, not row by row.
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence

import numpy as np

from .core import MAX_CELL_ERRORS, ValidationError, WeakLabelMatrix, cell_error

logger = logging.getLogger("otrelabel")


def _one_of(column: str, *spellings: str) -> tuple:
    return column, frozenset(spellings)


def _above(column: str, value: float) -> tuple:
    return column, (float(np.nextafter(value, np.inf)), np.inf)


# Spellings follow the census-income and "bank-additional" distributions;
# a category_map adapts local variants.
_BANKS = {
    "adult-v1": (
        ("age", ("age", (30.0, 60.0))),
        ("education", _one_of("education", "Bachelors", "Masters",
                              "Doctorate")),
        ("marital", _one_of("marital-status", "Married-civ-spouse",
                            "Married-spouse-absent", "Married-AF-spouse")),
        ("relationship", _one_of("relationship", "Wife", "Own-child",
                                 "Husband")),
        ("capital", _above("capital-gain", 5000)),
        ("race", _one_of("race", "Asian-Pac-Islander", "Other")),
        ("country", _one_of("native-country", "Germany", "Japan", "Greece",
                            "China")),
        ("workclass", _one_of("workclass", "Self-emp-not-inc", "Self-emp-inc",
                              "Federal-gov", "Local-gov", "State-gov")),
        ("occupation", _one_of("occupation", "Sales", "Exec-managerial",
                               "Prof-specialty", "Machine-op-inspct")),
    ),
    "bank-v1": (
        ("loan", _one_of("housing", "yes"), _one_of("loan", "yes")),
        ("previous_contact", _above("previous", 1.1)),
        ("duration", _above("duration", 360)),
        ("marital", _one_of("marital", "single")),
        ("previous_outcome", _one_of("poutcome", "success")),
        ("education", _one_of("education", "university.degree",
                              "professional.course")),
    ),
}


def builtin_bank(name: str) -> list[tuple]:
    if name not in _BANKS:
        raise ValidationError(
            f"unknown bank {name!r}; available: {sorted(_BANKS)}")
    return list(_BANKS[name])


def _numbers(cells: list[str]) -> tuple[np.ndarray, list[int]]:
    """The cells as floats, NaN where ``float`` fails, and those rows."""
    out = np.full(len(cells), np.nan)
    bad = []
    for r, cell in enumerate(cells):
        try:
            out[r] = float(cell)
        except ValueError:
            bad.append(r)
    return out, bad


def _is_string_map(mapping) -> bool:
    return isinstance(mapping, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items())


def apply_lf_bank(
    table: dict[str, list[str]],
    rules: Sequence[tuple],
    category_map: Optional[dict[str, dict[str, str]]] = None,
) -> WeakLabelMatrix:
    """Evaluate each rule into a vote column.

    ``category_map`` optionally renames raw category spellings per column
    (e.g. mapping a local dataset's "professional" onto the canonical
    "Prof-specialty") before rules are evaluated.  Every cell an interval
    test reads must be a number; the bad ones are reported one line each
    in row-major, then rule order.
    """
    if not rules:
        raise ValidationError("rule list is empty")
    if not table:
        raise ValidationError("raw table has no columns")
    n = len(next(iter(table.values())))
    for column, cells in table.items():
        if len(cells) != n:
            raise ValidationError(
                f"raw table column {column!r} has {len(cells)} values, "
                f"expected {n}")
    needed = {column for _, *tests in rules for column, _ in tests}
    missing = sorted(needed - set(table))
    if missing:
        raise ValidationError(f"raw table is missing columns {missing}")
    remap = {} if category_map is None else category_map
    if not (isinstance(remap, dict)
            and all(map(_is_string_map, remap.values()))):
        raise ValidationError(
            "category map must be a {column: {alias: canonical}} object "
            "of strings")
    cells = {c: [remap[c].get(v, v) for v in table[c]] if c in remap
             else table[c] for c in needed}
    numbers = {column: _numbers(cells[column]) for _, *tests in rules
               for column, spec in tests if not isinstance(spec, frozenset)}
    bad: list[tuple[int, int, str]] = []  # (row, rule, column)
    votes = np.empty((n, len(rules)), dtype=np.int64)
    for j, (_, *tests) in enumerate(rules):
        hit = np.zeros(n, dtype=bool)
        for column, spec in tests:
            if isinstance(spec, frozenset):
                hit |= np.fromiter((v in spec for v in cells[column]),
                                   dtype=bool, count=n)
            else:
                x, rows = numbers[column]
                hit |= (spec[0] <= x) & (x <= spec[1])
                bad += [(r, j, column) for r in rows]
        votes[:, j] = np.where(hit, 1, -1)
    if bad:
        bad.sort(key=lambda b: b[:2])  # stable: tests keep their order
        raise cell_error(
            [f"rule {rules[j][0]!r}, row {r + 2}: column {c!r}: cannot "
             f"compare non-numeric value {cells[c][r]!r}"
             for r, j, c in bad[:MAX_CELL_ERRORS]], len(bad))
    if len(rules) < 3:
        logger.warning(
            "bank produced %d vote columns; accuracy estimation needs >= 3",
            len(rules))
    return WeakLabelMatrix(votes)
