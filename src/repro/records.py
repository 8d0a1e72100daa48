"""Reports as records, and the one renderer that prints them.

A *record* is a flat ``dict`` whose values are ``str``, ``int``,
``float``, ``bool`` or ``None``, with a ``"record"`` key naming its kind
(``serve``, ``session``, ``class``, ``shard``, ``traffic``,
``sweep_row``, ``knee``, ``soak``, ``violation``, ``faults``,
``recovery``, ``injection``).  A time-valued field names its clock in
its key — ``wall_s`` or ``*_virtual_s`` — and an empty percentile is
``None``, never NaN.  Every report type in the serving stack hands its
fields out once, as records; :func:`render` is how any of them is shown.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, List, Mapping

__all__ = ["flatten", "render"]

SCALARS = (str, int, float, bool, type(None))


def flatten(kind: str, mapping: Mapping) -> dict:
    """``mapping`` as a ``kind`` record: a nested mapping's items become
    ``{key}_{inner}`` fields and a list becomes one space-separated
    string (the per-shard rows nest op-cache stats, a retry-budget
    snapshot and crash exit codes)."""
    out = {"record": kind}
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            out.update((f"{key}_{inner}", v) for inner, v in value.items())
        elif isinstance(value, list):
            out[key] = " ".join(map(str, value))
        else:
            out[key] = value
    return out


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(kind: str, run: List[dict]) -> str:
    columns = list(dict.fromkeys(k for r in run for k in r if k != "record"))
    rows = [[_cell(r.get(c)) if c in r else "" for c in columns] for r in run]
    widths = [
        max(len(c), *(len(row[i]) for row in rows)) for i, c in enumerate(columns)
    ]
    numeric = [
        all(isinstance(r.get(c), (int, float)) or r.get(c) is None for r in run)
        for c in columns
    ]

    def line(cells) -> str:
        return "  ".join(
            cell.rjust(w) if num else cell.ljust(w)
            for cell, w, num in zip(cells, widths, numeric)
        ).rstrip()

    return "\n".join([f"[{kind}]", line(columns), *map(line, rows)])


def render(records: Iterable[dict], as_json: bool = False) -> str:
    """Records as text: one ``json.dumps(sort_keys=True,
    allow_nan=False)`` line each with ``as_json``, else one aligned
    table per run of consecutive records of the same kind (columns in
    first-seen order, ``-`` for ``None``, blank where a record lacks
    the column).  A value that is not a scalar is a ``TypeError``."""
    records = list(records)
    for r in records:
        for key, value in r.items():
            if not isinstance(value, SCALARS):
                raise TypeError(
                    f"{r.get('record')!r} record field {key!r} holds a "
                    f"{type(value).__name__}, not a scalar"
                )
    if as_json:
        return "\n".join(
            json.dumps(r, sort_keys=True, allow_nan=False) for r in records
        )
    return "\n\n".join(
        _table(kind, list(run))
        for kind, run in itertools.groupby(records, key=lambda r: r["record"])
    )
