"""Golden experiment tables: whole-result pins for the paper runners.

``golden_tables.json`` holds every table (and the Figure 6 series) that the
runner calls in ``tests/experiments/test_runners.py`` and
``tests/spec/test_equivalence.py`` produce at their micro profiles, with
the embedding cache off.  Its ``recorded_at`` field names the commit whose
runners produced the entries.  A checked call compares its whole result
with its entry using ``==``: title, rows, columns, marks, notes, and every
cell's mean and std (every series point for a figure).

Re-recording is deliberate: run both test files with
``REPRO_RECORD_GOLDEN=<commit>`` against that commit's ``src``.  Each
checked call then writes its entry and skips instead of passing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.results import SeriesResult

GOLDEN_PATH = Path(__file__).with_name("golden_tables.json")
RECORD_ENV = "REPRO_RECORD_GOLDEN"


def snapshot(result) -> dict:
    """A JSON-shaped record of an ``ExperimentTable`` or ``SeriesResult``."""
    if isinstance(result, SeriesResult):
        return {
            "title": result.name,
            "x_label": result.x_label,
            "y_label": result.y_label,
            "series": {
                name: [[x, y] for x, y in points.items()]
                for name, points in result.series.items()
            },
            "notes": list(result.notes),
        }
    cells: dict = {}
    for (row, column), cell in result.cells.items():
        cells.setdefault(row, {})[column] = [cell.mean, cell.std]
    marks: dict = {}
    for (row, column), mark in result.missing.items():
        marks.setdefault(row, {})[column] = mark
    return {
        "title": result.name,
        "rows": list(result.rows),
        "columns": list(result.columns),
        "cells": cells,
        "marks": marks,
        "notes": list(result.notes),
    }


def _record(key: str, entry: dict, commit: str) -> None:
    golden = {"recorded_at": commit, "tables": {}}
    if GOLDEN_PATH.exists():
        existing = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if existing.get("recorded_at") == commit:
            golden = existing
    golden["tables"][key] = entry
    golden["tables"] = dict(sorted(golden["tables"].items()))
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def assert_golden(key: str, result) -> None:
    """Assert ``result`` equals the golden entry ``key`` exactly."""
    actual = snapshot(result)
    commit = os.environ.get(RECORD_ENV)
    if commit:
        _record(key, actual, commit)
        pytest.skip(f"recorded golden {key!r} at {commit}")
    tables = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["tables"]
    assert key in tables, f"no golden entry {key!r} in {GOLDEN_PATH.name}"
    assert actual == tables[key]
