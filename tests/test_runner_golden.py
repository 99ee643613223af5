"""Golden runner output for the ``small`` scenario.

The runner's ``--json`` output is deterministic for a given scenario, seed
and campaign window.  This test regenerates it in-process for
``--scenario small --seed 42 --experiment all`` (default 2-day window) and
compares it with the committed reference, so any analysis change that moves
a reported figure fails here with the experiment, row or comparison, and
key that differs.

To refresh the reference after an intended output change::

    PYTHONPATH=src python -m repro.experiments.runner --scenario small \\
        --seed 42 --experiment all --json tests/golden/runner_small_seed42.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.experiments.runner import main

GOLDEN = Path(__file__).parent / "golden" / "runner_small_seed42.json"
ARGS = ["--scenario", "small", "--seed", "42", "--experiment", "all"]


def _label(item: Any, index: int) -> str:
    """Name a list item: an experiment by id, a row or comparison by its first field."""
    if isinstance(item, dict) and item:
        if "experiment_id" in item:
            return str(item["experiment_id"])
        key, value = next(iter(item.items()))
        return f"{index} ({key}={value!r})"
    return str(index)


def first_difference(want: Any, got: Any, path: str = "output") -> str | None:
    """Return where ``got`` first differs from ``want``, or ``None`` if equal.

    Dict keys are compared in order and scalars by type as well as value, so
    a difference that would change the JSON text is reported too.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return f"{path}: keys {list(want)} expected, {list(got)} found"
        for key in want:
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for index, (expected, actual) in enumerate(zip(want, got)):
            found = first_difference(expected, actual, f"{path}[{_label(expected, index)}]")
            if found is not None:
                return found
        if len(want) != len(got):
            return f"{path}: {len(want)} items expected, {len(got)} found"
        return None
    if type(want) is not type(got) or want != got:
        return f"{path}: expected {want!r}, found {got!r}"
    return None


def test_small_runner_output_matches_golden(tmp_path, capsys):
    output = tmp_path / "small.json"
    assert main([*ARGS, "--json", str(output)]) == 0
    capsys.readouterr()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(output.read_text(encoding="utf-8"))
    difference = first_difference(want, got)
    assert difference is None, difference
    assert output.read_bytes() == GOLDEN.read_bytes()


class TestFirstDifference:
    def test_names_experiment_row_and_key(self):
        want = [{"experiment_id": "rejects", "rows": [{"metric": "a", "value": 1}]}]
        got = [{"experiment_id": "rejects", "rows": [{"metric": "a", "value": 2}]}]
        assert first_difference(want, got) == (
            "output[rejects].rows[0 (metric='a')].value: expected 1, found 2"
        )

    def test_int_and_float_differ(self):
        assert first_difference({"value": 1}, {"value": 1.0}) is not None

    def test_key_order_and_length(self):
        assert "keys" in first_difference({"a": 1, "b": 2}, {"b": 2, "a": 1})
        assert "2 items expected, 1 found" in first_difference([1, 2], [1])
        assert first_difference([{"x": [1.5]}], [{"x": [1.5]}]) is None
