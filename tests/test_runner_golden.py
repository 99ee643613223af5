"""Golden runner output for the ``tiny``, ``small``, ``chaos`` and ``hellthread`` scenarios.

The runner's ``--json`` output is deterministic for a given scenario, seed
and campaign window.  This test regenerates it in-process for
``--scenario S --seed 42 --experiment all`` (default window) and compares it
with the committed reference, so any change that moves a reported figure
fails here with the scenario, experiment, row or comparison, and key that
differs.  ``chaos`` is the one golden whose analysis runs on a faulted,
churning crawl; ``hellthread`` is the one that sends Announce/Like traffic
through the MRF policy walk, and its file is the output perfbench pins for
``hellthread-crawl-129d`` (runner output does not depend on the crawl
window).

Those goldens crawl the default two days.  One more case runs perfbench's
``chaos-crawl-129d`` workload, the paper's 129-day crawl under faults, and
compares its output's sha256 with the digest ``perfbench/run.py`` pins.
Another runs ``tiny`` with Python 3.12's compensated ``sum`` in place of
the builtin, so the goldens hold on either Python CI tests.

To refresh a reference after an intended output change, for S in
``tiny``, ``small``, ``chaos`` or ``hellthread``::

    PYTHONPATH=src python -m repro.experiments.runner --scenario S \\
        --seed 42 --experiment all --json tests/golden/runner_S_seed42.json
"""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.runner import main
from repro.perspective.attributes import ordered_sum

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIOS = ("tiny", "small", "chaos", "hellthread")
PERFBENCH_RUN = Path(__file__).parent.parent / "perfbench" / "run.py"


def perfbench_run_module():
    """Load ``perfbench/run.py``, which pins each workload's output digest."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


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


def neumaier_sum(iterable, start=0):
    """CPython 3.12's ``sum``, for ints within a C long, floats and the rest.

    Ints are added exactly until the first other item; floats are then
    added with Neumaier's compensation, ints in that stretch without it,
    and the compensation is folded in at the end or before the first item
    of another type.  Python 3.11's ``sum`` adds left to right instead.
    This copy gave CPython 3.12.1's results, bit for bit, on 40,000 random
    lists of ints, bools, floats, a float subclass and fractions.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int):
                total += item
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def check_runner_output(scenario, tmp_path, capsys):
    """Run the runner on ``scenario`` at seed 42 and compare it with its golden."""
    golden = GOLDEN_DIR / f"runner_{scenario}_seed42.json"
    output = tmp_path / f"{scenario}.json"
    args = ["--scenario", scenario, "--seed", "42", "--experiment", "all"]
    assert main([*args, "--json", str(output)]) == 0
    capsys.readouterr()
    want = json.loads(golden.read_text(encoding="utf-8"))
    got = json.loads(output.read_text(encoding="utf-8"))
    difference = first_difference(want, got)
    assert difference is None, difference
    assert output.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_runner_output_matches_golden(scenario, tmp_path, capsys):
    check_runner_output(scenario, tmp_path, capsys)


def test_tiny_output_holds_under_python_312_sum(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    check_runner_output("tiny", tmp_path, capsys)


class TestSummationOrder:
    def test_copy_compensates_as_python_312_does(self):
        assert neumaier_sum([0.1] * 10) == 1.0
        assert neumaier_sum([1e100, 1.0, -1e100, 1.0]) == 2.0

    def test_ordered_sum_adds_left_to_right_as_python_311_does(self):
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([1e100, 1.0, -1e100, 1.0]) == 1.0


def test_129_day_chaos_crawl_matches_the_perfbench_pin(tmp_path, capsys):
    perfbench = perfbench_run_module()
    workload = perfbench.WORKLOADS["chaos-crawl-129d"]
    assert workload.runner_args == (
        "--scenario", "chaos", "--campaign-days", "129", "--experiment", "dataset_stats",
    )
    output = tmp_path / "chaos-129d.json"
    seed = str(perfbench.REFERENCE_SEED)
    assert main([*workload.runner_args, "--seed", seed, "--json", str(output)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(output.read_bytes()).hexdigest() == workload.reference


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
