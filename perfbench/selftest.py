"""Self-test of the benchmark at small scale (about two minutes).

    python3 perfbench/selftest.py

It swaps each workload for a small one that takes the same code path
(``tiny`` for the all-experiment workloads, a half-day ``chaos`` crawl for
the faulted one), runs ``run.py``'s command line on it with ``--trace 0``
and ``--trace 1``, and checks:

* the last output line has exactly the result keys, and its metrics are
  exactly those of ``BENCHMARK.json`` for that trace mode, with their units;
* no operation fails, and the layer spans plus the unattributed time add up
  to the traced pass;
* a corrupted reference digest counts every operation as failed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

It is not named ``test_*.py`` so that the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_ARGS = {
    "large-all": ("--scenario", "tiny", "--experiment", "all"),
    "chaos-crawl-129d": ("--scenario", "chaos", "--campaign-days", "0.5", "--experiment", "dataset_stats"),
    "hellthread-crawl-129d": ("--scenario", "tiny", "--campaign-days", "6", "--experiment", "all"),
    "hellthread-all": ("--scenario", "tiny", "--experiment", "all"),
}
SEED = 7


def cli(*argv: str) -> dict:
    """Run ``run.main`` in-process; return its last output line, parsed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0, f"run.py {' '.join(argv)} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_config() -> None:
    assert {w["name"] for w in CONFIG["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == run.per_layer_units()


def check_run(name: str, trace: int) -> None:
    result = cli("--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    got = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert got == units, f"{name} trace={trace}: metric names or units differ"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = {metric: value["value"] for metric, value in result["metrics"].items()}
    if trace:
        attributed = sum(metrics[f"{span}_s"] for span in run._attributed_spans())
        covered = attributed + metrics["trace.unattributed_s"]
        assert abs(covered - metrics["trace.total_s"]) < 1e-9, (covered, metrics["trace.total_s"])
        assert all(isinstance(metrics[m], int) for m in metrics if m.endswith("_calls"))
    else:
        assert all(value > 0 for value in metrics.values()), metrics
    print(f"ok   {name} trace={trace}: {len(metrics)} metrics, {result['attempted']} operations")


def check_corrupted_digest() -> None:
    name = "large-all"
    real = run.WORKLOADS[name]
    run.WORKLOADS[name] = run.Workload(real.runner_args, real.operations, "0" * 64)
    try:
        result = cli("--workload", name, "--seed", str(run.REFERENCE_SEED), "--seconds", "1")
    finally:
        run.WORKLOADS[name] = real
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    print(f"ok   corrupted digest: {result['failed']} of {result['attempted']} operations failed")


def check_bare_directory() -> None:
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in CONFIG["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [*CONFIG["command"], "--workload", "large-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    check_config()
    for name in run.WORKLOADS:
        real = run.WORKLOADS[name]
        run.WORKLOADS[name] = run.Workload(SMALL_ARGS[name], real.operations, real.reference)
    check_corrupted_digest()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace)
    check_bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
