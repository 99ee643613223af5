"""Interleaved A/A check of the benchmark's steadiness.

Runs ``run.py`` on the same code as two sets, A and B, pair by pair: pair
``i`` (counting from 1) runs every workload at seed ``i`` once for each set,
alternating which set goes first.  For every end-to-end metric of every
workload it reports each set's median and spread (interquartile range over
the median, from ``statistics.quantiles(values, n=4)``), and checks them
against the bounds in ``BENCHMARK.json``: each spread (``setup_s``
excepted) within a third of the bound, and B's median no worse than A's by
more than the bound.

    python3 perfbench/aa.py --pairs 10 --out perfbench/results/aa.json
    python3 perfbench/aa.py --sets 1 --pairs 5 --workloads chaos-crawl-129d
    python3 perfbench/aa.py --trace-check --out perfbench/results/trace.json
    python3 perfbench/aa.py --summarise perfbench/results/aa.json

Every run's final JSON line and its record (raw samples, host stamp, drift
diagnostics) are kept in the output file.  ``--trace-check`` instead makes
two traced runs per workload at seed 42 and checks that every ``*_calls``
count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the benchmark command; returns its result line and record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record_line = next(line for line in lines if line.startswith("# record: "))
    record = json.loads((ROOT / record_line[len("# record: "):]).read_text(encoding="utf-8"))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "record": record}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs: list[dict]) -> bool:
    """Print each set's medians and spreads; return whether all are within bounds."""
    ok = True
    print(f"{'workload':18} {'metric':12} {'bound':>5} {'set':>3} {'n':>3} {'median':>10} "
          f"{'spread':>7} {'B/A-1':>7}  verdict")
    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        for metric in CONFIG["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for label in ("A", "B"):
                values = [run["result"]["metrics"][name]["value"] for run in runs
                          if run["workload"] == workload and run["set"] == label]
                if len(values) < 2:
                    continue
                medians[label] = statistics.median(values)
                width = spread(values)
                steady = name == "setup_s" or width <= bound / 3
                ok &= steady
                change = ""
                if label == "B" and "A" in medians:
                    drift = medians["B"] / medians["A"] - 1.0
                    change = f"{drift:+7.1%}"
                    steady &= drift <= bound
                    ok &= drift <= bound
                print(f"{workload:18} {name:12} {bound:5.2f} {label:>3} {len(values):3} "
                      f"{medians[label]:10.4f} {width:7.1%} {change:>7}  {'ok' if steady else 'WIDE'}")
    failed = sum(run["result"]["failed"] for run in runs)
    attempted = sum(run["result"]["attempted"] for run in runs)
    correct = all(run["result"]["correct"] for run in runs)
    print(f"operations: {attempted} attempted, {failed} failed; all correct: {correct}")
    return ok and correct and failed == 0


def trace_check(workloads: list[str], seconds: int) -> tuple[list[dict], bool]:
    """Two traced runs per workload at seed 42; ``*_calls`` must repeat exactly."""
    runs, ok = [], True
    for workload in workloads:
        pair = [bench(workload, 42, seconds, 1) for _ in range(2)]
        runs.extend(pair)
        first, second = (run["result"]["metrics"] for run in pair)
        calls = sorted(name for name in {*first, *second} if name.endswith("_calls"))
        differ = [name for name in calls if first.get(name) != second.get(name)]
        ok &= not differ and all(run["result"]["correct"] for run in pair)
        total = first["trace.total_s"]["value"]
        shares = {name[:-2]: first[name]["value"] / total for name in first
                  if name.endswith("_s") and not name.startswith(("import.", "trace."))}
        top = sorted(shares.items(), key=lambda item: -item[1])[:8]
        print(f"{workload}: {len(calls)} call counts, {len(differ)} differ {differ}; "
              f"span share {first['trace.span_share']['value']:.4f}, tracing overhead "
              f"{first['trace.overhead_share']['value']:+.1%} / "
              f"{second['trace.overhead_share']['value']:+.1%}")
        print("  layer shares: " + ", ".join(f"{name} {share:.0%}" for name, share in top))
    return runs, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarise", type=Path, help="re-analyse a saved output file")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    if args.summarise:
        return 0 if summarise(json.loads(args.summarise.read_text())["runs"]) else 1
    started = time.time()
    if args.trace_check:
        runs, ok = trace_check(workloads, args.seconds)
    else:
        runs = []
        for index in range(args.pairs):
            seed = index + 1
            order = ("A", "B")[:args.sets] if index % 2 == 0 else ("B", "A")[-args.sets:]
            for workload in workloads:
                for label in order:
                    run = bench(workload, seed, args.seconds, 0)
                    run["set"] = label
                    runs.append(run)
                    metrics = run["result"]["metrics"]
                    print(f"pair {index} {label} {workload:18} seed {seed:3} " + " ".join(
                        f"{name} {metric['value']:.4f}" for name, metric in metrics.items()), flush=True)
        ok = summarise(runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"started": started, "finished": time.time(), "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
