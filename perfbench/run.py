"""End-to-end benchmark of the experiments runner.

Every pass runs ``repro.experiments.runner.main`` -- the code path of
``python -m repro.experiments.runner`` -- in a fresh interpreter, one pass
at a time (a closed loop with one client), and checks the sha256 of the
runner's ``--json`` output.  Run from the repository root::

    python3 perfbench/run.py --workload hellthread-all --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

``--trace 0`` repeats passes for ``--seconds`` and reports the end-to-end
metrics as medians over them, wall and CPU time as multiples of a reference
probe interleaved with the passes (fixed work outside ``src/``, so the
ratio cancels the host's drifting speed; raw seconds are printed and
recorded).  ``--trace 1`` makes one traced pass that times the public call
into each layer, one cProfile pass that counts the Python calls made in
each layer, two untraced passes to price the tracing, and
``python -X importtime`` passes for the import split.

The standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Above it are a table of every metric (median,
quartiles, sample count), the host stamp and drift diagnostics; the same
record, raw samples included, is written under ``.bench_build/perfbench/``.

Passes import from ``src/`` with a bytecode cache kept under
``.bench_build/perfbench/pycache`` (``PYTHONPYCACHEPREFIX``), warmed once
per source tree before any timed pass, so set-up time is that of an
installed CLI, not of a first compile.  ``PYTHONHASHSEED`` is fixed; the
runner's work and output do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
SOURCE = ROOT / "src"
RUNNER_SOURCE = SOURCE / "repro" / "experiments" / "runner.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
PYCACHE = WORK_DIR / "pycache"
BYTECODE_POLICY = "PYTHONPYCACHEPREFIX=.bench_build/perfbench/pycache, warmed before timing"

#: The seed at which every workload's output digest is pinned.
REFERENCE_SEED = 42
#: A timed run makes at least this many passes, even past ``--seconds``.
MIN_PASSES = 2
#: No run may take longer than this, whatever its passes do.
RUN_LIMIT_S = 170.0
#: Top-level packages whose import time the traced run reports.
IMPORT_PACKAGES = ("repro", "scipy", "networkx", "numpy")
IMPORTTIME_PASSES = 3
#: The runner's experiment ids, in the order ``run_all`` runs them.
EXPERIMENT_IDS = (
    "dataset_stats", "figure1", "figure7", "table3", "figure2", "figure3",
    "impact", "figure4", "figure5", "table1", "rejects", "figure6", "table2",
    "collateral", "graph_impact", "solutions",
)


@dataclass(frozen=True)
class Workload:
    """One runner invocation (seed excluded) and what it must produce."""

    runner_args: tuple[str, ...]
    #: Experiment runs per pass; each is one operation.
    operations: int
    #: sha256 of the runner's ``--json`` output at ``REFERENCE_SEED``.
    reference: str


WORKLOADS = {
    "large-all": Workload(
        ("--scenario", "large", "--experiment", "all"),
        len(EXPERIMENT_IDS),
        "39a59c991bdedd60bb1ce14b3de93d21557d5aa28d5a3242483a7962fe64605e",
    ),
    "chaos-crawl-129d": Workload(
        ("--scenario", "chaos", "--campaign-days", "129", "--experiment", "dataset_stats"),
        1,
        "11c7e32474849a2903dfd9ec5ba698c98a03aed24a2ea9f9cd430f439afe5a14",
    ),
    # The runner's output does not depend on the crawl window, so this
    # workload pins the same digest as ``hellthread-all``.
    "hellthread-crawl-129d": Workload(
        ("--scenario", "hellthread", "--campaign-days", "129", "--experiment", "all"),
        len(EXPERIMENT_IDS),
        "9c906ef55491d839987e284bd82c3f8a320b1b1628bdcf2e9cd04d99e1980f8d",
    ),
    "hellthread-all": Workload(
        ("--scenario", "hellthread", "--experiment", "all"),
        len(EXPERIMENT_IDS),
        "9c906ef55491d839987e284bd82c3f8a320b1b1628bdcf2e9cd04d99e1980f8d",
    ),
}

#: End-to-end metrics: name -> unit.  Each is the median over a run's passes;
#: wall and CPU time are divided by the run's median reference probe.
END_TO_END = {"wall_per_ref": "ratio", "cpu_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
#: Raw samples a timed run also prints and records: name -> unit.
RAW_SAMPLES = {"wall_s": "s", "cpu_s": "s", "reference_s": "s"}

#: Layers with a span, a call count and an RSS reading (see ``layers.py``).
SPAN_LAYERS = (
    "synth.prepare", "activitypub.federate", "crawler.crawl",
    "datasets.assemble", "perspective.label",
)
COUNTERS = {
    "synth.users": "count", "synth.posts": "count",
    "activitypub.deliveries": "count", "activitypub.rejected": "count",
    "activitypub.batch_rejects": "count", "activitypub.batch_rewrites": "count",
    "crawler.requests": "count", "crawler.ok_share": "share",
    "crawler.retries": "count", "crawler.faults_injected": "count",
    "crawler.snapshots": "count",
    "datasets.posts": "count", "datasets.reject_edges": "count",
    "perspective.texts": "count", "perspective.cache_hit_share": "share",
}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run: name -> unit."""
    units = {f"import.{package}_s": "s" for package in IMPORT_PACKAGES}
    for layer in SPAN_LAYERS:
        units.update({f"{layer}_s": "s", f"{layer}_calls": "count", f"{layer}_rss_mb": "MB"})
    for experiment_id in EXPERIMENT_IDS:
        units.update({f"experiments.{experiment_id}_s": "s", f"experiments.{experiment_id}_calls": "count"})
    units.update({"experiments.json_s": "s", "experiments.json_calls": "count"})
    units.update(COUNTERS)
    units.update({
        "trace.total_s": "s", "trace.total_calls": "count",
        "trace.unattributed_s": "s", "trace.span_share": "share",
        "trace.overhead_share": "share",
    })
    return units


# --------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------- #
def _pass_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SOURCE), PYTHONPYCACHEPREFIX=str(PYCACHE), PYTHONHASHSEED="0")
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` (killing it after ``timeout`` s); return its rusage."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        finished, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
    finally:
        os.close(pidfd)
    if not finished:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return bool(finished), usage


def run_pass(mode: str, workload: Workload, seed: int, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its sample."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    stem = WORK_DIR / f"pass-{os.getpid()}"
    paths = tuple(stem.with_suffix(suffix) for suffix in (".result", ".json", ".log"))
    try:
        return _run_pass(mode, workload, seed, timeout, *paths)
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def _run_pass(mode: str, workload: Workload, seed: int, timeout: float,
              result_path: Path, output_path: Path, log_path: Path) -> dict:
    runner_args = [*workload.runner_args, "--seed", str(seed), "--json", str(output_path)]
    with open(log_path, "wb") as stderr:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(result_path), repr(launched), "--", *runner_args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
            env=_pass_env(), cwd=ROOT,
        )
        finished, usage = _wait(proc, timeout)
    sample = {
        "mode": mode,
        "exit": proc.returncode,
        "elapsed_s": time.monotonic() - launched,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if proc.returncode == 0 and result_path.exists():
        sample.update(json.loads(result_path.read_text(encoding="utf-8")))
        if output_path.exists():
            sample["digest"] = hashlib.sha256(output_path.read_bytes()).hexdigest()
    else:
        log = log_path.read_text(encoding="utf-8", errors="replace")
        reason = "timed out" if not finished else f"exit {proc.returncode}"
        sample["error"] = f"{reason}: {log[-2000:]}"
    return sample


class Checker:
    """Judge each pass's output digest.

    At ``REFERENCE_SEED`` every digest must equal the pinned reference; at
    any other seed every pass of the run must agree with the first.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.expected = workload.reference if seed == REFERENCE_SEED else None
        self.attempted = 0
        self.failed = 0

    def check(self, sample: dict) -> bool:
        self.attempted += self.workload.operations
        digest = sample.get("digest")
        if digest is not None and self.expected is None:
            self.expected = digest
        ok = "error" not in sample and digest is not None and digest == self.expected
        if not ok:
            self.failed += self.workload.operations
            sample.setdefault("error", f"digest {digest} != expected {self.expected}")
            print(f"failed pass: {sample['error']}", file=sys.stderr)
        sample["ok"] = ok
        return ok


# --------------------------------------------------------------------- #
# Host stamp and drift diagnostics (recorded, never gated on)
# --------------------------------------------------------------------- #
def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(300_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as loadavg:
        return [float(value) for value in loadavg.read().split()[:3]]


def _git_revision() -> str | None:
    """HEAD of the checkout, read without git (a bench checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_probe() -> dict:
    steal, total = _cpu_ticks()
    return {
        "time": time.time(),
        "loadavg": _loadavg(),
        "steal_ticks": steal,
        "total_ticks": total,
        "calibration_s": sorted(calibrate() for _ in range(3)),
    }


def host_stamp() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "bytecode": BYTECODE_POLICY,
    }


# --------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------- #
def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _fill(modes: tuple[str, ...], workload: Workload, seed: int, deadline: float,
          limit: float, at_least: int = 0) -> list[dict]:
    """Rounds of one pass per mode while the next round should end by ``deadline``."""
    samples: list[dict] = []
    rounds: list[float] = []
    while True:
        now = time.monotonic()
        if rounds:
            expected = now + statistics.mean(rounds)
            if expected > limit or (len(rounds) >= at_least and expected > deadline):
                return samples
        for mode in modes:
            samples.append(run_pass(mode, workload, seed, limit - time.monotonic()))
        rounds.append(time.monotonic() - now)


def warm_bytecode_cache(workload: Workload, seed: int, limit: float) -> None:
    """Compile ``src/`` and everything the runner imports into the cache.

    Done once per source tree and interpreter; the marker file records
    which.  Modules imported lazily outside ``src/`` are cached by the
    first pass that needs them.
    """
    marker = PYCACHE / "warm"
    stamp = f"{sys.executable} {platform.python_version()} {_source_digest()}"
    if marker.exists() and marker.read_text(encoding="utf-8") == stamp:
        return
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=_pass_env(), cwd=ROOT,
        check=True, timeout=max(limit - time.monotonic(), 1.0),
    )
    sample = run_pass("import", workload, seed, limit - time.monotonic())
    if "error" in sample:
        raise RuntimeError(f"cannot import the runner: {sample['error']}")
    marker.write_text(stamp, encoding="utf-8")


def timed_run(workload: Workload, seed: int, seconds: float, limit: float) -> dict:
    """Timed passes for ``seconds``, each after a reference probe.

    More probes fill what is left over.  The host's speed drifts by tens of
    percent within minutes; the probes' fixed work drifts with it, so wall
    and CPU time are reported as multiples of the run's median probe.
    """
    deadline = time.monotonic() + seconds
    checker = Checker(workload, seed)
    warm_bytecode_cache(workload, seed, limit)
    runs = _fill(("reference", "timed"), workload, seed, deadline, limit, at_least=MIN_PASSES)
    runs += _fill(("reference",), workload, seed, deadline, limit)
    passes = [sample for sample in runs if sample["mode"] == "timed"]
    for sample in passes:
        checker.check(sample)
    # A pass whose output is wrong still ran: it is timed, and its
    # operations are counted as failed.
    timed = [sample for sample in passes if "wall_s" in sample]
    samples = {
        name: [sample[name] for sample in timed] for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
    }
    samples["reference_s"] = [sample["reference_s"] for sample in runs if "reference_s" in sample]
    metrics = {}
    if timed and samples["reference_s"]:
        reference = statistics.median(samples["reference_s"])
        samples["wall_per_ref"] = [wall / reference for wall in samples["wall_s"]]
        samples["cpu_per_ref"] = [cpu / reference for cpu in samples["cpu_s"]]
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "samples": samples,
        "metrics": metrics,
        "raw": runs,
    }


def importtime_split(limit: float) -> dict[str, float]:
    """Median seconds per top-level package under ``python -X importtime``."""
    totals: dict[str, list[float]] = {package: [] for package in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_PASSES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.experiments.runner"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=_pass_env(), cwd=ROOT, text=True, check=True,
            timeout=max(limit - time.monotonic(), 1.0),
        )
        self_us = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            if package in self_us:
                self_us[package] += int(own)
        for package, micros in self_us.items():
            totals[package].append(micros / 1e6)
    return {f"import.{package}_s": statistics.median(values) for package, values in totals.items()}


def traced_run(workload: Workload, seed: int, limit: float) -> dict:
    """The import split, then untraced, traced, untraced and profiled passes.

    The two untraced passes bracket the traced one; their median is the
    base of the tracing overhead.
    """
    checker = Checker(workload, seed)
    warm_bytecode_cache(workload, seed, limit)
    values = importtime_split(limit)
    passes = []
    for mode in ("timed", "traced", "timed", "profiled"):
        passes.append(run_pass(mode, workload, seed, limit - time.monotonic()))
        checker.check(passes[-1])
    untraced = [sample["wall_s"] for sample in passes if sample["mode"] == "timed" and sample["ok"]]
    traced, profiled = passes[1], passes[3]
    if traced["ok"] and profiled["ok"] and untraced:
        times, calls = traced["spans"], profiled["spans"]
        for name in _attributed_spans():
            values[f"{name}_s"] = times.get(name, 0.0)
            values[f"{name}_calls"] = calls.get(name, 0)
        for layer in SPAN_LAYERS:
            values[f"{layer}_rss_mb"] = traced["rss_mb"].get(layer, 0.0)
        values.update({name: traced["counters"].get(name, 0) for name in COUNTERS})
        attributed = sum(values[f"{name}_s"] for name in _attributed_spans())
        values["trace.total_s"] = times["total"]
        values["trace.total_calls"] = calls["total"]
        values["trace.unattributed_s"] = times["total"] - attributed
        values["trace.span_share"] = attributed / times["total"]
        values["trace.overhead_share"] = times["total"] / statistics.median(untraced) - 1.0
    units = per_layer_units()
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "raw": passes,
    }


def _attributed_spans() -> list[str]:
    return [*SPAN_LAYERS, *(f"experiments.{i}" for i in EXPERIMENT_IDS), "experiments.json"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    workload = WORKLOADS[name]
    before = host_probe()
    if trace:
        outcome = traced_run(workload, seed, limit)
    else:
        outcome = timed_run(workload, seed, seconds, limit)
    after = host_probe()
    outcome["metrics"] = dict(sorted(outcome["metrics"].items()))
    expected = set(per_layer_units() if trace else END_TO_END)
    outcome["correct"] = outcome["failed"] == 0 and set(outcome["metrics"]) == expected
    steal = after["steal_ticks"] - before["steal_ticks"]
    ticks = after["total_ticks"] - before["total_ticks"]
    outcome.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        run_s=time.monotonic() - start,
        host=host_stamp(),
        drift={"before": before, "after": after, "steal_share": steal / ticks if ticks else 0.0},
    )
    return outcome


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def report(outcome: dict) -> None:
    """Print the run's metric table and diagnostics, and keep its record."""
    print(f"# {outcome['workload']}  seed={outcome['seed']}  trace={int(outcome['trace'])}  "
          f"ops={outcome['attempted']} failed={outcome['failed']}  run={outcome['run_s']:.1f}s")
    samples = outcome.get("samples", {})
    units = {name: metric["unit"] for name, metric in outcome["metrics"].items()}
    units.update({name: unit for name, unit in RAW_SAMPLES.items() if samples.get(name)})
    print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, unit in sorted(units.items()):
        values = samples.get(name) or [outcome["metrics"][name]["value"]]
        q1, median, q3 = _quartiles(values)
        print(f"{name:34} {unit:6} {median:14.6g} {q1:12.6g} {q3:12.6g} {len(values):3}")
    host, drift = outcome["host"], outcome["drift"]
    print(f"# host: {host['cpu_count']} CPU, Python {host['python']}, git {host['git_revision']}, "
          f"src {host['src_sha256'][:12]}; bytecode: {host['bytecode']}")
    print(f"# drift: loadavg {drift['before']['loadavg'][0]:.2f} -> {drift['after']['loadavg'][0]:.2f}, "
          f"steal {drift['steal_share']:.2%}, calibration loop "
          f"{drift['before']['calibration_s'][0]:.4f}s -> {drift['after']['calibration_s'][0]:.4f}s")
    records = WORK_DIR / "runs"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{stamp}-{outcome['workload']}-seed{outcome['seed']}-trace{int(outcome['trace'])}.json"
    path.write_text(json.dumps(outcome, indent=1), encoding="utf-8")
    print(f"# record: {path.relative_to(ROOT)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not RUNNER_SOURCE.exists():
        print(f"no runner at {RUNNER_SOURCE.relative_to(ROOT)}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(outcome)
        if not outcome["metrics"]:
            print(f"{name}: no pass succeeded", file=sys.stderr)
            return 1
        outcomes.append(outcome)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {f"{o['workload']}/{name}": m for o in outcomes for name, m in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
