#!/usr/bin/env python
"""Census of ``src/``: the functions that no runner path, example or gate runs.

Usage (no flags; about 1.5 minutes on a 2-vCPU guest; not a CI gate)::

    python benchmarks/census.py

It has two halves.

*Runtime half.*  Each invocation below runs in a fresh interpreter under
``python -m cProfile``; a ``src/`` function ran if any profile holds its
code object.  The invocations are eleven runner runs with every experiment
(``tiny``, ``small``, ``large`` and the 129-day ``chaos`` and ``hellthread``
crawls writing ``--json``; ``chaos``, ``hellthread``, ``viral``, ``churn``,
``burst`` and ``paper``), the five examples as scripts, and the perf harness
on ``tiny`` (``--repeats 1``: each race still runs every path once).

*Static half.*  Seed 42 is one input, so a function no invocation ran may
still be reachable: an MRF policy whose match is rare, or an endpoint that a
snapshot template requests.  A function that never ran is kept when its name
appears, as a ``Name``, an ``Attribute`` or a whole string constant, in code
that stays: ``src/`` outside the never-run functions, the examples, the perf
harness (``benchmarks/perf`` and ``run_benchmarks.py``) and ``perfbench/``.
Imports, ``__all__`` lists and docstrings do not count, so a re-export keeps
nothing.  Each kept function's body then counts as code that stays, and the
scan repeats until the kept set stops changing.  Tests do not count: a
function only tests reach is what the census looks for.

Every ``src/`` function the runner never ran lands in one class:

* ``example``: an example runs it.  Keep.
* ``harness``: only the perf harness runs it, as a race's seed reference or
  its gate.  Keep it, or move it verbatim into ``benchmarks/perf``.
* ``referenced``: nothing ran it, and the static half keeps it.
* ``delete``: nothing ran it and nothing that stays names it.

The census writes nothing into the repository.
"""

from __future__ import annotations

import ast
import os
import pstats
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNNER = ("-m", "repro.experiments.runner")
JSON = "{tmp}/runner.json"

#: (class, argv after ``python -m cProfile -o PROFILE``) per invocation.
INVOCATIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    *(
        ("runner", (*RUNNER, "--scenario", scenario, "--json", JSON))
        for scenario in ("tiny", "small", "large")
    ),
    *(
        ("runner", (*RUNNER, "--scenario", scenario, "--campaign-days", "129", "--json", JSON))
        for scenario in ("chaos", "hellthread")
    ),
    *(
        ("runner", (*RUNNER, "--scenario", scenario, "--experiment", "all"))
        for scenario in ("chaos", "hellthread", "viral", "churn", "burst", "paper")
    ),
    *(
        ("example", (str(ROOT / "examples" / f"{name}.py"),))
        for name in (
            "quickstart",
            "measurement_campaign",
            "collateral_damage_study",
            "moderation_policy_lab",
            "proposed_policies_demo",
        )
    ),
    (
        "harness",
        (
            str(ROOT / "benchmarks" / "run_benchmarks.py"),
            "--scenario", "tiny", "--repeats", "1", "--out-dir", "{tmp}",
        ),
    ),
)

#: Code outside ``src/`` that stays, for the static half.
STAYING = ("examples/*.py", "benchmarks/perf/*.py", "benchmarks/run_benchmarks.py", "perfbench/*.py")

#: Classes in report order; the runner's own functions are not listed.
CLASSES = ("example", "harness", "referenced", "delete")

#: Parallel profiled interpreters; the largest (``paper``) peaks near 0.5 GB.
WORKERS = 2


@dataclass(frozen=True)
class Function:
    path: Path
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def first(self) -> int:
        """The first line, decorators included (``co_firstlineno``)."""
        return min([self.node.lineno, *(d.lineno for d in self.node.decorator_list)])

    @property
    def lines(self) -> int:
        return self.node.end_lineno - self.first + 1

    def __str__(self) -> str:
        module = ".".join(self.path.relative_to(SRC).with_suffix("").parts)
        return f"{module}:{self.qualname}"


def _functions(path: Path, tree: ast.Module) -> list[Function]:
    """Every ``def`` in ``tree``, nested ones included, with its qualified name."""
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found.append(Function(path, qualname, child))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _profile(argv: tuple[str, ...], tmp: Path, index: int) -> set[tuple[str, int, str]]:
    """Run one invocation under cProfile; return the code objects it entered."""
    workdir = tmp / str(index)
    workdir.mkdir()
    profile = workdir / "profile.out"
    argv = tuple(arg.format(tmp=workdir) for arg in argv)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), *argv],
        cwd=workdir, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return {(os.path.realpath(f), line, name) for f, line, name in pstats.Stats(str(profile)).stats}


def runtime_half(functions: list[Function]) -> dict[Function, set[str]]:
    """Map each function to the classes of invocation that ran it."""
    by_code = {}
    for function in functions:
        path = os.path.realpath(function.path)
        for line in {function.first, function.node.lineno}:
            by_code[(path, line, function.name)] = function
    ran: dict[Function, set[str]] = {function: set() for function in functions}
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        def run(index: int) -> set[tuple[str, int, str]]:
            kind, argv = INVOCATIONS[index]
            start = time.monotonic()
            entered = _profile(argv, Path(tmp), index)
            label = " ".join(arg for arg in argv if "{tmp}" not in arg)
            print(f"  {time.monotonic() - start:6.1f} s  {kind:8s} {label}", file=sys.stderr)
            return entered

        for (kind, _), entered in zip(INVOCATIONS, pool.map(run, range(len(INVOCATIONS)))):
            for code in entered & by_code.keys():
                ran[by_code[code]].add(kind)
    return ran


def _references(tree: ast.Module, skip: set[ast.AST]) -> set[str]:
    """Names used in ``tree`` outside the ``skip`` definitions, imports and docstrings."""
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        if node in skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring or a bare string
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def static_half(trees: dict[Path, ast.Module], never_ran: set[Function]) -> set[Function]:
    """The never-run functions whose names code that stays uses."""
    outside: set[str] = set()
    for pattern in STAYING:
        for path in ROOT.glob(pattern):
            outside |= _references(ast.parse(path.read_text()), set())
    kept: set[Function] = set()
    while True:
        skip = {function.node for function in never_ran - kept}
        names = set(outside)
        for tree in trees.values():
            names |= _references(tree, skip)
        grown = {function for function in never_ran if function.name in names}
        if grown == kept:
            return kept
        kept = grown


def main() -> int:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    functions = [f for path, tree in trees.items() for f in _functions(path, tree)]
    print(f"profiling {len(INVOCATIONS)} invocations, {WORKERS} at a time ...", file=sys.stderr)
    ran = runtime_half(functions)
    never_ran = {function for function, kinds in ran.items() if not kinds}
    referenced = static_half(trees, never_ran)

    classes: dict[str, list[Function]] = {kind: [] for kind in CLASSES}
    for function, kinds in ran.items():
        if "runner" in kinds:
            continue
        if "example" in kinds:
            classes["example"].append(function)
        elif kinds:
            classes["harness"].append(function)
        elif function in referenced:
            classes["referenced"].append(function)
        else:
            classes["delete"].append(function)

    source_lines = sum(len(path.read_text().splitlines()) for path in trees)
    unrun = [function for kinds in classes.values() for function in kinds]
    print(f"src/: {source_lines} lines, {len(functions)} functions")
    print(f"the runner never ran {len(unrun)} ({sum(f.lines for f in unrun)} lines)")
    for kind in CLASSES:
        members = sorted(classes[kind], key=str)
        print(f"\n{kind}: {len(members)} functions, {sum(f.lines for f in members)} lines")
        for function in members:
            print(f"  {function}  ({function.lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
