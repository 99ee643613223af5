"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass; it is not meant to be run by
hand.  The pass imports ``repro.experiments.runner`` (the set-up every CLI
call pays), then calls the runner's own ``main`` with the workload's
arguments, exactly as ``python -m repro.experiments.runner`` does::

    python3 perfbench/child.py MODE RESULT_PATH LAUNCHED -- RUNNER_ARGS...

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux, so set-up time spans
interpreter launch).  The pass writes one JSON object to ``RESULT_PATH``.

Modes:

``reference``
    import only the third-party stack the runner sits on (numpy,
    scipy.stats, networkx) and stop.  This work never touches ``src/``, so
    its time follows the host's speed and nothing a change to the program
    does: ``run.py`` divides the pass times of a run by it;
``import``
    import the runner and stop (bytecode-cache warm-up);
``timed``
    run the runner untouched;
``traced``
    wrap the public call into each layer in a span and read the layer
    counters the program already keeps;
``profiled``
    the traced pass under cProfile: each span records the Python calls
    made inside it instead of its time.

Nothing is imported before the runner except what the interpreter has
already loaded at start-up, so the set-up boundary is the runner's own.
"""

import sys
import time


REFERENCE_IMPORTS = ("numpy", "scipy.stats", "networkx")


def main() -> int:
    mode, result_path, launched = sys.argv[1], sys.argv[2], float(sys.argv[3])
    runner_args = sys.argv[sys.argv.index("--") + 1 :]
    if mode == "reference":
        for name in REFERENCE_IMPORTS:
            __import__(name)
        result = {"mode": mode, "reference_s": time.monotonic() - launched}
        return _write(result_path, result)

    import repro.experiments.runner as runner

    imported = time.monotonic()
    result = {"mode": mode, "setup_s": imported - launched}
    if mode == "timed":
        runner.main(runner_args)
        result["wall_s"] = time.monotonic() - imported
    elif mode in ("traced", "profiled"):
        from layers import trace_pass

        result.update(trace_pass(runner, runner_args, profile=mode == "profiled"))
    elif mode != "import":
        raise SystemExit(f"unknown pass mode {mode!r}")
    return _write(result_path, result)


def _write(result_path: str, result: dict) -> int:
    import json

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
