"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve_closed`` -- 320-op Γ1 admissions from 32 closed-loop clients
  through ``SlabHashService``, then checkpoint / WAL tail / restart rounds;
* ``serve_small``  -- 40-op Γ1 admissions from 8 closed-loop clients through
  the same service, so batches are small and per-batch costs dominate;
* ``bulk_churn``   -- ``bulk_insert`` / ``bulk_delete`` / ``bulk_search`` on
  one auto-resizing ``SlabHash`` cycling between a base and a peak.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
work with every layer's entry points wrapped in spans and prints the
per-layer metrics.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
summarises the run.  A full record of each run (host fingerprint, CPU and
fault counts of the warm-up and the window, sample counts, both metric sets)
goes to ``.perfbench_runs/``, with the spans of a traced run beside it.
The program is built from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("serve_closed", "serve_small", "bulk_churn")


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """Run one workload in a scratch directory; returns ``(Result, Tracer or None)``."""
    from perfbench import churn, serve
    from perfbench.tracing import Tracer

    if name == "bulk_churn":
        config, runner = churn.CHURN, churn.run_churn
        if tiny:
            config = churn.tiny(config)
    else:
        config = serve.CLOSED if name == "serve_closed" else serve.SMALL
        runner = serve.run_serve
        if tiny:
            config = serve.tiny(config)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR)
    tracer = Tracer() if trace else None
    try:
        if tracer is None:
            return runner(config, seed, seconds, workdir), None
        with tracer.installed():
            return runner(config, seed, seconds, workdir, tracer), tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, not its files as
    # top-level modules.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [path for path in sys.path if os.path.abspath(path or ".") != here]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.host import fingerprint

    result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    output = result.output(bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "correct": result.correct,
        "mismatches": result.mismatches,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "details": result.details,
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=float)
    if tracer is not None:
        tracer.save(os.path.join(RUNS_DIR, stem + "-spans.npz"))
    print(json.dumps({"run": stem, "details": result.details,
                      "mismatches": result.mismatches}, default=float))
    print(json.dumps(output))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
