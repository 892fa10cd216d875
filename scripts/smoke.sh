#!/usr/bin/env bash
# CI smoke: exercise every command the documentation shows, at tiny scale.
#
# Order: cheap registry/metadata commands first, then the test suites, then
# the experiment reproductions and examples. Fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== CLI metadata (README quickstart) =="
python -m repro list
python -m repro info

echo "== Tier-1 test suite =="
python -m pytest -x -q

echo "== Property-based differential harness (pinned seeds) =="
python -m pytest -q tests/proptest

echo "== Smoke-marked subset =="
python -m pytest -q -m smoke

echo "== Benchmark suite (regenerates every paper table) =="
python -m pytest -q benchmarks/bench_*.py

echo "== Shard-sweep reproduction (sharded engine) =="
python -m repro reproduce shard-sweep --scale 0.05 --out results/smoke

echo "== Every experiment, tiny scale =="
python -m repro reproduce all --scale 0.02 --out results/smoke

echo "== Examples =="
python examples/quickstart.py
python examples/sharded_engine.py

echo "== Service health counters (healthy + chaotic) =="
python -m repro service-health --ops 2048
python -m repro service-health --ops 2048 --chaos-seed 7

echo "== Process-executor service (real worker processes, incl. worker kills) =="
python -m repro service-health --ops 2048 --executor process --workers 2
python -m repro service-health --ops 2048 --executor process --workers 2 --chaos-seed 7

echo "== Process-executor teardown is crash-safe (no leaked workers) =="
python - <<'PY'
# Workers are daemonic spawn-context processes: even if close() is never
# called (a crashed parent), they must die with the parent rather than
# leak. Simulate the crash in a child interpreter and verify its workers
# are gone afterwards.
import os
import signal
import subprocess
import sys
import time

child_src = """
import os, sys
import numpy as np
from repro.engine import ShardedSlabHash

engine = ShardedSlabHash(4, 64, seed=1, executor="process", executor_workers=2)
keys = np.arange(1, 513, dtype=np.uint64)
engine.bulk_insert(keys, keys * 2)
assert len(engine) == 512
pids = [pid for pid in engine.process_executor.worker_pids() if pid]
print(" ".join(str(pid) for pid in pids), flush=True)
os.kill(os.getpid(), 9)  # crash without close(): workers must not leak
"""
proc = subprocess.run(
    [sys.executable, "-c", child_src],
    capture_output=True, text=True, env=dict(os.environ),
)
assert proc.returncode == -signal.SIGKILL, proc.stderr
worker_pids = [int(tok) for tok in proc.stdout.split()]
assert worker_pids, "child printed no worker pids"
deadline = time.time() + 10.0
while time.time() < deadline:
    alive = []
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        alive.append(pid)
    if not alive:
        break
    time.sleep(0.1)
assert not alive, f"leaked worker processes after parent crash: {alive}"
print(f"teardown OK: {len(worker_pids)} workers died with their parent")
PY

echo "== Durable snapshot / recover (persistence layer) =="
python -m repro snapshot results/smoke/snapshot-demo.npz --elements 2048
python -m repro recover results/smoke/snapshot-demo.npz
rm -f results/smoke/snapshot-demo.npz

echo "== Incremental resize, end to end (migrate + mid-flight snapshot) =="
python - <<'PY'
import numpy as np
from repro import SlabHash

keys = np.arange(1, 3001, dtype=np.uint64)
table = SlabHash(16, seed=3)
table.bulk_insert(keys, keys * 3)
table.begin_resize(64, step_buckets=4)
# A few interleaved writes plus steps, then a mid-migration round-trip.
while table.migration is not None and table.migration.steps < 3:
    table.migrate_step()
table.bulk_insert(np.array([9001], dtype=np.uint64), np.array([1], dtype=np.uint64))
table.save("results/smoke/mid-migration.npz")
resumed = SlabHash.load("results/smoke/mid-migration.npz")
assert resumed.migration is not None
assert resumed.migration.watermark == table.migration.watermark
while resumed.migration is not None:
    resumed.migrate_step()
assert resumed.num_buckets == 64
assert len(resumed) == len(keys) + 1
assert np.array_equal(resumed.bulk_search(keys), keys * 3)
print(f"incremental resize OK: {resumed.resize_stats.migration_steps} steps, "
      f"{resumed.resize_stats.migration_items} items migrated")
PY
rm -f results/smoke/mid-migration.npz

echo "== Static analysis (repro lint; docs/ANALYSIS.md) =="
python -m repro lint

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy --strict (src/repro) =="
  python -m mypy --strict src/repro
else
  echo "== mypy --strict skipped (mypy not installed; the CI lint job runs it) =="
fi

echo "== Bench schema drift guard (docs vs committed BENCH_*.json) =="
python scripts/check_bench_schema_drift.py

echo "== Tutorial snippets (docs/TUTORIAL.md, executed top to bottom) =="
python scripts/run_doc_snippets.py docs/TUTORIAL.md

echo "== Markdown link check (README.md + docs/) =="
python scripts/check_markdown_links.py README.md docs

echo "== Wall-clock backend benchmark (tiny sizes) =="
bash scripts/bench_wallclock.sh --sizes 4096 --repeats 1 --out results/smoke/BENCH_wallclock.json

echo "== Service-saturation benchmark (tiny sweep) =="
python benchmarks/bench_service_saturation.py --smoke \
  --out results/smoke/BENCH_service.json

echo "== Degraded-mode benchmark (merges into the smoke document) =="
python benchmarks/bench_degraded.py --smoke --out results/smoke/BENCH_service.json

echo "== smoke OK =="
