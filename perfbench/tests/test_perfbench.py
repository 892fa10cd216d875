"""Self-test of the benchmark at tiny sizes.

Checks that every metric ``BENCHMARK.json`` names is printed with its unit,
that a traced run gives the same answers and counts as an untraced one, that
the same seed reproduces the same generated stream, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics, run, serve, stream, tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_metric_with_its_unit() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_same_seed_same_stream() -> None:
    first = stream.Gamma1Stream(5, 2_000, 40, 8).admissions(3, 50)
    again = stream.Gamma1Stream(5, 2_000, 40, 8).admissions(3, 50)
    other = stream.Gamma1Stream(6, 2_000, 40, 8).admissions(3, 50)
    for field in ("op_codes", "keys", "values", "expected"):
        assert np.array_equal(getattr(first, field), getattr(again, field))
    assert not np.array_equal(first.keys, other.keys)


def test_stream_is_exact_gamma1_over_a_fixed_population() -> None:
    gen = stream.Gamma1Stream(9, 5_000, 50, 10)
    ops = gen.admissions(0, 200)
    codes = ops.op_codes.reshape(200, 50)
    assert ((codes == stream.OP_INSERT).sum(axis=1) == 10).all()
    assert ((codes == stream.OP_DELETE).sum(axis=1) == 10).all()
    assert ((codes == stream.OP_SEARCH).sum(axis=1) == 30).all()
    # Replaying the stream on a dict reproduces every expected answer.
    model = gen.space.contents(*gen.live_range(0))
    for code, key, value, expected in zip(ops.op_codes, ops.keys.tolist(),
                                          ops.values.tolist(), ops.expected.tolist()):
        if code == stream.OP_INSERT:
            assert key not in model and expected == 0
            model[key] = value
        elif code == stream.OP_DELETE:
            assert model.pop(key) is not None and expected == 1
        else:
            assert model.get(key, stream.NOT_FOUND) == expected
    assert len(model) == 5_000
    assert model == gen.space.contents(*gen.live_range(200))


def test_admissions_do_not_depend_on_how_they_are_split() -> None:
    gen = stream.Gamma1Stream(4, 3_000, 40, 8)
    whole = gen.admissions(10, 30)
    parts = [gen.admissions(10, 7), gen.admissions(17, 1), gen.admissions(18, 22)]
    for field in ("op_codes", "keys", "values", "expected"):
        joined = np.concatenate([getattr(part, field) for part in parts])
        assert np.array_equal(getattr(whole, field), joined), field


def test_feed_hands_out_the_stream_in_blocks() -> None:
    gen = stream.Gamma1Stream(4, 3_000, 40, 8)
    feed = serve._Feed(gen)
    feed.block = 5
    taken, index = [], 0
    for count in (1, 3, 2, 8, 1, 4):
        taken.append(feed.take(index, count))
        index += count
    whole = gen.admissions(0, index)
    for field in ("op_codes", "keys", "values", "expected"):
        joined = np.concatenate([getattr(part, field) for part in taken])
        assert np.array_equal(getattr(whole, field), joined), field


#: Window lengths of the tiny runs.  Their op counts do not depend on speed:
#: the service windows are a fixed number of admissions, and churn runs one
#: cycle, the fewest that give its p99 enough calls.
SECONDS = {"serve_closed": 0.001, "serve_small": 0.001, "bulk_churn": 0.001}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_agree(workload: str) -> None:
    plain, _ = run.run_workload(workload, 3, SECONDS[workload], False, tiny=True)
    traced, tracer = run.run_workload(workload, 3, SECONDS[workload], True, tiny=True)
    for result, trace in ((plain, False), (traced, True)):
        assert result.correct, result.mismatches
        printed = result.output(trace)
        names = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == names
        assert printed["failed"] == 0 and printed["attempted"] > 0
    assert plain.attempted == traced.attempted
    if workload == "bulk_churn":
        assert plain.details["window_cycles"] == 1
    else:
        config = serve.tiny(serve.CLOSED if workload == "serve_closed" else serve.SMALL)
        for result in (plain, traced):
            assert result.details["window_admissions"] == config.window_admissions
            assert result.details["latency_samples"] == config.window_admissions
    if workload == "bulk_churn":
        # No timing decides anything here, so every count repeats exactly.
        for name in ("gpusim.allocations", "gpusim.coalesced_read_transactions",
                     "resize.count", "resize.grows", "resize.shrinks",
                     "resize.migrated_items"):
            assert plain.per_layer[name] == traced.per_layer[name], name
        for name in ("device_bytes_per_key", "modelled_ops_s"):
            assert plain.end_to_end[name] == traced.end_to_end[name], name
        assert traced.per_layer["alloc.warp_allocate.calls"] == traced.per_layer[
            "gpusim.allocations"]
    # The traced layers never claim more time than the window had.
    window = traced.per_layer["trace.window_s"]
    assert 0 < traced.per_layer["trace.layers_self_s"] <= window
    assert tracer is not None and tracer.names


def test_tracer_restores_every_entry_point() -> None:
    import importlib

    def current():
        found = []
        for module_name, owner, attribute, _ in tracing.ENTRY_POINTS:
            target = importlib.import_module(module_name)
            if owner:
                target = getattr(target, owner)
            found.append(getattr(target, attribute))
        return found

    before = current()
    with tracing.Tracer().installed():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
