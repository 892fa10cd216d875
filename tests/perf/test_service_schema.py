"""Schema guards for the service benchmark documents.

The repo-root ``BENCH_service.json`` is owned by the schema-v4 saturation
sweep (``benchmarks/bench_service_saturation.py``), whose latency point
also records the fixed-load run.  The benchmark's ``validate_document`` is
the single source of truth for its layout; these tests run tiny instances
end to end so drift in the JSON layout fails CI before a malformed
document lands at the repo root.  The committed saturation document is also
held to the service-rebuild acceptance floors, so a regression cannot be
silently re-recorded.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_REPO_ROOT, "benchmarks"))

import bench_degraded  # noqa: E402  (needs the path insertion above)
import bench_service_saturation  # noqa: E402


class TestSaturationSchema:
    @pytest.mark.smoke
    def test_tiny_benchmark_roundtrip_matches_schema(self, tmp_path):
        out = tmp_path / "BENCH_service.json"
        assert bench_service_saturation.main(["--smoke", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        bench_service_saturation.validate_document(document)  # raises on drift
        assert document["schema_version"] == 4
        assert document["benchmark"] == "service_saturation"
        assert [entry["concurrency"] for entry in document["sweep"]] == [2, 4]
        assert document["latency"]["count"] == document["config"]["latency_point"]["num_ops"]
        knee_levels = {entry["concurrency"] for entry in document["sweep"]}
        assert document["knee"]["concurrency"] in knee_levels

    @pytest.mark.smoke
    def test_committed_service_file_matches_schema(self):
        path = os.path.join(_REPO_ROOT, "BENCH_service.json")
        if not os.path.exists(path):
            pytest.skip("no BENCH_service.json at the repo root yet")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        # The committed document must carry the degraded operating points
        # recorded by benchmarks/bench_degraded.py, not just the sweep.
        bench_service_saturation.validate_document(document, require_degraded=True)

    def test_committed_service_file_meets_acceptance_floors(self):
        """The committed document must show the rebuilt service's wins:
        >=5x the v2 single-drain baseline at the knee, a sub-2ms p99 at the
        configured latency point, and deadline-forced cuts staying a
        minority at every swept load."""
        path = os.path.join(_REPO_ROOT, "BENCH_service.json")
        if not os.path.exists(path):
            pytest.skip("no BENCH_service.json at the repo root yet")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["knee"]["speedup_vs_v2_baseline"] >= 5.0
        assert document["latency"]["p99_s"] <= 0.002
        for entry in document["sweep"]:
            assert entry["batches"]["deadline_forced_fraction"] < 0.5

    def test_committed_degraded_section_meets_rejection_latency_floor(self):
        """Backpressure must refuse faster than the healthy path serves:
        the overloaded point's rejection-latency p99 may not exceed the
        committed document's healthy served p99, and the quarantine point
        must show the breaker actually cycling (trips matched by restores)."""
        path = os.path.join(_REPO_ROOT, "BENCH_service.json")
        if not os.path.exists(path):
            pytest.skip("no BENCH_service.json at the repo root yet")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        degraded = document.get("degraded")
        if degraded is None:
            pytest.skip("committed document predates the degraded section")
        rejection_p99 = degraded["overloaded"]["rejection_latency"]["p99_s"]
        assert rejection_p99 <= document["latency"]["p99_s"], (
            "rejecting an admission took longer than serving one at the "
            "healthy latency point — backpressure is not cheap"
        )
        quarantined = degraded["quarantined"]
        assert quarantined["breaker_trips"] >= 1
        assert quarantined["shard_restores"] >= quarantined["breaker_trips"]
        assert quarantined["ops_per_sec"] > 0

    def test_degraded_validation_rejects_drift(self, tmp_path):
        out = tmp_path / "BENCH_service.json"
        bench_service_saturation.main(["--smoke", "--out", str(out)])
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)

        # A fresh sweep has no degraded section: fine by default, an error
        # when the caller demands one.
        bench_service_saturation.validate_document(document)
        with pytest.raises(ValueError, match="degraded"):
            bench_service_saturation.validate_document(document, require_degraded=True)

        assert bench_degraded.main(["--smoke", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as handle:
            merged = json.load(handle)
        bench_service_saturation.validate_document(merged, require_degraded=True)

        no_rejections = json.loads(json.dumps(merged))
        no_rejections["degraded"]["overloaded"]["rejected_admissions"] = 0
        with pytest.raises(ValueError, match="actually overload"):
            bench_service_saturation.validate_document(no_rejections)

        no_trips = json.loads(json.dumps(merged))
        no_trips["degraded"]["quarantined"]["breaker_trips"] = 0
        with pytest.raises(ValueError, match="actually trip"):
            bench_service_saturation.validate_document(no_trips)

    def test_validate_document_rejects_drift(self, tmp_path):
        out = tmp_path / "doc.json"
        bench_service_saturation.main(["--smoke", "--out", str(out)])
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)

        broken = dict(document)
        broken.pop("sweep")
        with pytest.raises(ValueError, match="sweep"):
            bench_service_saturation.validate_document(broken)

        wrong_knee = json.loads(json.dumps(document))
        wrong_knee["knee"]["concurrency"] = 999
        with pytest.raises(ValueError, match="knee concurrency"):
            bench_service_saturation.validate_document(wrong_knee)

        missing_fraction = json.loads(json.dumps(document))
        missing_fraction["sweep"][0]["batches"].pop("deadline_forced_fraction")
        with pytest.raises(ValueError, match="deadline_forced_fraction"):
            bench_service_saturation.validate_document(missing_fraction)

        wrong_count = json.loads(json.dumps(document))
        wrong_count["latency"]["count"] = 1
        with pytest.raises(ValueError, match="latency_point"):
            bench_service_saturation.validate_document(wrong_count)

        unsorted = json.loads(json.dumps(document))
        unsorted["sweep"] = list(reversed(unsorted["sweep"]))
        with pytest.raises(ValueError, match="strictly increasing"):
            bench_service_saturation.validate_document(unsorted)

