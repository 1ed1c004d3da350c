"""Tests of the benchmark itself: helpers on hand-made inputs, a minimal run
of every workload in both modes, and failure accounting.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    data = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(data, 0) == 1.0
    assert stats.percentile(data, 100) == 4.0
    assert stats.median(data) == 2.5
    assert stats.percentile(data, 90) == pytest.approx(3.7)
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.median([3, 1, 2]) == 2.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_covered_length_merges_overlaps_and_clips():
    assert stats.covered_length([], 0.0, 10.0) == 0.0
    assert stats.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert stats.covered_length([(-2, 1), (9, 12)], 0, 10) == 2.0
    assert stats.covered_length([(1, 4), (1, 4)], 0, 10) == 3.0


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},   # overlaps span 1
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.0},   # grandchild of 0
    ]
    selfs = stats.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_tracer_wraps_and_restores_layer_functions():
    import workloads  # noqa: F401  (puts src/ on sys.path)
    from moptrans import hybridize, response
    from moptrans.config import load_config

    cfg = load_config(workloads.CONFIG)
    original = response.offchip_efficiency
    tracer = Tracer()
    with tracer.installed(op=7):
        assert response.offchip_efficiency is not original
        response.offchip_efficiency(cfg.device, cfg.pump)
    assert response.offchip_efficiency is original
    assert hybridize.operating_point.__module__ == "moptrans.hybridize"
    top = tracer.spans[0]
    assert top["name"] == "response.offchip_efficiency" and top["parent"] is None
    children = [s for s in tracer.spans if s["parent"] == top["id"]]
    assert any(s["name"] == "hybridize.operating_point" for s in children)
    assert all(s["op"] == 7 and s["end"] >= s["start"] for s in tracer.spans)


# ---------------------------------------------------------------------------
# minimal runs
# ---------------------------------------------------------------------------

@pytest.fixture
def short_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "INTERP_SAMPLES", 1)
    monkeypatch.setattr(run, "WARM_VERB_ROUNDS", 4)
    monkeypatch.setattr(run, "CENSUS_OPS", {k: 1 for k in run.CENSUS_OPS})


def _expected(trace: int) -> dict:
    group = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_emitted_with_its_unit(short_probes, workload, trace):
    record, result = run.run(workload, seed=3, seconds=0.01, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is True, record["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _expected(trace)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    assert record["seed"] == 3 and len(record["inputs_sha256"]) == 64


def test_failing_operation_is_counted_not_fatal(short_probes, tmp_path):
    bad = tmp_path / "bad.toml"
    text = (ROOT / "configs" / "paper_device.toml").read_text()
    bad.write_text(text.replace("coupling_j_hz = 1.74e9", "coupling_j_hz = inf"))
    record, result = run.run("cli-cold", seed=3, seconds=0.01, trace=False, config=bad)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"]
    assert any("spectrum" in reason for reason in record["failures"])
    assert set(result["metrics"]) == set(_expected(0))


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "model-warm", "--seed", "4",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(_expected(0))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
