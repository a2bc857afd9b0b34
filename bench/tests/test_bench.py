"""Tests of the benchmark itself: python -m pytest bench/tests -q

Workloads run here on a 1 ms session with 10^5 calibration samples per
channel, by patching the reference config text the benchmark starts
from, so the whole file takes about a quarter of a minute.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # not the reference seed: a07's narrow band is not applied
# A session seed at which recover_clock's error is 139 ps, over the 100 ps check.
CLOCK_DEFECT_SEED = 563358203


@pytest.fixture
def tiny(monkeypatch):
    text = workloads.reference_config_text()
    for full, small in (("length_s = 0.01\n", "length_s = 0.001\n"),
                        ("calibration_samples = 1000000\n", "calibration_samples = 100000\n")):
        assert full in text
        text = text.replace(full, small)
    monkeypatch.setattr(workloads, "reference_config_text", lambda: text)


def make(name, run_dir):
    cfg, digest = workloads.generate_config(SEED, run_dir)
    facts = None
    if name == "replay_scan":
        facts = workloads.replay_facts(cfg, digest, run_dir / "artifacts")
    return workloads.CLASSES[name](cfg, digest, facts)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_smoke(name, tiny, tmp_path):
    wl = make(name, tmp_path)
    outcomes = run.measure(wl, 0.0, tmp_path)
    outcomes += run.measure(wl, 0.0, tmp_path)
    metrics, detail = run.summarize(outcomes, wl.pulses)
    assert detail["failed"] == 0, detail["first_failure"]
    assert metrics["pulses_per_s"] > 0 and metrics["op_s.p50"] > 0
    assert wl.verify(tmp_path) == {}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_copy_matches_program(name, tiny, tmp_path):
    args = SimpleNamespace(workload=name, session_seed=SEED, seconds=0.0)
    result, detail, _, _ = traced.trace_run(args, tmp_path)
    assert result["correct"], detail["first_failure"]
    metrics = result["metrics"]
    assert set(metrics) == set(traced.PER_LAYER_UNITS)
    assert metrics["trace.coverage"]["value"] >= traced.COVERAGE_GATE
    assert metrics["sift.sync_seen"]["value"] > 0


def test_failed_check_is_counted_and_excluded_from_op_times(tiny, tmp_path, monkeypatch):
    wl = make("reference_session", tmp_path)
    first = run.run_op(wl, tmp_path / "a")
    monkeypatch.setattr(workloads, "MAX_QBER", 0.0)  # every real QBER now fails
    failed = run.run_op(wl, tmp_path / "b")
    monkeypatch.undo()
    last = run.run_op(wl, tmp_path / "c")
    assert first[1] is None and last[1] is None
    assert failed[1].startswith("qber")

    metrics, detail = run.summarize([first, failed, last], wl.pulses)
    assert (detail["attempted"], detail["failed"]) == (3, 1)
    assert detail["fail_share"] == pytest.approx(1 / 3)
    assert detail["first_failure"] == failed[1]
    assert detail["op_s_samples"] == 2
    assert metrics["op_s.p50"] == statistics.median([first[0], last[0]])
    total = first[0] + failed[0] + last[0]
    assert metrics["pulses_per_s"] == pytest.approx(2 * wl.pulses / total)


def test_summarize_falls_back_to_all_operations_when_none_succeed():
    metrics, detail = run.summarize([(2.0, "raised X"), (4.0, "raised X")], 10)
    assert metrics["pulses_per_s"] == 0
    assert metrics["op_s.p50"] == 3.0
    assert detail["op_s_over"].startswith("attempted")


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_object_last(trace):
    proc = cli(ROOT, "--workload", "reference_session", "--seed", str(SEED),
               "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = run.END_TO_END_UNITS if trace == "0" else traced.PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    detail = json.loads(lines[-2])["detail"]
    assert detail["seed"] == SEED and len(detail["config_sha256"]) == 64
    assert detail["session_seed"] == workloads.REFERENCE_SEED
    assert {"python", "numpy", "nproc", "blas_threads"} <= set(detail["environment"])


def test_cli_reports_the_clock_defect_at_its_session_seed():
    proc = cli(ROOT, "--workload", "reference_session", "--seed", str(SEED),
               "--session-seed", str(CLOCK_DEFECT_SEED), "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["pulses_per_s"]["value"] == 0
    assert json.loads(lines[-2])["detail"]["first_failure"].startswith("clock")
    assert "first failure: clock" in proc.stderr


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = cli(tmp_path, "--workload", "reference_session", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_replay_pair_records_the_stage_that_raised(tiny, tmp_path):
    pair = traced.ReplayPair(make("replay_scan", tmp_path))
    pair.scan.timetag.write_bytes(pair.scan.timetag.read_bytes()[:10])
    trace = traced.pipeline.Trace()
    _, real = pair.real(tmp_path / "real")
    _, copy = pair.copy(tmp_path / "copy", trace)
    assert real[1] is not None and pair.differ(real, copy, None, None) is None
    assert trace.failed_stage == "readout.read"
    assert pair.counts(copy, trace) == {}


def test_measure_spreads_the_pauses_over_the_run(tmp_path, monkeypatch):
    clock = [0.0]  # each operation takes one second; pauses take none
    ticking = SimpleNamespace(call=lambda out: clock.__setitem__(0, clock[0] + 1),
                              check=lambda result, out: None)
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    pauses = []
    outcomes = run.measure(ticking, 10.0, tmp_path, pause=lambda: pauses.append(clock[0]), pauses=4)
    assert len(outcomes) == 10
    assert pauses == [2.0, 4.0, 6.0, 8.0]
