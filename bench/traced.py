"""The traced run: per-layer metrics from the stage-by-stage copy.

Each traced operation is paired with an untraced call of the real
function (``run_session`` or ``analyze_files``) on the same input; the
two alternate which runs first, so neither always finds warm caches. A
traced operation fails if the copy's artifacts, reports, clock or raised
error differ from the real call's, or if its stage times cover less than
COVERAGE_GATE of its wall time. After the timed pairs, one more traced
operation runs with tracemalloc on the link, digitize and stream stages.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from qkdstation.errors import StationError
from qkdstation.readout import TICK_PS
from qkdstation.session import analyze_files, run_session

import pipeline
import workloads

COVERAGE_GATE = 0.95

STAGES = (
    "qkd.code", "qkd.link", "qkd.sync", "tdc.sync_gate", "tdc.profiles",
    "calibration.calibrate", "tdc.digitize", "session.merge", "readout.pack",
    "readout.stream", "readout.write", "qkd.sidecar", "readout.read",
    "readout.unpack", "session.reconstruct", "sift.recover_clock",
    "sift.window_scan", "session.manifest",
)
COUNT_UNITS = {
    "calibration.stimulus_samples": "count",
    "readout.ticks": "count",
    "readout.arrived": "count",
    "readout.delivered": "count",
    "readout.drops": "count",
    "readout.stranded": "count",
    "readout.delivered_frac": "ratio",
    "readout.bytes_written": "B",
    "qkd.emitted": "count",
    "qkd.signal_detected": "count",
    "qkd.lost": "count",
    "qkd.signal_suppressed": "count",
    "tdc.hits_in": "count",
    "tdc.accepted": "count",
    "tdc.dead_time_rejected": "count",
    "tdc.disabled_rejected": "count",
    "tdc.gate_loop_hits": "count",
    "sift.sync_seen": "count",
    "sift.sync_used": "count",
    "sift.sync_used_frac": "ratio",
    "sift.offset_err_ps": "ps",
    "sift.drift_err_ppm": "ppm",
    "sift.residual_over_jitter": "ratio",
    "sift.windows": "count",
    "sift.matched": "count",
    "sift.sifted_bits": "count",
    "sift.sift_yield": "ratio",
}
TRACE_UNITS = {
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.op_s": "s",
    "trace.raised": "count",
}


PER_LAYER_UNITS = {
    **{f"{s}_s": "s" for s in STAGES},
    **COUNT_UNITS,
    **{f"{s}.peak_mb": "MB" for s in pipeline.MEMORY_STAGES},
    **TRACE_UNITS,
}


def _plain(value):
    """A numpy scalar as a Python number, so that it serialises as JSON."""
    return value.item() if isinstance(value, np.generic) else value


def _error_text(exc) -> str | None:
    return None if exc is None else f"{type(exc).__name__}: {exc}"


def _looped(times, dead_time) -> int:
    """Hits gate_dead_time walks one by one: the whole stream, if any gap is short."""
    if times.size < 2:
        return 0
    gaps = times[1:] - times[:-1]
    return int(times.size) if float(gaps.min()) < dead_time else 0


class SessionPair:
    """run_session against pipeline.acquire + analyze + write_manifest."""

    def __init__(self, cfg, digest):
        self.cfg, self.digest = cfg, digest

    def real(self, out):
        t0 = time.perf_counter()
        art, error = None, None
        try:
            art = run_session(self.cfg, out, self.digest)
        except StationError as exc:
            error = exc
        return time.perf_counter() - t0, (art, error)

    def copy(self, out, trace):
        t0 = time.perf_counter()
        acq = ana = error = None
        try:
            acq = pipeline.acquire(self.cfg, out, trace)
            ana = pipeline.analyze(acq.timetag_path, acq.sidecar_path, None, trace)
            pipeline.write_manifest(self.cfg, out, self.digest, acq, ana, trace)
        except StationError as exc:
            error = exc
        return time.perf_counter() - t0, (acq, ana, error)

    def differ(self, real, copy, real_out: Path, copy_out: Path) -> str | None:
        art, real_error = real
        acq, ana, copy_error = copy
        if _error_text(real_error) != _error_text(copy_error):
            return f"error: {_error_text(real_error)} vs {_error_text(copy_error)}"
        for name in workloads.SESSION_FILES:
            a, b = real_out / name, copy_out / name
            if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                return f"{name} differs"
        if art is not None and (ana is None or (art.reports, art.clock) != (ana.reports, ana.clock)):
            return "reports or clock differ"
        return None

    def counts(self, copy, trace) -> dict:
        cfg = self.cfg
        acq, ana, _ = copy
        c = {"calibration.stimulus_samples": cfg.calibration_samples * cfg.tdc.n_channels}
        c.update(trace.notes)
        if acq is not None:
            led, buf, states = acq.ledger, acq.buffer, acq.states.values()
            streams = acq.channel_streams.values()
            c.update({
                "readout.ticks": int(math.floor(acq.arrival[-1] / TICK_PS)) + 1 if acq.arrival.size else 0,
                "readout.arrived": buf.arrived,
                "readout.delivered": buf.delivered,
                "readout.drops": buf.drops,
                "readout.stranded": buf.occupancy,
                "readout.delivered_frac": buf.delivered / buf.arrived if buf.arrived else 0.0,
                "readout.bytes_written": acq.timetag_path.stat().st_size,
                "qkd.emitted": led.emitted,
                "qkd.signal_detected": led.signal_detected,
                "qkd.lost": led.lost,
                "qkd.signal_suppressed": led.signal_suppressed,
                "tdc.hits_in": sum(int(t.size) for t in streams),
                "tdc.accepted": sum(s.accepted for s in states),
                "tdc.dead_time_rejected": sum(s.rejected_dead_time for s in states),
                "tdc.disabled_rejected": sum(s.rejected_disabled for s in states),
                "tdc.gate_loop_hits": _looped(acq.sync_stream, cfg.detectors.det_dead_time)
                + sum(_looped(t, cfg.tdc.dead_time) for t in streams),
            })
        if ana is not None:
            c.update(sift_counts(cfg, ana, trace.notes["sift.sync_seen"]))
        return c


class ReplayPair:
    """analyze_files against pipeline.analyze over the dense window list."""

    def __init__(self, scan):
        self.cfg, self.scan = scan.cfg, scan

    def real(self, out):
        t0 = time.perf_counter()
        result, error = None, None
        try:
            result = analyze_files(self.scan.timetag, self.scan.sidecar, workloads.DENSE_WINDOWS)
        except StationError as exc:
            error = exc
        return time.perf_counter() - t0, (result, error)

    def copy(self, out, trace):
        t0 = time.perf_counter()
        ana, error = None, None
        try:
            ana = pipeline.analyze(self.scan.timetag, self.scan.sidecar, workloads.DENSE_WINDOWS, trace)
        except StationError as exc:
            error = exc
        return time.perf_counter() - t0, (ana, error)

    def differ(self, real, copy, real_out, copy_out) -> str | None:
        (result, real_error), (ana, copy_error) = real, copy
        if _error_text(real_error) != _error_text(copy_error):
            return f"error: {_error_text(real_error)} vs {_error_text(copy_error)}"
        if result is not None and (ana is None or result != (ana.reports, ana.clock)):
            return "reports or clock differ"
        return None

    def counts(self, copy, trace) -> dict:
        ana, _ = copy
        if ana is None:
            return dict(trace.notes)
        return {**trace.notes, **sift_counts(self.cfg, ana, trace.notes["sift.sync_seen"])}


def sift_counts(cfg, ana, seen) -> dict:
    clock = ana.clock
    r = next(r for r in ana.reports if r.window == cfg.analysis_window)
    return {
        "sift.sync_used": clock.n_sync_used,
        "sift.sync_used_frac": clock.n_sync_used / seen,
        "sift.offset_err_ps": abs(clock.offset_hat - cfg.clock.offset),
        "sift.drift_err_ppm": abs(clock.drift_hat_ppm - cfg.clock.drift_ppm),
        "sift.residual_over_jitter": clock.residual_rms / cfg.sync_jitter_sigma,
        "sift.windows": len(ana.reports),
        "sift.matched": r.matched,
        "sift.sifted_bits": r.sifted_bits,
        "sift.sift_yield": r.sifted_bits / r.matched if r.matched else 0.0,
    }


def trace_run(args, run_dir: Path):
    cfg, digest = workloads.generate_config(args.session_seed, run_dir)
    if args.workload == "replay_scan":
        facts = workloads.replay_facts(cfg, digest, run_dir / "artifacts")
        pair = ReplayPair(workloads.ReplayScan(cfg, digest, facts))
    else:
        pair = SessionPair(cfg, digest)

    real_s, copy_s, coverage, stage_s = [], [], [], {s: [] for s in STAGES}
    failures, raised_at, last, counts = [], None, None, {}
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(copy_s)
        real_out, copy_out = run_dir / f"real{i}", run_dir / f"copy{i}"
        trace = pipeline.Trace()
        if i % 2:  # alternate the order, so neither side always runs on warm caches
            (copy_sec, last), (real_sec, real) = pair.copy(copy_out, trace), pair.real(real_out)
        else:
            (real_sec, real), (copy_sec, last) = pair.real(real_out), pair.copy(copy_out, trace)
        real_s.append(real_sec)
        copy_s.append(copy_sec)
        share = sum(trace.seconds.values()) / copy_sec
        coverage.append(share)
        for s in STAGES:
            stage_s[s].append(trace.seconds.get(s, 0.0))
        raised_at = trace.failed_stage
        counts = pair.counts(last, trace)
        problem = pair.differ(real, last, real_out, copy_out)
        if problem is None and share < COVERAGE_GATE:
            problem = f"coverage {share:.3f} below {COVERAGE_GATE}"
        if problem:
            failures.append(problem)
        shutil.rmtree(real_out, ignore_errors=True)
        shutil.rmtree(copy_out, ignore_errors=True)
        if time.perf_counter() >= deadline:
            break

    memory = pipeline.Trace(memory=True)
    pair.copy(run_dir / "memory", memory)

    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    values.update({f"{s}_s": statistics.median(v) for s, v in stage_s.items()})
    values.update(counts)
    values.update({f"{s}.peak_mb": mb for s, mb in memory.peak_mb.items()})
    values.update({
        "trace.coverage": statistics.median(coverage),
        "trace.overhead_s": statistics.median(copy_s) - statistics.median(real_s),
        "trace.op_s": statistics.median(copy_s),
        "trace.raised": int(raised_at is not None),
    })
    detail = {
        "attempted": len(copy_s),
        "failed": len(failures),
        "first_failure": failures[0] if failures else None,
        "raised_at": raised_at,
        "error": _error_text(last[-1]),
        "coverage_min": min(coverage),
    }
    result = {
        "correct": not failures,
        "attempted": len(copy_s),
        "failed": len(failures),
        "metrics": {
            name: {"value": _plain(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
    return result, detail, cfg, digest
