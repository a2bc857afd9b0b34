"""Stage-by-stage copy of ``run_session`` and ``analyze_files``.

The copy calls the same public functions of ``qkdstation`` in the same
order as ``qkdstation.session`` does, with a timer around each call, so
the benchmark can say where a session's time goes without any tracing
inside ``src/``. ``traced.py`` checks on every traced run that the copy
writes byte-identical artifacts and returns equal reports and clock; if
``session.py`` changes and the copy does not, the traced run fails.

Stage names are ``<module>.<step>``, where the module is the layer of
``qkdstation`` whose functions the stage calls.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qkdstation.calibration import table_from_widths
from qkdstation.config import RunManifest, TOOL_VERSION, file_digest
from qkdstation.errors import FileFormatError, StationError
from qkdstation.qkd import (
    DET_SYNC,
    ORIGIN_BACKGROUND,
    DetectionSet,
    SidecarMeta,
    emit_sync,
    gen_random_code,
    poisson_background,
    read_alice_sidecar,
    simulate_link,
    write_alice_sidecar,
)
from qkdstation.readout import (
    pack_words,
    read_timetag_file,
    stream,
    unpack_words,
    unwrap_coarse,
    write_timetag_file,
)
from qkdstation.seeding import derive_rng
from qkdstation.session import (
    SYNC_CHANNEL,
    build_profiles,
    calibrate_all,
    tap_width_matrix,
)
from qkdstation.sift import recover_clock, window_scan, write_sift_csv
from qkdstation.tdc import ChannelState, TdcConfig, digitize_stream, gate_dead_time

# Stages whose peak Python-visible allocation the memory pass records.
MEMORY_STAGES = ("qkd.link", "tdc.digitize", "readout.stream")


class Trace:
    """Accumulated wall time per stage, plus tracemalloc peaks on request.

    With ``memory`` set, the stages in MEMORY_STAGES run under
    tracemalloc; that slows them, so timings come from passes without it.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.seconds: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}
        self.notes: dict[str, int] = {}
        self.failed_stage: str | None = None

    def note(self, name: str, value: int) -> None:
        self.notes[name] = value

    @contextlib.contextmanager
    def stage(self, name: str):
        watch = self.memory and name in MEMORY_STAGES
        if watch:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            if self.failed_stage is None:
                self.failed_stage = name
            raise
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
            if watch:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)


@dataclass
class Acquisition:
    """What the write side of a session produced, kept for the checks."""

    timetag_path: Path
    sidecar_path: Path
    ledger: object
    buffer: object
    arrival: np.ndarray
    sync_stream: np.ndarray  # merged sync + background, before the gate
    channel_streams: dict[int, np.ndarray]  # each channel's digitizer input
    states: dict[int, ChannelState]


@dataclass
class Analysis:
    reports: list
    clock: object


def _digitize(cfg, detections, profiles, trace, streams: dict, states: dict):
    """Copy of ``session.digitize_detections`` that keeps each input and ChannelState."""
    times, chans, coarses, fines, rolls = [], [], [], [], []
    modulus = cfg.tdc.coarse_modulus
    for c in range(cfg.tdc.n_channels):
        with trace.stage("session.merge"):
            mask = (detections.detectors == c) & (detections.times >= 0)
            if not np.any(mask):
                continue
            t = detections.times[mask]
        with trace.stage("tdc.digitize"):
            state = ChannelState(enabled=cfg.channel_enabled(c))
            rng = derive_rng(cfg.seed, "tdc", f"ch{c}")
            batch = digitize_stream(t, profiles[c], state, cfg.tdc, rng)
        streams[c] = t
        states[c] = state
        if batch.n == 0:
            continue
        with trace.stage("session.merge"):
            accepted_t = t[batch.accepted_index]
            edge = np.ceil(accepted_t / cfg.tdc.clock_period).astype(np.int64)
            times.append(accepted_t)
            chans.append(np.full(batch.n, c, dtype=np.int64))
            coarses.append(batch.coarse)
            fines.append(batch.fine)
            rolls.append((edge // modulus) % 2)
    with trace.stage("session.merge"):
        if not times:
            empty = np.empty(0, dtype=np.int64)
            return np.empty(0), empty, empty.copy(), empty.copy(), empty.copy()
        t = np.concatenate(times)
        ch = np.concatenate(chans)
        co = np.concatenate(coarses)
        fi = np.concatenate(fines)
        ro = np.concatenate(rolls)
        order = np.lexsort((ch, t))
        return t[order], ch[order], co[order], fi[order], ro[order]


def acquire(cfg, out_dir, trace) -> Acquisition:
    """The write side of ``run_session``: code to ``session.qtt`` and ``alice.qac``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timetag_path = out / "session.qtt"
    sidecar_path = out / "alice.qac"

    with trace.stage("qkd.code"):
        alice = gen_random_code(
            cfg.n_pulses, cfg.basis_bias, cfg.bit_bias, derive_rng(cfg.seed, "alice")
        )
    with trace.stage("qkd.link"):
        signal, ledger = simulate_link(
            alice, cfg.link, cfg.detectors, cfg.clock, derive_rng(cfg.seed, "link")
        )
    with trace.stage("qkd.sync"):
        sync = emit_sync(
            cfg.n_sync,
            cfg.link.sync_period,
            cfg.clock,
            jitter_sigma=cfg.sync_jitter_sigma,
            seed=derive_rng(cfg.seed, "sync"),
        )
        t0 = float(cfg.clock.to_receiver(0.0))
        t1 = float(cfg.clock.to_receiver(cfg.n_pulses * cfg.link.pulse_period))
        sync_bg = poisson_background(
            cfg.link.background_rate,
            t0,
            t1,
            DET_SYNC,
            ORIGIN_BACKGROUND,
            derive_rng(cfg.seed, "sync-background"),
        )
    with trace.stage("tdc.sync_gate"):
        merged_sync = DetectionSet.merge(sync, sync_bg)
        keep, _ = gate_dead_time(merged_sync.times, cfg.detectors.det_dead_time)
        detections = DetectionSet.merge(signal, merged_sync.select(keep))
    with trace.stage("tdc.profiles"):
        profiles = build_profiles(cfg)
    with trace.stage("calibration.calibrate"):
        tables = calibrate_all(cfg, profiles)
    streams, states = {}, {}
    arrival, ch, co, fi, ro = _digitize(cfg, detections, profiles, trace, streams, states)
    with trace.stage("readout.pack"):
        words = pack_words(ch, co, fi, ro)
    with trace.stage("readout.stream"):
        buffer, delivered = stream(arrival, cfg.buffer_depth, cfg.link_rate)
    with trace.stage("readout.write"):
        write_timetag_file(
            timetag_path, cfg.tdc, words[delivered], tap_width_matrix(cfg.tdc, tables)
        )
    with trace.stage("qkd.sidecar"):
        meta = SidecarMeta(
            pulse_period=cfg.link.pulse_period,
            sync_period=cfg.link.sync_period,
            offset_bound=cfg.offset_bound,
            disclose_fraction=cfg.disclose_fraction,
            f_ec=cfg.f_ec,
            root_seed=cfg.seed,
            windows=cfg.windows,
        )
        write_alice_sidecar(sidecar_path, alice, meta)
    return Acquisition(
        timetag_path=timetag_path,
        sidecar_path=sidecar_path,
        ledger=ledger,
        buffer=buffer,
        arrival=arrival,
        sync_stream=merged_sync.times,
        channel_streams=streams,
        states=states,
    )


def analyze(timetag_path, sidecar_path, windows, trace) -> Analysis:
    """Copy of ``analyze_files`` without the pair dump."""
    with trace.stage("readout.read"):
        header, words, width_block = read_timetag_file(timetag_path)
    with trace.stage("qkd.sidecar"):
        alice, meta = read_alice_sidecar(sidecar_path)
    with trace.stage("readout.unpack"):
        tdc_cfg = TdcConfig(
            clock_period=header.clock_period,
            n_taps=header.n_taps,
            n_channels=header.n_channels,
        )
        channel, coarse, fine, _roll = unpack_words(words)
        if width_block is None:
            raise StationError(
                "time-tag file carries no calibration block; cannot reconstruct"
            )
        if channel.size and int(channel.max()) >= header.n_channels:
            raise FileFormatError(
                f"record names channel {int(channel.max())} but the header "
                f"declares only {header.n_channels} channels"
            )
    with trace.stage("session.reconstruct"):
        sync_times = np.empty(0)
        data_times, data_dets = [], []
        for c in np.unique(channel):
            mask = channel == c
            table = table_from_widths(int(c), width_block[int(c)], tdc_cfg)
            unwrapped = unwrap_coarse(coarse[mask])
            ts = unwrapped * tdc_cfg.clock_period - table.bin_centers[fine[mask]]
            if int(c) == SYNC_CHANNEL:
                sync_times = ts
            elif int(c) < SYNC_CHANNEL:
                data_times.append(ts)
                data_dets.append(np.full(ts.size, int(c), dtype=np.uint8))
    trace.note("sift.sync_seen", int(sync_times.size))
    with trace.stage("sift.recover_clock"):
        clock = recover_clock(np.sort(sync_times), meta.sync_period, meta.offset_bound)
    with trace.stage("sift.window_scan"):
        if data_times:
            dtimes = np.concatenate(data_times)
            ddets = np.concatenate(data_dets)
        else:
            dtimes, ddets = np.empty(0), np.empty(0, dtype=np.uint8)
        use_windows = tuple(windows) if windows is not None else meta.windows
        reports = window_scan(
            dtimes,
            ddets,
            clock,
            meta.pulse_period,
            alice,
            use_windows,
            disclose_fraction=meta.disclose_fraction,
            seed=meta.root_seed,
            f_ec=meta.f_ec,
        )
    return Analysis(reports=reports, clock=clock)


def write_manifest(cfg, out_dir, config_digest, acq, ana, trace) -> None:
    """The tail of ``run_session``: the report CSV and ``manifest.json``."""
    with trace.stage("session.manifest"):
        out = Path(out_dir)
        report_path = out / "sift_reports.csv"
        write_sift_csv(ana.reports, report_path)
        summary_report = next(r for r in ana.reports if r.window == cfg.analysis_window)
        clock, ledger, buffer = ana.clock, acq.ledger, acq.buffer
        summary = {
            "qber": float(summary_report.qber),
            "sifted_rate_bps": float(summary_report.sifted_rate),
            "secure_rate_bps": float(summary_report.secure_rate),
            "matched": int(summary_report.matched),
            "sifted_bits": int(summary_report.sifted_bits),
            "clock_offset_ps": float(clock.offset_hat),
            "clock_drift_ppm": float(clock.drift_hat_ppm),
            "sync_residual_rms_ps": float(clock.residual_rms),
            "pulses_emitted": int(ledger.emitted),
            "signal_detected": int(ledger.signal_detected),
            "buffer_drops": int(buffer.drops),
            "words_delivered": int(buffer.delivered),
        }
        outputs = [
            {"path": p.name, "sha256": file_digest(p), "bytes": p.stat().st_size}
            for p in (acq.timetag_path, acq.sidecar_path, report_path)
        ]
        manifest = RunManifest(
            config_sha256=config_digest,
            tool_version=TOOL_VERSION,
            root_seed=cfg.seed,
            outputs=outputs,
            summary=summary,
        )
        (out / "manifest.json").write_text(manifest.to_json() + "\n")
