"""End-to-end session pipeline and offline replay.

``run_session`` drives the full chain: Alice's code and pulse train, the
optical link, the sync comb, per-channel TDC digitization, packing,
the rate-capped readout link, and file output. Analysis then runs on
the written artifacts through exactly the same code path as the offline
``analyze_files``, so a replay of a run's outputs reproduces its reports
field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import readout
from .config import ExperimentConfig, RunManifest, TOOL_VERSION, file_digest
from .errors import ConfigError, FileFormatError
from .qkd import (
    DET_SYNC,
    ORIGIN_BACKGROUND,
    DetectionSet,
    SidecarMeta,
    TruthLedger,
    emit_sync,
    gen_random_code,
    poisson_background,
    read_alice_sidecar,
    simulate_link,
    write_alice_sidecar,
)
from .seeding import derive_rng
from .sift import (
    ClockEstimate,
    SiftReport,
    format_summary,
    match_slots,
    recover_clock,
    window_scan,
    write_sift_csv,
)
from .tdc import (
    ChannelState,
    DelayLineProfile,
    TdcConfig,
    build_delay_line,
    digitize_stream,
    gate_dead_time,
    reconstruct_stream,
)

# Wire convention: detector d lands on TDC channel d (Z0,Z1,X0,X1 on 0..3,
# the sync detector on 4). Offline analysis relies on it.
SYNC_CHANNEL = DET_SYNC


@dataclass
class SessionArtifacts:
    """Paths and headline results of one run."""

    timetag_path: Path
    sidecar_path: Path
    reports: list[SiftReport]
    clock: ClockEstimate
    ledger: TruthLedger
    buffer: readout.ReadoutBuffer
    summary_report: SiftReport


def build_profiles(cfg: ExperimentConfig) -> list[DelayLineProfile]:
    """One delay line per channel from the configured DNL directive."""
    profiles = []
    for c in range(cfg.tdc.n_channels):
        seed = int(derive_rng(cfg.seed, "dnl", f"ch{c}").integers(0, 2**63))
        profiles.append(
            build_delay_line(
                cfg.tdc,
                cfg.dnl_spec,
                jitter_sigma=cfg.channel_jitter(c),
                seed=seed,
                channel=c,
            )
        )
    return profiles


def calibrate_all(
    cfg: ExperimentConfig, profiles: list[DelayLineProfile]
) -> list[cal.CalibrationTable]:
    """Code-density-calibrate every channel with the synthetic stimulus."""
    tables = []
    for p in profiles:
        rng = derive_rng(cfg.seed, "calib", f"ch{p.channel}")
        tables.append(
            cal.calibrate_from_stimulus(p, cfg.tdc, cfg.calibration_samples, rng)
        )
    return tables


def tap_width_matrix(
    cfg: TdcConfig, tables: list[cal.CalibrationTable]
) -> np.ndarray:
    """Stack tables into the (n_channels, n_taps) block the file stores."""
    widths = np.zeros((cfg.n_channels, cfg.n_taps))
    for t in tables:
        widths[t.channel] = t.bin_widths[: cfg.n_taps]
    return widths


def simulate_detections(cfg: ExperimentConfig, codes: np.ndarray):
    """Signal + noise + sync streams merged into one receiver-side set."""
    signal, ledger = simulate_link(
        codes, cfg.link, cfg.detectors, cfg.clock, derive_rng(cfg.seed, "link")
    )
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
    merged_sync = DetectionSet.merge(sync, sync_bg)
    keep, _ = gate_dead_time(merged_sync.times, cfg.detectors.det_dead_time)
    return DetectionSet.merge(signal, merged_sync.select(keep)), ledger


def digitize_detections(
    cfg: ExperimentConfig,
    detections: DetectionSet,
    profiles: list[DelayLineProfile],
):
    """Run every channel's slice of ``detections`` through its digitizer.

    Returns parallel arrays (arrival time, channel, coarse, fine,
    rollover parity) in the (channel, time) order of ``detections``:
    ``readout.stream`` puts them in arrival order, ties in channel order.
    """
    dets = detections.detectors
    if np.any(dets[1:] < dets[:-1]):  # a channel's hits must be one slice
        raise ConfigError("detections must be in (detector, time) order")
    if dets.size and int(dets[-1]) >= cfg.tdc.n_channels:
        raise ConfigError(f"detector {dets[-1]} has no channel under [tdc] n_channels")
    columns = []
    edges = np.searchsorted(dets, np.arange(cfg.tdc.n_channels + 1))
    for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
        # hits landing before the counter epoch (possible with a negative
        # clock offset) never reach the digitizer
        t = detections.times[lo:hi]
        t = t[np.searchsorted(t, 0.0) :]
        state = ChannelState(enabled=cfg.channel_enabled(c))
        rng = derive_rng(cfg.seed, "tdc", f"ch{c}")
        batch = digitize_stream(t, profiles[c], state, cfg.tdc, rng)
        channel = np.full(batch.n, c, dtype=np.int64)
        columns.append(
            (t[batch.accepted_index], channel, batch.coarse, batch.fine, batch.rollover)
        )
    return tuple(np.concatenate(col) for col in zip(*columns))


def analyze_files(
    timetag_path,
    sidecar_path,
    windows=None,
    pairs_out=None,
) -> tuple[list[SiftReport], ClockEstimate]:
    """Offline replay: reconstruct, recover the clock, match and sift.

    With ``windows`` omitted the window list stored in the sidecar is
    used, which makes this byte-for-byte the analysis a run performs on
    its own artifacts. ``pairs_out`` names a CSV to receive the matched
    pair dump (window, pulse index, detector, residual) for debugging.
    """
    tdc_cfg, words, width_block = readout.read_timetag_file(timetag_path)
    codes, meta = read_alice_sidecar(sidecar_path)
    channel, coarse, fine, roll = readout.unpack_words(words)
    sync_times = np.empty(0)
    data_times, data_dets = [np.empty(0)], [np.empty(0, dtype=np.uint8)]
    for c in np.flatnonzero(np.bincount(channel)):
        rows = np.flatnonzero(channel == c)
        # a coarse decrease is a counter wrap iff the rollover parity flips
        bad = np.flatnonzero((np.diff(coarse[rows]) < 0) != (np.diff(roll[rows]) != 0))
        if bad.size:
            raise FileFormatError(
                f"channel {c} record out of order: coarse count and rollover "
                "parity disagree",
                offset=readout.HEADER_SIZE + readout.WORD_SIZE * int(rows[bad[0] + 1]),
            )
        table = cal.table_from_widths(int(c), width_block[int(c)], tdc_cfg)
        unwrapped = readout.unwrap_coarse(coarse[rows])
        ts = reconstruct_stream(unwrapped, fine[rows], table, tdc_cfg)
        if int(c) == SYNC_CHANNEL:
            sync_times = ts
        elif int(c) < SYNC_CHANNEL:
            data_times.append(ts)
            data_dets.append(np.full(ts.size, int(c), dtype=np.uint8))

    clock = recover_clock(sync_times, meta.sync_period, meta.offset_bound)
    dtimes, ddets = np.concatenate(data_times), np.concatenate(data_dets)
    use_windows = tuple(windows) if windows is not None else meta.windows
    reports = window_scan(
        dtimes,
        ddets,
        clock,
        meta.pulse_period,
        codes,
        use_windows,
        disclose_fraction=meta.disclose_fraction,
        seed=meta.root_seed,
        f_ec=meta.f_ec,
    )
    if pairs_out is not None:
        _dump_matched_pairs(
            pairs_out, dtimes, ddets, clock, meta.pulse_period, codes.size, use_windows
        )
    return reports, clock


def _dump_matched_pairs(path, times, detectors, clock, pulse_period, n_slots, windows):
    pulse, det, res = match_slots(times, detectors, clock, pulse_period, windows[-1], n_slots)
    # csv.writer's bytes (no field needs quoting), formatted a window at a time
    with open(path, "w", newline="") as fh:
        fh.write("window_ps,pulse_index,detector,residual_ps\r\n")
        for w in windows:
            keep, label = np.abs(res) <= w / 2, f"{w:.1f}"
            rows = zip(pulse[keep].tolist(), det[keep].tolist(), res[keep].tolist())
            fh.write("".join(f"{label},{p},{d},{r:.3f}\r\n" for p, d, r in rows))


def _write_artifacts(
    cfg: ExperimentConfig, timetag_path: Path, sidecar_path: Path
) -> tuple[TruthLedger, readout.ReadoutBuffer]:
    """The write side of a run: Alice's code through the link, the
    digitizers and the readout to ``session.qtt`` and ``alice.qac``.

    Only the ledger and the buffer state leave it, so the code, the
    detections, the records and the words are freed before the replay.
    """
    profiles = build_profiles(cfg)
    codes = gen_random_code(
        cfg.n_pulses, cfg.basis_bias, cfg.bit_bias, derive_rng(cfg.seed, "alice")
    )
    detections, ledger = simulate_detections(cfg, codes)
    tables = calibrate_all(cfg, profiles)
    arrival, ch, co, fi, ro = digitize_detections(cfg, detections, profiles)

    words = readout.pack_words(ch, co, fi, ro)
    buffer, delivered = readout.stream(arrival, cfg.buffer_depth, cfg.link_rate)
    readout.write_timetag_file(
        timetag_path,
        cfg.tdc,
        words[delivered],
        tap_width_matrix(cfg.tdc, tables),
    )
    meta = SidecarMeta(
        pulse_period=cfg.link.pulse_period,
        sync_period=cfg.link.sync_period,
        offset_bound=cfg.offset_bound,
        disclose_fraction=cfg.disclose_fraction,
        f_ec=cfg.f_ec,
        root_seed=cfg.seed,
        windows=cfg.windows,
    )
    write_alice_sidecar(sidecar_path, codes, meta)
    return ledger, buffer


def run_session(
    cfg: ExperimentConfig, out_dir, config_digest: str = ""
) -> SessionArtifacts:
    """Execute the full pipeline and write all artifacts into ``out_dir``."""
    if cfg.tdc.n_channels <= SYNC_CHANNEL or not cfg.channel_enabled(SYNC_CHANNEL):
        raise ConfigError(
            f"run needs channel {SYNC_CHANNEL} in [tdc] n_channels and [tdc] enabled"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timetag_path = out / "session.qtt"
    sidecar_path = out / "alice.qac"
    report_path = out / "sift_reports.csv"

    ledger, buffer = _write_artifacts(cfg, timetag_path, sidecar_path)
    # Analysis runs on the files just written: replay identity for free.
    reports, clock = analyze_files(timetag_path, sidecar_path)
    write_sift_csv(reports, report_path)

    summary_report = next(
        r for r in reports if r.window == cfg.analysis_window
    )
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
    outputs = []
    for path in (timetag_path, sidecar_path, report_path):
        outputs.append(
            {
                "path": path.name,
                "sha256": file_digest(path),
                "bytes": path.stat().st_size,
            }
        )
    manifest = RunManifest(
        config_sha256=config_digest,
        tool_version=TOOL_VERSION,
        root_seed=cfg.seed,
        outputs=outputs,
        summary=summary,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")

    return SessionArtifacts(
        timetag_path=timetag_path,
        sidecar_path=sidecar_path,
        reports=reports,
        clock=clock,
        ledger=ledger,
        buffer=buffer,
        summary_report=summary_report,
    )


def describe(artifacts: SessionArtifacts) -> str:
    lines = [format_summary(artifacts.summary_report, artifacts.clock)]
    led = artifacts.ledger
    lines.append(
        f"pulses {led.emitted}: detected {led.signal_detected}, lost {led.lost}, "
        f"dead-time {led.signal_suppressed}; buffer drops {artifacts.buffer.drops}"
    )
    return "\n".join(lines)
