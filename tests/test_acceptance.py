"""Acceptance suite: one test per shipped criterion, each printing its
own pass line (run with -s or -v to see them live).

Tolerances are pinned here and nowhere else; where a figure is
statistical the run is seeded, so a pass is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from shipped_config import load_reference
from uniform_widths import uniform_widths

from qkdstation.calibration import (
    calibrate_from_stimulus,
    decorrelation_cable_delay,
    precision_test,
)
from qkdstation.cli import main
from qkdstation.qkd import ClockModel, emit_sync, gen_random_code, simulate_link
from qkdstation.readout import pack_words, read_timetag_file, stream, unpack_words, write_timetag_file
from qkdstation.seeding import derive_rng
from qkdstation.session import build_profiles, run_session
from qkdstation.sift import ClockEstimate, match_slots, recover_clock, window_scan
from qkdstation.tdc import ChannelState, TdcConfig, build_delay_line, digitize_stream


def report(label: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS [{label}]: {detail}")


def test_a01_lsb_reproduction():
    cfg = TdcConfig()
    profile = build_delay_line(cfg)  # default: uniform taps, no jitter
    t0 = time.perf_counter()
    table = calibrate_from_stimulus(profile, cfg, 1_000_000, derive_rng(1, "a01"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert table.lsb == pytest.approx(23.95, abs=0.05)
    report("1 LSB", f"calibrated LSB {table.lsb:.4f} ps (23.95 +- 0.05) in {elapsed:.2f} s")


def test_a02_rms_band_and_quantization_floor():
    cfg = load_reference()
    profiles = build_profiles(cfg)
    delay = decorrelation_cable_delay(cfg.tdc)
    per_channel = {}
    for a, b in cfg.precision_pairs():
        r = precision_test(
            profiles[a], profiles[b], cfg.tdc, cfg.precision.period, delay,
            100_000, cfg.seed,
        )
        per_channel[a] = r.per_channel_rms
        per_channel[b] = r.per_channel_rms
    assert len(per_channel) == 16
    assert all(14.0 < v < 24.0 for v in per_channel.values()), per_channel

    # jitter off: pure quantization, LSB/sqrt(12) oracle
    base = TdcConfig()
    pa = build_delay_line(base, channel=0)
    pb = build_delay_line(base, channel=1)
    r0 = precision_test(pa, pb, base, 100_000.0, decorrelation_cable_delay(base), 100_000, 2)
    oracle = base.nominal_tap / math.sqrt(12.0)
    assert r0.per_channel_rms == pytest.approx(6.9, abs=0.3)
    lo, hi = min(per_channel.values()), max(per_channel.values())
    report(
        "2 RMS",
        f"16 channels span {lo:.2f}..{hi:.2f} ps (band 14..24); "
        f"zero-jitter {r0.per_channel_rms:.3f} ps vs oracle {oracle:.3f}",
    )


def test_a03_dead_time_exact():
    cfg = TdcConfig()
    rng = np.random.default_rng(3)
    total_checked = 0
    violations = 0
    for c in range(16):
        # exponential arrivals with mean near the dead time stress the gate
        times = np.cumsum(rng.exponential(45_000.0, 62_500))
        profile = build_delay_line(cfg, channel=c)
        batch = digitize_stream(times, profile, ChannelState(), cfg, rng)
        accepted = times[batch.accepted_index]
        gaps = np.diff(accepted)
        violations += int(np.sum(gaps < cfg.dead_time))
        total_checked += times.size
    assert total_checked == 1_000_000
    assert violations == 0
    report("3 dead time", f"{total_checked} hits across 16 channels, 0 gaps below 30 ns")


def test_a04_dnl_inl_recovery():
    cfg = TdcConfig()
    nominal = cfg.nominal_tap
    rng = np.random.default_rng(4)
    # deviations spanning the band: a near-dead tap at -0.97 LSB, a fat
    # tap at +3 LSB, and scatter between
    dev = rng.uniform(-0.4, 0.4, cfg.n_taps)
    dev[17] = -0.97
    dev[40] = +3.0
    dev[99] = -0.8
    dev[200] = +2.0
    profile = build_delay_line(cfg, dev * nominal)
    table = calibrate_from_stimulus(profile, cfg, 1_000_000, derive_rng(4, "a04"))
    err_lsb = (table.bin_widths[: cfg.n_taps] - profile.tap_delays) / table.lsb
    worst = float(np.max(np.abs(err_lsb)))
    assert worst < 0.1
    assert table.inl[0] == 0.0
    assert abs(table.inl[-1]) < 1e-9
    report(
        "4 DNL/INL",
        f"worst width error {worst:.4f} LSB at 1e6 samples; INL closure {table.inl[-1]:.2e}",
    )


def test_a05_throughput_caps():
    # link cap: sustained overload against the 35 MB/s drain
    n_ticks = 200_000  # 0.2 s at the 1 us tick
    arrivals = np.repeat(np.arange(n_ticks) * 1e6, 10)  # 1e7 words/s
    buf, _ = stream(arrivals, depth=8192, link_rate=35e6)
    duration_s = n_ticks * 1e-6
    # exact ceiling in integer arithmetic: 35 bytes per us tick
    ceiling = 35 * n_ticks // 8
    assert buf.delivered <= ceiling
    assert buf.delivered == ceiling
    assert buf.conserved()

    # count cap: 33.4 ns periodic input sustains ~30 M/s through the
    # pipeline's 30 ns dead-time gate on one digitized channel
    cfg = TdcConfig()
    period = 33_400.0
    span = 0.05e12
    n = int(span / period)
    times = np.arange(n) * period
    line = build_delay_line(cfg)  # jitter-free: it draws nothing from the rng
    batch = digitize_stream(times, line, ChannelState(), cfg, np.random.default_rng(0))
    rate = batch.n / 0.05
    assert rate == pytest.approx(30e6, rel=0.005)
    report(
        "5 throughput",
        f"link delivered {buf.delivered / duration_s / 1e6:.4f} M words/s "
        f"(cap 4.375); dead-time gate {rate / 1e6:.2f} M/s (30 +- 0.5%)",
    )


def test_a06_pack_roundtrip_million(tmp_path):
    rng = np.random.default_rng(6)
    n = 1_000_000
    ch = rng.integers(0, 32, n)
    co = rng.integers(0, 2**40, n)
    fi = rng.integers(0, 512, n)
    ro = rng.integers(0, 2, n)
    words = pack_words(ch, co, fi, ro)
    ch2, co2, fi2, ro2 = unpack_words(words)
    failures = (
        int(np.sum(ch != ch2)) + int(np.sum(co != co2))
        + int(np.sum(fi != fi2)) + int(np.sum(ro != ro2))
    )
    assert failures == 0

    # a board that holds every field value: 32 channels, fine codes to 511
    cfg = TdcConfig(n_channels=32, n_taps=511)
    p1, p2 = tmp_path / "w1.qtt", tmp_path / "w2.qtt"
    write_timetag_file(p1, cfg, words, uniform_widths(cfg))
    _, back, widths = read_timetag_file(p1)
    write_timetag_file(p2, cfg, back, widths)
    assert p1.read_bytes() == p2.read_bytes()
    report("6 roundtrip", f"{n} words field-exact and byte-identical on disk")


def test_a07_reference_qkd_session(tmp_path):
    cfg = load_reference()
    assert cfg.n_pulses == 1_000_000
    t0 = time.perf_counter()
    art = run_session(cfg, tmp_path / "session")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    r = art.summary_report
    assert r.qber == pytest.approx(0.0175, abs=0.005)
    assert r.secure_rate > 500.0
    report(
        "7 QKD session",
        f"QBER {100 * r.qber:.2f}% (1.75 +- 0.5), secure {r.secure_rate:.0f} b/s "
        f"(> 500), {elapsed:.1f} s for 1e6 pulses",
    )


def test_a08_window_scan_monotone_qber():
    # high-background sessions, full disclosure so each window's QBER is
    # the exact sifted error fraction
    windows = (500.0, 1000.0, 2000.0, 4000.0)
    identity = ClockEstimate(0.0, 0.0, 0.0, 2)
    from qkdstation.qkd import DetectorModel, LinkModel

    link = LinkModel(
        loss_db=10.0,
        background_rate=1_000_000.0,
        pulse_period=10_000.0,
        sync_period=2e6,
        mean_photon_number=0.5,
    )
    detectors = DetectorModel(
        efficiency=0.4, dark_rate=0.0, jitter_sigma=60.0,
        det_dead_time=0.0, intrinsic_error=0.01,
    )
    seeds = range(12)
    qbers = np.zeros((len(list(seeds)), len(windows)))
    for i, seed in enumerate(range(12)):
        alice = gen_random_code(100_000, 0.5, 0.5, seed=seed)
        det, _ = simulate_link(alice, link, detectors, ClockModel(), seed=seed + 100)
        reports = window_scan(
            det.times, det.detectors, identity, link.pulse_period, alice,
            windows, disclose_fraction=1.0, seed=seed, f_ec=1.16,
        )
        matched = [r.matched for r in reports]
        assert matched == sorted(matched)  # exact superset property
        qbers[i] = [r.qber for r in reports]
    mean_q = qbers.mean(axis=0)
    assert np.all(np.diff(mean_q) > 0), mean_q
    # 3-sigma power on the total rise
    rise = qbers[:, -1] - qbers[:, 0]
    assert rise.mean() > 3 * rise.std(ddof=1) / math.sqrt(len(rise))
    report(
        "8 window scan",
        "mean QBER over 12 seeds rises "
        + " -> ".join(f"{100 * q:.2f}%" for q in mean_q)
        + " across ascending windows; matched counts nondecreasing",
    )


def test_a09_sync_recovery_corners():
    window = 1000.0
    worst = 0.0
    for offset, drift in ((1e8, 10.0), (-1e8, -10.0), (1e8, 0.0), (0.0, 10.0)):
        clock = ClockModel(offset=offset, drift_ppm=drift)
        sync = emit_sync(10_000, 1e9, clock, jitter_sigma=100.0, seed=9)
        est = recover_clock(sync.times, 1e9, coarse_offset_bound=1.05e8)
        # apply the recovered clock to an independent signal comb
        rng = np.random.default_rng(10)
        slots = np.sort(rng.choice(10**9, 100_000, replace=False)).astype(float)
        times = clock.to_receiver(slots * 10_000.0)
        pulse, _, res = match_slots(times, np.zeros(100_000, np.uint8), est, 10_000.0, window, 10**9)
        assert pulse.size == 100_000
        worst = max(worst, abs(float(np.mean(res))))
    assert worst < window / 10.0
    report(
        "9 sync recovery",
        f"worst |mean residual| {worst:.2f} ps over +-100 us offsets and "
        f"10 ppm drifts (limit {window / 10:.0f} ps)",
    )


def test_a10_determinism(tmp_path):
    ref = tmp_path / "ref.ini"
    assert main(["init", str(ref)]) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(ref), "--output", str(out1)]) == 0
    assert main(["run", "--config", str(ref), "--output", str(out2)]) == 0
    names = ("session.qtt", "alice.qac", "sift_reports.csv", "manifest.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report("10 determinism", "two runs of the reference config are byte-identical")
