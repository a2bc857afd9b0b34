import math
from dataclasses import replace

import numpy as np
import pytest
from scalar_oracle import (
    RawHit,
    TdcRecord,
    digitize,
    encode_fine,
    reconstruct,
    reference_digitize_detections,
    reference_gate_dead_time,
    sample_thermometer,
)
from shipped_config import load_reference
from uniform_widths import uniform_widths

from qkdstation.calibration import table_from_widths
from qkdstation.errors import CalibrationError, ConfigError
from qkdstation.qkd import DetectionSet
from qkdstation.readout import pack_words, read_timetag_file, stream, write_timetag_file
from qkdstation.session import build_profiles, digitize_detections
from qkdstation.tdc import (
    ChannelState,
    DelayLineProfile,
    TdcConfig,
    build_delay_line,
    digitize_stream,
    gate_dead_time,
    parse_dnl,
    reconstruct_stream,
)


def small_config(n_taps=4, clock_period=100.0):
    return TdcConfig(clock_period=clock_period, n_taps=n_taps, n_channels=2)


class TestBuildDelayLine:
    def test_uniform_partition(self):
        cfg = small_config()
        p = build_delay_line(cfg)
        np.testing.assert_allclose(p.tap_delays, [25.0, 25.0, 25.0, 25.0])

    def test_default_mean_tap_matches_nominal_bin(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        assert p.tap_delays.mean() == pytest.approx(6250.0 / 261)
        assert p.tap_delays.mean() == pytest.approx(23.946, abs=1e-3)

    def test_stated_perturbation(self):
        cfg = small_config()
        p = build_delay_line(cfg, [-5.0, +5.0, 0.0, 0.0])
        np.testing.assert_allclose(p.tap_delays, [20.0, 30.0, 25.0, 25.0])
        assert p.tap_delays.sum() == pytest.approx(100.0)

    def test_sum_pinned_to_period(self):
        cfg = TdcConfig()
        for spec in ("uniform", "sine:0.3:4", "random:-0.4:0.4"):
            p = build_delay_line(cfg, spec, seed=11)
            assert p.boundaries[-1] == cfg.clock_period

    def test_rejects_nonpositive_tap(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            build_delay_line(cfg, [-25.0, 0.0, 0.0, 0.0])
        with pytest.raises(ConfigError):
            build_delay_line(cfg, [0.0, 0.0, -30.0, 0.0])

    @pytest.mark.parametrize(
        "spec",
        ["sinefoo", "uniform:1", "sine:", "sine:1:2:3:4", "random:-1e308:1e308"],
    )
    def test_rejects_bad_directive(self, spec):
        with pytest.raises(ConfigError, match="dnl"):
            build_delay_line(small_config(), spec, seed=1)

    def test_directive_defaults(self):
        assert parse_dnl(" Sine ") == ("sine", (0.25, 3.0, 0.0))
        assert parse_dnl("random:-0.5") == ("random", (-0.5, 0.3))
        assert parse_dnl("uniform") == ("uniform", ())

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigError):
            build_delay_line(small_config(), jitter_sigma=-1.0)


@pytest.mark.parametrize("spec", ["uniform", "sine:0.2:8", "random:-0.9:0.3"])
def test_fine_code_lookup_equals_bisection(spec):
    profile = build_delay_line(TdcConfig(), spec, seed=5)
    b, period = profile.boundaries, profile.period
    grid = np.arange(2 * profile.n_taps + 1) * (period / (2 * profile.n_taps))
    exact = np.concatenate((b, grid, [0.0, -0.0, -1e-9, -50.0, -1e9, period * 1.5, 1e15]))
    x = np.concatenate((
        exact,
        np.nextafter(exact, -np.inf),
        np.nextafter(exact, np.inf),
        np.random.default_rng(0).uniform(-100.0, period + 100.0, 20_000),
    ))
    codes = profile.fine_codes(x)
    np.testing.assert_array_equal(codes, np.searchsorted(b, x, side="right"))
    assert codes.min() == 0 and codes.max() == profile.n_taps


class TestThermometer:
    def test_mid_bin(self):
        p = build_delay_line(small_config())
        np.testing.assert_array_equal(sample_thermometer(p, 60.0), [1, 1, 0, 0])

    def test_zero_delta_all_zeros(self):
        p = build_delay_line(small_config())
        np.testing.assert_array_equal(sample_thermometer(p, 0.0), [0, 0, 0, 0])

    def test_last_bin(self):
        p = build_delay_line(small_config())
        np.testing.assert_array_equal(sample_thermometer(p, 99.0), [1, 1, 1, 0])

    def test_out_of_range_delta(self):
        p = build_delay_line(small_config())
        with pytest.raises(ConfigError):
            sample_thermometer(p, 100.0)
        with pytest.raises(ConfigError):
            sample_thermometer(p, -1.0)


class TestEncodeFine:
    def test_clean_transition(self):
        assert encode_fine([1, 1, 1, 0, 0]) == 3

    def test_no_propagation(self):
        assert encode_fine([0, 0, 0, 0]) == 0

    def test_bubble_filtered(self):
        # majority-of-3 turns [1,1,0,1,0,0,0] into [1,1,1,0,0,0,0]
        assert encode_fine([1, 1, 0, 1, 0, 0, 0]) == 3

    def test_all_ones(self):
        assert encode_fine([1, 1, 1, 1]) == 4

    def test_totality_exhaustive(self):
        # every 16-bit pattern must encode to a value in [0, 16]
        n = 16
        for word in range(1 << n):
            bits = [(word >> i) & 1 for i in range(n)]
            assert 0 <= encode_fine(bits) <= n

    def test_monotone_in_delta_without_jitter(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.4:0.4", seed=3)
        deltas = np.sort(np.random.default_rng(5).random(500) * cfg.clock_period)
        codes = [encode_fine(sample_thermometer(p, d)) for d in deltas]
        assert all(a <= b for a, b in zip(codes, codes[1:]))


class TestDigitize:
    def test_dead_time_rejects_close_hit(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        state = ChannelState(last_accept_time=80_000.0)
        rec = digitize(RawHit(0, 100_000.0), p, state, cfg)
        assert rec is None
        assert state.rejected_dead_time == 1

    def test_gap_beyond_dead_time_accepted(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        state = ChannelState(last_accept_time=80_000.0)
        rec = digitize(RawHit(0, 120_000.0), p, state, cfg)
        assert rec is not None
        assert state.accepted == 1
        assert state.last_accept_time == 120_000.0

    def test_hit_on_clock_edge(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        rec = digitize(RawHit(0, 12_500.0), p, ChannelState(), cfg)
        assert rec == TdcRecord(channel=0, coarse=2, fine=0)

    def test_disabled_channel_distinct_cause(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        state = ChannelState(enabled=False)
        assert digitize(RawHit(0, 1000.0), p, state, cfg) is None
        assert state.rejected_disabled == 1
        assert state.rejected_dead_time == 0

    def test_out_of_range_channel(self):
        cfg = small_config()
        p = build_delay_line(cfg, channel=5)
        with pytest.raises(ConfigError):
            digitize(RawHit(5, 1000.0), p, ChannelState(), cfg)

    def test_hit_on_other_channel_than_profile(self):
        cfg = small_config()
        p = build_delay_line(cfg, channel=1)
        with pytest.raises(ConfigError, match="belongs to channel 1"):
            digitize(RawHit(0, 1000.0), p, ChannelState(), cfg)


def _digitize_case():
    """Hits before the counter epoch, times shared across channels,
    channel 1 disabled and channel 3 with no hits."""
    cfg = replace(load_reference(), enabled_channels=(0, 2, 3, 4))
    rng = np.random.default_rng(5)
    shared = np.array([-500.0, 0.0, 400_000.0, 9_123_456.7])
    parts = []
    for d in (0, 1, 2, 4):
        t = np.sort(np.concatenate([shared, rng.uniform(-2e5, 1e8, 200)]))
        parts.append(DetectionSet(t, np.full(t.size, d), np.zeros(t.size)))
    return cfg, DetectionSet.merge(*parts), build_profiles(cfg)


def test_digitize_detections_equals_mask_reference():
    cfg, detections, profiles = _digitize_case()
    got = digitize_detections(cfg, detections, profiles)
    want = reference_digitize_detections(cfg, detections, profiles)
    # the hit at the epoch is kept, and the records stay in channel runs
    assert 0.0 in got[0] and np.all(np.diff(got[1]) >= 0)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def test_ties_across_channels_reach_the_file_in_channel_order(tmp_path):
    # stream's stable arrival sort is the only one: records with equal
    # arrival times on different channels leave it, and so reach the
    # time-tag file, in channel order, as lexsort((channel, time)) puts them
    cfg, detections, profiles = _digitize_case()
    t, ch, co, fi, ro = digitize_detections(cfg, detections, profiles)
    buffer, delivered = stream(t, cfg.buffer_depth, cfg.link_rate)
    assert buffer.drops == 0
    want = np.lexsort((ch, t))[: buffer.delivered]
    assert np.any(np.diff(t[want]) == 0)  # a tie across channels is delivered
    np.testing.assert_array_equal(delivered, want)
    words = pack_words(ch, co, fi, ro)
    path = tmp_path / "ties.qtt"
    write_timetag_file(path, cfg.tdc, words[delivered], uniform_widths(cfg.tdc))
    np.testing.assert_array_equal(read_timetag_file(path)[1], words[want])


def test_digitize_detections_refuses_time_order():
    cfg = load_reference()
    detections = DetectionSet([1e6, 2e6, 3e6], [1, 0, 1], [0, 0, 0])
    with pytest.raises(ConfigError, match=r"\(detector, time\) order"):
        digitize_detections(cfg, detections, build_profiles(cfg))


def test_digitize_detections_refuses_a_detector_without_channel():
    # the sync detector (4) on a four-channel board: refused, not dropped
    ref = load_reference()
    cfg = replace(ref, tdc=replace(ref.tdc, n_channels=4), jitter_sigma=(13.0,))
    detections = DetectionSet([1e6, 2e6, 3e6], [0, 3, 4], [0, 0, 0])
    with pytest.raises(ConfigError, match=r"detector 4 has no channel under \[tdc\] n_channels"):
        digitize_detections(cfg, detections, build_profiles(cfg))


class TestReconstruct:
    def test_on_edge_convention(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        cal = table_from_widths(p.channel, p.tap_delays, cfg)
        assert reconstruct(TdcRecord(0, 2, 0), cal, cfg) == pytest.approx(12_500.0)

    def test_first_bin_center(self):
        cfg = small_config()
        p = build_delay_line(cfg)
        cal = table_from_widths(p.channel, p.tap_delays, cfg)
        # fine=1 covers [25, 50); midpoint 37.5
        got = reconstruct(TdcRecord(0, 125, 1), cal, cfg)
        assert got == pytest.approx(125 * 100.0 - 37.5)

    def test_missing_calibration(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, channel=3)
        cal = table_from_widths(p.channel, p.tap_delays, cfg)
        with pytest.raises(CalibrationError, match="code_density_calibrate"):
            reconstruct(TdcRecord(0, 2, 0), cal, cfg)
        with pytest.raises(CalibrationError):
            reconstruct(TdcRecord(3, 2, 500), cal, cfg)

    def test_roundtrip_error_bounded_by_bin_width(self):
        # oracle: direct arithmetic on the known tap geometry
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.5:0.5", seed=9)
        cal = table_from_widths(p.channel, p.tap_delays, cfg)
        rng = np.random.default_rng(17)
        times = np.sort(rng.random(10_000) * 1e9)
        times = times[np.concatenate(([True], np.diff(times) >= cfg.dead_time))]
        max_width = p.tap_delays.max()
        state = ChannelState()
        for t in times[:200]:
            rec = digitize(RawHit(0, float(t)), p, state, cfg)
            if rec is None:
                continue
            ts = reconstruct(rec, cal, cfg)
            # independent oracle for the expected timestamp
            edge = math.ceil(t / cfg.clock_period)
            delta = edge * cfg.clock_period - t
            k = int(np.sum(p.boundaries <= delta))
            if k == 0:
                expected = edge * cfg.clock_period
            else:
                lo = p.boundaries[k - 1]
                hi = cfg.clock_period if k == cfg.n_taps else p.boundaries[k]
                expected = edge * cfg.clock_period - (lo + hi) / 2.0
            assert ts == pytest.approx(expected, abs=1e-6)
            assert abs(ts - t) < max_width

    def test_vectorized_roundtrip_bound(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.5:0.5", seed=21)
        cal = table_from_widths(p.channel, p.tap_delays, cfg)
        rng = np.random.default_rng(23)
        gaps = cfg.dead_time + rng.random(10_000) * 1e6
        times = np.cumsum(gaps)
        batch = digitize_stream(times, p, ChannelState(), cfg, rng)
        assert batch.n == times.size
        ts = reconstruct_stream(batch.coarse, batch.fine, cal, cfg)
        assert np.max(np.abs(ts - times)) < p.tap_delays.max()


class TestDualRoute:
    def test_stream_matches_scalar_no_jitter(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.3:0.3", seed=2)
        rng = np.random.default_rng(4)
        times = np.sort(rng.random(2000) * 1e8)
        batch = digitize_stream(times, p, ChannelState(), cfg, rng)
        state = ChannelState()
        scalar = [digitize(RawHit(0, float(t)), p, state, cfg) for t in times]
        keep = [r for r in scalar if r is not None]
        assert batch.n == len(keep)
        np.testing.assert_array_equal(batch.coarse, [r.coarse for r in keep])
        np.testing.assert_array_equal(batch.fine, [r.fine for r in keep])

    def test_stream_matches_scalar_with_jitter(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, jitter_sigma=20.0)
        rng = np.random.default_rng(4)
        gaps = cfg.dead_time + rng.random(3000) * 2e5
        times = np.cumsum(gaps)
        batch = digitize_stream(
            times, p, ChannelState(), cfg, np.random.default_rng(99)
        )
        state = ChannelState()
        scalar_rng = np.random.default_rng(99)
        scalar = [digitize(RawHit(0, float(t)), p, state, cfg, scalar_rng) for t in times]
        keep = [r for r in scalar if r is not None]
        assert batch.n == len(keep)
        np.testing.assert_array_equal(batch.fine, [r.fine for r in keep])
        np.testing.assert_array_equal(batch.coarse, [r.coarse for r in keep])


class TestDeadTimeGate:
    def test_accepted_gaps_never_below_dead_time(self):
        cfg = TdcConfig()
        rng = np.random.default_rng(31)
        # exponential arrivals tuned so roughly half the hits violate
        times = np.cumsum(rng.exponential(40_000.0, 50_000))
        keep, _ = gate_dead_time(times, cfg.dead_time)
        accepted = times[keep]
        assert np.all(np.diff(accepted) >= cfg.dead_time)
        assert 0 < keep.sum() < times.size

    def test_gap_exactly_dead_time_accepted(self):
        keep, _ = gate_dead_time(np.array([0.0, 30_000.0, 45_000.0]), 30_000.0)
        np.testing.assert_array_equal(keep, [True, True, False])

    def test_continues_across_batches(self):
        keep1, last = gate_dead_time(np.array([0.0, 50_000.0]), 30_000.0)
        keep2, _ = gate_dead_time(np.array([60_000.0, 90_000.0]), 30_000.0, last)
        np.testing.assert_array_equal(keep2, [False, True])

    @pytest.mark.parametrize("dead_time", [0.0, 30.0, 30_000.0])
    def test_matches_hit_by_hit_oracle(self, dead_time):
        rng = np.random.default_rng(int(dead_time) + 5)
        scale = max(dead_time, 1.0)
        for trial in range(400):
            n = int(rng.choice([0, 1, 2, 3, int(rng.integers(4, 200))]))
            # each gap is a duplicate, exactly the dead time, one ulp either
            # side of it, a whole number of half dead times, or a free float
            kinds = np.stack(
                [
                    np.zeros(n),
                    np.full(n, dead_time),
                    np.full(n, np.nextafter(dead_time, 0.0)),
                    np.full(n, np.nextafter(dead_time, np.inf)),
                    rng.integers(0, 4, n) * scale / 2,
                    rng.exponential(scale, n),
                ]
            )
            gaps = kinds[rng.integers(0, len(kinds), n), np.arange(n)]
            times = 1e6 + np.cumsum(gaps)
            t0 = times[0] if n else 1e6
            for last_accept in (
                None,
                t0 - dead_time - 7.0,
                t0 - dead_time,
                t0 - dead_time / 2,
                t0,
                t0 + 2.5 * scale + 1.0,
            ):
                keep, last = gate_dead_time(times, dead_time, last_accept)
                want_keep, want_last = reference_gate_dead_time(
                    times, dead_time, last_accept
                )
                np.testing.assert_array_equal(keep, want_keep)
                assert last == want_last, (trial, last_accept)


class TestRollover:
    def test_equal_coarse_after_wrap(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg)
        t0 = 6250.0 * 5
        t1 = t0 + cfg.clock_period * float(2**40)
        r0 = digitize(RawHit(0, t0), p, ChannelState(), cfg)
        r1 = digitize(RawHit(0, t1), p, ChannelState(), cfg)
        assert r0.coarse == r1.coarse

    def test_unwrap_recovers_gap(self):
        from qkdstation.readout import unwrap_coarse

        cfg = TdcConfig()
        coarse = np.array([2**40 - 3, 2**40 - 1, 1, 5], dtype=np.int64) % 2**40
        unwrapped = unwrap_coarse(coarse)
        gaps = np.diff(unwrapped)
        np.testing.assert_array_equal(gaps, [2, 2, 4])


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ConfigError):
            TdcConfig(clock_period=-1)
        with pytest.raises(ConfigError):
            TdcConfig(n_taps=1)
        with pytest.raises(ConfigError):
            TdcConfig(n_taps=512)
        with pytest.raises(ConfigError):
            TdcConfig(n_channels=33)
        with pytest.raises(ConfigError):
            TdcConfig(clock_period=0.5)  # dynamic range below 1 s

    @pytest.mark.parametrize("clock_period", [math.nan, math.inf, -math.inf])
    def test_non_finite_clock_period(self, clock_period):
        with pytest.raises(ConfigError, match="finite"):
            TdcConfig(clock_period=clock_period)

    def test_dynamic_range_exceeds_one_second(self):
        cfg = TdcConfig()
        assert cfg.coarse_modulus * cfg.clock_period > 1e12

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            DelayLineProfile(0, np.array([25.0, -1.0, 25.0]))
        with pytest.raises(ConfigError):
            DelayLineProfile(0, np.array([25.0, 25.0]), tap_jitter_sigma=-2.0)

    def test_profiles_compare(self):
        # array fields inside the generated tuple comparison used to raise
        a, b = build_delay_line(TdcConfig()), build_delay_line(TdcConfig())
        assert isinstance(a == b, bool)
        assert a == a
