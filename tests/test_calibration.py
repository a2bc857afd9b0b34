import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scalar_oracle import read_calibration_csv
from shipped_config import load_reference

from qkdstation.calibration import (
    calibrate_from_stimulus,
    code_density_calibrate,
    decorrelation_cable_delay,
    precision_test,
    table_from_widths,
    uniform_phase_histogram,
    write_calibration_csv,
)
from qkdstation.errors import CalibrationError, ConfigError
from qkdstation.seeding import derive_rng
from qkdstation.session import build_profiles
from qkdstation.tdc import (
    ChannelState,
    TdcConfig,
    build_delay_line,
    digitize_stream,
    reconstruct_stream,
)


def small_config():
    return TdcConfig(clock_period=100.0, n_taps=4, n_channels=2)


class TestCodeDensity:
    def test_exact_proportions_closed_form(self):
        # taps [20, 30, 25, 25] over 100 ps with counts in exact proportion
        cfg = small_config()
        hist = np.array([200, 300, 250, 250, 0])
        table = code_density_calibrate(hist, cfg)
        np.testing.assert_allclose(table.bin_widths[:4], [20.0, 30.0, 25.0, 25.0])
        assert table.lsb == pytest.approx(25.0)
        np.testing.assert_allclose(table.dnl, [-0.2, +0.2, 0.0, 0.0])
        np.testing.assert_allclose(table.inl, [0.0, -0.2, 0.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_line_million_hits(self):
        cfg = small_config()
        p = build_delay_line(cfg)
        hist = uniform_phase_histogram(p, 1_000_000, np.random.default_rng(1))
        table = code_density_calibrate(hist, cfg)
        assert np.all(np.abs(table.dnl) < 0.01)

    def test_empty_histogram_rejected(self):
        with pytest.raises(CalibrationError, match="empty"):
            code_density_calibrate(np.zeros(5, dtype=int), small_config())

    def test_single_dominant_bin_rejected(self):
        hist = np.array([900, 50, 30, 20, 0])
        with pytest.raises(CalibrationError, match="broken"):
            code_density_calibrate(hist, small_config())

    @pytest.mark.parametrize(
        "hist, broken",
        [
            ([501, 499, 0], False),  # two taps: a code may hold them all
            ([1000, 0, 0], False),
            ([660, 340, 0, 0], False),  # three taps: up to 2/3 is legal
            ([670, 330, 0, 0], True),
        ],
    )
    def test_broken_line_rule_scales_with_taps(self, hist, broken):
        cfg = TdcConfig(clock_period=100.0, n_taps=len(hist) - 1, n_channels=1)
        if broken:
            with pytest.raises(CalibrationError, match="broken"):
                code_density_calibrate(np.array(hist), cfg)
        else:
            table = code_density_calibrate(np.array(hist), cfg)
            assert table.bin_widths.sum() == pytest.approx(100.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(CalibrationError):
            code_density_calibrate(np.ones(4, dtype=int), small_config())

    def test_mean_dnl_zero_and_inl_closed(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.5:0.5", seed=7)
        table = calibrate_from_stimulus(p, cfg, 200_000, np.random.default_rng(2))
        assert abs(table.dnl.mean()) < 1e-9
        assert table.inl[0] == 0.0
        assert abs(table.inl[-1]) < 1e-9
        assert table.bin_widths.sum() == pytest.approx(cfg.clock_period, rel=1e-6)

    def test_centers_convention(self):
        cfg = small_config()
        p = build_delay_line(cfg)
        table = table_from_widths(p.channel, p.tap_delays, cfg)
        # code 0 reads as the clock edge; code 1 as the midpoint of [25, 50)
        np.testing.assert_allclose(table.bin_centers, [0.0, 37.5, 62.5, 87.5, 100.0])


class TestDnlRecovery:
    def test_injected_band_recovered(self):
        # deviations spanning the -1..+3 LSB band (kept strictly above -1
        # so every tap stays physical)
        cfg = TdcConfig()
        nominal = cfg.nominal_tap
        dev = np.zeros(cfg.n_taps)
        dev[10] = -0.97 * nominal
        dev[50] = +3.0 * nominal
        dev[120] = -0.5 * nominal
        dev[200] = +1.5 * nominal
        p = build_delay_line(cfg, dev)
        table = calibrate_from_stimulus(p, cfg, 1_000_000, np.random.default_rng(3))
        # recovered widths must match the true (renormalized) line
        err = (table.bin_widths[: cfg.n_taps] - p.tap_delays) / table.lsb
        assert np.max(np.abs(err)) < 0.1
        assert abs(table.inl[-1]) < 1e-9

    def test_consistency_against_true_profile(self):
        # reconstructing with a measured table agrees with the true table
        # within 0.2 LSB rms
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.4:0.4", seed=13)
        measured = calibrate_from_stimulus(p, cfg, 1_000_000, np.random.default_rng(5))
        truth = table_from_widths(p.channel, p.tap_delays, cfg)
        rng = np.random.default_rng(11)
        gaps = cfg.dead_time + rng.random(20_000) * 1e5
        times = np.cumsum(gaps)
        batch = digitize_stream(times, p, ChannelState(), cfg, rng)
        ts_m = reconstruct_stream(batch.coarse, batch.fine, measured, cfg)
        ts_t = reconstruct_stream(batch.coarse, batch.fine, truth, cfg)
        rms = float(np.sqrt(np.mean((ts_m - ts_t) ** 2)))
        assert rms < 0.2 * truth.lsb


class TestPrecision:
    def test_zero_jitter_matches_quantization_oracle(self):
        cfg = TdcConfig()
        pa = build_delay_line(cfg, channel=0)
        pb = build_delay_line(cfg, channel=1)
        delay = decorrelation_cable_delay(cfg)
        report = precision_test(pa, pb, cfg, 100_000.0, delay, 100_000, seed=1)
        assert report.per_channel_rms == pytest.approx(
            cfg.nominal_tap / math.sqrt(12.0), abs=0.2
        )
        assert report.mean_interval == pytest.approx(delay, abs=1.0)

    def test_rms_composition_over_sigma_sweep(self):
        cfg = TdcConfig()
        delay = decorrelation_cable_delay(cfg)
        lsb = cfg.nominal_tap
        for sigma in (0.0, 5.0, 10.0, 15.0, 20.0):
            pa = build_delay_line(cfg, jitter_sigma=sigma, channel=0)
            pb = build_delay_line(cfg, jitter_sigma=sigma, channel=1)
            report = precision_test(pa, pb, cfg, 100_000.0, delay, 50_000, seed=2)
            analytic = lsb**2 / 12.0 + sigma**2
            assert report.per_channel_rms**2 == pytest.approx(analytic, rel=0.10)

    def test_zero_cable_delay_zero_mean(self):
        cfg = TdcConfig()
        pa = build_delay_line(cfg, channel=0)
        pb = build_delay_line(cfg, channel=1)
        report = precision_test(pa, pb, cfg, 100_000.0, 0.0, 10_000, seed=3)
        assert abs(report.mean_interval) < 1.0

    def test_sqrt2_relation_exact(self):
        cfg = TdcConfig()
        pa = build_delay_line(cfg, channel=0)
        pb = build_delay_line(cfg, channel=1)
        r = precision_test(pa, pb, cfg, 100_000.0, 500.0, 10_000, seed=4)
        assert r.per_channel_rms == r.raw_std / math.sqrt(2.0)

    def test_period_below_dead_time_refused(self):
        cfg = TdcConfig()
        pa = build_delay_line(cfg, channel=0)
        pb = build_delay_line(cfg, channel=1)
        with pytest.raises(ConfigError, match="dead time"):
            precision_test(pa, pb, cfg, 20_000.0, 500.0, 10_000, seed=5)

    def test_too_few_pulses_refused(self):
        cfg = TdcConfig()
        pa = build_delay_line(cfg, channel=0)
        pb = build_delay_line(cfg, channel=1)
        with pytest.raises(ConfigError, match="1e4"):
            precision_test(pa, pb, cfg, 100_000.0, 500.0, 9_999, seed=6)


class TestTableIO:
    def test_csv_roundtrip(self, tmp_path):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "sine:0.3:4")
        table = table_from_widths(p.channel, p.tap_delays, cfg)
        path = tmp_path / "cal.csv"
        write_calibration_csv(table, path)
        rows = read_calibration_csv(path)
        assert len(rows) == table.occupied.size
        codes = [r[0] for r in rows]
        assert codes == list(table.occupied)
        # final row carries the period-closure INL
        assert rows[-1][3] == pytest.approx(0.0, abs=1e-6)

    def test_rebuild_from_stored_widths(self):
        cfg = TdcConfig()
        p = build_delay_line(cfg, "random:-0.3:0.3", seed=8)
        full = table_from_widths(p.channel, p.tap_delays, cfg)
        rebuilt = table_from_widths(0, full.bin_widths[: cfg.n_taps], cfg)
        np.testing.assert_allclose(rebuilt.bin_centers, full.bin_centers)
        assert rebuilt.lsb == full.lsb


def test_stimulus_histogram_covers_all_codes():
    cfg = TdcConfig()
    p = build_delay_line(cfg)
    hist = uniform_phase_histogram(p, 1_000_000, derive_rng(0, "x"))
    assert hist[: cfg.n_taps].min() > 0
    assert hist[cfg.n_taps] == 0  # jitter-free stimulus never tops out


def _a04_line(cfg):
    # the extreme-DNL line of acceptance test a04: -0.97 and +3 LSB taps
    rng = np.random.default_rng(4)
    dev = rng.uniform(-0.4, 0.4, cfg.n_taps)
    dev[17], dev[40], dev[99], dev[200] = -0.97, +3.0, -0.8, +2.0
    return build_delay_line(cfg, dev * cfg.nominal_tap)


def _oracle_profiles():
    cfg = TdcConfig()
    near_dead = np.zeros(cfg.n_taps)
    near_dead[5] = 1e-6 - cfg.nominal_tap  # a 1e-6 ps tap: a ~1.6e-10 share
    profiles = {
        f"reference-ch{p.channel}": p for p in build_profiles(load_reference())
    }
    profiles["uniform"] = build_delay_line(cfg)
    profiles["random"] = build_delay_line(cfg, "random:-0.9:0.9", seed=11)
    profiles["a04"] = _a04_line(cfg)
    profiles["near-dead"] = build_delay_line(cfg, near_dead)
    return profiles


ORACLE_PROFILES = _oracle_profiles()


@pytest.mark.parametrize("name", list(ORACLE_PROFILES))
def test_stimulus_histogram_matches_searchsorted_oracle(name):
    # N uniform phases bin as Multinomial(N, tap_delays / period): check the
    # first two moments of every code over many seeds against that law, then
    # one draw against N phases binned by searchsorted over the boundaries
    profile = ORACLE_PROFILES[name]
    n, seeds = 1_000_000, 400
    hists = np.array([
        uniform_phase_histogram(profile, n, derive_rng(s, "multinomial", name))
        for s in range(seeds)
    ])
    assert hists.dtype == np.intp
    assert np.all(hists.sum(axis=1) == n)
    assert np.all(hists[:, -1] == 0)  # no tap above the period
    p = profile.tap_delays / profile.period
    live = n * p > 1.0
    if name == "near-dead":
        # a 1.6e-10 share: 0.064 hits expected over all seeds, P(>= 3) = 4e-5
        assert np.flatnonzero(~live).tolist() == [5] and p[5] < 1e-9
        assert hists[:, 5].sum() <= 2
    else:
        assert live.all()
    # 5 standard errors, not 4: 261 codes x 20 profiles are compared,
    # and at 4 one of them would miss by chance in about one stream in four
    expected, var = n * p[live], n * p[live] * (1.0 - p[live])
    mean = hists[:, :-1][:, live].mean(axis=0)
    assert np.all(np.abs(mean - expected) <= 5.0 * np.sqrt(var / seeds))
    # sample variance: relative standard error sqrt(2 / (seeds - 1))
    ratio = hists[:, :-1][:, live].var(axis=0, ddof=1) / var
    assert np.all(np.abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / (seeds - 1)))
    rng = derive_rng(5, "oracle", name)
    phases = rng.random(n) * profile.period
    codes = np.searchsorted(profile.boundaries, phases, side="right")
    oracle = np.bincount(codes, minlength=profile.n_taps + 1)
    assert oracle[-1] == 0 and oracle[~np.append(live, True)].sum() <= 2
    # two independent draws of one law: each code's difference has
    # variance 2·N·p(1 − p), and their squared sum is chi-square(#live)
    z = (hists[0, :-1][live] - oracle[:-1][live]) / np.sqrt(2.0 * var)
    assert np.all(np.abs(z) <= 5.0)
    df = int(live.sum())
    assert abs(float(z @ z) - df) <= 5.0 * math.sqrt(2.0 * df)


@pytest.mark.parametrize("name", list(ORACLE_PROFILES))
def test_grid_lookup_exact_on_and_beside_every_boundary(name):
    # the bins the multinomial draws are half-open, [b[k-1], b[k]): a hit
    # digitized exactly on a boundary has passed that cell. Probe every
    # reachable boundary on and a few ulps either side of it
    profile = ORACLE_PROFILES[name]
    cfg = TdcConfig(dead_time=0.0)  # every probe is its own accepted hit
    b = profile.boundaries[:-1]  # the period itself is unreachable
    t0 = cfg.clock_period - b
    # steps of the coarser ulp of t and delta, so both stay exact and
    # delta = clock_period - t moves by one step per probe
    step = np.spacing(np.maximum(t0, b))
    t = t0[:, None] + np.arange(-2, 3) * step[:, None]
    delta = cfg.clock_period - t
    assert (delta < b[:, None]).any(axis=1).all()
    assert (delta > b[:, None]).any(axis=1).all()
    # most boundaries are hit exactly by one of their probes
    assert (delta == b[:, None]).any(axis=1).sum() >= b.size // 2
    order = np.argsort(t, axis=None)
    t, delta = t.ravel()[order], delta.ravel()[order]
    # the comb itself: a jitter-free copy of the line draws nothing
    still = replace(profile, tap_jitter_sigma=0.0)
    batch = digitize_stream(t, still, ChannelState(), cfg, np.random.default_rng(0))
    assert batch.fine.size == t.size and np.all(batch.coarse == 1)
    # "past exactly those cells whose boundary is <= delta", by definition
    passed = (profile.boundaries[None, :] <= delta[:, None]).sum(axis=1)
    np.testing.assert_array_equal(batch.fine, passed)


def test_stimulus_same_seed_same_histogram():
    profile = ORACLE_PROFILES["a04"]
    a = uniform_phase_histogram(profile, 10**6, derive_rng(3, "repeat"))
    b = uniform_phase_histogram(profile, 10**6, derive_rng(3, "repeat"))
    np.testing.assert_array_equal(a, b)
    c = uniform_phase_histogram(profile, 10**6, derive_rng(4, "repeat"))
    assert not np.array_equal(a, c)


def test_stimulus_accepts_any_generator():
    profile = ORACLE_PROFILES["uniform"]
    rng = np.random.Generator(np.random.MT19937(0))
    hist = uniform_phase_histogram(profile, 10**6, rng)
    assert hist.sum() == 10**6 and hist[-1] == 0 and hist[:-1].min() > 0


def test_reference_histograms_golden():
    # the 16 reference histograms behind every shipped artifact
    cfg = load_reference()
    digest = hashlib.sha256()
    for p in build_profiles(cfg):
        rng = derive_rng(cfg.seed, "calib", f"ch{p.channel}")
        hist = uniform_phase_histogram(p, cfg.calibration_samples, rng)
        digest.update(hist.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "6f91889fc84fbc438712e369f656078cfad7bb325a4f7fc5d4f98fc3a5fb4ca4"
    )
