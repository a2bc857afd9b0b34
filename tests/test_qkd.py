import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scalar_oracle
from scalar_oracle import reference_gen_random_code, reference_simulate_link
from scipy import stats

from qkdstation import qkd
from qkdstation.errors import ConfigError, FileFormatError
from qkdstation.qkd import (
    BASIS_Z,
    DET_SYNC,
    DRAW_CHUNK,
    ORIGIN_BACKGROUND,
    ORIGIN_DARK,
    ClockModel,
    DetectionSet,
    DetectorModel,
    LinkModel,
    SidecarMeta,
    emit_sync,
    gen_random_code,
    poisson_background,
    read_alice_sidecar,
    simulate_link,
    write_alice_sidecar,
)
from qkdstation.sift import ClockEstimate, match_slots


def quiet_detectors(**kw):
    args = dict(
        efficiency=1.0,
        dark_rate=0.0,
        jitter_sigma=0.0,
        det_dead_time=0.0,
        intrinsic_error=0.0,
    )
    args.update(kw)
    return DetectorModel(**args)


def quiet_link(**kw):
    args = dict(
        loss_db=0.0,
        background_rate=0.0,
        pulse_period=10_000.0,
        sync_period=2_000_000.0,
        mean_photon_number=1.0,
    )
    args.update(kw)
    return LinkModel(**args)


class TestRandomCode:
    def test_degenerate_biases(self):
        block = gen_random_code(4, basis_bias=1.0, bit_bias=1.0, seed=0)
        assert np.all((block >> 1) == BASIS_Z)
        assert np.all((block & 1) == 1)

    def test_same_seed_identical(self):
        a = gen_random_code(10_000, 0.5, 0.5, seed=42)
        b = gen_random_code(10_000, 0.5, 0.5, seed=42)
        assert np.array_equal(a, b)

    def test_basis_fraction_within_3_sigma(self):
        n = 1_000_000
        block = gen_random_code(n, basis_bias=0.7, bit_bias=0.5, seed=7)
        z_fraction = np.mean((block >> 1) == BASIS_Z)
        assert abs(z_fraction - 0.7) < 3 * np.sqrt(0.7 * 0.3 / n)

    def test_generation_throughput(self):
        # parity with the board's 4 Mb/s random-code requirement
        n = 8_000_000
        t0 = time.perf_counter()
        gen_random_code(n, 0.5, 0.5, seed=1)
        elapsed = time.perf_counter() - t0
        assert n / elapsed > 4e6

    def test_bias_bounds(self):
        with pytest.raises(ConfigError):
            gen_random_code(10, basis_bias=1.5)


# chunk edges of the per-pulse draws
CHUNK_EDGES = [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 5]


@pytest.mark.parametrize("bias", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_code_equals_one_call_draws(n, bias):
    got = gen_random_code(n, bias, 1 - bias, seed=11)
    want = reference_gen_random_code(n, bias, 1 - bias, 11)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, want)


def _snap_noise_to_pulses(monkeypatch):
    """Background and dark counts on the pulse grid, so they tie with
    signal photons and with each other."""
    real = qkd.poisson_background

    def snapped(*args):
        s = real(*args)
        return DetectionSet(np.round(s.times / 10_000.0) * 10_000.0, s.detectors, s.origins)

    monkeypatch.setattr(qkd, "poisson_background", snapped)
    monkeypatch.setattr(scalar_oracle, "poisson_background", snapped)


@pytest.mark.parametrize("ties", [False, True], ids=["noise_anywhere", "noise_on_pulses"])
@pytest.mark.parametrize("p_det", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_link_equals_one_call_draws(monkeypatch, n, p_det, ties):
    if ties:
        _snap_noise_to_pulses(monkeypatch)
    alice = gen_random_code(n, 0.5, 0.5, seed=12)
    link = quiet_link(mean_photon_number=p_det or 1.0, background_rate=2e6)
    detectors = quiet_detectors(
        efficiency=1.0 if p_det else 0.0,
        dark_rate=5e5,
        det_dead_time=50_000.0,
        intrinsic_error=0.02,
    )
    args = (alice, link, detectors, ClockModel(), 13)
    got, ledger = simulate_link(*args)
    want, want_ledger = reference_simulate_link(*args)
    assert ledger == want_ledger and ledger.conserved()
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.detectors, want.detectors)
    np.testing.assert_array_equal(got.origins, want.origins)


class TestSimulateLink:
    def test_lossless_limit_every_pulse_correct(self):
        alice = gen_random_code(5000, 0.5, 0.5, seed=3)
        det, ledger = simulate_link(
            alice, quiet_link(), quiet_detectors(), ClockModel(), seed=4
        )
        assert ledger.emitted == 5000 and ledger.lost == 0
        assert det.n == 5000
        # every detection sits at its emit time and the right detector
        idx = det.origins
        expect_det = alice[idx]
        wrong_basis = (det.detectors >> 1) != (alice >> 1)[idx]
        same_basis = ~wrong_basis
        assert np.array_equal(det.detectors[same_basis], expect_det[same_basis])
        # the beam splitter still halves the basis choice
        assert 0.4 < np.mean(same_basis) < 0.6

    def test_3db_survival_within_3_sigma(self):
        n = 100_000
        alice = gen_random_code(n, 0.5, 0.5, seed=5)
        link = quiet_link(loss_db=3.0)
        det, ledger = simulate_link(alice, link, quiet_detectors(), ClockModel(), seed=6)
        p = 10 ** (-0.3)
        assert abs(ledger.signal_detected / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_count_conservation_exact(self):
        for seed in range(5):
            alice = gen_random_code(20_000, 0.5, 0.5, seed=seed)
            link = quiet_link(loss_db=6.0, background_rate=50_000.0)
            detectors = quiet_detectors(
                efficiency=0.4, dark_rate=2000.0, det_dead_time=100_000.0
            )
            det, ledger = simulate_link(alice, link, detectors, ClockModel(), seed=seed)
            assert ledger.conserved()
            assert ledger.emitted == 20_000
            assert det.n == (
                ledger.signal_detected
                + ledger.background_detected
                + ledger.dark_detected
            )

    def test_wrong_basis_splits_50_50(self):
        n = 200_000
        alice = gen_random_code(n, 0.5, 0.5, seed=8)
        det, _ = simulate_link(
            alice, quiet_link(), quiet_detectors(), ClockModel(), seed=9
        )
        idx = det.origins
        wrong = (det.detectors >> 1) != (alice >> 1)[idx]
        bits = det.detectors[wrong] & 1
        k = bits.size
        assert abs(np.mean(bits) - 0.5) < 3 * np.sqrt(0.25 / k)

    def test_clock_transform_invertible(self):
        # match_slots maps receiver times back to Alice's pulse slots: the
        # pulse indices and their residuals come back
        clock = ClockModel(offset=1e8, drift_ppm=10.0)
        inverse = ClockEstimate(
            offset_hat=1e8, drift_hat_ppm=10.0, residual_rms=0.0, n_sync_used=2
        )
        pulses = np.arange(1000) * 100_000
        residual = np.random.default_rng(3).uniform(-400.0, 400.0, pulses.size)
        t = clock.to_receiver(pulses * 10_000.0 + residual)
        dets = np.zeros(t.size, dtype=np.uint8)
        pulse, _, res = match_slots(t, dets, inverse, 10_000.0, 1000.0, 10**8)
        np.testing.assert_array_equal(pulse, pulses)
        assert np.max(np.abs(res - residual)) < 1e-3

    def test_qber_matches_analytic_within_3_sigma(self):
        # error sources: intrinsic flips on same-basis signal detections
        n = 300_000
        e_int = 0.02
        alice = gen_random_code(n, 0.5, 0.5, seed=10)
        link = quiet_link(loss_db=3.0)
        detectors = quiet_detectors(intrinsic_error=e_int)
        det, _ = simulate_link(alice, link, detectors, ClockModel(), seed=11)
        idx = det.origins
        same = (det.detectors >> 1) == (alice >> 1)[idx]
        wrong = (det.detectors[same] & 1) != (alice & 1)[idx[same]]
        k = int(np.sum(same))
        qber = np.sum(wrong) / k
        assert abs(qber - e_int) < 3 * np.sqrt(e_int * (1 - e_int) / k)

    def test_background_interarrivals_exponential(self):
        # Kolmogorov-Smirnov against the exponential law at alpha = 0.01
        rate = 200_000.0
        span = 1e11  # 0.1 s
        det = poisson_background(
            rate, 0.0, span, 0, ORIGIN_BACKGROUND, np.random.default_rng(12)
        )
        gaps_s = np.diff(det.times) / 1e12
        result = stats.kstest(gaps_s, "expon", args=(0, 1.0 / rate))
        assert result.pvalue > 0.01

    def test_background_window_mean(self):
        rate = 100_000.0
        span = 2e11
        det = poisson_background(
            rate, 0.0, span, 0, ORIGIN_DARK, np.random.default_rng(13)
        )
        expected = rate * span / 1e12
        assert abs(det.n - expected) < 4 * np.sqrt(expected)

    def test_times_sorted(self):
        alice = gen_random_code(50_000, 0.5, 0.5, seed=14)
        link = quiet_link(loss_db=3.0, background_rate=100_000.0)
        detectors = quiet_detectors(jitter_sigma=200.0, dark_rate=1000.0)
        det, _ = simulate_link(alice, link, detectors, ClockModel(), seed=15)
        # (detector, time) order: grouped by detector, time-ordered within each
        assert np.all(np.diff(det.detectors.astype(int)) >= 0)
        same_detector = np.diff(det.detectors) == 0
        assert np.all(np.diff(det.times)[same_detector] >= 0)
        assert set(np.unique(det.detectors)) == {0, 1, 2, 3}


class TestEmitSync:
    def test_identity_clock_exact_comb(self):
        det = emit_sync(100, 1e6, ClockModel(), jitter_sigma=0.0, seed=0)
        np.testing.assert_allclose(det.times, np.arange(100) * 1e6)
        assert np.all(det.detectors == DET_SYNC)

    def test_offset_is_pure_translation_before_drift(self):
        clock = ClockModel(offset=1e8, drift_ppm=0.0)
        det = emit_sync(10, 1e6, clock, seed=0)
        np.testing.assert_allclose(det.times, np.arange(10) * 1e6 + 1e8)

    def test_drift_displacement_oracle(self):
        # 10 ppm over 1 s displaces the last pulse by 10 us
        clock = ClockModel(offset=0.0, drift_ppm=10.0)
        n, period = 1001, 1e9  # spans exactly 1 s
        det = emit_sync(n, period, clock, seed=0)
        displacement = det.times[-1] - (n - 1) * period
        assert displacement == pytest.approx(1e12 * 10e-6, rel=1e-9)


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        alice = gen_random_code(10_000, 0.6, 0.4, seed=16)
        meta = SidecarMeta(
            pulse_period=10_000.0,
            sync_period=2e6,
            offset_bound=450_000.0,
            disclose_fraction=0.2,
            f_ec=1.16,
            root_seed=20160816,
            windows=(500.0, 1000.0, 2000.0),
        )
        path = tmp_path / "alice.qac"
        write_alice_sidecar(path, alice, meta)
        back, meta2 = read_alice_sidecar(path)
        assert np.array_equal(back, alice)
        assert meta2 == meta

    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        codes=arrays(np.uint8, st.integers(0, 2000), elements=st.integers(0, 3)),
        meta=st.builds(
            SidecarMeta,
            pulse_period=st.floats(0.0, 1e300, exclude_min=True, allow_infinity=False),
            sync_period=st.floats(0.0, 1e300, exclude_min=True, allow_infinity=False),
            offset_bound=st.floats(0.0, 1e300, allow_infinity=False),
            disclose_fraction=st.floats(0.0, 1.0, exclude_min=True),
            f_ec=st.floats(1.0, 1e300, allow_infinity=False),
            root_seed=st.integers(0, 2**64 - 1),
            windows=st.lists(
                st.floats(0.0, 1e300, exclude_min=True, allow_infinity=False), max_size=30
            ).map(tuple),
        ).filter(lambda m: 2 * m.offset_bound < m.sync_period),
    )
    def test_write_then_read_roundtrip(self, tmp_path, codes, meta):
        alice = codes
        path = tmp_path / "prop.qac"
        write_alice_sidecar(path, alice, meta)
        back, meta2 = read_alice_sidecar(path)
        assert np.array_equal(back, alice)
        assert meta2 == meta

    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        header=st.tuples(
            *(st.floats() | st.just(v) for v in (10_000.0, 2e6, 450_000.0, 1.16))
        ),
    )
    def test_writer_refuses_what_reader_refuses(self, tmp_path, header):
        pulse_period, sync_period, offset_bound, f_ec = header
        alice = gen_random_code(50, 0.5, 0.5, seed=0)
        meta = SidecarMeta(10_000.0, 2e6, 450_000.0, 0.1, 1.16, 1, (1000.0,))
        # the reader's verdict on a file holding these values, patched in
        valid = tmp_path / "valid.qac"
        write_alice_sidecar(valid, alice, meta)
        raw = bytearray(valid.read_bytes())
        struct.pack_into("<ddd", raw, 8, pulse_period, sync_period, offset_bound)
        struct.pack_into("<d", raw, 40, f_ec)
        patched = tmp_path / "patched.qac"
        patched.write_bytes(raw)
        try:
            read_alice_sidecar(patched)
            refused = False
        except FileFormatError:
            refused = True
        path = tmp_path / "prop.qac"
        path.unlink(missing_ok=True)  # tmp_path outlives one example
        meta = replace(
            meta,
            pulse_period=pulse_period,
            sync_period=sync_period,
            offset_bound=offset_bound,
            f_ec=f_ec,
        )
        if refused:
            with pytest.raises(FileFormatError, match="out of range"):
                write_alice_sidecar(path, alice, meta)
            assert not path.exists()
        else:
            write_alice_sidecar(path, alice, meta)
            assert path.read_bytes() == raw

    def test_one_byte_per_pulse(self, tmp_path):
        alice = gen_random_code(1000, 0.5, 0.5, seed=17)
        meta = SidecarMeta(10_000.0, 2e6, 450_000.0, 0.1, 1.16, 1, (1000.0,))
        path = tmp_path / "a.qac"
        write_alice_sidecar(path, alice, meta)
        base = path.stat().st_size
        alice2 = gen_random_code(1001, 0.5, 0.5, seed=17)
        write_alice_sidecar(path, alice2, meta)
        assert path.stat().st_size == base + 1

    @pytest.mark.parametrize("byte", [4, 255])
    def test_code_byte_above_3_refused(self, tmp_path, byte):
        codes = gen_random_code(100, 0.5, 0.5, seed=21)
        meta = SidecarMeta(10_000.0, 2e6, 450_000.0, 0.1, 1.16, 1, (500.0, 1000.0))
        at = qkd._SIDECAR_FIXED.size + 8 * len(meta.windows) + 37
        named = rf"code byte {byte} of pulse 37 .*\(byte offset {at}\)"
        bad = codes.copy()
        bad[37] = byte
        path = tmp_path / "w.qac"
        with pytest.raises(FileFormatError, match=named):
            write_alice_sidecar(path, bad, meta)
        assert not path.exists()
        write_alice_sidecar(path, codes, meta)
        raw = bytearray(path.read_bytes())
        raw[at] = byte
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match=named) as err:
            read_alice_sidecar(path)
        assert err.value.offset == at

    def test_writer_refuses_codes_wider_than_a_byte(self, tmp_path):
        codes = gen_random_code(100, 0.5, 0.5, seed=22).astype(np.int64)
        meta = SidecarMeta(10_000.0, 2e6, 450_000.0, 0.1, 1.16, 1, (1000.0,))
        path = tmp_path / "w.qac"
        with pytest.raises(ConfigError, match="uint8"):
            write_alice_sidecar(path, codes, meta)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qac"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(FileFormatError) as err:
            read_alice_sidecar(path)
        assert err.value.offset == 0

    def test_truncated(self, tmp_path):
        alice = gen_random_code(1000, 0.5, 0.5, seed=18)
        meta = SidecarMeta(10_000.0, 2e6, 450_000.0, 0.1, 1.16, 1, ())
        path = tmp_path / "t.qac"
        write_alice_sidecar(path, alice, meta)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(FileFormatError, match="truncated"):
            read_alice_sidecar(path)


class TestModelValidation:
    def test_link_bounds(self):
        with pytest.raises(ConfigError):
            LinkModel(loss_db=-1.0)
        with pytest.raises(ConfigError):
            LinkModel(mean_photon_number=0.0)

    def test_detector_bounds(self):
        with pytest.raises(ConfigError):
            DetectorModel(efficiency=1.5)
        with pytest.raises(ConfigError):
            DetectorModel(intrinsic_error=0.6)

    def test_clock_bounds(self):
        with pytest.raises(ConfigError):
            ClockModel(drift_ppm=1500.0)

    def test_detection_probability_capped(self):
        # bright pulses through a weak detector: the capped product rules
        link = quiet_link(loss_db=0.0, mean_photon_number=5.0)
        alice = gen_random_code(2000, 0.5, 0.5, seed=19)
        det, ledger = simulate_link(
            alice, link, quiet_detectors(efficiency=0.3), ClockModel(), seed=20
        )
        # p = min(1, 5 * 1 * 0.3) = 1: every pulse detected
        assert ledger.lost == 0 and det.n == 2000
