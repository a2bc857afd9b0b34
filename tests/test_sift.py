import numpy as np
import pytest
from match_oracle import (
    assert_same_match,
    narrow,
    reference_match_pulses,
    reference_window_scan,
)

from qkdstation.errors import ConfigError, SyncRecoveryError
from qkdstation.qkd import ClockModel, emit_sync, gen_random_code
from qkdstation.sift import (
    ClockEstimate,
    binary_entropy,
    match_slots,
    recover_clock,
    secure_rate,
    window_scan,
)

IDENTITY = ClockEstimate(offset_hat=0.0, drift_hat_ppm=0.0, residual_rms=0.0, n_sync_used=2)
DRIFTING = ClockEstimate(
    offset_hat=1234.5, drift_hat_ppm=-3.0, residual_rms=0.0, n_sync_used=2
)
# the benchmark's dense scan: 250..4750 ps in 250 ps steps
DENSE_WINDOWS = tuple(float(w) for w in range(250, 5000, 250))


def make_clock(offset=0.0, drift_ppm=0.0):
    return ClockModel(offset=offset, drift_ppm=drift_ppm)


class TestRecoverClock:
    def test_noiseless_comb_exact(self):
        det = emit_sync(1000, 1e6, make_clock(offset=1e5), seed=0)
        est = recover_clock(det.times, 1e6, coarse_offset_bound=4e5)
        assert est.offset_hat == pytest.approx(1e5, abs=1e-6)
        assert est.drift_hat_ppm == pytest.approx(0.0, abs=1e-6)
        assert est.residual_rms < 1e-6
        assert est.n_sync_used == 1000

    def test_jitter_offset_error_within_standard_error(self):
        sigma, n = 100.0, 10_000
        det = emit_sync(n, 1e6, make_clock(offset=2e5), jitter_sigma=sigma, seed=1)
        est = recover_clock(det.times, 1e6, coarse_offset_bound=4e5)
        # standard-error oracle sigma/sqrt(n), with slack for the joint fit
        assert abs(est.offset_hat - 2e5) < 3 * (sigma / np.sqrt(n)) * 2
        assert est.residual_rms == pytest.approx(sigma, rel=0.1)

    def test_large_offset_and_drift_recovered(self):
        # GPS-scale offset against a sparse comb
        clock = make_clock(offset=-1e8, drift_ppm=10.0)
        det = emit_sync(10_000, 1e9, clock, jitter_sigma=100.0, seed=2)
        est = recover_clock(det.times, 1e9, coarse_offset_bound=1.01e8)
        assert abs(est.offset_hat - (-1e8)) < 5.0
        assert est.drift_hat_ppm == pytest.approx(10.0, abs=1e-3)

    def test_pure_background_raises(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.random(5000) * 1e10)
        with pytest.raises(SyncRecoveryError, match="no sync structure"):
            recover_clock(times, 1e6, coarse_offset_bound=4e5)

    def test_too_few_detections(self):
        with pytest.raises(SyncRecoveryError):
            recover_clock(np.array([1.0]), 1e6, coarse_offset_bound=4e5)

    def test_ambiguous_bound_rejected(self):
        with pytest.raises(ConfigError):
            recover_clock(np.arange(10) * 1e6, 1e6, coarse_offset_bound=6e5)

    def test_lossy_comb_still_locks(self):
        det = emit_sync(5000, 1e6, make_clock(offset=1e5))
        det = det.select(np.random.default_rng(4).random(5000) < 0.6)
        est = recover_clock(det.times, 1e6, coarse_offset_bound=4e5)
        assert est.offset_hat == pytest.approx(1e5, abs=1e-3)

    def test_syncs_on_one_comb_index_raise(self):
        # a sync period beyond the session span folds every sync onto index 0
        with pytest.raises(SyncRecoveryError, match="one comb index"):
            recover_clock(np.arange(5000) * 2e6 + 2e5, 1e20, 4e5)


class TestMatchPulses:
    def test_inside_window_matched(self):
        pulse, _, res = match_slots(
            np.array([10_000.0 + 400.0]), np.array([0]), IDENTITY, 10_000.0, 1000.0, 10
        )
        assert pulse.size == 1 and pulse[0] == 1
        assert res[0] == pytest.approx(400.0)

    def test_outside_window_unmatched(self):
        pulse, _, _ = match_slots(
            np.array([10_000.0 + 2000.0]), np.array([0]), IDENTITY, 10_000.0, 1000.0, 10
        )
        assert pulse.size == 0

    def test_tie_keeps_smallest_residual(self):
        times = np.array([50_000.0 + 100.0, 50_000.0 - 300.0])
        pulse, det, res = match_slots(times, np.array([0, 1]), IDENTITY, 10_000.0, 1000.0, 10)
        assert pulse.size == 1
        assert res[0] == pytest.approx(100.0)
        assert det[0] == 0

    def test_window_too_wide_rejected(self):
        with pytest.raises(ConfigError):
            match_slots(np.array([1.0]), np.array([0]), IDENTITY, 10_000.0, 5000.0, 10)

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        times = rng.random(2000) * 1e7
        dets = rng.integers(0, 4, 2000).astype(np.uint8)
        p1, d1, r1 = match_slots(times, dets, IDENTITY, 10_000.0, 1000.0, 1000)
        perm = rng.permutation(2000)
        p2, d2, r2 = match_slots(times[perm], dets[perm], IDENTITY, 10_000.0, 1000.0, 1000)
        assert np.array_equal(p1, p2)
        assert np.array_equal(d1, d2)
        np.testing.assert_allclose(r1, r2)

    def test_window_superset_property(self):
        rng = np.random.default_rng(6)
        times = rng.random(5000) * 1e7
        dets = rng.integers(0, 4, 5000).astype(np.uint8)
        pairs = []
        for w in (400.0, 900.0, 2000.0):
            pulse, det, _ = match_slots(times, dets, IDENTITY, 10_000.0, w, 1000)
            pairs.append(set(zip(pulse.tolist(), det.tolist())))
        assert pairs[0] <= pairs[1] <= pairs[2]

    def test_slot_bounds_respected(self):
        times = np.array([-5_000.0, 0.0, 99_999.0 * 10_000.0])
        pulse, _, _ = match_slots(times, np.zeros(3, np.uint8), IDENTITY, 10_000.0, 1000.0, 10)
        # only the detection at t=0 maps to a valid slot
        assert pulse.size == 1 and pulse[0] == 0


def ideal_sift(alice, detector_bits, bases, disclose_fraction, seed):
    """Sift one detection per pulse, at its slot centre, on the given
    basis/bit arrays, at a single 1000 ps window."""
    times = np.arange(alice.size) * 10_000.0
    detectors = ((bases << 1) | detector_bits).astype(np.uint8)
    reports = window_scan(
        times, detectors, IDENTITY, 10_000.0, alice, (1000.0,), disclose_fraction, seed, 1.16
    )
    return reports[0]


class TestSift:
    def test_ideal_all_bases_equal(self):
        alice = gen_random_code(1000, 0.5, 0.5, seed=7)
        report = ideal_sift(
            alice, alice & 1, alice >> 1, disclose_fraction=0.2, seed=8
        )
        assert report.sifted_bits == report.matched == 1000
        assert report.qber == 0.0
        assert report.errors_found == 0

    def test_random_bases_sift_half(self):
        n = 100_000
        alice = gen_random_code(n, 0.5, 0.5, seed=9)
        rng = np.random.default_rng(10)
        bob_bases = rng.integers(0, 2, n).astype(np.uint8)
        report = ideal_sift(
            alice, alice & 1, bob_bases, disclose_fraction=0.1, seed=11
        )
        assert abs(report.sifted_bits / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_exact_ratio_definition(self):
        # 1000 sifted bits, exactly 17 wrong, full disclosure -> 1.7%
        n = 1000
        bases = np.zeros(n, dtype=np.uint8)
        bits = np.zeros(n, dtype=np.uint8)
        alice = (bases << 1) | bits
        bob_bits = np.zeros(n, dtype=np.uint8)
        bob_bits[:17] = 1
        report = ideal_sift(
            alice, bob_bits, bases.copy(), disclose_fraction=1.0, seed=12
        )
        assert report.disclosed == 1000
        assert report.errors_found == 17
        assert report.qber == pytest.approx(0.017)

    def test_qber_above_half_leaves_no_key(self):
        n = 1000
        alice = np.zeros(n, np.uint8)
        report = ideal_sift(
            alice, np.ones(n, np.uint8), np.zeros(n, np.uint8), disclose_fraction=1.0, seed=12
        )
        assert report.qber == 1.0
        assert report.secure_rate == 0.0

    def test_disclosed_bits_leave_key(self):
        alice = gen_random_code(1000, 1.0, 0.5, seed=13)
        report = ideal_sift(
            alice, alice & 1, alice >> 1, disclose_fraction=0.25, seed=14
        )
        assert report.disclosed == 250

    def test_disclose_fraction_bounds(self):
        alice = gen_random_code(10, 0.5, 0.5, seed=15)
        bits, bases = alice & 1, alice >> 1
        with pytest.raises(ConfigError):
            ideal_sift(alice, bits, bases, disclose_fraction=0.0, seed=0)
        with pytest.raises(ConfigError):
            ideal_sift(alice, bits, bases, disclose_fraction=1.1, seed=0)

    def test_qber_estimator_unbiased_over_seeds(self):
        # disclosed-subset estimate vs the full sifted error fraction
        n = 20_000
        alice = gen_random_code(n, 0.5, 0.5, seed=16)
        rng = np.random.default_rng(17)
        flips = rng.random(n) < 0.03
        bob_bits = ((alice & 1) ^ flips).astype(np.uint8)
        true_fraction = np.mean(flips)  # all bases equal, all matched sifted
        estimates = [
            ideal_sift(alice, bob_bits, alice >> 1, disclose_fraction=0.1, seed=s).qber
            for s in range(30)
        ]
        se = np.sqrt(0.03 * 0.97 / (0.1 * n)) / np.sqrt(30)
        assert abs(np.mean(estimates) - true_fraction) < 3 * se


class TestSecureRate:
    def test_zero_qber_passes_through(self):
        assert secure_rate(1000.0, 0.0, 1.16) == 1000.0

    def test_threshold_near_11_percent(self):
        r = secure_rate(1000.0, 0.11, f_ec=1.0)
        assert r < 1.0  # 1 - 2*H2(0.11) is within 2e-4 of zero

    def test_monotone_nonincreasing_in_qber(self):
        rates = [secure_rate(1000.0, q, 1.16) for q in np.linspace(0.0, 0.5, 51)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_bounds(self):
        with pytest.raises(ConfigError):
            secure_rate(1000.0, 0.6, 1.16)
        with pytest.raises(ConfigError):
            secure_rate(1000.0, 0.1, f_ec=0.9)

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)


class TestWindowScan:
    def _session(self, background_per_slot, n=20_000, seed=0, p_det=1.0):
        """Synthetic matched universe: a fraction of pulses detected near
        their slot centers plus uniform background detections."""
        rng = np.random.default_rng(seed)
        alice = gen_random_code(n, 0.5, 0.5, seed=seed + 1)
        keep = rng.random(n) < p_det
        idx = np.flatnonzero(keep)
        sig_t = idx * 10_000.0 + rng.normal(0.0, 60.0, idx.size)
        sig_det = alice[idx]
        n_bg = int(background_per_slot * n)
        bg_t = rng.random(n_bg) * n * 10_000.0
        bg_det = rng.integers(0, 4, n_bg).astype(np.uint8)
        times = np.concatenate([sig_t, bg_t])
        dets = np.concatenate([sig_det, bg_det])
        return alice, times, dets

    def test_matched_counts_nondecreasing_exact(self):
        alice, times, dets = self._session(0.5)
        reports = window_scan(
            times, dets, IDENTITY, 10_000.0, alice, (250.0, 500.0, 1000.0, 2000.0), 0.2, 1, 1.16
        )
        matched = [r.matched for r in reports]
        assert matched == sorted(matched)

    def test_zero_background_qber_flat(self):
        alice, times, dets = self._session(0.0)
        reports = window_scan(
            times, dets, IDENTITY, 10_000.0, alice, (1000.0, 2000.0, 4000.0), 0.5, 2, 1.16
        )
        assert all(r.qber == 0.0 for r in reports)
        assert len({r.matched for r in reports}) == 1

    def test_windows_must_ascend(self):
        alice, times, dets = self._session(0.0, n=100)
        with pytest.raises(ConfigError):
            window_scan(times, dets, IDENTITY, 10_000.0, alice, (1000.0, 500.0), 0.2, 3, 1.16)

    def test_qber_grows_with_window_in_expectation(self):
        # paired Monte-Carlo over seeds; background injects errors
        # proportionally to the admitted window
        diffs_small_large = []
        for seed in range(10):
            alice, times, dets = self._session(1.0, n=10_000, seed=seed, p_det=0.2)
            reports = window_scan(
                times, dets, IDENTITY, 10_000.0, alice, (500.0, 4000.0), 1.0, seed, 1.16
            )
            diffs_small_large.append(reports[1].qber - reports[0].qber)
        assert np.mean(diffs_small_large) > 0
        assert np.mean(diffs_small_large) > 3 * np.std(diffs_small_large) / np.sqrt(10)


class TestClockMatchConsistency:
    def test_noiseless_residual_mean_below_1ps(self):
        clock = make_clock(offset=3e5, drift_ppm=7.0)
        sync = emit_sync(2000, 1e6, clock, seed=18)
        est = recover_clock(sync.times, 1e6, coarse_offset_bound=4.9e5)
        # signal detections on the same clock, no noise
        n = 50_000
        sig_alice = np.arange(n, dtype=float) * 10_000.0
        times = clock.to_receiver(sig_alice)
        pulse, _, res = match_slots(times, np.zeros(n, np.uint8), est, 10_000.0, 1000.0, n)
        assert pulse.size == n
        assert abs(float(np.mean(res))) < 1.0


def match_fixture(seed, n_slots=200, period=10_000.0):
    """Detections crowded several to a slot, some slots outside
    [0, n_slots), a fifth of the residuals exactly at +-w/2 of a dense
    window, and a tenth of the times exact duplicates of others."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    slot = rng.integers(-5, n_slots + 5, n)
    offset = rng.uniform(-0.49 * period, 0.49 * period, n)
    tie = rng.random(n) < 0.2
    halves = np.array(DENSE_WINDOWS) / 2
    offset[tie] = rng.choice(halves, tie.sum()) * rng.choice([-1.0, 1.0], tie.sum())
    times = slot * period + offset
    dup = rng.random(n) < 0.1
    times[dup] = times[rng.integers(0, n, dup.sum())]
    dets = rng.integers(0, 4, n).astype(np.uint8)
    return times, dets


class TestOneSortMatchOracle:
    """The one-sort match agrees with a per-window match at every window."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("clock", [IDENTITY, DRIFTING], ids=["identity", "drifting"])
    def test_dense_windows_equal_per_window_match(self, seed, clock):
        times, dets = match_fixture(seed)
        winners = match_slots(times, dets, clock, 10_000.0, DENSE_WINDOWS[-1], 200)
        for w in DENSE_WINDOWS:
            want = reference_match_pulses(times, dets, clock, 10_000.0, w, 200)
            assert_same_match(narrow(winners, w), want)
            assert_same_match(match_slots(times, dets, clock, 10_000.0, w, 200), want)

    def test_fixtures_reach_ties_duplicates_and_crowding(self):
        times, dets = match_fixture(0)
        want = reference_match_pulses(times, dets, IDENTITY, 10_000.0, 1000.0, 200)
        assert np.any(np.abs(want.residual) == 500.0)
        slot = np.round(times / 10_000.0)
        # some in-range slot holds two or more in-window candidates
        fits = (np.abs(times - slot * 10_000.0) <= 500.0) & (slot >= 0) & (slot < 200)
        assert np.max(np.unique(slot[fits], return_counts=True)[1]) >= 2
        assert np.unique(times).size < times.size
        assert np.any(slot < 0) and np.any(slot >= 200)

    def test_tie_at_half_window_is_kept(self):
        # residuals exactly +-w/2 are inside, and a slot's closer candidate
        # beats one on the boundary
        times = np.array([500.0, 10_000.0 - 500.0, 10_000.0 + 100.0, 20_000.0 + 501.0])
        dets = np.array([0, 1, 2, 3], dtype=np.uint8)
        winners = match_slots(times, dets, IDENTITY, 10_000.0, 1002.0, 5)
        for w in (1000.0, 1002.0):
            want = reference_match_pulses(times, dets, IDENTITY, 10_000.0, w, 5)
            assert_same_match(narrow(winners, w), want)

    def test_empty_input(self):
        empty = np.empty(0)
        winners = match_slots(empty, empty, IDENTITY, 10_000.0, DENSE_WINDOWS[-1], 10)
        for w in DENSE_WINDOWS:
            want = reference_match_pulses(empty, empty, IDENTITY, 10_000.0, w, 10)
            assert_same_match(narrow(winners, w), want)
            assert want.n == 0

    def test_tie_on_residual_breaks_on_time_then_detector(self):
        # four candidates of slot 1 all at |residual| 200; the input puts a
        # loser first, and two of them share the earliest time
        times = np.array([10_200.0, 9_800.0, 10_200.0, 9_800.0, 30_000.0])
        dets = np.array([2, 3, 0, 1, 0], dtype=np.uint8)
        winners = match_slots(times, dets, IDENTITY, 10_000.0, 1000.0, 5)
        pulse, det, res = winners
        assert pulse.tolist() == [1, 3]
        assert det.tolist() == [1, 0]
        assert res.tolist() == [-200.0, 0.0]
        want = reference_match_pulses(times, dets, IDENTITY, 10_000.0, 1000.0, 5)
        assert_same_match(winners, want)

    def test_equal_times_break_on_detector(self):
        times = np.full(3, 20_100.0)
        dets = np.array([3, 2, 1], dtype=np.uint8)
        winners = match_slots(times, dets, IDENTITY, 10_000.0, 1000.0, 5)
        assert winners[1].tolist() == [1]
        want = reference_match_pulses(times, dets, IDENTITY, 10_000.0, 1000.0, 5)
        assert_same_match(winners, want)

    def test_crowded_first_and_last_slots(self):
        # slots 0 and 9 are the first and last sorted positions, each with
        # its winner behind a loser in the input; slot 4 stands alone
        times = np.array([300.0, -100.0, 40_000.0, 90_400.0, 89_900.0, 90_100.0])
        dets = np.array([0, 1, 2, 3, 2, 1], dtype=np.uint8)
        winners = match_slots(times, dets, IDENTITY, 10_000.0, 1000.0, 10)
        pulse, det, _ = winners
        assert pulse.tolist() == [0, 4, 9]
        assert det.tolist() == [1, 2, 2]
        want = reference_match_pulses(times, dets, IDENTITY, 10_000.0, 1000.0, 10)
        assert_same_match(winners, want)

    @pytest.mark.parametrize("clock", [IDENTITY, DRIFTING], ids=["identity", "drifting"])
    def test_no_crowded_slot(self, clock):
        rng = np.random.default_rng(21)
        slots = rng.permutation(200)[:150]
        scale = 1.0 + clock.drift_hat_ppm * 1e-6
        times = scale * (slots * 10_000.0 + rng.uniform(-450, 450, 150) + clock.offset_hat)
        dets = rng.integers(0, 4, 150).astype(np.uint8)
        winners = match_slots(times, dets, clock, 10_000.0, DENSE_WINDOWS[-1], 200)
        assert winners[0].size == 150
        for w in DENSE_WINDOWS:
            want = reference_match_pulses(times, dets, clock, 10_000.0, w, 200)
            assert_same_match(narrow(winners, w), want)

    def _scan_case(self, seed, n_slots=200):
        times, noise = match_fixture(seed, n_slots)
        alice = gen_random_code(n_slots, 0.5, 0.5, seed=seed)
        # mostly Alice's own symbol, so the QBER stays a valid estimate
        slot = np.clip(np.round(times / 10_000.0).astype(np.int64), 0, n_slots - 1)
        dets = alice[slot]
        dets = np.where(np.arange(times.size) % 5 == 0, noise, dets)
        return times, dets, alice

    def test_window_without_disclosure(self):
        # the narrowest window sifts too few bits to disclose any
        times, dets, alice = self._scan_case(3)
        keep = (np.abs(times - np.round(times / 10_000.0) * 10_000.0) > 125.0) | (
            np.arange(times.size) < 40
        )
        args = (times[keep], dets[keep], IDENTITY, 10_000.0, alice, DENSE_WINDOWS)
        got = window_scan(*args, 0.1, 3, 1.16)
        assert got[0].disclosed == 0 < got[0].sifted_bits
        assert got[-1].disclosed > 0
        assert got == reference_window_scan(*args, 0.1, 3, 1.16)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_disclosure(self, seed):
        times, dets, alice = self._scan_case(seed)
        args = (times, dets, DRIFTING if seed % 2 else IDENTITY, 10_000.0, alice, DENSE_WINDOWS)
        got = window_scan(*args, 1.0, seed, 1.16)
        assert all(r.disclosed == r.sifted_bits for r in got)
        assert any(r.errors_found for r in got)
        assert got == reference_window_scan(*args, 1.0, seed, 1.16)

    @pytest.mark.parametrize("seed", range(40))
    def test_window_scan_equals_match_and_sift_per_window(self, seed):
        times, dets, alice = self._scan_case(seed)
        args = (times, dets, DRIFTING if seed % 2 else IDENTITY, 10_000.0, alice, DENSE_WINDOWS)
        got = window_scan(*args, 0.3, seed, 1.2)
        assert got == reference_window_scan(*args, 0.3, seed, 1.2)

    def test_window_scan_checks_every_window(self):
        alice = gen_random_code(10, 0.5, 0.5, seed=0)
        times, dets = np.array([10_000.0]), np.array([0], dtype=np.uint8)
        for windows in ((1000.0, 5000.0), (-1.0, 1000.0), (float("nan"),), ()):
            with pytest.raises(ConfigError):
                window_scan(times, dets, IDENTITY, 10_000.0, alice, windows, 0.1, 0, 1.16)
