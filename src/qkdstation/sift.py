"""Clock recovery, coincidence matching, sifting and key-rate estimation.

The receiver first locks onto the sync-laser comb: a histogram of
detection times modulo the sync period locates the coarse offset (the
GPS bound keeps it unambiguous), then a least-squares fit of
``t_detected = (i * period + offset) * (1 + drift)`` refines offset and
drift together. Signal detections are then mapped into Alice's
reconstructed timebase, matched to their nearest pulse slot within a
coincidence window, sifted on basis agreement, and a disclosed subset
estimates the error rate. Narrower windows admit less background, which
is the whole point of good timing resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_windows, write_csv
from .errors import ConfigError, SyncRecoveryError
from .seeding import derive_rng

_HISTOGRAM_BINS = 1024
_PEAK_RATIO = 5.0


@dataclass(frozen=True)
class ClockEstimate:
    """Recovered affine map from Alice's clock to the receiver's."""

    offset_hat: float  # ps
    drift_hat_ppm: float
    residual_rms: float  # ps
    n_sync_used: int

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ConfigError("residual_rms must be nonnegative")
        if self.n_sync_used < 2:
            raise ConfigError("a clock estimate needs at least 2 sync detections")


@dataclass(frozen=True)
class SiftReport:
    """Outcome of sifting one session at one coincidence window."""

    window: float  # ps
    matched: int
    sifted_bits: int
    disclosed: int
    errors_found: int
    qber: float
    sifted_rate: float  # bits/s
    secure_rate: float  # bits/s

    def __post_init__(self):
        if self.sifted_bits > self.matched:
            raise ConfigError("sifted_bits cannot exceed matched")
        if not self.errors_found <= self.disclosed <= self.sifted_bits:
            raise ConfigError("need errors_found <= disclosed <= sifted_bits")
        if self.disclosed > 0 and not math.isclose(
            self.qber, self.errors_found / self.disclosed, rel_tol=1e-12, abs_tol=1e-15
        ):
            raise ConfigError("qber must equal errors_found / disclosed")


def recover_clock(
    sync_times: np.ndarray,
    sync_period: float,
    coarse_offset_bound: float,
) -> ClockEstimate:
    """Lock onto the sync comb and estimate offset and drift.

    The true offset must lie within +-coarse_offset_bound (the GPS
    bound), and the comb period must exceed twice that bound or the
    comb's periodicity makes the offset ambiguous.
    """
    t = np.sort(np.asarray(sync_times, dtype=float))
    if t.size < 2:
        raise SyncRecoveryError("need at least 2 sync detections")
    if sync_period <= 0:
        raise ConfigError("sync_period must be positive")
    if 2 * coarse_offset_bound >= sync_period:
        raise ConfigError(
            "offset bound must be below half the sync period; "
            "a periodic comb cannot resolve larger offsets"
        )

    # Stage 1: drift pre-estimate from consecutive spacings. Each gap is
    # close to an integer number of (stretched) periods even when pulses
    # are missing.
    gaps = np.diff(t)
    k = np.round(gaps / sync_period)
    valid = k >= 1
    drift0 = 0.0
    if np.any(valid):
        drift0 = float(np.median(gaps[valid] / (k[valid] * sync_period) - 1.0))
    u = t / (1.0 + drift0)

    # Stage 2: coarse offset from the peak of the folded-time histogram.
    residues = np.mod(u, sync_period)
    bin_width = sync_period / _HISTOGRAM_BINS
    hist, edges = np.histogram(residues, bins=_HISTOGRAM_BINS, range=(0, sync_period))
    peak_bin = int(np.argmax(hist))
    mean_level = t.size / _HISTOGRAM_BINS
    if hist[peak_bin] < _PEAK_RATIO * mean_level:
        raise SyncRecoveryError(
            f"no sync structure: peak bin holds {hist[peak_bin]} of {t.size} "
            f"detections (background level {mean_level:.1f})"
        )
    r0 = 0.5 * (edges[peak_bin] + edges[peak_bin + 1])
    # |offset0| <= P/2, so offset0 +- P never lies nearer the GPS bound.
    offset0 = r0 - sync_period * round(r0 / sync_period)
    if abs(offset0) > coarse_offset_bound + bin_width:
        raise SyncRecoveryError(
            f"correlation peak at {offset0:.0f} ps lies outside the "
            f"+-{coarse_offset_bound:.0f} ps offset bound"
        )

    # Stage 3: least-squares fit of t = a*i + b with a = P(1+d), b = o(1+d),
    # run twice: a wide gate seeded by the histogram, then a tight gate
    # sized from the first fit's residual spread.
    offset, drift = offset0, drift0
    tol = 2.0 * bin_width
    for _ in range(2):
        idx, res = _comb_residuals(t, sync_period, offset, drift)
        keep = (np.abs(res) <= tol) & (idx >= 0)
        if np.sum(keep) < 2:
            raise SyncRecoveryError("fewer than 2 sync detections survive windowing")
        if np.ptp(idx[keep]) == 0:
            raise SyncRecoveryError("kept sync detections all map to one comb index")
        a, b = np.polyfit(idx[keep], t[keep], 1)
        drift = a / sync_period - 1.0
        offset = b / (1.0 + drift)
        _, res = _comb_residuals(t[keep], sync_period, offset, drift)
        rms = float(np.sqrt(np.mean(res**2)))
        tol = max(5.0 * rms, 1e-6 * sync_period)
    return ClockEstimate(
        offset_hat=float(offset),
        drift_hat_ppm=float(drift * 1e6),
        residual_rms=rms,
        n_sync_used=int(np.count_nonzero(keep)),
    )


def _comb_residuals(t, period, offset, drift):
    """Nearest comb index of each time under ``t = (i*period + offset) *
    (1 + drift)``, and its residual in Alice's time (ps). The one clock
    inverse: the sync fit and the pulse-slot match both map through it."""
    u = t / (1.0 + drift) - offset
    idx = np.round(u / period)
    return idx, u - idx * period


def match_slots(
    times: np.ndarray,
    detectors: np.ndarray,
    clock: ClockEstimate,
    pulse_period: float,
    widest: float,
    n_slots: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map detections to Alice's pulse slots and pick each slot's winner
    among those within ``widest``; ties break on earlier time, then lower
    detector id, so the result is independent of input ordering.

    Returns the winners' ``(pulse_index, detector, residual)``, ordered
    by slot; a residual is the detection minus its slot center in Alice's
    time (ps). One stable sort by slot, then a ``lexsort`` of the crowded
    slots only. A narrower window keeps each winner or nothing, so the
    match at ``w <= widest`` is the mask ``np.abs(residual) <= w / 2``.
    """
    check_windows([widest], pulse_period)
    t = np.asarray(times, dtype=float)
    det = np.asarray(detectors, dtype=np.uint8)
    slot, residual = _comb_residuals(
        t, pulse_period, clock.offset_hat, clock.drift_hat_ppm * 1e-6
    )
    slot = slot.astype(np.int64)
    inside = (np.abs(residual) <= widest / 2) & (slot >= 0) & (slot < n_slots)

    # stable and cheap on per-channel time-ordered runs; only crowded
    # slots (two or more candidates) need the tie-breaking keys below
    order = np.flatnonzero(inside)
    order = order[np.argsort(slot[order], kind="stable")]
    slot = slot[order]
    first = np.diff(slot, prepend=-1) != 0
    crowded = ~(first & (np.diff(slot, append=n_slots) != 0))
    # idx keeps input order within a slot, as one full lexsort would
    idx = order[crowded]
    keys = (det[idx], t[idx], np.abs(residual[idx]), slot[crowded])
    order[crowded] = idx[np.lexsort(keys)]
    win = order[first]
    return slot[first], det[win], residual[win]


def binary_entropy(x: float) -> float:
    """Shannon entropy of a biased coin, H2(0) = H2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secure_rate(sifted_rate: float, qber: float, f_ec: float) -> float:
    """Asymptotic BB84 secure-key rate after error correction and
    privacy amplification: R = sifted * (1 - f_ec*H2(q) - H2(q)).
    """
    if not 0 <= qber <= 0.5:
        raise ConfigError("qber must lie in [0, 0.5]")
    if f_ec < 1:
        raise ConfigError("error-correction inefficiency f_ec must be >= 1")
    h = binary_entropy(qber)
    return max(0.0, sifted_rate * (1.0 - f_ec * h - h))


def window_scan(
    times: np.ndarray,
    detectors: np.ndarray,
    clock: ClockEstimate,
    pulse_period: float,
    codes: np.ndarray,
    windows,
    disclose_fraction: float,
    seed: int,
    f_ec: float,
) -> list[SiftReport]:
    """Sift the same session at several coincidence windows.

    Windows must be ascending; wider windows admit a superset of the
    matched pairs, so matched counts are nondecreasing while background
    admission (and with it the expected QBER) grows. One match at the
    widest window is basis-reconciled once; each window then costs one
    mask over the sifted winners' |residual| and its disclosure draw: a
    seeded random ``disclose_fraction`` of the sifted bits is compared in
    the open, those bits are spent (excluded from the key) and their
    error fraction is the QBER estimate.
    """
    w = check_windows(windows, pulse_period)
    if not 0 < disclose_fraction <= 1:
        raise ConfigError("disclose_fraction must lie in (0, 1]")
    pulse_index, detector, residual = match_slots(
        times, detectors, clock, pulse_period, w[-1], codes.size
    )
    if detector.size and int(detector.max()) > 3:
        raise ConfigError("sync detections must not enter sifting")
    d = detector ^ codes[pulse_index]  # bit 1: bases differ, bit 0: bits differ
    same = d < 2
    wrong = d[same] == 1
    res = np.abs(residual)
    res_sifted = res[same]
    duration_s = codes.size * pulse_period / 1e12
    reports = []
    for i, window in enumerate(w):
        key_wrong = wrong[res_sifted <= window / 2]  # the sifted bits, in key order
        sifted = key_wrong.size
        n_disclose = int(round(disclose_fraction * sifted))
        rng = derive_rng(seed, "disclose", f"w{i}")
        pick = rng.choice(sifted, size=n_disclose, replace=False) if n_disclose else []
        errors = int(np.count_nonzero(key_wrong[pick]))
        qber = errors / n_disclose if n_disclose else 0.0
        sifted_rate = sifted / duration_s if duration_s > 0 else 0.0
        reports.append(
            SiftReport(
                window=window,
                matched=int(np.count_nonzero(res <= window / 2)),
                sifted_bits=sifted,
                disclosed=n_disclose,
                errors_found=errors,
                qber=qber,
                sifted_rate=sifted_rate,
                secure_rate=secure_rate(sifted_rate, min(qber, 0.5), f_ec),
            )
        )
    return reports


def write_sift_csv(reports, path) -> None:
    """One row per window, fields in SiftReport order."""
    write_csv(
        path,
        [
            "window_ps",
            "matched",
            "sifted_bits",
            "disclosed",
            "errors_found",
            "qber",
            "sifted_rate_bps",
            "secure_rate_bps",
        ],
        (
            [
                f"{r.window:.6f}",
                r.matched,
                r.sifted_bits,
                r.disclosed,
                r.errors_found,
                f"{r.qber:.8f}",
                f"{r.sifted_rate:.6f}",
                f"{r.secure_rate:.6f}",
            ]
            for r in reports
        ),
    )


def format_summary(report: SiftReport, clock: ClockEstimate) -> str:
    return (
        f"window {report.window:.0f} ps: matched {report.matched}, "
        f"sifted {report.sifted_bits}, disclosed {report.disclosed}, "
        f"QBER {100 * report.qber:.2f}%, sifted {report.sifted_rate:.0f} b/s, "
        f"secure {report.secure_rate:.0f} b/s | clock offset "
        f"{clock.offset_hat:.1f} ps, drift {clock.drift_hat_ppm:.3f} ppm, "
        f"sync residual {clock.residual_rms:.1f} ps rms ({clock.n_sync_used} pulses)"
    )
