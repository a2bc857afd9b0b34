"""Per-window reference matcher: the oracle for the window scan.

The scan matches once at the widest window: one stable sort of the
candidates by slot, a ``lexsort`` of only the slots holding two or more,
bases reconciled once, and per window one |residual| mask plus the
disclosure draw. ``reference_match_pulses`` does none of that sharing:
every call maps, filters and fully ``lexsort``s the whole input again for
its own window, and ``reference_window_scan`` sifts each such match on
its own with ``reference_sift``, which shares no code with ``sift``. The
scan must agree with it field for field at every window.
"""

import csv
from dataclasses import dataclass

import numpy as np

from qkdstation.seeding import derive_rng
from qkdstation.sift import SiftReport, secure_rate


@dataclass(frozen=True)
class ReferenceMatch:
    """One reference match: the winners by slot, the window they were
    matched at and the session's pulse period and slot count."""

    pulse_index: np.ndarray
    detector: np.ndarray
    residual: np.ndarray
    window: float
    pulse_period: float
    n_slots: int

    @property
    def n(self) -> int:
        return self.pulse_index.size


def reference_match_pulses(times, detectors, clock, pulse_period, window, n_slots):
    t = np.asarray(times, dtype=float)
    det = np.asarray(detectors, dtype=np.uint8)
    u = t / (1.0 + clock.drift_hat_ppm * 1e-6) - clock.offset_hat
    slot = np.round(u / pulse_period).astype(np.int64)
    residual = u - slot * pulse_period
    inside = (np.abs(residual) <= window / 2) & (slot >= 0) & (slot < n_slots)

    slot, residual = slot[inside], residual[inside]
    det_in, t_in = det[inside], t[inside]
    order = np.lexsort((det_in, t_in, np.abs(residual), slot))
    slot, residual = slot[order], residual[order]
    det_in = det_in[order]
    first = np.ones(slot.size, dtype=bool)
    first[1:] = slot[1:] != slot[:-1]

    return ReferenceMatch(
        pulse_index=slot[first],
        detector=det_in[first],
        residual=residual[first],
        window=window,
        pulse_period=pulse_period,
        n_slots=n_slots,
    )


def reference_window_scan(
    times, detectors, clock, pulse_period, alice, windows, disclose_fraction, seed, f_ec
):
    """One reference match and one ``reference_sift`` per window,
    disclosure stream labelled by window position as ``window_scan``
    labels it."""
    reports = []
    for i, w in enumerate(windows):
        m = reference_match_pulses(times, detectors, clock, pulse_period, w, alice.size)
        rng = derive_rng(seed, "disclose", f"w{i}")
        reports.append(reference_sift(m, alice, disclose_fraction, rng, f_ec))
    return reports


def reference_sift(match, alice, disclose_fraction, rng, f_ec):
    """Sift one match on its own: reconcile every pair, no window mask."""
    same = (match.detector >> 1) == (alice >> 1)[match.pulse_index]
    wrong = (match.detector & 1)[same] != (alice & 1)[match.pulse_index[same]]
    sifted = int(np.sum(same))
    n_disclose = int(round(disclose_fraction * sifted))
    if n_disclose > 0:
        pick = rng.choice(sifted, size=n_disclose, replace=False)
        errors = int(np.sum(wrong[pick]))
        qber = errors / n_disclose
    else:
        errors, qber = 0, 0.0
    duration_s = match.n_slots * match.pulse_period / 1e12
    sifted_rate = sifted / duration_s if duration_s > 0 else 0.0
    return SiftReport(
        window=match.window,
        matched=match.n,
        sifted_bits=sifted,
        disclosed=n_disclose,
        errors_found=errors,
        qber=qber,
        sifted_rate=sifted_rate,
        secure_rate=secure_rate(sifted_rate, min(qber, 0.5), f_ec),
    )


def write_reference_pairs(path, times, detectors, clock, pulse_period, n_slots, windows):
    """The ``--dump-pairs`` CSV built from one reference match per window."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_ps", "pulse_index", "detector", "residual_ps"])
        for w in windows:
            m = reference_match_pulses(times, detectors, clock, pulse_period, w, n_slots)
            for i in range(m.n):
                writer.writerow(
                    [
                        f"{w:.1f}",
                        int(m.pulse_index[i]),
                        int(m.detector[i]),
                        f"{m.residual[i]:.3f}",
                    ]
                )


def narrow(winners, window):
    """``match_slots``' ``(pulse_index, detector, residual)`` narrowed to a
    window no wider than the one matched."""
    keep = np.abs(winners[2]) <= window / 2
    return tuple(a[keep] for a in winners)


def assert_same_match(got, want: ReferenceMatch):
    """``got`` is ``match_slots``' ``(pulse_index, detector, residual)``."""
    for name, a in zip(("pulse_index", "detector", "residual"), got, strict=True):
        b = getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
