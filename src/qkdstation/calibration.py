"""Code-density calibration and the two-channel precision test.

Code density: stimulate a channel with hits whose phase is uniform over
the clock period; each fine code's share of the histogram is
proportional to its bin width. From the widths follow the effective LSB
(mean occupied bin width), per-bin DNL and cumulative INL.

Precision: split one pulse train to two channels through a fixed cable
delay, time both with the TDC, and take the standard deviation of the
measured interval. Both channels contribute, so the per-channel figure
is the raw spread divided by sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import write_csv
from .errors import CalibrationError, ConfigError
from .seeding import derive_rng
from .tdc import (
    ChannelState,
    DelayLineProfile,
    TdcConfig,
    digitize_stream,
    reconstruct_stream,
)

SQRT2 = math.sqrt(2.0)

# Whole taps of the precision test's default cable delay.
CABLE_DELAY_TAPS = 125


@dataclass(frozen=True)
class CalibrationTable:
    """Per-channel fine-bin geometry recovered from a code-density run.

    Arrays are indexed by fine code (length n_taps + 1; the top code only
    appears when jitter pushes a hit past the last boundary). Codes that
    never occurred have zero width and sit at their boundary position.
    ``dnl`` is per occupied bin in LSB units; ``inl`` has one entry per
    occupied-bin boundary, pinned to 0 at both ends of the period.
    """

    channel: int
    bin_widths: np.ndarray  # ps, per fine code
    bin_centers: np.ndarray  # ps, per fine code
    lsb: float  # ps, mean occupied bin width
    dnl: np.ndarray  # LSB units, occupied bins only
    inl: np.ndarray  # LSB units, occupied-bin boundaries
    occupied: np.ndarray  # fine codes with nonzero width


@dataclass(frozen=True)
class PrecisionReport:
    """Result of one cable-delay precision measurement."""

    channel_pair: tuple[int, int]
    raw_std: float  # ps, std of the measured interval (two channels)
    n_samples: int
    mean_interval: float  # ps

    @property
    def per_channel_rms(self) -> float:
        return self.raw_std / SQRT2  # ps


def _table_from_widths(
    channel: int, widths: np.ndarray, clock_period: float
) -> CalibrationTable:
    """``widths`` are nonnegative and sum to ``clock_period``."""
    occupied = np.flatnonzero(widths > 0)
    lsb = clock_period / occupied.size
    dnl = widths[occupied] / lsb - 1.0
    inl = np.concatenate(([0.0], np.cumsum(dnl)))
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    centers = edges[:-1] + widths / 2.0
    centers[0] = 0.0  # a hit on the clock edge reads back as the edge
    return CalibrationTable(
        channel=channel,
        bin_widths=widths,
        bin_centers=centers,
        lsb=lsb,
        dnl=dnl,
        inl=inl,
        occupied=occupied,
    )


def code_density_calibrate(
    fine_histogram: np.ndarray,
    config: TdcConfig,
    channel: int = 0,
) -> CalibrationTable:
    """Turn a fine-code histogram into a calibration table.

    The histogram must cover fine codes 0..n_taps and come from a
    uniform-phase stimulus (>= 1e5 hits over >= 1e3 clock periods for the
    stated accuracies).

    Statistical floor: a table from N hits shifts every reconstructed
    time by one common offset, T * (1/2 - mean stimulus phase / T) for
    clock period T, whose standard deviation is T / sqrt(12 N). At the
    6.25 ns reference clock that is 1.8 ps for N = 1e6 and 4.0 ps for
    N = 2e5. A clock offset recovered through the table inherits it.

    A line is refused as broken when one fine code holds more than half
    the counts and more than twice its nominal share, 2 / n_taps of
    them; so a line of two taps is never refused for one wide tap.
    """
    counts = np.asarray(fine_histogram, dtype=np.int64)
    if counts.shape != (config.n_taps + 1,):
        raise CalibrationError(
            f"histogram must have {config.n_taps + 1} entries, got {counts.shape}"
        )
    if np.any(counts < 0):
        raise CalibrationError("histogram counts must be nonnegative")
    total = int(counts.sum())
    if total == 0:
        raise CalibrationError("empty histogram: no hits to calibrate from")
    peak = int(counts.max())
    if peak > total // 2 and peak * config.n_taps > 2 * total:
        raise CalibrationError(
            f"fine code {int(counts.argmax())} holds {peak}/{total} counts; "
            "delay line looks broken"
        )
    widths = config.clock_period * counts / total
    return _table_from_widths(channel, widths, config.clock_period)


def table_from_widths(
    channel: int, tap_widths: np.ndarray, config: TdcConfig
) -> CalibrationTable:
    """Rebuild a table from n_taps nonnegative bin widths that sum to the
    clock period: a channel's row of a time-tag file, which its reader
    checks, or a delay line's own tap delays (the exact table)."""
    widths = np.concatenate((tap_widths, [0.0]))
    return _table_from_widths(channel, widths, config.clock_period)


def uniform_phase_histogram(
    profile: DelayLineProfile,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Histogram of fine codes for a uniform-phase stimulus.

    The stimulus is noiseless on purpose: calibration characterizes the
    static line widths, and a jitter-free source keeps the top fine code
    unoccupied so the file-format table (n_taps widths) is lossless. The
    counts of N phases uniform over the period are Multinomial(N,
    tap_delays / period) in distribution, so they are drawn as one
    multinomial over the real taps, in O(n_taps) for any generator.
    """
    hist = np.zeros(profile.n_taps + 1, dtype=np.intp)
    hist[:-1] = rng.multinomial(n_samples, profile.tap_delays / profile.period)
    return hist


def calibrate_from_stimulus(
    profile: DelayLineProfile,
    config: TdcConfig,
    n_samples: int,
    rng: np.random.Generator,
) -> CalibrationTable:
    """Run the synthetic uniform-phase stimulus and calibrate the channel."""
    hist = uniform_phase_histogram(profile, n_samples, rng)
    return code_density_calibrate(hist, config, channel=profile.channel)


def decorrelation_cable_delay(config: TdcConfig) -> float:
    """Cable delay placing the two channels' quantization phases at the
    decorrelation lag of the bin-error sawtooth, ``CABLE_DELAY_TAPS``
    whole taps plus that lag.

    With a shared sampling clock and identical uniform delay lines, the
    two channels quantize phases that differ by a FIXED lag (the cable
    delay modulo one tap), so their quantization errors correlate and the
    sqrt(2) split of the interval spread would be biased. The sawtooth
    autocovariance 1 - 6u + 6u^2 (u = fractional lag) has a zero at
    u = 1/2 + 1/(2*sqrt(3)); parking the delay there keeps the errors
    uncorrelated even for an ideal uniform line.
    """
    u_star = 0.5 + 1.0 / (2.0 * math.sqrt(3.0))
    return (CABLE_DELAY_TAPS + u_star) * config.nominal_tap


def precision_test(
    profile_a: DelayLineProfile,
    profile_b: DelayLineProfile,
    config: TdcConfig,
    period: float,
    cable_delay: float,
    n: int,
    seed: int,
) -> PrecisionReport:
    """Cable-delay precision measurement between two channels.

    Generates ``n`` pulse edges, feeds each to channel A at t and to
    channel B at t + cable_delay, reconstructs both streams through the
    exact tables of their delay lines, and reports the interval spread.
    The generator phase is dithered uniformly over one clock period per
    pulse (common to both channels, so it cancels in the interval) to
    guarantee a uniform fine-phase ensemble whatever the pulse period.
    """
    if period <= config.dead_time:
        raise ConfigError(
            f"pulse period {period} ps must exceed the dead time {config.dead_time} ps"
        )
    if n < 10_000:
        raise ConfigError("precision test needs at least 1e4 pulses")
    pair = (profile_a.channel, profile_b.channel)
    rng = derive_rng(seed, "precision", f"pair{pair[0]}-{pair[1]}")
    base = np.arange(n, dtype=float) * period + config.clock_period
    dither = rng.random(n) * config.clock_period
    t_a = base + dither
    t_b = t_a + cable_delay
    cal_a = table_from_widths(profile_a.channel, profile_a.tap_delays, config)
    cal_b = table_from_widths(profile_b.channel, profile_b.tap_delays, config)

    rng_a = derive_rng(seed, "precision", f"jitter-ch{pair[0]}")
    rng_b = derive_rng(seed, "precision", f"jitter-ch{pair[1]}")
    batch_a = digitize_stream(t_a, profile_a, ChannelState(), config, rng_a)
    batch_b = digitize_stream(t_b, profile_b, ChannelState(), config, rng_b)
    if batch_a.n != n or batch_b.n != n:
        raise ConfigError("precision stimulus lost pulses to dead time")
    ts_a = reconstruct_stream(batch_a.coarse, batch_a.fine, cal_a, config)
    ts_b = reconstruct_stream(batch_b.coarse, batch_b.fine, cal_b, config)
    diff = ts_b - ts_a
    raw_std = float(np.std(diff, ddof=1))
    return PrecisionReport(
        channel_pair=pair,
        raw_std=raw_std,
        n_samples=n,
        mean_interval=float(np.mean(diff)),
    )


def write_calibration_csv(table: CalibrationTable, path) -> None:
    """Dump occupied bins as (fine_code, width_ps, dnl_lsb, inl_lsb).

    ``inl_lsb`` is the cumulative nonlinearity at the bin's right
    boundary, so the final row shows the period closure (0).
    """
    write_csv(
        path,
        ["fine_code", "width_ps", "dnl_lsb", "inl_lsb"],
        (
            [
                int(code),
                f"{table.bin_widths[code]:.6f}",
                f"{table.dnl[j]:.6f}",
                f"{table.inl[j + 1]:.6f}",
            ]
            for j, code in enumerate(table.occupied)
        ),
    )
