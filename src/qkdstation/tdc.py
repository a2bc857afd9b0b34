"""Tap-level model of a multi-channel delay-line TDC.

A hit edge propagates along a chain of small fixed delays; a sampling
clock latches the chain state into a thermometer code whose 1-to-0
transition encodes the sub-clock-period arrival phase. A free-running
counter of clock periods supplies the coarse time. The model covers
nonuniform tap delays (DNL), sampling jitter, per-channel dead time, and
timestamp reconstruction against a calibration table. It works on whole
arrays of hits: the fine code is the number of comb boundaries a hit
has passed, found by a lookup on a uniform grid, so the monotone comb
never yields a bubble to filter.

Conventions used throughout:

* the fine code measures the interval from the hit edge to the NEXT
  sampling clock edge, so ``timestamp = coarse * clock_period - bin_center``;
* a hit exactly on a clock edge has fine code 0 and reconstructs to the
  edge itself;
* jitter is one common-mode Gaussian draw per digitization applied to
  the whole boundary comb (sampling-clock jitter), which keeps the
  single-shot variance at the textbook ``LSB^2/12 + sigma^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CalibrationError, ConfigError

if TYPE_CHECKING:
    from .calibration import CalibrationTable

# Widths of the event word's fields (see qkdstation.readout).
FINE_BITS = 9
COARSE_BITS = 40
CHANNEL_BITS = 5
MIN_DYNAMIC_RANGE_PS = 1e12


@dataclass(frozen=True)
class TdcConfig:
    """Static board parameters. Defaults model a 160 MHz system clock
    interpolated by a 261-tap line (nominal bin 23.95 ps)."""

    clock_period: float = 6250.0  # ps
    n_taps: int = 261
    n_channels: int = 16
    dead_time: float = 30_000.0  # ps

    def __post_init__(self):
        if not (math.isfinite(self.clock_period) and self.clock_period > 0):
            raise ConfigError("clock_period must be a finite positive number")
        if self.n_taps < 2:
            raise ConfigError("need at least 2 taps")
        if self.n_taps >= 1 << FINE_BITS:
            raise ConfigError(
                f"n_taps={self.n_taps} does not fit the {FINE_BITS}-bit fine field"
            )
        if not 1 <= self.n_channels <= 1 << CHANNEL_BITS:
            raise ConfigError(f"n_channels must be in 1..{1 << CHANNEL_BITS}")
        if self.dead_time < 0:
            raise ConfigError("dead_time must be nonnegative")
        if self.coarse_modulus * self.clock_period <= MIN_DYNAMIC_RANGE_PS:
            raise ConfigError("coarse counter dynamic range must exceed 1 s")

    @property
    def coarse_modulus(self) -> int:
        return 1 << COARSE_BITS

    @property
    def nominal_tap(self) -> float:
        """Ideal tap delay in ps (the nominal LSB)."""
        return self.clock_period / self.n_taps


@dataclass(frozen=True, eq=False)
class DelayLineProfile:
    """Physical truth of one channel's interpolator.

    ``boundaries[k]`` is the cumulative delay through taps 0..k; a hit a
    time ``delta`` before the next clock edge propagates past exactly
    those cells whose boundary is <= delta. The fine-code grid
    (:meth:`fine_codes`) is derived from the boundaries once, here.
    """

    channel: int
    tap_delays: np.ndarray  # ps, one entry per tap
    tap_jitter_sigma: float = 0.0  # ps, common-mode per digitization
    boundaries: np.ndarray = field(init=False, repr=False)
    _grid_scale: float = field(init=False, repr=False)  # cells per ps
    _grid_before: np.ndarray = field(init=False, repr=False)  # boundaries in earlier cells
    _grid_bounds: np.ndarray = field(init=False, repr=False)  # each cell's own, +inf padded

    def __post_init__(self):
        taps = np.asarray(self.tap_delays, dtype=float)
        if taps.ndim != 1 or taps.size < 2:
            raise ConfigError("tap_delays must be a 1-D array of length >= 2")
        if np.any(taps <= 0):
            raise ConfigError("every tap delay must be positive")
        if self.tap_jitter_sigma < 0:
            raise ConfigError("tap_jitter_sigma must be nonnegative")
        bounds = np.cumsum(taps)
        object.__setattr__(self, "tap_delays", taps)
        object.__setattr__(self, "boundaries", bounds)
        # two cells per nominal tap: a cell holds one boundary on a line
        # whose taps are all wider than half the nominal
        object.__setattr__(self, "_grid_scale", 2 * taps.size / bounds[-1])
        cell = self._grid_cell(bounds)
        before = np.searchsorted(cell, np.arange(2 * taps.size + 2))
        column = np.arange(taps.size) - before[cell]
        table = np.full((column.max() + 1, before.size), np.inf)
        table[column, cell] = bounds
        object.__setattr__(self, "_grid_before", before)
        object.__setattr__(self, "_grid_bounds", table)

    @property
    def n_taps(self) -> int:
        return self.tap_delays.size

    @property
    def period(self) -> float:
        return float(self.boundaries[-1])

    def _grid_cell(self, x: np.ndarray) -> np.ndarray:
        """Grid cell of each phase: 0 below the line, then one per half
        nominal tap, the last one past the period."""
        cells = 2 * self.n_taps
        return np.clip(np.floor(x * self._grid_scale), -1, cells).astype(np.intp) + 1

    def fine_codes(self, x: np.ndarray) -> np.ndarray:
        """The number of boundaries <= each phase ``x`` (ps), as
        ``np.searchsorted(boundaries, x, side="right")`` counts them.

        It is the count of boundaries in earlier grid cells plus one
        comparison per boundary in x's own cell. That is exact: a
        multiply by a positive constant is monotone in floating point,
        so a boundary in an earlier cell is below x and one in a later
        cell above it.
        """
        x = np.asarray(x, dtype=float)
        cell = self._grid_cell(x)
        code = self._grid_before[cell]
        for bounds in self._grid_bounds:
            code += x >= bounds[cell]
        return code


@dataclass
class ChannelState:
    """Mutable per-channel bookkeeping for dead-time gating.

    Rejection causes are kept as counters so a stream's accounting can be
    audited after the fact.
    """

    last_accept_time: float | None = None
    enabled: bool = True
    accepted: int = 0
    rejected_dead_time: int = 0
    rejected_disabled: int = 0


@dataclass
class RecordBatch:
    """Accepted records of one channel's digitized stream.

    ``accepted_index`` maps each record back to its position in the input
    time array (rejected hits leave gaps). ``rollover`` is the parity of
    the coarse counter's wraps at each record, the bit the wire format
    carries beside the coarse field.
    """

    coarse: np.ndarray
    fine: np.ndarray
    accepted_index: np.ndarray
    rollover: np.ndarray

    @property
    def n(self) -> int:
        return self.coarse.size


_DNL_DEFAULTS = {"uniform": (), "sine": (0.25, 3.0, 0.0), "random": (-0.3, 0.3)}


def parse_dnl(spec: str) -> tuple[str, tuple[float, ...]]:
    """Split a DNL directive into its kind and its numbers, defaults filled in.

    ``uniform``, ``sine[:<amplitude_lsb>[:<cycles>[:<phase_rad>]]]`` or
    ``random[:<lo_lsb>[:<hi_lsb>]]``; anything else raises ConfigError.
    """
    kind, *args = spec.strip().lower().split(":")
    defaults = _DNL_DEFAULTS.get(kind)
    if defaults is None or len(args) > len(defaults):
        raise ConfigError(f"unknown dnl spec {spec!r}")
    try:
        values = tuple(float(a) for a in args) + defaults[len(args) :]
    except ValueError:
        raise ConfigError(f"dnl spec {spec!r} holds a non-number") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"dnl spec {spec!r} holds a non-finite number")
    if kind == "random" and not 0 <= values[1] - values[0] < math.inf:
        raise ConfigError(f"dnl spec {spec!r} needs lo <= hi with a finite range")
    return kind, values


def _dnl_deviations(
    config: TdcConfig,
    dnl_spec,
    seed: int | None,
) -> np.ndarray:
    """Resolve a DNL directive or a per-tap array to deviations in ps."""
    nominal = config.nominal_tap
    n = config.n_taps
    if isinstance(dnl_spec, str):
        kind, args = parse_dnl(dnl_spec)
        if kind == "sine":
            amp, cycles, phase = args
            x = np.arange(n) / n
            return amp * nominal * np.sin(2 * np.pi * cycles * x + phase)
        if kind == "random":  # drawn uniformly with the given seed
            return np.random.default_rng(seed).uniform(*args, n) * nominal
        return np.zeros(n)
    dev = np.asarray(dnl_spec, dtype=float)
    if dev.shape != (n,):
        raise ConfigError(f"dnl deviation array must have length {n}")
    return dev


def build_delay_line(
    config: TdcConfig,
    dnl_spec="uniform",
    jitter_sigma: float = 0.0,
    seed: int | None = None,
    channel: int = 0,
) -> DelayLineProfile:
    """Construct a channel's delay line from a DNL directive.

    ``dnl_spec`` is ``"uniform"``, a ``"sine:..."`` / ``"random:..."``
    directive, or a full per-tap deviation array in ps. Tap delays are
    renormalized so they sum to exactly one clock period, which closes the
    integral nonlinearity at the period boundary.
    """
    dev = _dnl_deviations(config, dnl_spec, seed)
    taps = config.nominal_tap + dev
    if np.any(taps <= 0):
        bad = int(np.argmin(taps))
        raise ConfigError(
            f"dnl spec drives tap {bad} to {taps[bad]:.3f} ps; taps must stay positive"
        )
    taps = taps * (config.clock_period / taps.sum())
    # Pin the cumulative comb to the exact period: phase arithmetic modulo
    # the clock must never fall outside the line by a rounding ulp.
    for _ in range(4):
        cum = np.cumsum(taps)
        if cum[-1] == config.clock_period:
            break
        taps = taps.copy()
        taps[-1] += config.clock_period - cum[-1]
    return DelayLineProfile(
        channel=channel, tap_delays=taps, tap_jitter_sigma=jitter_sigma
    )


def gate_dead_time(
    times: np.ndarray,
    dead_time: float,
    last_accept: float | None = None,
) -> tuple[np.ndarray, float | None]:
    """Non-paralyzable dead-time gate over a sorted time array.

    Returns (boolean keep mask, time of the last accepted hit). A hit is
    kept iff it arrives at least ``dead_time`` after the previous KEPT
    hit. A hit that clears both the previous raw hit and ``last_accept``
    clears every earlier kept hit too, so only the others are walked in
    order.
    """
    t = np.asarray(times, dtype=float)
    keep = np.ones(t.size, dtype=bool)
    if t.size == 0:
        return keep, last_accept
    walk = np.concatenate(([False], np.diff(t) < dead_time))
    if last_accept is not None:
        walk |= t - last_accept < dead_time
    last = -math.inf if last_accept is None else last_accept
    for i in np.flatnonzero(walk).tolist():
        if i and not walk[i - 1]:
            last = t[i - 1]  # kept, being unwalked
        if t[i] - last < dead_time:
            keep[i] = False
        else:
            last = t[i]
    return keep, last if walk[-1] else float(t[-1])


def digitize_stream(
    times: np.ndarray,
    profile: DelayLineProfile,
    state: ChannelState,
    config: TdcConfig,
    rng: np.random.Generator,
) -> RecordBatch:
    """Digitize one channel's sorted hit stream, honoring the channel
    enable and the non-paralyzable dead time.

    Rejected hits are tallied on ``state`` by cause. Each accepted hit
    takes its fine code from the boundary comb at its phase before the
    next clock edge, shifted by one jitter draw from ``rng`` when the
    profile has jitter, so the draws follow the accepted hits in order.
    """
    _check_channel(profile, config)
    t = np.asarray(times, dtype=float)
    if t.size and t[0] < 0:
        raise ConfigError("hit times must be nonnegative (counter epoch is t=0)")
    if t.size and np.any(np.diff(t) < 0):
        raise ConfigError("hit stream must be sorted by arrival time")
    if not state.enabled:
        state.rejected_disabled += t.size
        empty = np.empty(0, dtype=np.int64)
        return RecordBatch(empty, empty.copy(), empty.copy(), empty.copy())
    keep, last = gate_dead_time(t, config.dead_time, state.last_accept_time)
    kept = t[keep]
    state.rejected_dead_time += int(t.size - kept.size)
    state.accepted += int(kept.size)
    if kept.size:
        state.last_accept_time = float(last)
    edge = np.ceil(kept / config.clock_period).astype(np.int64)
    delta = edge * config.clock_period - kept
    x = delta
    if profile.tap_jitter_sigma > 0:
        x = delta - rng.normal(0.0, profile.tap_jitter_sigma, kept.size)
    return RecordBatch(
        coarse=edge & (config.coarse_modulus - 1),
        fine=profile.fine_codes(x).astype(np.int64, copy=False),
        accepted_index=np.flatnonzero(keep).astype(np.int64),
        rollover=(edge >> COARSE_BITS) & 1,
    )


def reconstruct_stream(
    coarse: np.ndarray,
    fine: np.ndarray,
    cal: "CalibrationTable",
    config: TdcConfig,
) -> np.ndarray:
    """Arrival timestamps (ps) of one channel's records,
    ``coarse * clock_period - bin_center(fine)``: the fine code measures
    how long before the sampled clock edge each hit landed. A fine code
    outside the table raises :class:`CalibrationError`."""
    fine = np.asarray(fine, dtype=np.int64)
    if fine.size and (fine.min() < 0 or fine.max() >= cal.bin_centers.size):
        raise CalibrationError("fine code outside calibrated range")
    return (
        np.asarray(coarse, dtype=np.int64) * config.clock_period
        - cal.bin_centers[fine]
    )


def _check_channel(profile: DelayLineProfile, config: TdcConfig):
    if not 0 <= profile.channel < config.n_channels:
        raise ConfigError(
            f"channel {profile.channel} outside configured range 0..{config.n_channels - 1}"
        )
    if profile.n_taps != config.n_taps or not math.isclose(
        profile.period, config.clock_period, rel_tol=1e-9
    ):
        raise ConfigError("delay-line profile does not match the TDC config")
