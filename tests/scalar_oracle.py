"""Scalar reference route: one hit, one record, one word at a time.

The pipeline digitizes, reconstructs and packs whole arrays
(``digitize_stream``, ``reconstruct_stream``, ``pack_words`` and
``unpack_words``). This module keeps the per-event route the arrays must
agree with: a hit latches the delay line into a thermometer code, a
majority-of-3 encoder turns the code into its fine value, and the record
packs into one 64-bit word by explicit field checks and shifts. The
dual-route tests compare the two field for field. The dead-time gate
keeps its hit-by-hit loop here too, as ``reference_gate_dead_time``, and
the readout link its loop on ``ReadoutBuffer`` fields, as
``reference_stream``. Alice's code and the photon link keep their
one-call draws, as ``reference_gen_random_code`` and
``reference_simulate_link``: n uniforms in one array, and one merge and
one gate per detector, with the four gated streams merged into the
(detector, time) order that ``simulate_link`` returns.
``reference_digitize_detections`` takes each channel's hits with a
boolean mask over all of them, so it reads them in any order, and
returns the records channel by channel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from qkdstation.calibration import CalibrationTable
from qkdstation.errors import CalibrationError, ConfigError, PackError
from qkdstation.qkd import (
    DET_X0,
    DET_X1,
    DET_Z0,
    DET_Z1,
    ORIGIN_BACKGROUND,
    ORIGIN_DARK,
    DetectionSet,
    TruthLedger,
    poisson_background,
)
from qkdstation.readout import TICK_PS, WORD_SIZE, ReadoutBuffer
from qkdstation.seeding import derive_rng
from qkdstation.tdc import (
    CHANNEL_BITS,
    COARSE_BITS,
    FINE_BITS,
    ChannelState,
    DelayLineProfile,
    TdcConfig,
    _check_channel,
    digitize_stream,
    gate_dead_time,
)

_CHANNEL_SHIFT = FINE_BITS + COARSE_BITS
_ROLLOVER_SHIFT = _CHANNEL_SHIFT + CHANNEL_BITS
_RESERVED_SHIFT = _ROLLOVER_SHIFT + 1


@dataclass(frozen=True)
class RawHit:
    """A physical signal edge arriving at one input channel."""

    channel: int
    true_time: float  # ps since epoch

    def __post_init__(self):
        if self.true_time < 0:
            raise ConfigError("true_time must be nonnegative")


@dataclass(frozen=True)
class TdcRecord:
    """Digitized event: channel id, coarse period count, fine code."""

    channel: int
    coarse: int
    fine: int


def sample_thermometer(
    profile: DelayLineProfile,
    delta: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Latch the delay-line state for a hit ``delta`` ps before the next
    clock edge. Returns the thermometer code as a uint8 array.

    Jitter, when enabled, is one draw shifting the whole boundary comb;
    the noiseless output is always monotone 1...10...0.
    """
    if delta < 0 or delta >= profile.period:
        raise ConfigError(
            f"delta={delta} outside [0, {profile.period}); reduce mod clock period"
        )
    x = delta
    if rng is not None and profile.tap_jitter_sigma > 0:
        # Shifting all boundaries by +eps equals comparing against delta - eps.
        x = delta - rng.normal(0.0, profile.tap_jitter_sigma)
    return (profile.boundaries <= x).astype(np.uint8)


def encode_fine(code) -> int:
    """Convert a thermometer code to its fine value.

    A majority-of-3 filter (endpoints padded with themselves) removes
    isolated bubbles, then a half-interval search locates the 1-to-0
    transition. Total: any bit pattern maps to a value in [0, n].
    """
    bits = np.asarray(code, dtype=np.uint8)
    if bits.ndim != 1 or bits.size < 2:
        raise ConfigError("thermometer code must be 1-D with length >= 2")
    left = np.concatenate(([bits[0]], bits[:-1]))
    right = np.concatenate((bits[1:], [bits[-1]]))
    filtered = (left.astype(np.int8) + bits + right) >= 2
    lo, hi = 0, filtered.size
    while lo < hi:
        mid = (lo + hi) // 2
        if filtered[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_gate_dead_time(times, dead_time, last_accept=None):
    """Non-paralyzable dead-time gate, one hit at a time: a hit is kept
    iff it arrives at least ``dead_time`` after the previous kept hit.
    Returns (keep mask, time of the last kept hit, else ``last_accept``)."""
    t = np.asarray(times, dtype=float)
    keep = np.ones(t.size, dtype=bool)
    if t.size == 0:
        return keep, last_accept
    last = -math.inf if last_accept is None else last_accept
    for i in range(t.size):
        if t[i] - last < dead_time:
            keep[i] = False
        else:
            last = t[i]
    return keep, last


def reference_stream(arrival_times, depth, link_rate):
    """Bounded buffer and capped link, one tick at a time, updating the
    ``ReadoutBuffer`` fields in place. The budget counts micro-bytes, so a
    1 us tick adds ``link_rate`` of them, a whole number. Returns (buffer,
    delivered indices)."""
    if depth <= 0:
        raise PackError("buffer depth must be positive")
    if not float(link_rate).is_integer():
        raise PackError("link rate must be a whole number of bytes per second")
    t = np.asarray(arrival_times, dtype=float)
    order = np.argsort(t, kind="stable")
    t = t[order]
    if t.size and t[0] < 0:
        raise PackError("arrival times must be nonnegative")
    buf = ReadoutBuffer(depth=depth)
    if t.size == 0:
        return buf, np.empty(0, dtype=np.int64)

    credit_per_tick = int(link_rate)  # micro-bytes, as TICK_PS is 1 us
    word_cost = WORD_SIZE * 10**6
    n_ticks = int(np.floor(t[-1] / TICK_PS)) + 1
    tick_of = np.floor(t / TICK_PS).astype(np.int64)
    starts = np.searchsorted(tick_of, np.arange(n_ticks + 1)).tolist()

    accepted = []
    budget = 0
    for tick in range(n_ticks):
        lo, hi = starts[tick], starts[tick + 1]
        n_new = hi - lo
        if n_new:
            free = depth - buf.occupancy
            take = min(free, n_new)
            if take:
                accepted.append(order[lo : lo + take])
                buf.occupancy += take
            buf.drops += n_new - take
            buf.arrived += n_new
        budget += credit_per_tick
        can_drain = min(budget // word_cost, buf.occupancy)
        if can_drain:
            buf.occupancy -= can_drain
            buf.delivered += can_drain
            budget -= can_drain * word_cost
        if buf.occupancy == 0:
            budget = 0  # idle link accrues no credit
    flat = np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)
    return buf, flat[: buf.delivered].astype(np.int64)


def reference_gen_random_code(n, basis_bias, bit_bias, seed):
    """Alice's code from one array of n uniforms for the bases, then one
    for the bits."""
    rng = np.random.default_rng(seed)
    bases = (rng.random(n) >= basis_bias).astype(np.uint8)
    bits = (rng.random(n) < bit_bias).astype(np.uint8)
    return (bases << 1) | bits


def reference_simulate_link(alice, link, detectors, clock, seed):
    """The photon link from one array of n survival uniforms, with each
    detector's signal, background and dark counts merged and gated on
    their own, then all four merged in (detector, time) order."""
    rng = np.random.default_rng(seed)
    n = alice.size
    p_det = min(1.0, link.mean_photon_number * link.attenuation * detectors.efficiency)
    idx = np.flatnonzero(rng.random(n) < p_det)
    k = idx.size
    bob_basis = (rng.random(k) < 0.5).astype(np.uint8)
    same = bob_basis == (alice >> 1)[idx]
    flip = rng.random(k) < detectors.intrinsic_error
    random_bit = (rng.random(k) < 0.5).astype(np.uint8)
    bob_bit = np.where(same, (alice & 1)[idx] ^ flip, random_bit).astype(np.uint8)
    det = (bob_basis << 1) | bob_bit
    t_bob = clock.to_receiver(idx * link.pulse_period)
    if detectors.jitter_sigma > 0:
        t_bob = t_bob + rng.normal(0.0, detectors.jitter_sigma, k)
    signal = DetectionSet(times=t_bob, detectors=det, origins=idx)

    t0 = float(clock.to_receiver(0.0))
    t1 = float(clock.to_receiver(n * link.pulse_period))
    ledger = TruthLedger(emitted=n, lost=n - k)
    streams = []
    for d in (DET_Z0, DET_Z1, DET_X0, DET_X1):
        bg = poisson_background(link.background_rate, t0, t1, d, ORIGIN_BACKGROUND, rng)
        dark = poisson_background(detectors.dark_rate, t0, t1, d, ORIGIN_DARK, rng)
        ledger.background_generated += bg.n
        ledger.dark_generated += dark.n
        merged = DetectionSet.merge(signal.select(signal.detectors == d), bg, dark)
        keep, _ = gate_dead_time(merged.times, detectors.det_dead_time)
        suppressed = merged.origins[~keep]
        ledger.signal_suppressed += int(np.sum(suppressed >= 0))
        ledger.background_suppressed += int(np.sum(suppressed == ORIGIN_BACKGROUND))
        ledger.dark_suppressed += int(np.sum(suppressed == ORIGIN_DARK))
        streams.append(merged.select(keep))
    out = DetectionSet.merge(*streams)
    ledger.signal_detected = int(np.sum(out.origins >= 0))
    ledger.background_detected = int(np.sum(out.origins == ORIGIN_BACKGROUND))
    ledger.dark_detected = int(np.sum(out.origins == ORIGIN_DARK))
    return out, ledger


def reference_digitize_detections(cfg, detections, profiles):
    """``session.digitize_detections`` with one boolean mask over all hits
    per channel, dropping those before the counter epoch; the records
    come out channel by channel, each channel in time order."""
    columns = []
    for c in range(cfg.tdc.n_channels):
        mask = (detections.detectors == c) & (detections.times >= 0)
        t = detections.times[mask]
        state = ChannelState(enabled=cfg.channel_enabled(c))
        rng = derive_rng(cfg.seed, "tdc", f"ch{c}")
        batch = digitize_stream(t, profiles[c], state, cfg.tdc, rng)
        channel = np.full(batch.n, c, dtype=np.int64)
        columns.append(
            (t[batch.accepted_index], channel, batch.coarse, batch.fine, batch.rollover)
        )
    return tuple(np.concatenate(col) for col in zip(*columns))


def digitize(
    hit: RawHit,
    profile: DelayLineProfile,
    state: ChannelState,
    config: TdcConfig,
    rng: np.random.Generator | None = None,
) -> TdcRecord | None:
    """Digitize one hit, honoring the channel enable and dead time.

    Returns the record, or None when the hit is discarded; the cause is
    tallied on ``state``. Hits must be presented in arrival-time order
    per channel. A hit on another channel than the profile's raises
    ConfigError: unlike ``digitize_stream``, which takes its channel from
    the profile, this route is handed the two separately.
    """
    if hit.channel != profile.channel:
        raise ConfigError(
            f"profile belongs to channel {profile.channel}, hit on channel {hit.channel}"
        )
    _check_channel(profile, config)
    if not state.enabled:
        state.rejected_disabled += 1
        return None
    if (
        state.last_accept_time is not None
        and hit.true_time - state.last_accept_time < config.dead_time
    ):
        state.rejected_dead_time += 1
        return None
    edge = math.ceil(hit.true_time / config.clock_period)
    delta = edge * config.clock_period - hit.true_time
    fine = encode_fine(sample_thermometer(profile, delta, rng))
    state.last_accept_time = hit.true_time
    state.accepted += 1
    return TdcRecord(
        channel=hit.channel, coarse=edge % config.coarse_modulus, fine=fine
    )


def reconstruct(
    record: TdcRecord, cal: CalibrationTable | None, config: TdcConfig
) -> float:
    """Recover the arrival timestamp (ps) of a digitized record.

    ``timestamp = coarse * clock_period - bin_center(fine)``: the fine
    code measures how long before the sampled clock edge the hit landed.
    """
    if cal is None or cal.channel != record.channel:
        have = "no table" if cal is None else f"table for channel {cal.channel}"
        raise CalibrationError(
            f"channel {record.channel} has {have}; run code_density_calibrate first"
        )
    if not 0 <= record.fine < cal.bin_centers.size:
        raise CalibrationError(
            f"fine code {record.fine} outside calibrated range 0..{cal.bin_centers.size - 1}"
        )
    return record.coarse * config.clock_period - float(cal.bin_centers[record.fine])


def pack(record: TdcRecord, rollover: bool = False) -> int:
    """Pack a record into its 64-bit word. Overflowing any field is an
    error, never a silent truncation."""
    if not 0 <= record.fine < 1 << FINE_BITS:
        raise PackError(f"fine {record.fine} exceeds {FINE_BITS} bits")
    if not 0 <= record.coarse < 1 << COARSE_BITS:
        raise PackError(f"coarse {record.coarse} exceeds {COARSE_BITS} bits")
    if not 0 <= record.channel < 1 << CHANNEL_BITS:
        raise PackError(f"channel {record.channel} exceeds {CHANNEL_BITS} bits")
    return (
        record.fine
        | (record.coarse << FINE_BITS)
        | (record.channel << _CHANNEL_SHIFT)
        | (int(bool(rollover)) << _ROLLOVER_SHIFT)
    )


def unpack(word: int) -> tuple[TdcRecord, bool]:
    """Inverse of :func:`pack`. Nonzero reserved bits are an error."""
    if not 0 <= word < (1 << 64):
        raise PackError(f"word {word:#x} is not a 64-bit value")
    if word >> _RESERVED_SHIFT:
        raise PackError(f"word {word:#018x} has nonzero reserved bits")
    record = TdcRecord(
        channel=(word >> _CHANNEL_SHIFT) & ((1 << CHANNEL_BITS) - 1),
        coarse=(word >> FINE_BITS) & ((1 << COARSE_BITS) - 1),
        fine=word & ((1 << FINE_BITS) - 1),
    )
    return record, bool((word >> _ROLLOVER_SHIFT) & 1)


def read_calibration_csv(path) -> list[tuple[int, float, float, float]]:
    """Rows of a per-channel calibration CSV as (code, width, dnl, inl)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["fine_code", "width_ps", "dnl_lsb", "inl_lsb"]:
            raise CalibrationError(f"unexpected calibration CSV header {header}")
        for row in reader:
            rows.append((int(row[0]), float(row[1]), float(row[2]), float(row[3])))
    return rows
