"""Event-source model of the desk-scale BB84 link.

Alice encodes a proportion-adjustable random code on faint pulses; the
free-space channel attenuates them; Bob's passive receiver splits the
basis choice 50/50 and fires one of four detectors, with background and
dark counts mixed in; a separate bright sync-laser comb rides along so
the receiver can recover Alice's timebase. The two parties' clocks
disagree by a fixed offset plus a linear drift.

Alice's code is one ``basis << 1 | bit`` byte per pulse, and detection
sets are column arrays (time, detector, origin), rather than one object
per pulse; at 10^6 pulses per session anything else dominates the runtime.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FileFormatError
from .tdc import gate_dead_time

BASIS_Z = 0
BASIS_X = 1

DET_Z0 = 0
DET_Z1 = 1
DET_X0 = 2
DET_X1 = 3
DET_SYNC = 4

# DetectionSet.origins values below 0 flag unphysical provenance.
ORIGIN_BACKGROUND = -1
ORIGIN_DARK = -2

PS_PER_S = 1e12
# Per-pulse uniforms are drawn this many at a time into one reused
# float64 buffer (512 KiB); the stream equals one rng.random(n) call.
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class LinkModel:
    """Free-space channel and source parameters."""

    loss_db: float = 10.0
    background_rate: float = 30_000.0  # counts/s per detector
    pulse_period: float = 10_000.0  # ps
    sync_period: float = 2_000_000.0  # ps
    mean_photon_number: float = 0.5  # per signal pulse

    def __post_init__(self):
        if self.loss_db < 0:
            raise ConfigError("loss_db must be nonnegative")
        if self.background_rate < 0:
            raise ConfigError("background_rate must be nonnegative")
        if self.pulse_period <= 0 or self.sync_period <= 0:
            raise ConfigError("pulse and sync periods must be positive")
        if self.mean_photon_number <= 0:
            raise ConfigError("mean_photon_number must be positive")

    @property
    def attenuation(self) -> float:
        """Linear channel transmission, 10^(-loss_db/10)."""
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """One APD's response; all four signal detectors share it."""

    efficiency: float = 0.5
    dark_rate: float = 1000.0  # counts/s
    jitter_sigma: float = 60.0  # ps
    det_dead_time: float = 50_000.0  # ps
    intrinsic_error: float = 0.015  # optical misalignment flip probability

    def __post_init__(self):
        if not 0 <= self.efficiency <= 1:
            raise ConfigError("efficiency must be in [0, 1]")
        if self.dark_rate < 0 or self.jitter_sigma < 0 or self.det_dead_time < 0:
            raise ConfigError("detector rates and times must be nonnegative")
        if not 0 <= self.intrinsic_error <= 0.5:
            raise ConfigError("intrinsic_error must be in [0, 0.5]")


@dataclass(frozen=True)
class ClockModel:
    """Affine disagreement between Alice's and Bob's timebases.

    Bob reads ``(t_alice + offset) * (1 + drift_ppm * 1e-6)``.
    """

    offset: float = 0.0  # ps
    drift_ppm: float = 0.0

    def __post_init__(self):
        if abs(self.drift_ppm) >= 1000:
            raise ConfigError("drift beyond 1000 ppm is outside the model's scope")

    @property
    def scale(self) -> float:
        return 1.0 + self.drift_ppm * 1e-6

    def to_receiver(self, t_alice):
        return (np.asarray(t_alice, dtype=float) + self.offset) * self.scale


@dataclass
class DetectionSet:
    """Receiver-side clicks in (detector, time) order, ties in input order.

    ``origins`` holds the emitting pulse index for signal/sync photons,
    ORIGIN_BACKGROUND or ORIGIN_DARK for noise. It exists purely for
    truth accounting in tests and never feeds the sifting path.
    """

    times: np.ndarray
    detectors: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.detectors = np.asarray(self.detectors, dtype=np.uint8)
        self.origins = np.asarray(self.origins, dtype=np.int64)
        if not (self.times.shape == self.detectors.shape == self.origins.shape):
            raise ConfigError("detection columns must be parallel")

    @property
    def n(self) -> int:
        return self.times.size

    def select(self, mask) -> "DetectionSet":
        return DetectionSet(self.times[mask], self.detectors[mask], self.origins[mask])

    @staticmethod
    def merge(*sets: "DetectionSet") -> "DetectionSet":
        times = np.concatenate([s.times for s in sets])
        dets = np.concatenate([s.detectors for s in sets])
        origins = np.concatenate([s.origins for s in sets])
        order = np.lexsort((times, dets))
        return DetectionSet(times[order], dets[order], origins[order])


@dataclass
class TruthLedger:
    """Exact bookkeeping of where every emitted pulse and noise count went.

    Conservation holds with no statistical slack:
    ``emitted == lost + signal_detected + signal_suppressed``.
    """

    emitted: int = 0
    lost: int = 0
    signal_detected: int = 0
    signal_suppressed: int = 0
    background_generated: int = 0
    background_detected: int = 0
    background_suppressed: int = 0
    dark_generated: int = 0
    dark_detected: int = 0
    dark_suppressed: int = 0

    def conserved(self) -> bool:
        return (
            self.emitted == self.lost + self.signal_detected + self.signal_suppressed
            and self.background_generated
            == self.background_detected + self.background_suppressed
            and self.dark_generated == self.dark_detected + self.dark_suppressed
        )


def gen_random_code(
    n: int,
    basis_bias: float = 0.5,
    bit_bias: float = 0.5,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Draw Alice's code, one ``basis << 1 | bit`` byte per pulse:
    P(basis = Z) = basis_bias, P(bit = 1) = bit_bias.

    Draw order (n uniforms for the bases, then n for the bits) is part of
    the reproducibility contract.
    """
    if not 0 <= basis_bias <= 1 or not 0 <= bit_bias <= 1:
        raise ConfigError("biases must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    codes = np.empty(n, dtype=np.uint8)
    for lo, u in _uniform_chunks(rng, n):
        np.greater_equal(u, basis_bias, out=codes[lo : lo + u.size])
    codes <<= 1
    for lo, u in _uniform_chunks(rng, n):
        codes[lo : lo + u.size] |= u < bit_bias
    return codes


def _uniform_chunks(rng: np.random.Generator, n: int):
    """(offset, uniforms) over the stream of ``rng.random(n)``, drawn
    DRAW_CHUNK at a time into one buffer that each chunk overwrites."""
    buf = np.empty(min(n, DRAW_CHUNK))
    for lo in range(0, n, DRAW_CHUNK):
        u = buf[: min(DRAW_CHUNK, n - lo)]
        rng.random(out=u)
        yield lo, u


def poisson_background(
    rate_hz: float,
    t_start: float,
    t_stop: float,
    detector: int,
    origin: int,
    rng: np.random.Generator,
) -> DetectionSet:
    """Homogeneous Poisson clicks on one detector over [t_start, t_stop) ps."""
    duration_s = max(0.0, (t_stop - t_start)) / PS_PER_S
    count = int(rng.poisson(rate_hz * duration_s))
    times = np.sort(t_start + rng.random(count) * (t_stop - t_start))
    return DetectionSet(
        times=times,
        detectors=np.full(count, detector, dtype=np.uint8),
        origins=np.full(count, origin, dtype=np.int64),
    )


def simulate_link(
    codes: np.ndarray,
    link: LinkModel,
    detectors: DetectorModel,
    clock: ClockModel,
    seed: int | np.random.Generator,
) -> tuple[DetectionSet, TruthLedger]:
    """Propagate Alice's code to Bob's four signal detectors.

    Each pulse survives the channel with probability
    ``mean_photon_number * 10^(-loss/10) * efficiency`` (capped at 1); a
    surviving photon picks its measurement basis 50/50 at the beam
    splitter, lands on the matching detector with probability
    1 - intrinsic_error when the bases agree and uniformly otherwise.
    Background and dark counts arrive as per-detector Poisson processes;
    detector dead time gates each detector's stream, in which signal
    comes before background, and background before dark, at equal times.
    """
    rng = np.random.default_rng(seed)
    n = codes.size
    p_det = min(
        1.0, link.mean_photon_number * link.attenuation * detectors.efficiency
    )

    idx = np.concatenate(
        [np.flatnonzero(u < p_det) + lo for lo, u in _uniform_chunks(rng, n)]
        or [np.empty(0, dtype=np.int64)]
    )
    k = idx.size

    sent = codes[idx]
    bob_basis = (rng.random(k) < 0.5).astype(np.uint8)
    same = bob_basis == sent >> 1
    flip = rng.random(k) < detectors.intrinsic_error
    random_bit = (rng.random(k) < 0.5).astype(np.uint8)
    bob_bit = np.where(same, (sent & 1) ^ flip, random_bit).astype(np.uint8)
    det = (bob_basis << 1) | bob_bit

    t_bob = clock.to_receiver(idx * link.pulse_period)
    if detectors.jitter_sigma > 0:
        t_bob = t_bob + rng.normal(0.0, detectors.jitter_sigma, k)

    t0 = float(clock.to_receiver(0.0))
    t1 = float(clock.to_receiver(n * link.pulse_period))
    ledger = TruthLedger(emitted=n, lost=n - k)
    parts = [DetectionSet(times=t_bob, detectors=det, origins=idx)]
    for d in (DET_Z0, DET_Z1, DET_X0, DET_X1):
        parts.append(
            poisson_background(link.background_rate, t0, t1, d, ORIGIN_BACKGROUND, rng)
        )
        parts.append(poisson_background(detectors.dark_rate, t0, t1, d, ORIGIN_DARK, rng))
    ledger.background_generated = sum(p.n for p in parts[1::2])
    ledger.dark_generated = sum(p.n for p in parts[2::2])

    # each detector's hits in time order, ties in draw order (signal,
    # background, dark), through that detector's dead-time gate
    hits = DetectionSet.merge(*parts)
    edges = np.searchsorted(hits.detectors, np.arange(DET_X1 + 2)).tolist()
    keep = np.concatenate(
        [gate_dead_time(hits.times[lo:hi], detectors.det_dead_time)[0]
         for lo, hi in zip(edges, edges[1:])]
    )
    suppressed = hits.origins[~keep]
    ledger.signal_suppressed = int(np.sum(suppressed >= 0))
    ledger.background_suppressed = int(np.sum(suppressed == ORIGIN_BACKGROUND))
    ledger.dark_suppressed = int(np.sum(suppressed == ORIGIN_DARK))

    out = hits.select(keep)
    ledger.signal_detected = int(np.sum(out.origins >= 0))
    ledger.background_detected = int(np.sum(out.origins == ORIGIN_BACKGROUND))
    ledger.dark_detected = int(np.sum(out.origins == ORIGIN_DARK))
    return out, ledger


def emit_sync(
    n_sync: int,
    sync_period: float,
    clock: ClockModel,
    jitter_sigma: float = 0.0,
    seed: int | np.random.Generator = 0,
) -> DetectionSet:
    """Sync-laser comb as seen by the receiver's sync detector.

    The sync laser is bright, so every pulse is detected.
    """
    rng = np.random.default_rng(seed)
    emit = np.arange(n_sync, dtype=float) * sync_period
    t = clock.to_receiver(emit)
    if jitter_sigma > 0:
        t = t + rng.normal(0.0, jitter_sigma, emit.size)
    order = np.argsort(t, kind="stable")
    return DetectionSet(
        times=t[order],
        detectors=np.full(emit.size, DET_SYNC, dtype=np.uint8),
        origins=order.astype(np.int64),
    )


# --- Alice sidecar file -----------------------------------------------------
#
# The sidecar lets an offline analyzer replay a session: it carries the
# code sequence (one byte per pulse: bit 0 = key bit, bit 1 = basis) plus
# the protocol parameters the analysis stage needs.

SIDECAR_MAGIC = b"QAC1"
SIDECAR_VERSION = 1
_SIDECAR_FIXED = struct.Struct("<4sHHdddddQQH6x")  # up to the window list


@dataclass(frozen=True)
class SidecarMeta:
    pulse_period: float
    sync_period: float
    offset_bound: float
    disclose_fraction: float
    f_ec: float
    root_seed: int
    windows: tuple[float, ...]


def _check_sidecar_header(pulse_period, sync_period, offset_bound, disclose_fraction, f_ec) -> None:
    """The header ranges that both the writer and the reader enforce."""
    for name, value, at, in_range in (
        ("pulse period", pulse_period, 8, pulse_period > 0),
        ("sync period", sync_period, 16, sync_period > 0),
        ("offset bound", offset_bound, 24, 0 <= 2 * offset_bound < sync_period),
        ("disclose fraction", disclose_fraction, 32, 0 < disclose_fraction <= 1),
        ("f_ec", f_ec, 40, f_ec >= 1),
    ):
        if not (in_range and math.isfinite(value)):
            raise FileFormatError(f"sidecar {name} {value} is out of range", offset=at)


def _check_sidecar_codes(codes: np.ndarray, at: int) -> None:
    """The code bytes, from file offset ``at``, that both the writer and
    the reader enforce."""
    if codes.size and int(codes.max()) > 3:
        i = int(np.argmax(codes > 3))
        raise FileFormatError(
            f"sidecar code byte {int(codes[i])} of pulse {i} is above 3", offset=at + i
        )


def write_alice_sidecar(path, codes: np.ndarray, meta: SidecarMeta) -> None:
    _check_sidecar_header(
        meta.pulse_period, meta.sync_period, meta.offset_bound, meta.disclose_fraction, meta.f_ec
    )
    if codes.dtype != np.uint8:  # the body is the array's own bytes
        raise ConfigError(f"Alice's code must be a uint8 array, not {codes.dtype}")
    _check_sidecar_codes(codes, _SIDECAR_FIXED.size + 8 * len(meta.windows))
    header = _SIDECAR_FIXED.pack(
        SIDECAR_MAGIC,
        SIDECAR_VERSION,
        0,
        meta.pulse_period,
        meta.sync_period,
        meta.offset_bound,
        meta.disclose_fraction,
        meta.f_ec,
        meta.root_seed,
        codes.size,
        len(meta.windows),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(meta.windows, dtype="<f8").tobytes())
        fh.write(codes)


def read_alice_sidecar(path) -> tuple[np.ndarray, SidecarMeta]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SIDECAR_FIXED.size:
        raise FileFormatError("sidecar too short for its header", offset=len(raw))
    (
        magic,
        version,
        _flags,
        pulse_period,
        sync_period,
        offset_bound,
        disclose_fraction,
        f_ec,
        root_seed,
        n_pulses,
        n_windows,
    ) = _SIDECAR_FIXED.unpack_from(raw, 0)
    if magic != SIDECAR_MAGIC:
        raise FileFormatError(f"bad sidecar magic {magic!r}", offset=0)
    if version != SIDECAR_VERSION:
        raise FileFormatError(f"unsupported sidecar version {version}", offset=4)
    _check_sidecar_header(pulse_period, sync_period, offset_bound, disclose_fraction, f_ec)
    off = _SIDECAR_FIXED.size
    need = off + 8 * n_windows + n_pulses
    if len(raw) < need:
        raise FileFormatError(
            f"sidecar truncated: need {need} bytes, have {len(raw)}", offset=len(raw)
        )
    windows = tuple(np.frombuffer(raw, dtype="<f8", count=n_windows, offset=off))
    off += 8 * n_windows
    codes = np.frombuffer(raw, dtype=np.uint8, count=n_pulses, offset=off)
    _check_sidecar_codes(codes, off)
    meta = SidecarMeta(
        pulse_period=pulse_period,
        sync_period=sync_period,
        offset_bound=offset_bound,
        disclose_fraction=disclose_fraction,
        f_ec=f_ec,
        root_seed=root_seed,
        windows=windows,
    )
    return codes, meta
