"""Event-word packing, the time-tag file format and the rate-capped
readout link.

Every digitized event travels as one 64-bit little-endian word:

    bits [0..9)   fine code (9 bits)
    bits [9..49)  coarse period count (40 bits)
    bits [49..54) channel id (5 bits)
    bit  [54]     rollover flag (parity of completed coarse wraps)
    bits [55..64) reserved, must be zero

Words funnel through a bounded FIFO drained by a byte-rate-capped link;
arrivals that find the buffer full are dropped and counted. The link
carries 4.375 M word/s; the 30 M/s count capability is the TDC's own
30 ns dead-time gate (see :func:`qkdstation.tdc.gate_dead_time`), which
acts before a word is packed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FileFormatError, PackError
from .tdc import CHANNEL_BITS, COARSE_BITS, FINE_BITS, TdcConfig

_FINE_MASK = (1 << FINE_BITS) - 1
_COARSE_MASK = (1 << COARSE_BITS) - 1
_CHANNEL_MASK = (1 << CHANNEL_BITS) - 1
_COARSE_SHIFT = FINE_BITS
_CHANNEL_SHIFT = FINE_BITS + COARSE_BITS
_ROLLOVER_SHIFT = _CHANNEL_SHIFT + CHANNEL_BITS  # 54
_RESERVED_SHIFT = _ROLLOVER_SHIFT + 1  # 55

WORD_SIZE = 8  # bytes
TICK_PS = 1_000_000.0  # 1 us discrete-time step for the link simulation
_WORD_UB = WORD_SIZE * 10**6  # a word's cost in micro-bytes, the link's unit of credit
_WINDOW = 256  # ticks in the first look-ahead window after a regime switch


def pack_words(
    channel: np.ndarray,
    coarse: np.ndarray,
    fine: np.ndarray,
    rollover: np.ndarray,
) -> np.ndarray:
    """Vectorized pack of parallel field arrays into uint64 words."""
    ch = np.asarray(channel, dtype=np.int64)
    co = np.asarray(coarse, dtype=np.int64)
    fi = np.asarray(fine, dtype=np.int64)
    ro = np.asarray(rollover, dtype=np.int64)
    for name, arr, limit in (
        ("fine", fi, _FINE_MASK),
        ("coarse", co, _COARSE_MASK),
        ("channel", ch, _CHANNEL_MASK),
        ("rollover", ro, 1),
    ):
        if arr.size and (arr.min() < 0 or arr.max() > limit):
            bad = int(np.argmax((arr < 0) | (arr > limit)))
            raise PackError(f"{name}[{bad}] = {arr[bad]} out of field range")
    w = fi.astype(np.uint64)
    w |= co.astype(np.uint64) << np.uint64(_COARSE_SHIFT)
    w |= ch.astype(np.uint64) << np.uint64(_CHANNEL_SHIFT)
    w |= ro.astype(np.uint64) << np.uint64(_ROLLOVER_SHIFT)
    return w


def unpack_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized unpack to (channel, coarse, fine, rollover) arrays. The
    reserved bits are ignored: ``read_timetag_file`` refuses them."""
    w = np.asarray(words, dtype=np.uint64)
    channel = ((w >> np.uint64(_CHANNEL_SHIFT)) & np.uint64(_CHANNEL_MASK)).astype(np.int64)
    coarse = ((w >> np.uint64(_COARSE_SHIFT)) & np.uint64(_COARSE_MASK)).astype(np.int64)
    fine = (w & np.uint64(_FINE_MASK)).astype(np.int64)
    rollover = ((w >> np.uint64(_ROLLOVER_SHIFT)) & np.uint64(1)).astype(np.int64)
    return channel, coarse, fine, rollover


def unwrap_coarse(coarse: np.ndarray) -> np.ndarray:
    """Undo coarse-counter wraparound for one channel's time-ordered records.

    Assumes a monotone underlying stream: every decrease of the coarse
    field marks one completed rollover of the counter.
    """
    c = np.asarray(coarse, dtype=np.int64)
    if c.size == 0:
        return c.copy()
    wraps = np.concatenate(([0], np.cumsum(np.diff(c) < 0)))
    return c + wraps * (1 << COARSE_BITS)


@dataclass
class ReadoutBuffer:
    """Bounded FIFO between the digitizers and the host link."""

    depth: int
    occupancy: int = 0
    drops: int = 0
    arrived: int = 0
    delivered: int = 0

    def conserved(self) -> bool:
        return self.arrived == self.delivered + self.drops + self.occupancy


def stream(
    arrival_times: np.ndarray,
    depth: int,
    link_rate: float,
) -> tuple[ReadoutBuffer, np.ndarray]:
    """Push time-stamped words through the bounded buffer and capped link.

    Discrete-time model: within each 1 us tick all arrivals enqueue first
    (dropping when the buffer is full), then the link drains whatever its
    accumulated byte budget allows. Returns the final buffer state and
    the indices of delivered words in delivery order. Words arrive in a
    stable sort of ``arrival_times``, so equal times keep input order.
    The byte budget is work-conserving: an idle link accrues no credit.
    ``link_rate`` is a whole number of bytes per second, so a tick adds
    exactly ``link_rate`` micro-bytes of credit and the budget is an
    integer.
    """
    if depth <= 0:
        raise PackError("buffer depth must be positive")
    if not (link_rate > 0 and float(link_rate).is_integer()):
        raise PackError(
            f"link rate {link_rate} is not a positive whole number of bytes per second"
        )
    t = np.asarray(arrival_times, dtype=float)
    order = np.argsort(t, kind="stable")
    t = t[order]
    if t.size and t[0] < 0:
        raise PackError("arrival times must be nonnegative")
    if t.size == 0:
        return ReadoutBuffer(depth=depth), np.empty(0, dtype=np.int64)

    tick_of = np.floor(t / TICK_PS).astype(np.int64)
    arrivals = np.bincount(tick_of)
    # the queue never holds more words than arrive, so the cap is exact
    take, x = _link_takes(arrivals, min(depth, t.size), int(link_rate))
    # each tick accepts its first ``take`` arrivals, and the link delivers
    # the accepted words first in, first out
    rank = np.arange(t.size) - (np.cumsum(arrivals) - arrivals)[tick_of]
    accepted = order[rank < take[tick_of]]
    occupancy = -(-x // _WORD_UB)
    delivered = accepted.size - occupancy
    buf = ReadoutBuffer(depth, occupancy, t.size - accepted.size, t.size, delivered)
    return buf, accepted[:delivered].astype(np.int64)


def _link_takes(arrivals: np.ndarray, depth: int, rate: int) -> tuple[np.ndarray, int]:
    """Words each tick accepts, and X after the last tick, in closed form.

    X = W * occupancy - budget in micro-bytes, with W the cost of a word,
    so occupancy = ceil(X / W). Arrivals are capped at ``depth``, which
    is exact from an empty queue. A tick whose capped arrivals fit obeys
    Lindley's recursion X_t = max(0, X_{t-1} + W a_t - rate): a
    cumulative sum minus its running minimum. A tick that overflows fills
    the queue, so X = max(0, W * depth - its pre-drain budget), and in a
    run of such ticks the budget only gains ``rate`` and sheds whole
    words. A budget that drains the whole queue leaves X = 0, so the next
    tick's capped arrivals fit and the run ends. The two regimes
    alternate; each switch is searched for over a look-ahead window that
    doubles until it holds one.
    """
    capped = np.minimum(arrivals, depth)
    take = capped.copy()
    # from X = 0 a rate of W * max(capped) or more keeps X at 0, so the
    # clamp is exact; then the credit of every tick must fit 64 bits
    rate = min(rate, _WORD_UB * int(capped.max()))
    if capped.size * rate >= 2**62:
        raise PackError(f"{capped.size} ticks at {rate} micro-bytes each overflow 64 bits")
    x, pos, full, window = 0, 0, False, _WINDOW
    while pos < capped.size:
        a = capped[pos : pos + window]
        if full:
            budget = (-x % _WORD_UB + np.arange(a.size) * rate) % _WORD_UB + rate
            xs = np.maximum(_WORD_UB * depth - budget, 0)
        else:
            s = np.cumsum(a * _WORD_UB - rate)
            xs = s - np.minimum(np.minimum.accumulate(s), -x)
        room = depth + np.concatenate(([-x], -xs[:-1])) // _WORD_UB
        switch = np.flatnonzero((a > room) != full)
        j = int(switch[0]) if switch.size else a.size
        if full:
            take[pos : pos + j] = room[:j]
        x = int(xs[j - 1]) if j else x
        pos += j
        full, window = (not full, _WINDOW) if switch.size else (full, 2 * window)
    return take, x


# --- Time-tag file -----------------------------------------------------------
#
# Layout: a 64-byte header, then `record count` packed words, then the
# calibration block (n_channels * n_taps little-endian f64 bin widths) at
# the offset named in the header, which is the end of the words.

TIMETAG_MAGIC = b"QTT1"
TIMETAG_VERSION = 1
FLAG_LITTLE_ENDIAN = 0x0001
_HEADER = struct.Struct("<4sHHdHHQQ")
HEADER_SIZE = 64


def write_timetag_file(
    path, config: TdcConfig, words: np.ndarray, tap_widths: np.ndarray
) -> None:
    """Write words (uint64 array) and the per-channel bin widths.

    ``tap_widths`` has shape (n_channels, n_taps) in ps. A word or a
    width the reader would refuse raises its FileFormatError, naming the
    byte offset it would have on disk, before the file is opened.
    """
    w = np.ascontiguousarray(np.asarray(words, dtype="<u8"))
    widths = np.asarray(tap_widths, dtype="<f8")
    if widths.shape != (config.n_channels, config.n_taps):
        raise FileFormatError(
            f"calibration block must be ({config.n_channels}, {config.n_taps}), "
            f"got {widths.shape}"
        )
    cal_offset = HEADER_SIZE + w.size * WORD_SIZE
    _check_words(w, config.n_channels, config.n_taps)
    _check_widths(widths, config.clock_period, cal_offset)
    header = _HEADER.pack(
        TIMETAG_MAGIC,
        TIMETAG_VERSION,
        FLAG_LITTLE_ENDIAN,
        config.clock_period,
        config.n_taps,
        config.n_channels,
        cal_offset,
        w.size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\x00" * (HEADER_SIZE - len(header)))
        fh.write(w.tobytes())
        fh.write(widths.tobytes())


def read_timetag_file(path) -> tuple[TdcConfig, np.ndarray, np.ndarray]:
    """Read back (board, words, (n_channels, n_taps) widths), verifying structure.
    The file holds no dead time, so the board keeps TdcConfig's default."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_SIZE:
        raise FileFormatError(
            f"file holds {len(raw)} bytes, shorter than the {HEADER_SIZE}-byte header",
            offset=len(raw),
        )
    magic, version, flags, *fields, cal_offset, n_records = _HEADER.unpack_from(raw, 0)
    if magic != TIMETAG_MAGIC:
        raise FileFormatError(f"bad magic {magic!r}", offset=0)
    if version != TIMETAG_VERSION:
        raise FileFormatError(f"unsupported version {version}", offset=4)
    if not flags & FLAG_LITTLE_ENDIAN:
        raise FileFormatError("only little-endian files are defined", offset=6)
    # TdcConfig's rules, one header field (clock period, taps, channels) at a time
    for k, (name, at) in enumerate((("clock period", 8), ("n_taps", 16), ("n_channels", 18))):
        try:
            board = TdcConfig(*fields[: k + 1])
        except ConfigError as err:
            raise FileFormatError(f"header {name} {fields[k]}: {err}", offset=at) from None
    body_end = HEADER_SIZE + n_records * WORD_SIZE
    if len(raw) < body_end:
        raise FileFormatError(
            f"truncated body: header promises {n_records} records "
            f"({body_end} bytes), file has {len(raw)}",
            offset=len(raw),
        )
    if cal_offset != body_end:  # the header field sits at byte 20
        raise FileFormatError(
            f"calibration offset {cal_offset} is not the end of the body, {body_end}",
            offset=20,
        )
    need = board.n_channels * board.n_taps
    if len(raw) < body_end + need * 8:
        raise FileFormatError(
            f"truncated calibration block: need {need * 8} bytes", offset=len(raw)
        )
    words = np.frombuffer(raw, dtype="<u8", count=n_records, offset=HEADER_SIZE)
    _check_words(words, board.n_channels, board.n_taps)
    widths = np.frombuffer(raw, "<f8", need, body_end).reshape(board.n_channels, board.n_taps)
    _check_widths(widths, board.clock_period, body_end)
    return board, words, widths


def _check_words(words: np.ndarray, n_channels: int, n_taps: int) -> None:
    """FileFormatError at the first word that a file of ``n_channels``
    channels and ``n_taps`` taps cannot hold: one with nonzero reserved
    bits, a channel past the header or a fine code above ``n_taps``."""
    if not words.size:
        return
    # with the rollover bit cleared, a word reaches n_channels << 49
    # exactly when its channel is past the header or a reserved bit is set
    top = (words & ~np.uint64(1 << _ROLLOVER_SHIFT)).max()
    if top < n_channels << _CHANNEL_SHIFT and (words & _FINE_MASK).max() <= n_taps:
        return
    reserved = words >> np.uint64(_RESERVED_SHIFT) != 0
    channel = (words >> np.uint64(_CHANNEL_SHIFT)) & np.uint64(_CHANNEL_MASK)
    fine = words & np.uint64(_FINE_MASK)
    i = int(np.argmax(reserved | (channel >= n_channels) | (fine > n_taps)))
    if reserved[i]:
        fault = "has nonzero reserved bits"
    elif channel[i] >= n_channels:
        fault = f"names channel {channel[i]}, past the header's {n_channels} channels"
    else:
        fault = f"holds fine code {fine[i]}, above the header's {n_taps} taps"
    raise FileFormatError(
        f"record {i} ({int(words[i]):#018x}) {fault}", offset=HEADER_SIZE + WORD_SIZE * i
    )


def _check_widths(widths: np.ndarray, clock_period: float, offset: int) -> None:
    """FileFormatError at the first negative or non-finite width of an
    (n_channels, n_taps) block at ``offset``, else at the first row that
    does not sum to ``clock_period`` within 1e-6 of it."""
    bad = np.flatnonzero(~np.isfinite(widths) | (widths < 0))
    if bad.size:
        raise FileFormatError(
            f"calibration width {widths.flat[bad[0]]} is not a finite nonnegative number",
            offset=offset + 8 * int(bad[0]),
        )
    with np.errstate(over="ignore"):  # a row of huge widths sums to inf: refused
        sums = widths.sum(axis=1)
    rows = np.flatnonzero(np.abs(sums - clock_period) > 1e-6 * clock_period)
    if rows.size:
        raise FileFormatError(
            f"calibration widths of channel {rows[0]} sum to {sums[rows[0]]:.6f} ps, "
            f"not the {clock_period} ps clock period",
            offset=offset + 8 * widths.shape[1] * int(rows[0]),
        )
