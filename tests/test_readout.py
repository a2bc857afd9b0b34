from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scalar_oracle import TdcRecord, pack, reference_stream, unpack
from shipped_config import load_reference
from uniform_widths import uniform_widths

from qkdstation.errors import ConfigError, FileFormatError, PackError
from qkdstation.qkd import gen_random_code
from qkdstation.readout import (
    pack_words,
    read_timetag_file,
    stream,
    unpack_words,
    unwrap_coarse,
    write_timetag_file,
)
from qkdstation.seeding import derive_rng
from qkdstation.session import build_profiles, digitize_detections, simulate_detections
from qkdstation.tdc import (
    CHANNEL_BITS,
    FINE_BITS,
    ChannelState,
    TdcConfig,
    build_delay_line,
    digitize_stream,
)


def _reference_arrivals():
    cfg = load_reference()
    alice = gen_random_code(
        cfg.n_pulses, cfg.basis_bias, cfg.bit_bias, derive_rng(cfg.seed, "alice")
    )
    detections, _ = simulate_detections(cfg, alice)
    arrival = digitize_detections(cfg, detections, build_profiles(cfg))[0]
    return arrival, cfg.buffer_depth, cfg.link_rate


def _random_stream(seed, burst):
    rng = np.random.default_rng(seed)
    arrivals = rng.permutation(np.cumsum(rng.exponential(0.3e6, 4000)))
    arrivals[:burst] = arrivals[burst]  # a burst of equal arrival times
    return arrivals, int(rng.integers(1, 40)), float(round(rng.uniform(5e6, 30e6)))


STREAM_CASES = {
    "reference": _reference_arrivals,
    # acceptance test a05: 1e7 words/s against the 35 MB/s link
    "a05-overload": lambda: (np.repeat(np.arange(200_000) * 1e6, 10), 8192, 35e6),
    "depth-1": lambda: (_random_stream(12, 0)[0], 1, 20e6),
    **{f"random-{k}": partial(_random_stream, 20 + k, 50 * k) for k in range(6)},
}


class TestPackUnpack:
    def test_zero_word(self):
        assert pack(TdcRecord(0, 0, 0)) == 0

    def test_bit_layout_against_shift_mask_oracle(self):
        rec = TdcRecord(channel=3, coarse=100, fine=42)
        word = pack(rec)
        # independent oracle: divmod arithmetic instead of shifts
        assert word % 2**9 == 42
        assert (word // 2**9) % 2**40 == 100
        assert (word // 2**49) % 2**5 == 3
        assert word // 2**54 == 0

    def test_rollover_flag_bit(self):
        word = pack(TdcRecord(0, 0, 0), rollover=True)
        assert word == 1 << 54
        rec, flag = unpack(word)
        assert flag is True and rec == TdcRecord(0, 0, 0)

    def test_overflow_rejected(self):
        with pytest.raises(PackError):
            pack(TdcRecord(0, 0, 512))
        with pytest.raises(PackError):
            pack(TdcRecord(0, 2**40, 0))
        with pytest.raises(PackError):
            pack(TdcRecord(32, 0, 0))
        with pytest.raises(PackError):
            pack(TdcRecord(0, -1, 0))

    def test_scalar_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rec = TdcRecord(
                channel=int(rng.integers(0, 32)),
                coarse=int(rng.integers(0, 2**40)),
                fine=int(rng.integers(0, 512)),
            )
            flag = bool(rng.integers(0, 2))
            back, back_flag = unpack(pack(rec, flag))
            assert back == rec and back_flag == flag

    def test_vector_bijectivity_million_words(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        ch = rng.integers(0, 32, n)
        co = rng.integers(0, 2**40, n)
        fi = rng.integers(0, 512, n)
        ro = rng.integers(0, 2, n)
        words = pack_words(ch, co, fi, ro)
        ch2, co2, fi2, ro2 = unpack_words(words)
        assert np.array_equal(ch, ch2)
        assert np.array_equal(co, co2)
        assert np.array_equal(fi, fi2)
        assert np.array_equal(ro, ro2)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(2)
        ch = rng.integers(0, 32, 100)
        co = rng.integers(0, 2**40, 100)
        fi = rng.integers(0, 512, 100)
        words = pack_words(ch, co, fi, np.zeros(100, int))
        for i in range(100):
            assert int(words[i]) == pack(TdcRecord(int(ch[i]), int(co[i]), int(fi[i])))

    def test_vector_overflow_rejected(self):
        with pytest.raises(PackError):
            pack_words(np.array([0]), np.array([0]), np.array([512]), np.array([0]))


class TestStream:
    def test_no_inflow(self):
        buf, delivered = stream(np.empty(0), depth=16, link_rate=35e6)
        assert buf.drops == 0 and buf.occupancy == 0 and delivered.size == 0

    def test_burst_drops_hand_simulated(self):
        # depth 4, burst of 10 simultaneous words, drain 5 words per tick:
        # 4 accepted + 6 dropped, then all 4 drain in the first tick
        arrivals = np.zeros(10)
        buf, delivered = stream(arrivals, depth=4, link_rate=5 * 8 * 1e6)
        assert buf.drops == 6
        assert buf.delivered == 4
        assert delivered.size == 4
        assert buf.conserved()

    def test_sustained_overload_rates(self):
        # 10 words/us against a 35 MB/s link: ceiling 4.375 words/us
        n_ticks = 20_000
        arrivals = np.repeat(np.arange(n_ticks) * 1e6, 10)
        buf, delivered = stream(arrivals, depth=1024, link_rate=35e6)
        duration_s = n_ticks * 1e-6
        assert buf.arrived == 10 * n_ticks
        # exact ceiling: the link can never beat link_rate / word_size
        assert buf.delivered <= 35e6 * duration_s / 8
        # under sustained overload the ceiling is achieved exactly
        assert buf.delivered == int(35e6 * duration_s / 8)
        drop_rate = buf.drops / duration_s
        assert drop_rate == pytest.approx(10e6 - 4.375e6, rel=0.01)
        assert buf.conserved()

    def test_conservation_random_schedules(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            arrivals = np.cumsum(rng.exponential(0.4e6, 5000))
            depth = int(rng.integers(2, 64))
            rate = float(round(rng.uniform(5e6, 50e6)))
            buf, delivered = stream(arrivals, depth=depth, link_rate=rate)
            assert buf.conserved()
            assert buf.delivered == delivered.size

    def test_delivery_is_fifo(self):
        arrivals = np.arange(100) * 2e6
        buf, delivered = stream(arrivals, depth=50, link_rate=35e6)
        assert np.all(np.diff(delivered) > 0)


@pytest.mark.parametrize("name", list(STREAM_CASES))
def test_stream_matches_tick_loop_oracle(name):
    arrivals, depth, rate = STREAM_CASES[name]()
    buf, delivered = stream(arrivals, depth=depth, link_rate=rate)
    ref_buf, ref_delivered = reference_stream(arrivals, depth, rate)
    assert buf == ref_buf and buf.conserved()
    assert all(
        type(v) is int for v in (buf.occupancy, buf.drops, buf.arrived, buf.delivered)
    )
    assert delivered.dtype == ref_delivered.dtype
    np.testing.assert_array_equal(delivered, ref_delivered)
    if name != "reference":
        assert buf.drops > 0


@st.composite
def link_loads(draw):
    """Unsorted arrival times in ps with bursts of equal times, a depth
    and a whole rate in bytes/s."""
    rate = draw(st.integers(1_000_000, 100_000_000))
    # at a depth of ceil(rate / 8e6) a tick that fills the queue may empty it
    depth = draw(st.one_of(st.integers(1, 64), st.just(-(-rate // 8_000_000))))
    span = draw(st.integers(1, 400)) * 1_000_000
    bursts = draw(
        st.lists(st.tuples(st.integers(0, span), st.integers(1, 30)), max_size=150)
    )
    arrivals = np.repeat([float(t) for t, _ in bursts], [k for _, k in bursts])
    return arrivals, depth, float(rate)


@settings(max_examples=300, deadline=None)
@given(link_loads())
# 2.3 words per tick against 3 slots: a full tick sometimes drains
# more than the queue holds, and the budget resets
@example((np.repeat(np.arange(60) * 1e6, 4), 3, 18_400_000.0))
# depth 1 at 12.5 words per tick: every tick empties the queue
@example((np.repeat(np.arange(60) * 5e5, 20), 1, 100_000_000.0))
def test_stream_matches_oracle_on_random_loads(load):
    arrivals, depth, rate = load
    buf, delivered = stream(arrivals, depth=depth, link_rate=rate)
    ref_buf, ref_delivered = reference_stream(arrivals, depth, rate)
    assert buf == ref_buf and buf.conserved()
    assert all(
        type(v) is int for v in (buf.occupancy, buf.drops, buf.arrived, buf.delivered)
    )
    np.testing.assert_array_equal(delivered, ref_delivered)


@pytest.mark.parametrize("depth, rate", [(4, 1e18), (10**30, 35e6)], ids=["rate", "depth"])
def test_stream_exact_at_an_extreme_rate_or_depth(depth, rate):
    # 3 words/us: a 10^18 B/s link empties the queue every tick, and a
    # buffer of 10^30 words, past 64 bits, never fills
    arrivals = np.repeat(np.arange(20_000) * 1e6, 3)
    buf, delivered = stream(arrivals, depth=depth, link_rate=rate)
    ref_buf, ref_delivered = reference_stream(arrivals, depth, rate)
    assert buf == ref_buf and buf.drops == 0
    np.testing.assert_array_equal(delivered, ref_delivered)


def test_stream_refuses_credit_past_64_bits():
    # 600,000 words in the first tick, one more a second later
    arrivals = np.append(np.zeros(600_000), 1e12)
    with pytest.raises(PackError, match="overflow 64 bits"):
        stream(arrivals, depth=10**6, link_rate=1e18)


@pytest.mark.parametrize("rate", [35e6 + 0.5, 0.0, -8e6, float("inf")])
def test_stream_refuses_a_rate_that_is_not_a_positive_whole_number(rate):
    with pytest.raises(PackError, match="link rate"):
        stream(np.zeros(3), depth=4, link_rate=rate)


def _gated_batch(times, cfg, channel=0):
    """Hits the pipeline's dead-time gate passes on one digitized channel."""
    profile = build_delay_line(cfg, channel=channel)
    return digitize_stream(times, profile, ChannelState(), cfg, np.random.default_rng(0))


class TestCounter:
    """The count rate is set by the TDC's dead-time gate in ``digitize_stream``."""

    def test_30mhz_sustained(self):
        # 33.4 ns period clears the 30 ns dead time: every hit counts
        cfg = TdcConfig()
        period = 33_400.0
        n = int(0.05e12 / period)
        times = np.arange(n) * period
        rate = _gated_batch(times, cfg).n / 0.05
        assert rate == pytest.approx(30e6, rel=0.005)

    def test_40mhz_halved_by_dead_time(self):
        # 25 ns period violates the dead time: alternate hits suppressed
        cfg = TdcConfig()
        period = 25_000.0
        n = int(0.02e12 / period)
        times = np.arange(n) * period
        rate = _gated_batch(times, cfg).n / 0.02
        assert rate == pytest.approx(20e6, rel=0.005)

    def test_counter_matches_stream_with_infinite_buffer(self):
        # an unbounded buffer delivers every word the gate accepted
        cfg = TdcConfig(n_channels=2)
        rng = np.random.default_rng(4)
        for c in range(2):
            times = np.sort(rng.random(2000) * 1e9)
            batch = _gated_batch(times, cfg, channel=c)
            buf, _ = stream(times[batch.accepted_index], depth=10**9, link_rate=35e6)
            assert 0 < batch.n < times.size
            assert buf.delivered == batch.n

    def test_bad_gate_length(self):
        # the gate's length is the dead time
        with pytest.raises(ConfigError):
            TdcConfig(dead_time=-1.0)


def records(n_channels, n_taps):
    """Words of records on channels below ``n_channels`` with fine codes
    up to ``n_taps``, either rollover parity."""
    record = st.builds(
        TdcRecord,
        channel=st.integers(0, n_channels - 1),
        coarse=st.integers(0, 2**40 - 1),
        fine=st.integers(0, n_taps),
    )
    return st.builds(pack, record, st.booleans())


def _word_fault(word, cfg):
    """What a file under ``cfg`` cannot hold in ``word``, by the scalar route."""
    try:
        record, _ = unpack(word)
    except PackError:
        return "nonzero reserved bits"
    if record.channel >= cfg.n_channels:
        return f"names channel {record.channel}"
    if record.fine > cfg.n_taps:
        return f"holds fine code {record.fine}"
    return None


@st.composite
def timetag_contents(draw):
    """A board config, words it can hold and a width block whose rows
    sum to the clock period."""
    cfg = TdcConfig(
        clock_period=draw(st.floats(1.0, 1e9, allow_nan=False)),
        n_taps=draw(st.integers(2, (1 << FINE_BITS) - 1)),
        n_channels=draw(st.integers(1, 1 << CHANNEL_BITS)),
    )
    elements = records(cfg.n_channels, cfg.n_taps)
    words = draw(arrays(np.uint64, st.integers(0, 300), elements=elements))
    widths = draw(arrays(
        np.float64,
        (cfg.n_channels, cfg.n_taps),
        elements=st.just(-0.0) | st.floats(0.0, 1e6),
    ))
    widths[:, -1] += 1.0  # every row's sum is positive
    return cfg, words, widths * (cfg.clock_period / widths.sum(axis=1))[:, None]


class TestTimeTagFile:
    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(contents=timetag_contents())
    def test_write_then_read_roundtrip(self, tmp_path, contents):
        cfg, words, widths = contents
        path = tmp_path / "prop.qtt"
        write_timetag_file(path, cfg, words, widths)
        board, back, back_widths = read_timetag_file(path)
        assert board == cfg and back.size == words.size
        assert back.dtype == np.dtype("<u8") and back.tobytes() == words.tobytes()
        assert back_widths.tobytes() == widths.tobytes()

    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        # arbitrary widths, or rows that sum to the default 6250 ps clock period
        widths=st.tuples(st.integers(1, 3), st.integers(2, 6)).flatmap(
            lambda s: arrays(np.float64, s, elements=st.floats() | st.floats(0.0, 100.0))
            | st.just(np.full(s, 6250.0 / s[1]))
        ),
        # any 64-bit word: channels up to 3 and fine codes up to 7 against
        # a header of 1..3 channels and 2..6 taps, some reserved bits set
        words=arrays(
            np.uint64,
            st.integers(0, 4),
            elements=st.integers(0, 2**64 - 1)
            | records(4, 7)
            | st.tuples(records(4, 7), st.integers(1, 511)).map(lambda f: f[0] | f[1] << 55),
        ),
    )
    # on each edge of the word check: channel 2 of 2, fine code 5 of 4
    # taps, and a word the header can hold with every field at its top
    @example(widths=np.full((2, 4), 1562.5), words=np.array([2 << 49], dtype=np.uint64))
    @example(widths=np.full((2, 4), 1562.5), words=np.array([0, 5], dtype=np.uint64))
    @example(
        widths=np.full((2, 4), 1562.5),
        words=np.array([pack(TdcRecord(1, 2**40 - 1, 4), True)], dtype=np.uint64),
    )
    def test_writer_refuses_what_reader_refuses(self, tmp_path, widths, words):
        cfg = TdcConfig(n_taps=widths.shape[1], n_channels=widths.shape[0])
        # the reader's verdict on a file holding these words and widths,
        # patched over a valid file of the same size
        valid = tmp_path / "valid.qtt"
        valid.unlink(missing_ok=True)  # tmp_path outlives one example
        zeros = np.zeros(words.size, dtype=np.uint64)
        write_timetag_file(valid, cfg, zeros, uniform_widths(cfg))
        raw = valid.read_bytes()[:64] + words.tobytes() + widths.astype("<f8").tobytes()
        patched = tmp_path / "patched.qtt"
        patched.write_bytes(raw)
        try:
            read_timetag_file(patched)
            refusal = None
        except FileFormatError as err:
            refusal = str(err)
        # the first word the scalar route faults is the one refused
        faults = [_word_fault(int(w), cfg) for w in words]
        first = next((i for i, fault in enumerate(faults) if fault), None)
        if first is None:
            assert refusal is None or refusal.startswith("calibration width")
        else:
            assert refusal is not None and faults[first] in refusal
            assert refusal.endswith(f"(byte offset {64 + 8 * first})")
        path = tmp_path / "prop.qtt"
        path.unlink(missing_ok=True)
        if refusal is not None:
            with pytest.raises(FileFormatError) as err:
                write_timetag_file(path, cfg, words, widths)
            assert str(err.value) == refusal
            assert not path.exists()
        else:
            write_timetag_file(path, cfg, words, widths)
            assert path.read_bytes() == raw

    def test_empty_roundtrip(self, tmp_path):
        cfg = TdcConfig()
        path = tmp_path / "empty.qtt"
        write_timetag_file(path, cfg, np.empty(0, dtype=np.uint64), uniform_widths(cfg))
        assert path.stat().st_size == 64 + 8 * cfg.n_channels * cfg.n_taps
        board, words, widths = read_timetag_file(path)
        assert board == cfg and words.size == 0
        np.testing.assert_array_equal(widths, uniform_widths(cfg))

    def test_word_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 100_000
        words = pack_words(
            rng.integers(0, 16, n),
            rng.integers(0, 2**40, n),
            rng.integers(0, 512, n),
            np.zeros(n, int),
        )
        cfg = TdcConfig(n_taps=511)  # a header that holds every fine code
        p1, p2 = tmp_path / "a.qtt", tmp_path / "b.qtt"
        write_timetag_file(p1, cfg, words, uniform_widths(cfg))
        _, back, widths = read_timetag_file(p1)
        assert np.array_equal(words, back)
        write_timetag_file(p2, cfg, back, widths)
        assert p1.read_bytes() == p2.read_bytes()

    def test_calibration_block_roundtrip(self, tmp_path):
        cfg = TdcConfig(n_channels=3)
        widths = np.random.default_rng(6).random((3, cfg.n_taps)) + 20.0
        widths *= (cfg.clock_period / widths.sum(axis=1))[:, None]
        path = tmp_path / "cal.qtt"
        write_timetag_file(path, cfg, np.empty(0, dtype=np.uint64), widths)
        board, words, back = read_timetag_file(path)
        assert board == cfg and words.size == 0
        np.testing.assert_array_equal(widths, back)

    def test_corrupt_magic_names_offset_zero(self, tmp_path):
        cfg = TdcConfig()
        path = tmp_path / "bad.qtt"
        write_timetag_file(path, cfg, np.empty(0, dtype=np.uint64), uniform_widths(cfg))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as err:
            read_timetag_file(path)
        assert err.value.offset == 0

    def test_version_mismatch(self, tmp_path):
        cfg = TdcConfig()
        path = tmp_path / "v.qtt"
        write_timetag_file(path, cfg, np.empty(0, dtype=np.uint64), uniform_widths(cfg))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as err:
            read_timetag_file(path)
        assert err.value.offset == 4

    def test_truncated_body_names_offset(self, tmp_path):
        cfg = TdcConfig()
        path = tmp_path / "t.qtt"
        zeros = np.zeros(10, int)
        words = pack_words(zeros, np.arange(10), zeros, zeros)
        write_timetag_file(path, cfg, words, uniform_widths(cfg))
        cut = 64 + 8 * words.size - 12  # inside the last word
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FileFormatError, match="truncated body") as err:
            read_timetag_file(path)
        assert err.value.offset == cut

    @pytest.mark.parametrize("offset", [0, 64 + 8 * 3 + 8], ids=["zero", "past_the_body"])
    def test_calibration_offset_must_end_the_body(self, tmp_path, offset):
        cfg = TdcConfig()
        path = tmp_path / "off.qtt"
        write_timetag_file(path, cfg, np.arange(3, dtype=np.uint64), uniform_widths(cfg))
        raw = bytearray(path.read_bytes())
        raw[20:28] = offset.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="calibration offset") as err:
            read_timetag_file(path)
        assert err.value.offset == 20

    def test_file_is_little_endian_on_disk(self, tmp_path):
        cfg = TdcConfig()
        path = tmp_path / "le.qtt"
        words = np.array([0x0002030405060807], dtype=np.uint64)  # channel 1, fine 7
        write_timetag_file(path, cfg, words, uniform_widths(cfg))
        raw = path.read_bytes()
        assert raw[64:72] == bytes([7, 8, 6, 5, 4, 3, 2, 0])

    def test_writer_refuses_reserved_bits(self, tmp_path):
        path = tmp_path / "reserved.qtt"
        words = np.array([1, 2, 1 << 55, 1 << 63], dtype=np.uint64)
        cfg = TdcConfig()
        with pytest.raises(FileFormatError, match=r"record 2 \(0x0080000000000000\)") as err:
            write_timetag_file(path, cfg, words, uniform_widths(cfg))
        assert err.value.offset == 80 and "reserved bits" in str(err.value)
        assert not path.exists()


def test_unwrap_monotone_stream():
    wrap = 1 << 40  # the coarse field's modulus
    coarse = np.array([wrap - 10, 5, 7, 3], dtype=np.int64)
    un = unwrap_coarse(coarse)
    np.testing.assert_array_equal(un, [wrap - 10, wrap + 5, wrap + 7, 2 * wrap + 3])
