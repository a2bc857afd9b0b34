import configparser
import csv
import importlib.util
import json
import math
import re
import struct
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from match_oracle import write_reference_pairs
from shipped_config import load_reference

from qkdstation import cli, session
from qkdstation.cli import main
from qkdstation.config import (
    _KEYS,
    ExperimentConfig,
    PrecisionSettings,
    load_config,
    reference_config_text,
)
from qkdstation.errors import CalibrationError, ConfigError, SyncRecoveryError
from qkdstation.qkd import (
    _SIDECAR_FIXED,
    ClockModel,
    DetectorModel,
    LinkModel,
    read_alice_sidecar,
)
from qkdstation.readout import (
    FINE_BITS,
    HEADER_SIZE,
    pack_words,
    read_timetag_file,
    unpack_words,
    write_timetag_file,
)
from qkdstation.tdc import COARSE_BITS, TdcConfig

SMALL_CONFIG = """
[tdc]
n_channels = 5
dnl = sine:0.2:3
jitter_sigma_ps = 15.0

[link]
loss_db = 6.0
background_rate_hz = 30000.0
pulse_period_ps = 10000.0
sync_period_ps = 2000000.0
mean_photon_number = 0.5

[detectors]
efficiency = 0.5
dark_rate_hz = 1000.0
jitter_sigma_ps = 60.0
dead_time_ps = 50000.0
intrinsic_error = 0.0151

[clock]
offset_ps = 150000.0
drift_ppm = 3.0
offset_bound_ps = 400000.0

[session]
length_s = 0.002
windows_ps = 500, 1000, 2000
analysis_window_ps = 1000
disclose_fraction = 0.2
seed = 77
calibration_samples = 200000

[precision]
n_pulses = 10000
pairs = 0 1, 2 3
"""

ZERO_NOISE_CONFIG = """
[tdc]
n_channels = 5
dnl = uniform

[link]
loss_db = 3.0
background_rate_hz = 0.0
pulse_period_ps = 10000.0
sync_period_ps = 2000000.0
mean_photon_number = 0.5

[detectors]
efficiency = 0.8
dark_rate_hz = 0.0
jitter_sigma_ps = 40.0
dead_time_ps = 0.0
intrinsic_error = 0.0

[clock]
offset_ps = 0.0
drift_ppm = 0.0
offset_bound_ps = 400000.0

[session]
length_s = 0.001
windows_ps = 1000
analysis_window_ps = 1000
disclose_fraction = 0.5
seed = 5
calibration_samples = 200000
sync_jitter_sigma_ps = 0.0
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Artifacts of one run of the small config, shared read-only."""
    root = tmp_path_factory.mktemp("small_run")
    (root / "small.ini").write_text(SMALL_CONFIG)
    out = root / "out"
    assert main(["run", "--config", str(root / "small.ini"), "--output", str(out)]) == 0
    return out


# (artifact, byte offset, name in the error, bad values at the edge of its
# range) of each float a header carries; nan, inf and -1 are bad for all
HEADER_FLOATS = {
    "pulse_period": ("alice.qac", 8, "pulse period", (0.0,)),
    "sync_period": ("alice.qac", 16, "sync period", (0.0,)),
    "offset_bound": ("alice.qac", 24, "offset bound", (1_000_000.0,)),  # half the sync period
    "disclose_fraction": ("alice.qac", 32, "disclose fraction", (0.0, 1.5)),
    "f_ec": ("alice.qac", 40, "f_ec", (0.5,)),
    "clock_period": ("session.qtt", 8, "clock period", (0.0,)),
}


class TestConfigParsing:
    def test_reference_config_loads(self):
        cfg = load_reference()
        assert cfg.tdc.n_channels == 16
        assert cfg.n_pulses == 1_000_000
        assert len(cfg.jitter_sigma) == 16
        assert cfg.seed == 20160816

    def test_small_config(self, small_config):
        cfg = load_config(small_config)
        assert cfg.tdc.n_channels == 5
        assert cfg.n_pulses == 200_000
        assert cfg.precision.pairs == ((0, 1), (2, 3))
        assert cfg.windows == (500.0, 1000.0, 2000.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_seed_mandatory(self, tmp_path):
        path = tmp_path / "noseed.ini"
        path.write_text("[session]\nlength_s = 0.001\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_window_order_enforced(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[session]\nseed = 1\nwindows_ps = 2000, 1000\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_ambiguous_offset_bound_rejected(self, tmp_path):
        path = tmp_path / "amb.ini"
        path.write_text(
            "[link]\nsync_period_ps = 500000\n[clock]\noffset_bound_ps = 300000\n"
            "[session]\nseed = 1\n"
        )
        with pytest.raises(ConfigError, match="sync period"):
            load_config(path)


def _bench_config_text():
    """The config text the benchmark writes (bench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.config_text(module.REFERENCE_SEED)


class TestConfigKeys:
    @pytest.mark.parametrize(
        "text",
        [
            reference_config_text,
            lambda: SMALL_CONFIG,
            lambda: ZERO_NOISE_CONFIG,
            _bench_config_text,
        ],
        ids=["reference", "small", "zero_noise", "bench"],
    )
    def test_shipped_and_test_configs_load(self, tmp_path, text):
        path = tmp_path / "c.ini"
        path.write_text(text())
        load_config(path)

    def test_reference_sets_exactly_the_table_keys(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(reference_config_text())
        table = {(section, key) for section, key, *_ in _KEYS}
        assert {(s, k) for s in parser.sections() for k in parser[s]} == table
        assert len(table) == len(_KEYS) == 36

    def test_seed_only_loads_the_documented_defaults(self, tmp_path):
        """Every field at the default README "Configuration" lists."""
        path = tmp_path / "seed.ini"
        path.write_text("[session]\nseed = 9\n")
        assert load_config(path) == ExperimentConfig(
            tdc=TdcConfig(clock_period=6250.0, n_taps=261, n_channels=16, dead_time=30_000.0),
            link=LinkModel(
                loss_db=10.0,
                background_rate=30_000.0,
                pulse_period=10_000.0,
                sync_period=2_000_000.0,
                mean_photon_number=0.5,
            ),
            detectors=DetectorModel(
                efficiency=0.5,
                dark_rate=1000.0,
                jitter_sigma=60.0,
                det_dead_time=50_000.0,
                intrinsic_error=0.015,
            ),
            clock=ClockModel(offset=0.0, drift_ppm=0.0),
            dnl_spec="uniform",
            jitter_sigma=(),
            enabled_channels=(),
            offset_bound=450_000.0,
            session_length_s=0.01,
            basis_bias=0.5,
            bit_bias=0.5,
            disclose_fraction=0.1,
            windows=(1000.0,),
            analysis_window=1000.0,
            f_ec=1.16,
            sync_jitter_sigma=60.0,
            seed=9,
            calibration_samples=1_000_000,
            buffer_depth=65_536,
            link_rate=35e6,
            precision=PrecisionSettings(
                period=100_000.0, cable_delay=None, n_pulses=100_000, pairs=()
            ),
        )

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("length_s = 0.002", "lenght_s = 0.002", "lenght_s"),
            ("[output]", "[ouptut]", "[ouptut]"),
            ("[tdc]\n", "[tdc]\ncoarse_bits = 40\n", "coarse_bits"),
            ("[session]\n", "[DEFAULT]\nseed = 3\n[session]\n", "[DEFAULT]"),
        ],
    )
    def test_unknown_key_or_section_exit_2(self, tmp_path, capsys, old, new, named):
        text = SMALL_CONFIG + "\n[output]\nbuffer_depth = 65536\n"
        assert text.count(old) == 1
        path = tmp_path / "typo.ini"
        path.write_text(text.replace(old, new))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text", ["x\n", "[session]\nseed = 1\nseed = 2\n", "[session]\n[session]\n"]
    )
    def test_malformed_ini_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: bad config ")

    @pytest.mark.parametrize(
        "command,old,new,named",
        [
            ("run", "windows_ps = 500, 1000, 2000", "windows_ps =", "window"),
            ("run", "background_rate_hz = 30000.0", "background_rate_hz = nan", "background_rate_hz"),
            ("run", "loss_db = 6.0", "loss_db = nan", "loss_db"),
            ("run", "[tdc]\n", "[tdc]\nclock_period_ps = nan\n", "clock_period_ps"),
            ("run", "drift_ppm = 3.0", "drift_ppm = nan", "drift_ppm"),
            ("precision", "pairs = 0 1, 2 3", "pairs = 0, 5", "pair"),
            ("precision", "pairs = 0 1, 2 3", "pairs = 0, -1", "pair"),
            ("run", "windows_ps = 500, 1000, 2000", "windows_ps = 500, 1000, 6000", "window"),
            ("run", "windows_ps = 500, 1000, 2000", "windows_ps = -500, 1000", "window"),
            ("calibrate", "windows_ps = 500, 1000, 2000", "windows_ps = 1000, 6000", "window"),
            ("run", "dnl = sine:0.2:3", "dnl = sine:abc", "dnl"),
            ("calibrate", "dnl = sine:0.2:3", "dnl = sine:nan", "dnl"),
            ("precision", "dnl = sine:0.2:3", "dnl = sine:0.1:inf", "dnl"),
            ("run", "dnl = sine:0.2:3", "dnl = random:nan:0.1", "dnl"),
            ("calibrate", "dnl = sine:0.2:3", "dnl = random:0.5:-0.5", "dnl"),
            ("precision", "dnl = sine:0.2:3", "dnl = bogus", "dnl"),
            ("run", "dnl = sine:0.2:3", "dnl = sine:2", "dnl"),
            ("calibrate", "dnl = sine:0.2:3", "dnl = sine:2", "dnl"),
            ("precision", "dnl = sine:0.2:3", "dnl = sine:2", "dnl"),
            ("run", "seed = 77", "seed = 77\nf_ec = 0.5", "f_ec"),
            ("run", "offset_bound_ps = 400000.0", "offset_bound_ps = -1", "offset_bound"),
            ("run", "loss_db = 6.0", "loss_db = abc", "[link] loss_db"),
            ("calibrate", "[tdc]\n", "[tdc]\nn_taps = 2.5\n", "[tdc] n_taps"),
            ("precision", "seed = 77", "seed = 1e3", "[session] seed"),
            ("run", "[precision]", "[output]\nbuffer_depth = big\n[precision]", "[output] buffer_depth"),
            ("run", "[precision]", "[output]\nlink_rate_bytes_per_s = 35000000.5\n[precision]",
             "[output] link_rate_bytes_per_s"),
            # an offset outside the prior: one sync period late, early past
            # the bound, and so late that the readout tick range overflows
            ("run", "offset_ps = 150000.0", "offset_ps = 2100000", "offset_ps"),
            ("run", "offset_ps = 150000.0", "offset_ps = -500000", "offset_ps"),
            ("run", "offset_ps = 150000.0", "offset_ps = 1e30", "offset_ps"),
        ],
        ids=["no_windows", "nan_background", "nan_loss", "nan_clock", "nan_drift",
             "pair_too_high", "pair_negative", "window_too_wide", "window_negative",
             "calibrate_window_too_wide", "dnl_not_number", "calibrate_dnl_nan",
             "precision_dnl_inf", "dnl_random_nan", "calibrate_dnl_random_reversed",
             "precision_dnl_unknown", "dnl_negative_tap", "calibrate_dnl_negative_tap",
             "precision_dnl_negative_tap", "reconciliation_below_shannon",
             "negative_prior", "attenuation_word", "calibrate_fractional_count",
             "precision_root_in_exponent_form", "depth_word", "half_a_byte_per_second",
             "clock_a_sync_period_late", "clock_early_past_prior", "clock_past_every_tick"],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, old, new, named):
        assert SMALL_CONFIG.count(old) == 1
        path = tmp_path / "bad.ini"
        path.write_text(SMALL_CONFIG.replace(old, new))
        assert main([command, "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "o").exists()


class TestCliInit:
    def test_init_writes_reference(self, tmp_path, capsys):
        path = tmp_path / "ref.ini"
        assert main(["init", str(path)]) == 0
        cfg = load_config(path)
        assert cfg.tdc.n_taps == 261

    def test_init_refuses_overwrite(self, tmp_path):
        path = tmp_path / "ref.ini"
        path.write_text("x")
        assert main(["init", str(path)]) == 2
        assert main(["init", str(path), "--force"]) == 0


class TestCliCalibrate:
    def test_uniform_config_small_dnl(self, tmp_path, capsys):
        # 4e6 stimulus hits: the max-|dnl| noise floor over 261 bins is
        # then ~0.027 LSB, safely inside the 0.05 bound being asserted
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[tdc]\nn_channels = 2\ndnl = uniform\n"
            "[session]\nseed = 3\ncalibration_samples = 4000000\n"
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--output", str(out)]) == 0
        with open(out / "calibration_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert abs(float(row["dnl_min_lsb"])) < 0.05
            assert abs(float(row["dnl_max_lsb"])) < 0.05

    def test_injected_band_shows_in_summary(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[tdc]\nn_channels = 1\ndnl = sine:0.5:3\n"
            "[session]\nseed = 3\ncalibration_samples = 500000\n"
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--output", str(out)]) == 0
        with open(out / "calibration_summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["dnl_max_lsb"]) == pytest.approx(0.5, abs=0.1)
        assert float(row["dnl_min_lsb"]) == pytest.approx(-0.5, abs=0.1)
        # Table-style band check: comfortably inside -1..+3
        assert -1 < float(row["dnl_min_lsb"]) <= float(row["dnl_max_lsb"]) < 3

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_two_tap_line_calibrates(self, tmp_path, seed):
        # under the reference DNL one of two taps holds just over half the
        # counts; that is a legal line, not a broken one
        text = reference_config_text()
        for key, value in (("n_taps", 2), ("n_channels", 2), ("jitter_sigma_ps", 13.0), ("seed", seed)):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        path = tmp_path / "two_tap.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--output", str(out)]) == 0
        assert (out / "calibration.qtt").is_file()


class TestCliPrecision:
    def test_pairs_written(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["precision", "--config", str(small_config), "--output", str(out)]) == 0
        with open(out / "precision.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["channel_a"], r["channel_b"]) for r in rows] == [("0", "1"), ("2", "3")]
        for r in rows:
            rms = float(r["per_channel_rms_ps"])
            assert float(r["raw_std_ps"]) == pytest.approx(rms * np.sqrt(2), abs=1e-5)

    @staticmethod
    def _refused(tmp_path, setting):
        """Exit code of a two-channel precision test with ``setting``;
        a refused test must leave no output directory."""
        path = tmp_path / "cfg.ini"
        path.write_text(
            f"[tdc]\nn_channels = 2\n[session]\nseed = 1\n[precision]\n{setting}\n"
        )
        out = tmp_path / "out"
        code = main(["precision", "--config", str(path), "--output", str(out)])
        assert not out.exists()
        return code

    def test_refuses_small_n(self, tmp_path):
        assert self._refused(tmp_path, "n_pulses = 5000") == 2

    def test_refuses_period_within_dead_time(self, tmp_path):
        assert self._refused(tmp_path, "period_ps = 20000") == 2

    def test_refuses_cable_delay_before_epoch(self, tmp_path):
        assert self._refused(tmp_path, "cable_delay_ps = -1e9") == 2


class TestCliRunAnalyze:
    def test_run_and_replay(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["sifted_bits"] > 0
        # every listed artifact exists and its digest matches
        from qkdstation.config import file_digest

        for entry in manifest["outputs"]:
            p = out / entry["path"]
            assert p.is_file()
            assert file_digest(p) == entry["sha256"]
            assert p.stat().st_size == entry["bytes"]

        out2 = tmp_path / "replay"
        assert main(
            [
                "analyze",
                str(out / "session.qtt"),
                str(out / "alice.qac"),
                "--output",
                str(out2),
            ]
        ) == 0
        run_csv = (out / "sift_reports.csv").read_text()
        replay_csv = (out2 / "sift_reports.csv").read_text()
        assert run_csv == replay_csv

    def test_zero_noise_session_near_zero_qber(self, tmp_path):
        path = tmp_path / "quiet.ini"
        path.write_text(ZERO_NOISE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["qber"] < 0.001
        assert manifest["summary"]["sifted_bits"] > 1000

    def test_same_seed_byte_identical_outputs(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(small_config), "--output", str(out1)]) == 0
        assert main(["run", "--config", str(small_config), "--output", str(out2)]) == 0
        for name in ("session.qtt", "alice.qac", "sift_reports.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_analyze_single_window_single_row(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config), "--output", str(out)])
        out2 = tmp_path / "single"
        assert main(
            [
                "analyze",
                str(out / "session.qtt"),
                str(out / "alice.qac"),
                "--windows",
                "1500",
                "--output",
                str(out2),
            ]
        ) == 0
        with open(out2 / "sift_reports.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["window_ps"]) == 1500.0

    def test_dump_pairs_flag(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config), "--output", str(out)])
        out2 = tmp_path / "dump"
        assert main(
            [
                "analyze",
                str(out / "session.qtt"),
                str(out / "alice.qac"),
                "--windows",
                "1000",
                "--dump-pairs",
                "--output",
                str(out2),
            ]
        ) == 0
        with open(out2 / "matched_pairs.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out2 / "sift_reports.csv") as fh:
            report = next(csv.DictReader(fh))
        assert len(rows) == int(report["matched"])
        assert all(abs(float(r["residual_ps"])) <= 500.0 for r in rows)

    def test_write_side_frees_its_arrays(self, small_config, tmp_path, monkeypatch):
        # the replay reads only the files, so Alice's code and the digitized
        # records are dead before it starts
        made = []

        def keep_refs(real):
            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                made.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,)))
                return out

            return wrapped

        real_analyze = session.analyze_files

        def analyze(*args, **kwargs):
            alive = sum(ref() is not None for ref in made)
            assert len(made) == 6 and alive == 0, f"{alive} of {len(made)} arrays alive"
            return real_analyze(*args, **kwargs)

        for name in ("gen_random_code", "digitize_detections"):
            monkeypatch.setattr(session, name, keep_refs(getattr(session, name)))
        monkeypatch.setattr(session, "analyze_files", analyze)
        session.run_session(load_config(small_config), tmp_path / "out")

    def test_dump_pairs_match_per_window_oracle(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--output", str(out)]) == 0
        scan_args = []
        real_scan = session.window_scan

        def spy(*args, **kwargs):
            scan_args.extend(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(session, "window_scan", spy)
        dense = ",".join(str(w) for w in range(250, 5000, 250))
        out2 = tmp_path / "dump"
        assert main(
            [
                "analyze",
                str(out / "session.qtt"),
                str(out / "alice.qac"),
                "--windows",
                dense,
                "--dump-pairs",
                "--output",
                str(out2),
            ]
        ) == 0
        times, dets, clock, pulse_period, alice, windows = scan_args
        assert len(windows) == 19
        oracle = tmp_path / "oracle.csv"
        write_reference_pairs(oracle, times, dets, clock, pulse_period, alice.size, windows)
        assert (out2 / "matched_pairs.csv").read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize(
        "windows,named",
        [
            ("abc", "'abc'"),
            ("1000,,2000", "''"),
            ("1000,nan", "window nan"),
            ("1000,inf", "window inf"),
        ],
    )
    def test_bad_windows_exit_2(self, small_config, tmp_path, capsys, windows, named):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--output", str(out)]) == 0
        capsys.readouterr()
        args = ["analyze", str(out / "session.qtt"), str(out / "alice.qac")]
        assert main(args + ["--windows", windows, "--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_truncated_timetag_exit_2(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config), "--output", str(out)])
        raw = (out / "session.qtt").read_bytes()
        bad = tmp_path / "trunc.qtt"
        bad.write_bytes(raw[: len(raw) // 2])
        assert main(["analyze", str(bad), str(out / "alice.qac")]) == 2

    @pytest.mark.parametrize(
        "channel,value", [(4, np.nan), (0, np.nan), (1, np.inf), (2, -1.0)]
    )
    def test_bad_calibration_width_exit_2(self, small_config, tmp_path, channel, value):
        # channel 4 is the sync channel, 0..3 the data channels
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--output", str(out)]) == 0
        board, words, _ = read_timetag_file(out / "session.qtt")
        raw = bytearray((out / "session.qtt").read_bytes())
        at = 64 + 8 * words.size + 8 * (channel * board.n_taps + 7)
        raw[at : at + 8] = struct.pack("<d", value)
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        assert main(["analyze", str(bad), str(out / "alice.qac")]) == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            (field, value)
            for field, (*_, edge) in HEADER_FLOATS.items()
            for value in (np.nan, np.inf, -1.0) + edge
        ],
    )
    def test_bad_header_float_exit_2(self, small_run, tmp_path, capsys, field, value):
        artifact, at, named, _ = HEADER_FLOATS[field]
        raw = bytearray((small_run / artifact).read_bytes())
        raw[at : at + 8] = struct.pack("<d", value)
        (tmp_path / artifact).write_bytes(bytes(raw))
        paths = {a: str(small_run / a) for a in ("session.qtt", "alice.qac")}
        paths[artifact] = str(tmp_path / artifact)
        capsys.readouterr()
        args = ["analyze", paths["session.qtt"], paths["alice.qac"]]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert f"byte offset {at}" in err

    @pytest.mark.parametrize(
        "at,fmt,value",
        [(8, "<d", 0.5), (16, "<H", 1), (16, "<H", 600), (18, "<H", 0), (18, "<H", 40)],
    )
    def test_bad_header_board_exit_2(self, small_run, tmp_path, capsys, at, fmt, value):
        # clock period (a 0.5 ps clock's coarse range is under 1 s), taps, channels
        raw = bytearray((small_run / "session.qtt").read_bytes())
        struct.pack_into(fmt, raw, at, value)
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(bad), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"(byte offset {at})" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "channel,scale",
        [(0, None), (4, 1.01), (10, 0.0)],
        ids=["clock_period_6000", "channel_4_scaled", "channel_10_zeroed"],
    )
    def test_calibration_row_off_the_period_exit_2(
        self, small_run, tmp_path, capsys, channel, scale
    ):
        # a 16-channel copy of the run's file: channels 5..15 hold no records
        board, words, widths = read_timetag_file(small_run / "session.qtt")
        rows = np.resize(widths, (16, board.n_taps))
        path = tmp_path / "wide.qtt"
        write_timetag_file(path, replace(board, n_channels=16), words, rows)
        raw = bytearray(path.read_bytes())
        at = HEADER_SIZE + 8 * words.size + 8 * board.n_taps * channel
        if scale is None:  # every row sums to 6250 ps, so channel 0's is refused
            struct.pack_into("<d", raw, 8, 6000.0)
        else:
            raw[at : at + 8 * board.n_taps] = (rows[channel] * scale).tobytes()
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(path), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: calibration width") and f"(byte offset {at})" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("byte", [4, 255])
    def test_code_byte_above_3_exit_2(self, small_run, tmp_path, capsys, byte):
        _, meta = read_alice_sidecar(small_run / "alice.qac")
        at = _SIDECAR_FIXED.size + 8 * len(meta.windows) + 123
        raw = bytearray((small_run / "alice.qac").read_bytes())
        raw[at] = byte
        bad = tmp_path / "alice.qac"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(small_run / "session.qtt"), str(bad)]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"code byte {byte} of pulse 123" in err
        assert f"(byte offset {at})" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("damage", ["reserved_bit", "reversed", "swapped_pair"])
    def test_disordered_or_reserved_records_exit_2(
        self, small_run, tmp_path, capsys, damage
    ):
        raw = bytearray((small_run / "session.qtt").read_bytes())
        _, words, _ = read_timetag_file(small_run / "session.qtt")
        words = words.copy()
        if damage == "reserved_bit":
            words[5] |= np.uint64(1) << np.uint64(60)
            at, named = 5, "reserved bits"
        elif damage == "reversed":
            words = words[::-1].copy()
            channel = unpack_words(words)[0]
            at, named = np.flatnonzero(channel == channel.min())[1], "out of order"
        else:
            first, second = np.flatnonzero(unpack_words(words)[0] == 1)[:2]
            words[[first, second]] = words[[second, first]]
            at, named = second, "channel 1 record out of order"
        raw[HEADER_SIZE : HEADER_SIZE + 8 * words.size] = words.tobytes()
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(bad), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert f"(byte offset {HEADER_SIZE + 8 * int(at)})" in err

    @pytest.mark.parametrize(
        "coarse,rollover,code",
        [
            ((2**COARSE_BITS - 2, 1, 3), (0, 1, 1), 0),  # a real counter wrap
            ((2, 2, 3), (1, 1, 1), 0),  # equal counts, odd parity
            ((2**COARSE_BITS - 2, 1, 3), (0, 0, 0), 2),  # decrease, no flip
            ((1, 2, 3), (0, 1, 1), 2),  # flip, no decrease
        ],
    )
    def test_rollover_parity_orders_records(
        self, small_run, tmp_path, coarse, rollover, code
    ):
        # an extra channel 5, beyond the sync channel: reconstructed, never matched
        board, words, widths = read_timetag_file(small_run / "session.qtt")
        extra = pack_words(
            np.full(3, 5), np.array(coarse), np.zeros(3, int), np.array(rollover)
        )
        path = tmp_path / "extra.qtt"
        write_timetag_file(
            path,
            replace(board, n_channels=6),
            np.concatenate((words, extra)),
            np.vstack((widths, widths[:1])),
        )
        args = ["analyze", str(path), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == code

    def test_fine_code_out_of_range_exit_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--output", str(out)]) == 0
        raw = bytearray((out / "session.qtt").read_bytes())
        at = HEADER_SIZE + 8 * 10
        word = int.from_bytes(raw[at : at + 8], "little")
        word = (word & ~((1 << FINE_BITS) - 1)) | 500
        raw[at : at + 8] = word.to_bytes(8, "little")
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["analyze", str(bad), str(out / "alice.qac")]) == 2
        err = capsys.readouterr().err
        assert "fine code 500" in err and "(byte offset 144)" in err

    def test_channel_beyond_header_exit_2(self, small_run, tmp_path, capsys):
        # the header declares 5 channels; record 10 is moved to channel 7
        raw = bytearray((small_run / "session.qtt").read_bytes())
        at = HEADER_SIZE + 8 * 10
        word = int.from_bytes(raw[at : at + 8], "little")
        word = (word & ~(31 << 49)) | 7 << 49
        raw[at : at + 8] = word.to_bytes(8, "little")
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(bad), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "channel 7" in err
        assert f"(byte offset {at})" in err
        assert not (tmp_path / "a").exists()

    def test_zeroed_calibration_offset_exit_2(self, small_run, tmp_path, capsys):
        # bytes 20..28 of the header hold the calibration block's offset
        raw = bytearray((small_run / "session.qtt").read_bytes())
        raw[20:28] = bytes(8)
        bad = tmp_path / "bad.qtt"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        args = ["analyze", str(bad), str(small_run / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(byte offset 20)" in err
        assert not (tmp_path / "a").exists()

    def test_negative_offset_session(self, small_config, tmp_path):
        # receiver clock ahead of the sender: early detections land before
        # the counter epoch and are silently outside the digitized stream
        cfg_text = SMALL_CONFIG.replace("offset_ps = 150000.0", "offset_ps = -150000.0")
        path = tmp_path / "neg.ini"
        path.write_text(cfg_text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = load_config(path)
        _, clock = session.analyze_files(out / "session.qtt", out / "alice.qac")
        # error budget: the fit's intercept at comb index 0, the edge of the
        # data (variance 4 sigma_r^2 / n), and the code-density table's
        # common offset T / sqrt(12 N)
        sigma = math.hypot(
            2.0 * clock.residual_rms / math.sqrt(clock.n_sync_used),
            cfg.tdc.clock_period / math.sqrt(12.0 * cfg.calibration_samples),
        )
        assert sigma < 10.0  # a broken fit may not widen its own bound
        offset = manifest["summary"]["clock_offset_ps"]
        assert abs(offset + 150000.0) <= 4.0 * sigma
        assert manifest["summary"]["sifted_bits"] > 1000

    def test_qber_above_half_exit_0(self, tmp_path):
        # at seed 1 a disclosed subset measures a QBER above 1/2: no key, no error
        path = tmp_path / "noisy.ini"
        path.write_text(
            SMALL_CONFIG.replace("intrinsic_error = 0.0151", "intrinsic_error = 0.5")
            .replace("seed = 77", "seed = 1")
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        rows = list(csv.DictReader((out / "sift_reports.csv").open()))
        assert any(float(r["qber"]) > 0.5 for r in rows)
        assert all(float(r["secure_rate_bps"]) == 0.0 for r in rows)

    def test_sync_period_beyond_session_exit_1(self, small_run, tmp_path, capfd):
        # every sync maps to comb index 0: nothing to fit a drift through
        artifact, at, _, _ = HEADER_FLOATS["sync_period"]
        raw = bytearray((small_run / artifact).read_bytes())
        raw[at : at + 8] = struct.pack("<d", 1e20)
        (tmp_path / artifact).write_bytes(bytes(raw))
        capfd.readouterr()
        args = ["analyze", str(small_run / "session.qtt"), str(tmp_path / artifact)]
        assert main(args + ["--output", str(tmp_path / "a")]) == 1
        err = capfd.readouterr().err
        assert err.startswith("analysis failed: ") and "DLASCL" not in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "edits",
        [
            *(
                pytest.param({"n_channels": n, "jitter_sigma_ps": 13.0}, id=str(n))
                for n in (1, 2, 4)
            ),
            pytest.param({"enabled": "0, 1, 2, 3"}, id="enabled"),
        ],
    )
    def test_board_without_sync_channel_exit_2(self, tmp_path, capsys, edits):
        # the sync detector is wired to channel 4: a board of n_channels <= 4,
        # or one with channel 4 disabled, is a config error, refused before
        # the run makes any output
        text = reference_config_text()
        for key, value in edits.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        path = tmp_path / "few.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "[tdc] n_channels" in err and "[tdc] enabled" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match=r"\[tdc\] n_channels"):
            session.run_session(load_config(path), out)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "run", "calibrate"])
    def test_failed_command_leaves_no_output_dir(
        self, small_run, tmp_path, capfd, monkeypatch, command
    ):
        if command == "analyze":
            short = tmp_path / "session.qtt"
            short.write_bytes((small_run / "session.qtt").read_bytes()[:100])
            args = ["analyze", str(short), str(small_run / "alice.qac")]
            code, said = 2, "truncated body"
        elif command == "run":
            # the run writes its artifacts, then finds no clock in them

            def lost(*args):
                raise SyncRecoveryError("need at least 2 sync detections")

            monkeypatch.setattr(session, "recover_clock", lost)
            path = tmp_path / "small.ini"
            path.write_text(SMALL_CONFIG)
            args = ["run", "--config", str(path)]
            code, said = 1, "need at least 2 sync detections"
        else:

            def broken(cfg, profiles):
                raise CalibrationError("delay line looks broken")

            monkeypatch.setattr(cli, "calibrate_all", broken)
            path = tmp_path / "small.ini"
            path.write_text(SMALL_CONFIG)
            args = ["calibrate", "--config", str(path)]
            code, said = 1, "delay line looks broken"
        capfd.readouterr()
        assert main(args + ["--output", str(tmp_path / "new" / "out")]) == code
        assert said in capfd.readouterr().err
        assert not (tmp_path / "new").exists()
        # a directory that was there before the call is left as it was
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note.txt").write_text("mine")
        assert main(args + ["--output", str(kept)]) == code
        assert (kept / "note.txt").read_text() == "mine"

    @pytest.mark.parametrize(
        "text,code",
        [
            # the 1 ps analysis window sifts nothing, the 4000 ps one a key
            (
                SMALL_CONFIG.replace("length_s = 0.002", "length_s = 0.00002")
                .replace("windows_ps = 500, 1000, 2000", "windows_ps = 1, 4000")
                .replace("analysis_window_ps = 1000", "analysis_window_ps = 1"),
                0,
            ),
            (ZERO_NOISE_CONFIG.replace("loss_db = 3.0", "loss_db = 90.0"), 1),
        ],
        ids=["narrow_analysis_window", "dead_link"],
    )
    def test_run_and_analyze_share_the_no_key_rule(self, tmp_path, capfd, text, code):
        path = tmp_path / "session.ini"
        path.write_text(text)
        out = tmp_path / "out"
        capfd.readouterr()
        assert main(["run", "--config", str(path), "--output", str(out)]) == code
        run_err = capfd.readouterr().err
        rows = list(csv.DictReader((out / "sift_reports.csv").open()))
        assert any(int(r["sifted_bits"]) == 0 for r in rows)
        args = ["analyze", str(out / "session.qtt"), str(out / "alice.qac")]
        assert main(args + ["--output", str(tmp_path / "a")]) == code
        assert capfd.readouterr().err == run_err
        assert ("no key" in run_err) == (code == 1)

    def test_dead_link_no_key_exit_1(self, tmp_path):
        path = tmp_path / "dead.ini"
        path.write_text(
            ZERO_NOISE_CONFIG.replace("loss_db = 3.0", "loss_db = 90.0")
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 1
        # partial artifacts retained
        assert (out / "session.qtt").is_file()


# bytes that count as header in each artifact; damage elsewhere hits the body
HEADER_BYTES = {"session.qtt": HEADER_SIZE, "alice.qac": _SIDECAR_FIXED.size}


class TestAnalyzeNeverRaises:
    """Whatever the damage to a run's artifacts, analyze ends in an exit
    code (0 ok, 1 analysis failed, 2 bad input), never in a traceback."""

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        artifact=st.sampled_from(sorted(HEADER_BYTES)),
        edits=st.lists(
            st.tuples(st.booleans(), st.integers(0, 2**32), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        cut=st.none() | st.integers(0, 2**32),
    )
    @example(
        artifact="alice.qac",
        edits=[(True, 16 + i, b) for i, b in enumerate(struct.pack("<d", 1e20))],
        cut=None,
    )
    def test_damaged_artifacts_exit_0_1_or_2(
        self, small_run, tmp_path, artifact, edits, cut
    ):
        raw = bytearray((small_run / artifact).read_bytes())
        for in_header, at, value in edits:
            raw[at % (HEADER_BYTES[artifact] if in_header else len(raw))] = value
        if cut is not None:
            raw = raw[: cut % (len(raw) + 1)]
        (tmp_path / artifact).write_bytes(bytes(raw))
        paths = {a: str(small_run / a) for a in HEADER_BYTES}
        paths[artifact] = str(tmp_path / artifact)
        args = ["analyze", paths["session.qtt"], paths["alice.qac"]]
        assert main(args + ["--output", str(tmp_path / "a")]) in (0, 1, 2)
