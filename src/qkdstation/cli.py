"""Command-line driver.

Subcommands:

* ``init``       write the reference config to a path
* ``calibrate``  code-density calibration of every channel
* ``precision``  cable-delay precision test over channel pairs
* ``run``        full QKD session: physics -> TDC -> readout -> sifting
* ``analyze``    offline replay of a session's artifacts

Exit codes: 0 success, 1 analysis failure (lost sync, no key, broken
calibration), 2 configuration or file-format error.

``main`` decides how a command ends: if it raises, ``main`` removes the
top-most directory of ``--output`` that was missing before the call. A
command that returns keeps its files, even when ``run`` or ``analyze``
exits 1 because every window sifted zero bits (no key).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

from . import calibration as cal
from .config import file_digest, load_config, reference_config_text, write_csv
from .errors import ConfigError, FileFormatError, StationError
from .readout import write_timetag_file
from .session import (
    analyze_files,
    build_profiles,
    calibrate_all,
    describe,
    run_session,
    tap_width_matrix,
)
from .sift import write_sift_csv

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2


def cmd_init(args) -> int:
    path = Path(args.config)
    if path.exists() and not args.force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")
    path.write_text(reference_config_text())
    print(f"wrote reference config to {path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    profiles = build_profiles(cfg)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    tables = calibrate_all(cfg, profiles)
    write_timetag_file(
        out / "calibration.qtt",
        cfg.tdc,
        np.empty(0, dtype=np.uint64),
        tap_width_matrix(cfg.tdc, tables),
    )
    for t in tables:
        cal.write_calibration_csv(t, out / f"calibration_ch{t.channel:02d}.csv")
        print(
            f"channel {t.channel:2d}: LSB {t.lsb:.3f} ps, "
            f"DNL [{t.dnl.min():+.3f}, {t.dnl.max():+.3f}] LSB, "
            f"INL [{t.inl.min():+.3f}, {t.inl.max():+.3f}] LSB"
        )
    summary_path = out / "calibration_summary.csv"
    write_csv(
        summary_path,
        ["channel", "lsb_ps", "dnl_min_lsb", "dnl_max_lsb", "inl_min_lsb", "inl_max_lsb"],
        (
            [
                t.channel,
                f"{t.lsb:.6f}",
                f"{t.dnl.min():.6f}",
                f"{t.dnl.max():.6f}",
                f"{t.inl.min():.6f}",
                f"{t.inl.max():.6f}",
            ]
            for t in tables
        ),
    )
    print(f"tables in {out / 'calibration.qtt'}, summary in {summary_path}")
    return EXIT_OK


def cmd_precision(args) -> int:
    cfg = load_config(args.config)
    profiles = build_profiles(cfg)
    delay = cfg.precision.cable_delay
    if delay is None:
        delay = cal.decorrelation_cable_delay(cfg.tdc)
    rows = []
    for a, b in cfg.precision_pairs():
        report = cal.precision_test(
            profiles[a],
            profiles[b],
            cfg.tdc,
            cfg.precision.period,
            delay,
            cfg.precision.n_pulses,
            cfg.seed,
        )
        rows.append(report)
        print(
            f"channels {a}-{b}: interval std {report.raw_std:.3f} ps, "
            f"per-channel RMS {report.per_channel_rms:.3f} ps "
            f"(mean interval {report.mean_interval:.3f} ps, n={report.n_samples})"
        )
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "precision.csv"
    write_csv(
        path,
        ["channel_a", "channel_b", "raw_std_ps", "per_channel_rms_ps", "n_samples", "mean_interval_ps"],
        (
            [
                r.channel_pair[0],
                r.channel_pair[1],
                f"{r.raw_std:.6f}",
                f"{r.per_channel_rms:.6f}",
                r.n_samples,
                f"{r.mean_interval:.6f}",
            ]
            for r in rows
        ),
    )
    print(f"precision report in {path}")
    return EXIT_OK


def _key_exit(reports) -> int:
    """The no-key rule of ``run`` and ``analyze``: every window sifted 0 bits."""
    if all(r.sifted_bits == 0 for r in reports):
        print("no sifted bits: session produced no key", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    artifacts = run_session(cfg, args.output, file_digest(args.config))
    print(describe(artifacts))
    print(f"artifacts in {Path(args.output)}")
    return _key_exit(artifacts.reports)


def cmd_analyze(args) -> int:
    windows = None
    if args.windows:
        windows = []
        for item in args.windows.split(","):
            try:
                windows.append(float(item))
            except ValueError:
                raise ConfigError(
                    f"--windows item {item!r} is not a number"
                ) from None
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    pairs_out = out / "matched_pairs.csv" if args.dump_pairs else None
    reports, clock = analyze_files(args.timetag, args.sidecar, windows, pairs_out)
    path = out / "sift_reports.csv"
    write_sift_csv(reports, path)
    if pairs_out is not None:
        print(f"matched pairs in {pairs_out}")
    for r in reports:
        print(
            f"window {r.window:.0f} ps: matched {r.matched}, sifted {r.sifted_bits}, "
            f"QBER {100 * r.qber:.2f}%, secure {r.secure_rate:.0f} b/s"
        )
    print(
        f"clock offset {clock.offset_hat:.1f} ps, drift {clock.drift_hat_ppm:.3f} ppm; "
        f"reports in {path}"
    )
    return _key_exit(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdstation",
        description="Deterministic simulator of a QKD ground-station timing chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write the reference config")
    p.add_argument("config", help="path to write")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(func=cmd_init)

    for name, func, help_text in (
        ("calibrate", cmd_calibrate, "code-density calibration of all channels"),
        ("precision", cmd_precision, "cable-delay precision test"),
        ("run", cmd_run, "full QKD session"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--output", default="out", help="output directory (default: out)")
        p.set_defaults(func=func)

    p = sub.add_parser("analyze", help="offline replay of run artifacts")
    p.add_argument("timetag", help="time-tag file from a run")
    p.add_argument("sidecar", help="Alice sidecar file from the same run")
    p.add_argument("--windows", help="comma-separated window list in ps")
    p.add_argument("--output", default="out", help="output directory (default: out)")
    p.add_argument(
        "--dump-pairs",
        action="store_true",
        help="also write the matched-pair dump (verbose)",
    )
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(getattr(args, "output", "."))  # init takes no --output
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        try:
            return args.func(args)
        except BaseException:  # a failed command leaves no directory it made
            if made and made[-1].exists():
                shutil.rmtree(made[-1])
            raise
    except (ConfigError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StationError as exc:  # calibration, sync recovery, ...
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
