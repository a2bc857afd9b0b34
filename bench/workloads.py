"""Workload inputs, the operation each workload repeats, and its output checks.

Each workload's ``call`` is the timed operation; ``check`` runs after the
timer stops and raises CheckFailed naming the first check that failed.
``verify`` runs once per run, after the timed loop.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import asdict
from pathlib import Path

from qkdstation.config import file_digest, load_config, reference_config_text
from qkdstation.session import analyze_files, run_session

REFERENCE_SEED = 20160816
# 250..4750 ps in 250 ps steps; holds the stored windows 500, 1000, 2000, 4000.
DENSE_WINDOWS = tuple(float(w) for w in range(250, 5000, 250))
SESSION_FILES = ("session.qtt", "alice.qac", "sift_reports.csv", "manifest.json")

# Output limits: a09's clock limit is a tenth of the analysis window.
MAX_QBER = 0.11
MIN_SECURE_RATE = 500.0
A07_QBER, A07_TOL = 0.0175, 0.005


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def config_text(seed: int) -> str:
    """The shipped reference.ini with the given session seed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(reference_config_text())
    parser["session"]["seed"] = str(seed)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def generate_config(seed: int, run_dir: Path):
    """Write the workload's config into ``run_dir``; return (config, SHA-256)."""
    path = Path(run_dir) / "config.ini"
    path.write_text(config_text(seed))
    return load_config(path), file_digest(path)


def clock_error_ps(cfg, clock) -> float:
    """|offset error| + |drift error| x span, the worst error over the session."""
    span = cfg.n_pulses * cfg.link.pulse_period
    drift_err = abs(clock.drift_hat_ppm - cfg.clock.drift_ppm) * 1e-6
    return abs(clock.offset_hat - cfg.clock.offset) + drift_err * span


def check_clock(cfg, clock) -> None:
    err = clock_error_ps(cfg, clock)
    limit = cfg.analysis_window / 10
    if err > limit:
        raise CheckFailed(f"clock: error {err:.2f} ps exceeds {limit:.0f} ps")


def check_conserved(ledger, buffer) -> None:
    if not ledger.conserved():
        raise CheckFailed("ledger_conserved: TruthLedger does not balance")
    if not buffer.conserved():
        raise CheckFailed("buffer_conserved: ReadoutBuffer does not balance")


def check_yield(cfg, reports, a07_band: bool) -> None:
    r = next(r for r in reports if r.window == cfg.analysis_window)
    if not r.qber < MAX_QBER:
        raise CheckFailed(f"qber: {r.qber:.4f} at {r.window:.0f} ps")
    if not r.secure_rate > MIN_SECURE_RATE:
        raise CheckFailed(f"secure_rate: {r.secure_rate:.0f} b/s")
    # a07's band is about 1.5 sigma wide, so it holds only at its own seed.
    if a07_band and abs(r.qber - A07_QBER) > A07_TOL:
        raise CheckFailed(f"a07_band: qber {r.qber:.4f} outside 0.0175 +- 0.005")


def check_superset(reports) -> None:
    matched = [r.matched for r in reports]
    if any(b < a for a, b in zip(matched, matched[1:])):
        raise CheckFailed(f"superset: matched counts {matched} decrease")


def digests(out_dir: Path, names) -> dict[str, str]:
    return {name: file_digest(Path(out_dir) / name) for name in names}


def replay_facts(cfg, digest: str, out_dir: Path) -> dict:
    """Run the session whose artifacts replay_scan replays; return what it reported."""
    art = run_session(cfg, out_dir, digest)
    return {
        "dir": str(out_dir),
        "reports": [asdict(r) for r in art.reports],
        "clock": asdict(art.clock),
        "ledger_conserved": bool(art.ledger.conserved()),
        "buffer_conserved": bool(art.buffer.conserved()),
    }


class Workload:
    """Inputs shared by every workload; ``first`` holds the first operation's output.

    ``setup_repeats`` is how many fresh-interpreter set-ups a timed run
    measures: one before the timed loop and the rest spread evenly through
    it, so that their median spans the host's state over the whole run.
    Single set-ups scatter by a quarter, so cheap set-ups are repeated more.
    """

    setup_repeats = 8
    def __init__(self, cfg, digest, facts=None):
        self.cfg, self.digest, self.facts = cfg, digest, facts
        self.pulses = cfg.n_pulses
        self.first = None

    def verify(self, run_dir) -> dict:
        return {}


class ReferenceSession(Workload):
    """One ``run_session`` call per operation."""

    name = "reference_session"
    setup_repeats = 16  # about 0.2 s each

    def call(self, out_dir):
        return run_session(self.cfg, out_dir, self.digest)

    def check(self, art, out_dir) -> None:
        cfg = self.cfg
        check_clock(cfg, art.clock)
        check_conserved(art.ledger, art.buffer)
        check_yield(cfg, art.reports, a07_band=cfg.seed == REFERENCE_SEED)
        check_superset(art.reports)
        got = digests(out_dir, SESSION_FILES)
        if self.first is None:
            self.first = got
        elif got != self.first:
            raise CheckFailed("digests: artifacts differ from the run's first operation")
        reports, clock = analyze_files(art.timetag_path, art.sidecar_path)
        if reports != art.reports or clock != art.clock:
            raise CheckFailed("replay: analyze_files does not reproduce the run")


class ReplayScan(Workload):
    """One ``analyze_files`` call over the dense window list per operation."""

    name = "replay_scan"  # set-up runs a session: about 1.7 s each

    def __init__(self, cfg, digest, facts):
        super().__init__(cfg, digest, facts)
        art_dir = Path(facts["dir"])
        self.timetag, self.sidecar = art_dir / "session.qtt", art_dir / "alice.qac"

    def call(self, out_dir):
        return analyze_files(self.timetag, self.sidecar, DENSE_WINDOWS)

    def check(self, result, out_dir) -> None:
        reports, clock = result
        if self.first is None:
            self.first = result
        elif result != self.first:
            raise CheckFailed("determinism: replay differs from the run's first operation")
        if asdict(clock) != self.facts["clock"]:
            raise CheckFailed("replay_clock: clock differs from the session's")
        by_window = {r.window: r for r in reports}
        for stored in self.facts["reports"]:
            r = by_window[stored["window"]]
            if (r.matched, r.sifted_bits) != (stored["matched"], stored["sifted_bits"]):
                raise CheckFailed(f"replay_reports: window {r.window:.0f} ps differs")
        check_clock(self.cfg, clock)
        check_yield(self.cfg, reports, a07_band=False)
        check_superset(reports)

    def verify(self, run_dir) -> dict:
        if not (self.facts["ledger_conserved"] and self.facts["buffer_conserved"]):
            raise CheckFailed("conserved: the replayed session's ledgers do not balance")
        reports, clock = analyze_files(self.timetag, self.sidecar)
        if [asdict(r) for r in reports] != self.facts["reports"] or asdict(clock) != self.facts["clock"]:
            raise CheckFailed("replay_stored: stored-window replay differs from the session")
        return {}


CLASSES = {cls.name: cls for cls in (ReferenceSession, ReplayScan)}
WORKLOADS = tuple(CLASSES)
