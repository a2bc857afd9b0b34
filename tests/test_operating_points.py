"""A seeded sweep of operating points: every config that loads either
runs or refuses, through the CLI.

Forty configs are drawn, with a fixed seed, from the reference config
with its length, background, drift, offset, tap count, loss, mean photon
number, basis bias, channel count and seed varied. Each ``run`` must end
in one of three documented ways:

* exit 0, with both conservation ledgers exact and ``analyze`` on the
  run's two files writing the run's ``sift_reports.csv`` byte for byte;
* exit 1 because every window sifted zero bits (no key): the artifacts
  are kept, and ``analyze`` replays them to the same reports and exit;
* exit 1 or 2 with an ``analysis failed:`` or ``error:`` line on stderr,
  and no ``--output`` directory left behind.

The clock is not checked: some exit-0 runs here recover a wrong clock
and report it as right. That is the open clock-recovery defect (ROADMAP
item 1), and its bound belongs in this sweep once recovery is fixed.
"""

import re

import numpy as np
import pytest

from qkdstation import cli, session
from qkdstation.cli import main
from qkdstation.config import reference_config_text

N_CASES = 40


def _draw_cases():
    rng = np.random.default_rng(20140714)
    cases = []
    for _ in range(N_CASES):
        cases.append(
            {
                "length_s": rng.choice([0.0005, 0.002, 0.01]),
                "background_rate_hz": rng.choice([0.0, 3e4, 3e5, 3e6]),
                "drift_ppm": rng.choice([-10.0, -5.0, 0.0, 5.0, 10.0, 50.0]),
                "offset_ps": float(rng.integers(-450_000, 450_001)),
                "n_taps": rng.choice([2, 8, 64, 261, 300]),
                "loss_db": rng.choice([0.0, 10.0, 30.0]),
                "mean_photon_number": rng.choice([0.1, 0.5, 5.0]),
                "basis_bias": rng.choice([0.0, 0.5, 0.9, 1.0]),
                "n_channels": rng.choice([2, 5, 16]),
                "jitter_sigma_ps": 15.0,  # one value fits every channel count
                "seed": int(rng.integers(0, 2**31)),
            }
        )
    return cases


CASES = _draw_cases()


def _config_text(case):
    text = reference_config_text()
    for key, value in case.items():
        # the first match is the [tdc] jitter_sigma_ps, not the detectors'
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        assert n == 1, key
    return text


@pytest.fixture
def runs(monkeypatch):
    """The ``SessionArtifacts`` of every ``run`` the CLI completes."""
    made = []

    def run_session(*args, **kwargs):
        made.append(session.run_session(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "run_session", run_session)
    return made


@pytest.mark.parametrize("case", CASES, ids=[f"case{i}" for i in range(N_CASES)])
def test_run_ends_right_or_refuses(tmp_path, capsys, runs, case):
    path = tmp_path / "point.ini"
    path.write_text(_config_text(case))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    if runs:  # the run finished and kept its artifacts
        assert code in (0, 1)
        assert runs[0].ledger.conserved() and runs[0].buffer.conserved()
        assert (code == 1) == all(r.sifted_bits == 0 for r in runs[0].reports)
        replay = tmp_path / "replay"
        args = ["analyze", str(out / "session.qtt"), str(out / "alice.qac")]
        assert main(args + ["--output", str(replay)]) == code
        assert (replay / "sift_reports.csv").read_bytes() == (
            out / "sift_reports.csv"
        ).read_bytes()
    else:
        assert code in (1, 2)
        said = "analysis failed: " if code == 1 else "error: "
        assert any(line.startswith(said) for line in err.splitlines())
        assert not out.exists()
