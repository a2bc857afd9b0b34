"""qkdstation benchmark: one command for every metric and output check.

    python3 bench/run.py --workload reference_session --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports ``qkdstation``
from ``src/`` and writes only below ``.bench_runs/``, which it removes
on exit. With ``--trace 0`` it times whole operations and prints the
end-to-end metrics; with ``--trace 1`` it runs the stage-by-stage copy
in ``pipeline.py`` beside the real calls and prints the per-layer
metrics. The last line of standard output is the result object; the
line before it carries the run's details (environment, seed, config
digest, failures). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

# op_s.p90 is resolved only if at least this many samples lie beyond it.
P90_MIN_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "pulses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv, wl_mod):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl_mod.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="run seed: recorded with the result; the inputs do not depend on it")
    # Not taken from --seed: at some session seeds (2 of 0-49) the recovered
    # clock misses the 100 ps check (README.md, "Inputs"), a program defect
    # that --session-seed reproduces.
    p.add_argument("--session-seed", type=int, default=wl_mod.REFERENCE_SEED,
                   help="seed written into the session config (default: reference.ini's own)")
    p.add_argument("--seconds", type=float, default=50.0, help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_modules():
    """Import the benchmark modules, which import qkdstation from src/."""
    for var in BLAS_VARS:  # before numpy loads: recover_clock calls np.polyfit
        os.environ[var] = "1"
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


# --- environment record ------------------------------------------------------


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


# --- set-up -------------------------------------------------------------------


def setup_child(args, wl) -> int:
    """Set up once in this fresh interpreter and print when it was ready."""
    run_dir = Path(args.setup_child)
    cfg, digest = wl.generate_config(args.session_seed, run_dir)
    facts = None
    if args.workload == "replay_scan":
        facts = wl.replay_facts(cfg, digest, run_dir / "artifacts")
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "config_sha256": digest, "facts": facts}))
    return 0


def setup_once(args, run_dir: Path, index: int):
    """Set up once in a fresh interpreter.

    Returns the set-up time (interpreter start to ready, on the shared
    monotonic clock) and the child's report. The first child's directory
    is kept: the replay workload reuses its artifacts.
    """
    child_dir = run_dir / f"setup{index}"
    child_dir.mkdir()
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-child", str(child_dir),
        "--workload", args.workload, "--session-seed", str(args.session_seed),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if index:
        shutil.rmtree(child_dir, ignore_errors=True)
    return info["ready"] - start, info


# --- timed operations ---------------------------------------------------------


def run_op(wl, out_dir: Path):
    """Time one operation, then check it. Returns (seconds, failure or None)."""
    try:
        t0 = time.perf_counter()
        try:
            result = wl.call(out_dir)
        except Exception as exc:  # a raising operation is a failed one
            return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        try:
            wl.check(result, out_dir)
        except Exception as exc:  # CheckFailed, or a check that could not run
            return elapsed, str(exc) or type(exc).__name__
        return elapsed, None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(wl, seconds: float, run_dir: Path, pause=None, pauses: int = 0):
    """Repeat the operation until ``seconds`` have passed (at least once).

    Between operations, ``pause`` is called ``pauses`` times, spread evenly
    over the run; the time it takes does not count toward ``seconds``.
    """
    outcomes, paused, taken = [], 0.0, 0
    start = time.perf_counter()
    while True:
        outcomes.append(run_op(wl, run_dir / f"op{len(outcomes)}"))
        elapsed = time.perf_counter() - start - paused
        if taken < pauses and elapsed >= seconds * (taken + 1) / (pauses + 1):
            t0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t0
            taken += 1
        if elapsed >= seconds:
            break
    for _ in range(pauses - taken):  # left over when operations outlast the spacing
        pause()
    return outcomes


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(outcomes, pulses_per_op: int) -> tuple[dict, dict]:
    """End-to-end operation metrics and their details from (seconds, failure) pairs.

    Failed operations add time but no pulses, and op_s.* covers the
    successful ones only; if none succeeded it falls back to all.
    """
    ok = [sec for sec, fail in outcomes if fail is None]
    failures = [fail for _, fail in outcomes if fail is not None]
    times = ok or [sec for sec, _ in outcomes]
    total = sum(sec for sec, _ in outcomes)
    tail = p90(times)
    beyond = sum(t > tail for t in times)
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.p90": tail,
        "pulses_per_s": pulses_per_op * len(ok) / total,
    }
    detail = {
        "attempted": len(outcomes),
        "failed": len(failures),
        "fail_share": len(failures) / len(outcomes),
        "first_failure": failures[0] if failures else None,
        "op_s_samples": len(times),
        "op_s_over": "succeeded" if ok else "attempted (none succeeded)",
        "op_s_beyond_p90": beyond,
        "op_s_p90_resolved": beyond >= P90_MIN_BEYOND,
    }
    return metrics, detail


def timed_run(args, wl_mod, run_dir: Path):
    sec, info = setup_once(args, run_dir, 0)
    setup_samples = [sec]
    cfg, digest = wl_mod.generate_config(args.session_seed, run_dir)
    if digest != info["config_sha256"]:
        raise RuntimeError("set-up generated a different config than this process")
    wl = wl_mod.CLASSES[args.workload](cfg, digest, info["facts"])

    problems = []
    _, warm_fail = run_op(wl, run_dir / "warmup")  # untimed: fills caches
    if warm_fail:
        problems.append(f"warm-up: {warm_fail}")
    outcomes = measure(
        wl, args.seconds, run_dir,
        pause=lambda: setup_samples.append(setup_once(args, run_dir, len(setup_samples))[0]),
        pauses=wl.setup_repeats - 1,
    )
    try:
        extra = wl.verify(run_dir)
    except Exception as exc:  # report, do not crash: the result says correct=false
        problems.append(f"verify: {exc}")
        extra = {}

    metrics, detail = summarize(outcomes, wl.pulses)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail.update(extra)
    detail["setup_s_samples"] = setup_samples
    detail["run_problems"] = problems
    result = {
        "correct": detail["failed"] == 0 and not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }
    return result, detail, cfg, digest


def main(argv=None) -> int:
    if not (SRC / "qkdstation" / "__init__.py").is_file():
        print(f"error: {SRC} holds no qkdstation package to benchmark", file=sys.stderr)
        return 2
    wl_mod = load_modules()
    args = parse_args(argv, wl_mod)
    if args.setup_child:
        return setup_child(args, wl_mod)
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            import traced

            result, detail, cfg, digest = traced.trace_run(args, run_dir)
        else:
            result, detail, cfg, digest = timed_run(args, wl_mod, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS_DIR.is_dir() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "session_seed": args.session_seed,
        "config_sha256": digest,
        "session": {"pulses": cfg.n_pulses, "length_s": cfg.session_length_s},
        "environment": environment(),
        **detail,
    }
    if not result["correct"]:  # the result line alone does not say why
        print(f"incorrect: first failure: {detail.get('first_failure')}; "
              f"run problems: {detail.get('run_problems')}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
