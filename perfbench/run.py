"""reinsgame benchmark: one workload per run, each in its own child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured (set-up time comes
from several fresh processes); with ``--trace 1`` the per-layer metrics
come from a traced run.  The last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's details and environment (versions, nproc, commit).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from stats import median
from worker import SRC, THREAD_VARS
from workloads import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
ROOT = SRC.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
DEADLINE_S = 170  # every run ends within 180 s


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _child(args: list[str], timeout: float) -> dict:
    """Run the worker with ``args``; return the JSON object on its last line."""
    done = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="reinsgame benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "reinsgame" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_runs = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setup_runs.append(_child(common + ["--setup-only"], SETUP_TIMEOUT_S))
        remaining = DEADLINE_S - (time.monotonic() - start)
        result = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = result.pop("info")
    if setup_runs:
        setup_s = median([run["setup_s"] for run in setup_runs])
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        info["raw_setup_s"] = [run["raw_setup_s"] for run in setup_runs]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
