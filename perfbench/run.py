"""End-to-end benchmark of the IAMA planner: one workload per invocation.

    python3 perfbench/run.py --workload anytime_mix --seed 1 --seconds 30 --trace 0

Workloads: ``anytime_mix``, ``steer_tighten``, ``service_zipf`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
it holds the end-to-end metrics, with ``--trace 1`` the per-layer split of a
separate traced run.  Run from the root of a source checkout; the program is
imported from ``src/``.  Exits non-zero without a result when the program
cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("anytime_mix", "steer_tighten", "service_zipf")
#: Set-up is timed this many times per run, each in a process of its own
#: that stops once set up; the reported ``setup_s`` is their median, scaled
#: by the process start-up slowness measured around each (see
#: ``measure.startup_slowness``).
SETUP_SAMPLES = 7
#: Every child process must end within this many seconds.
CHILD_TIMEOUT_S = 150.0
#: Temporary files of the program (the service's persistent cache tier)
#: stay inside the checkout.
TMP_DIR = ROOT / ".perfbench-tmp"


def _child(args: argparse.Namespace, setup_only: bool) -> tuple:
    """Run one ``drive.py`` process; returns (set-up seconds, last record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(TMP_DIR)
    env["PYTHONHASHSEED"] = measure.HASH_SEED
    command = [
        sys.executable,
        str(HERE / "drive.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    try:
        completed = subprocess.run(
            command,
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark process timed out after {CHILD_TIMEOUT_S} s")
    if completed.returncode != 0:
        raise SystemExit(f"benchmark process failed with exit code {completed.returncode}")
    lines = [line for line in completed.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit("benchmark process printed no record")
    ready = json.loads(lines[0])["ready"]
    return ready - started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    TMP_DIR.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            before = measure.startup_slowness()
            for _ in range(SETUP_SAMPLES):
                seconds = _child(args, setup_only=True)[0]
                after = measure.startup_slowness()
                setups.append(seconds / ((before + after) / 2.0))
                before = after
        record = _child(args, setup_only=False)[1]
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    metrics = record["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0 and not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
