"""Benchmark for tauforge: translate walks, GF(p) isomorphism, the paper suite.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload translate-qq --seed 1 --seconds 20 --trace 0

Prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The work itself runs in child processes started from this file, each on one
thread, so that set-up time starts at interpreter start and peak memory is
the workload's own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("translate-qq", "iso-gfp", "suite-qq")
SETUPS = 3          # set-ups per untraced run; setup_s is their median
BUDGET_S = 170      # every child is killed once the run has taken this long


class WorkerFailed(Exception):
    pass


def spawn(args, mode, deadline):
    """Run one worker; returns (seconds from start to 'ready', result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise WorkerFailed("worker (%s) exited with code %d" % (mode, code))
    return ready, (json.loads(last) if mode != "setup" else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tauforge" / "__init__.py").is_file():
        print("error: no tauforge sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            _, plain = spawn(args, "run", deadline)
            _, result = spawn(args, "trace", deadline)
            metrics = dict(result["layers"])
            metrics["trace.overhead_s"] = (result["wall_s"] - plain["wall_s"], "s")
            correct = plain["correct"] and result["correct"]
        else:
            setups = [spawn(args, "setup", deadline)[0] for _ in range(SETUPS - 1)]
            ready, result = spawn(args, "run", deadline)
            setups.append(ready)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (result["wall_s"], "s"),
                "op_ms_p50": (result["op_ms_p50"], "ms"),
                "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
            }
            correct = result["correct"]
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
