"""Launcher of the pavelab benchmark.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The launcher pins BLAS and OpenMP to one
thread, then starts each workload process with ``PYTHONPATH=src``: with
``--trace 0`` it first starts SETUP_PROBES set-up-only processes, then the
measuring one, and reports the median set-up time over all of them.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means a result was printed; any other
code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline", "kesten", "search", "certify")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150.0

# Every knob that sizes a BLAS or OpenMP thread pool.  Two threads on a
# two-core box made op times both slower and noisier, so one thread is the
# measured configuration.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, setup_only: bool, deadline: float) -> dict:
    """Start one workload process, wait for it, and return its result line."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = child_env()
    env["PERFBENCH_T0_NS"] = str(time.monotonic_ns())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload process exceeded {CHILD_TIMEOUT_S:.0f} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pavelab", "__init__.py")):
        print("error: src/pavelab not found; run from a pavelab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(args, True, deadline)["setup_s"])
    result = run_child(args, False, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s samples: {setups}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
