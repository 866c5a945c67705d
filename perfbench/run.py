"""Benchmark entry point: one workload, each process fresh, one report.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics: it starts ``SETUP_PROCESSES - 1``
processes that only set up, then one that sets up and runs untraced ops for
S seconds. Its times are scaled to a reference host speed measured by the
loop in ``calibration.py``; the raw wall times print beside them as
``wall.*``. ``--trace 1`` starts one process that alternates untraced and
traced ops and prints the per-layer metrics. Every child pins BLAS to
``BLAS_THREADS`` threads. Human-readable lines come first (every metric by
name, value and unit, then the environment); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("phase_space_cold", "program_warm", "divergence_b4", "bound_sweep")
SETUP_PROCESSES = 3
# one thread, so an op and the calibration loop around it run on one core:
# a second BLAS thread waits on whichever core a neighbour slows
BLAS_THREADS = 1
DEADLINE_S = 170.0
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without starting git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = str(blas_threads)
    return env


def _spawn(mode: str, args, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile that keeps
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    s = sorted(times)
    n = len(s)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(args, env, deadline) -> tuple:
    setups = [_spawn("setup", args, env, deadline) for _ in range(SETUP_PROCESSES - 1)]
    run = _spawn("timed", args, env, deadline)
    setups.append(run)
    scaled, wall = run["op_ref_s"], run["op_s"]
    attempted, failed = run["attempted"], run["failed"]
    completed = attempted - failed

    def timings(times, prefix, how):
        value, pct, beyond = tail(times)
        return {
            prefix + "op_p50_s": (statistics.median(times), "s", f"{len(times)} ops, {how}"),
            prefix + "op_tail_s": (value, "s", f"p{pct:.1f} of {len(times)} ops, {beyond} beyond, {how}"),
            prefix + "ops_per_s": (completed / sum(times), "1/s", f"{completed} completed ops, {how}"),
        }

    metrics = {
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s",
                    f"median of {len(setups)} fresh processes, scaled to the reference host speed"),
        **timings(scaled, "", "scaled to the reference host speed"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB", "ru_maxrss of the op process"),
    }
    # printed but not JSON metrics: failed_frac is 0 on a healthy run (the JSON's
    # attempted/failed pair carries it), and raw wall times follow the host's load
    printed_only = {
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} attempted"),
        "wall.setup_s": (statistics.median(s["setup_s"] for s in setups), "s",
                         f"median of {len(setups)} fresh processes"),
        **timings(wall, "wall.", "wall time"),
        "host_slowdown": (run["host_slowdown"], "ratio",
                          "median calibration pass over its reference time"),
    }
    return run, metrics, printed_only, []


def per_layer(args, env, deadline) -> tuple:
    run = _spawn("traced", args, env, deadline)
    metrics = {name: (value, unit, "") for name, (value, unit) in run["layers"].items()}
    plain, traced = run["untraced_op_s"], run["traced_op_s"]
    metrics["trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain), "ratio",
        f"median of {len(traced)} traced / {len(plain)} untraced ops")
    notes = [
        f"counts per op over the first {run['window_ops']} traced ops; times per op over {len(traced)}",
        "quantum.dual_bytes is computed from operator sizes, not measured",
        f"spans: {run['trace_file']}",
    ]
    return run, metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its worker: SystemExit
    # unwinds through subprocess.run, which does both
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "qmultimeter" / "__init__.py").is_file():
        print("run from the repository root: src/qmultimeter is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(BLAS_THREADS, nproc)
    env = _child_env(blas_threads)
    try:
        if args.trace:
            run, metrics, printed_only, notes = per_layer(args, env, deadline)
        else:
            run, metrics, printed_only, notes = end_to_end(args, env, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    environment = {**run["env"], "nproc": nproc, "blas_threads": blas_threads,
                   "seed": args.seed, "commit": _git_commit(root)}
    print(f"workload {args.workload}: closed loop, 1 client, trace={args.trace}, "
          f"{run['attempted']} ops attempted, {run['failed']} failed")
    for name, (value, unit, note) in {**metrics, **printed_only}.items():
        print(f"{name} {value!r} {unit}" + (f"  # {note}" if note else ""))
    for line in notes + [f"failure: {message}" for message in run["failures"]]:
        print(f"# {line}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment.items()))

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment, "failures": run["failures"]}
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
