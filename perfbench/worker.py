"""One workload in one fresh process: set-up, then a closed loop of ops.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (set up, then stop), ``timed`` (untraced ops for SECONDS)
or ``traced`` (untraced and traced ops in alternation, for at least SECONDS
and at least the workload's count window of traced ops). The loop is closed
with one client: the next op starts when the previous one has returned.
After set-up, and between timed ops, the worker runs the fixed loop in
``calibration.py`` and scales each time by how fast that loop ran. Prints one
JSON object on stdout. ``run.py`` is the entry point that starts these
processes.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import of the package

import json
import platform
import resource
import statistics
import sys
from pathlib import Path

from calibration import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
MAX_FAILURE_MESSAGES = 5
SETUP_CALIBRATION_PASSES = 5


def _check_package_source():
    import qmultimeter

    src = (Path.cwd() / "src").resolve()
    found = Path(qmultimeter.__file__).resolve()
    if src not in found.parents:
        raise SystemExit(f"qmultimeter was imported from {found}, not from {src}")


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_op(workload, args):
    """Time one op on prepared inputs; returns (seconds, ok, error message)."""
    t0 = time.perf_counter()
    try:
        out = workload.op(args)
    except Exception as exc:  # counted as a failed op, never retried
        return time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(workload.check(args, out))
    except Exception as exc:
        return elapsed, False, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, ok, None if ok else "output failed its check"


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, i, ok, error):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"op {i}: {error}")

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.messages}


def run_timed(workload, seconds: float, calibration) -> dict:
    """Ops in a closed loop with a calibration pass before the first op and
    after every op; each op is scaled by the mean of the two passes around it."""
    tally, times, scaled, cals = _Tally(), [], [], [calibration.run()]
    start = time.perf_counter()
    i = 1
    while True:
        args = workload.inputs(i)
        elapsed, ok, error = _run_op(workload, args)
        cals.append(calibration.run())
        times.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / ((cals[-2] + cals[-1]) / 2))
        tally.add(i, ok, error)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"op_s": times, "op_ref_s": scaled,
            "host_slowdown": statistics.median(cals) / REFERENCE_S, **tally.as_dict()}


def run_traced(workload, seconds: float, seed: int) -> dict:
    from tracing import OpSummary, Tracer, layer_metrics

    tracer = Tracer()
    window, total = OpSummary(), OpSummary()
    tally, plain, traced = _Tally(), [], []
    start = time.perf_counter()
    i = 1
    while len(traced) < workload.window or time.perf_counter() - start < seconds:
        args = workload.inputs(i)
        elapsed, ok, error = _run_op(workload, args)
        plain.append(elapsed)
        tally.add(i, ok, error)

        args = workload.inputs(i + 1)
        first = len(tracer.spans)
        tracer.install()
        try:
            with tracer.span("op"):
                elapsed, ok, error = _run_op(workload, args)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tally.add(i + 1, ok, error)
        if window.ops < workload.window:
            window.add(tracer.spans, first)
        total.add(tracer.spans, first)
        i += 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}.jsonl"
    tracer.write(trace_file, {"workload": workload.name, "seed": seed, "traced_ops": len(traced)})
    return {
        "untraced_op_s": plain,
        "traced_op_s": traced,
        "window_ops": window.ops,
        "layers": layer_metrics(window, total),
        "trace_file": str(trace_file.relative_to(Path.cwd().resolve())),
        **tally.as_dict(),
    }


def main(argv) -> int:
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    if mode not in ("setup", "timed", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    _check_package_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    warm = workload.inputs(0)
    if not workload.check(warm, workload.op(warm)):
        raise SystemExit(f"{name}: the warm-up op failed its check")
    setup_s = time.perf_counter() - _T0
    calibration = Calibration()
    result = {"setup_s": setup_s, "env": _environment(),
              "setup_ref_s": setup_s * REFERENCE_S / calibration.median(SETUP_CALIBRATION_PASSES)}
    if mode == "timed":
        result.update(run_timed(workload, seconds, calibration))
    elif mode == "traced":
        result.update(run_traced(workload, seconds, seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
