#!/usr/bin/env python3
"""Compare one benchmark workload between two source trees in alternating runs.

Usage: python scripts/ab_bench.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seconds S

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, from that
tree's root, with the pair number as the seed; the parent runs first in even
pairs and the change first in odd ones, so a drift in the host's load falls
on both sides alike. The metrics are the end-to-end ones that the parent
tree's ``BENCHMARK.json`` declares, which is only read. Both trees start
alike: every run gets the same environment, in which ``PYTHONPYCACHEPREFIX``
names one scratch directory that is emptied before each run and
``PYTHONDONTWRITEBYTECODE`` is unset, so no run reads bytecode that an
earlier run, or a tree's own ``__pycache__``, left behind: the first of a
run's processes compiles into that cache, and the rest read it. It prints
each pair's ``op_p50_s`` and ``peak_rss_mb``, then the medians of every
metric in both trees, the quartiles of the parent's ``op_p50_s`` and the
number of pairs in which the change ran faster. A missing tree or a bad count exits with code 2
before any run; a failed run, or one that reports no value for a declared
metric, exits with code 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


# the run puts the tree's own src/ on the path, and its processes share one
# bytecode cache that the first of them writes
UNSET = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")


def _tree(path: str) -> Path:
    root = Path(path).resolve()
    for part in ("BENCHMARK.json", "perfbench/run.py", "src/qmultimeter/__init__.py"):
        if not (root / part).is_file():
            raise argparse.ArgumentTypeError(f"{path} is no source tree: {part} is missing")
    return root


def _metric_names(tree: Path) -> list:
    """The names of the end-to-end metrics that ``tree``'s BENCHMARK.json declares."""
    return [m["name"] for m in json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]]


def _run(tree: Path, args, seed: int, names: list, cache: Path) -> dict:
    """The metrics ``names`` of one ``perfbench/run.py`` run in ``tree``, with
    the bytecode cache ``cache`` emptied first."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {tree} exited with code {proc.returncode}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"perfbench/run.py in {tree} reported no {', '.join(missing)}")
    return {name: metrics[name]["value"] for name in names}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=_tree, metavar="PARENT_TREE")
    ap.add_argument("change", type=_tree, metavar="CHANGE_TREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    if not args.seconds > 0:
        ap.error(f"--seconds must be positive, got {args.seconds}")

    names = _metric_names(args.parent)
    runs = {"parent": [], "change": []}
    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    print("pair  first   parent op_p50_s  change op_p50_s  parent peak_rss_mb  change peak_rss_mb")
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        cache = Path(scratch) / "pycache"
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            try:
                result = {s: _run(getattr(args, s), args, pair, names, cache) for s in order}
            except RuntimeError as exc:
                print(f"ab_bench: {exc}", file=sys.stderr)
                return 1
            for side in runs:
                runs[side].append(result[side])
            print(f"{pair:4d}  {order[0]:6s}  {result['parent']['op_p50_s']:15.6g}  "
                  f"{result['change']['op_p50_s']:15.6g}  {result['parent']['peak_rss_mb']:18.2f}  "
                  f"{result['change']['peak_rss_mb']:18.2f}", flush=True)

    for name in names:
        median = {side: statistics.median(r[name] for r in runs[side]) for side in runs}
        shift = f"{median['change'] / median['parent'] - 1:+.1%}" if median["parent"] else "n/a"
        print(f"median {name}: parent {median['parent']:.6g}, change {median['change']:.6g} "
              f"({shift})")
    p50 = {side: [r["op_p50_s"] for r in runs[side]] for side in runs}
    q1, q3 = _quartiles(p50["parent"])
    won = sum(c < p for p, c in zip(p50["parent"], p50["change"]))
    print(f"parent op_p50_s quartiles: {q1:.6g} .. {q3:.6g} (spread {q3 - q1:.3g})")
    print(f"change faster in {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
