#!/usr/bin/env python3
"""Compare the seeded CLI payloads of two source trees.

Usage: python scripts/payload_diff.py PARENT_TREE CHANGE_TREE

Each command of a fixed list runs once in each tree, in a fresh
``python -m qmultimeter`` process started from the tree's root with that
tree's ``src/`` on ``PYTHONPATH``, one BLAS thread (``OPENBLAS_NUM_THREADS=1``)
and no ``QML_SEED``: ``demo q8``, ``demo phase-space --dim d`` for every prime
d up to the parent tree's ``PHASE_SPACE_MAX_DIM``, ``verify prop1`` and
``verify prop3`` on the q8 and phase-space fixtures, ``verify bprops --trials
20`` and ``bound --points 201``. A JSON payload is compared without its
``"elapsed"`` time, any other output as text, together with the exit code.
It prints each command whose payload differs, then the count. It exits with
code 1 when a payload differs, 2 when a tree is missing, and 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def _tree(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "src" / "qmultimeter" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} is no source tree: src/qmultimeter is missing")
    return root


def _env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QML_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    return env


def commands(parent: Path) -> list:
    """The argument lists of every compared command, the phase-space demos
    up to the parent tree's ``PHASE_SPACE_MAX_DIM``."""
    code = "from qmultimeter.verify import PHASE_SPACE_MAX_DIM as d; print(d)"
    top = int(subprocess.run([sys.executable, "-c", code], cwd=parent, env=_env(parent),
                             capture_output=True, text=True, check=True).stdout)
    primes = [d for d in range(2, top + 1) if all(d % p for p in range(2, d))]
    cmds = [["demo", "q8"]] + [["demo", "phase-space", "--dim", str(d)] for d in primes]
    for check in ("prop1", "prop3"):
        cmds += [["verify", check, "--fixture", f, "--seed", "0"] for f in ("q8", "phase-space")]
    cmds.append(["verify", "bprops", "--trials", "20", "--seed", "0"])
    return cmds + [["bound", "--points", "201"]]


def payload(tree: Path, args: list) -> tuple:
    """The exit code and the output of one command in ``tree``, a JSON
    object without its ``"elapsed"`` key. The object is written back as
    text, in which every float is its shortest round-trip repr: equal text
    is equal bits, where equal floats would let -0.0 match 0.0 and NaN
    match nothing."""
    proc = subprocess.run([sys.executable, "-m", "qmultimeter", *args], cwd=tree, env=_env(tree),
                          capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return proc.returncode, proc.stdout
    if isinstance(doc, dict):
        doc.pop("elapsed", None)
    return proc.returncode, json.dumps(doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=_tree, metavar="PARENT_TREE")
    ap.add_argument("change", type=_tree, metavar="CHANGE_TREE")
    args = ap.parse_args(argv)

    cmds = commands(args.parent)
    differ = 0
    for cmd in cmds:
        if payload(args.parent, cmd) != payload(args.change, cmd):
            differ += 1
            print("differs: qmultimeter " + " ".join(cmd), flush=True)
    print(f"{differ} of {len(cmds)} payloads differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
