#!/usr/bin/env python3
"""Run the full verification battery and drop JSON reports in a directory.

Usage: python scripts/run_verification.py [outdir] [--trials N] [--seed S]
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from qmultimeter.sampling import random_povm
from qmultimeter.verify import (
    default_random_fixture,
    phase_space_demo,
    q8_program_pair,
    quaternion_demo,
    verify_b_properties,
    verify_povm_bound,
    verify_prop1,
    verify_prop3,
    wh_program_pair,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="reports")
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0

    def write(name, doc):
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"{name}: wrote {path}")

    write("demo_q8", quaternion_demo())
    write("demo_phase_space_3", phase_space_demo(3))

    fixtures = {
        "q8": q8_program_pair(),
        "wh3": wh_program_pair(3),
        "random": default_random_fixture(args.seed),
    }
    for name, (mm, xi1, xi2, l1, l2) in fixtures.items():
        r1 = verify_prop1(mm, xi1, xi2, trials=args.trials, seed=args.seed)
        write(f"prop1_{name}", r1.to_dict())
        r3 = verify_prop3(mm, xi1, xi2, l1, l2, trials=args.trials, seed=args.seed)
        write(f"prop3_{name}", r3.to_dict())
        failures += r1.violations + r3.violations

    rng = np.random.default_rng(args.seed)
    bprops = verify_b_properties(
        random_povm(rng, 2, 3), random_povm(rng, 2, 3), n=50, seed=args.seed
    )
    write("b_properties", bprops.to_dict())
    povm = verify_povm_bound(dim=2, trials=args.trials, seed=args.seed)
    write("povm_bound", povm.to_dict())
    failures += bprops.violations + povm.violations

    print(f"total violations: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
