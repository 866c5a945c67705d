"""Command-line front door: demos, verification suites, bound sweeps, divergence runs.

Exit codes: 0 clean, 1 verification violation or demo failure, 2 config/IO error.
Reports go to stdout unless --out is given; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .divergence import MAX_RESTARTS, DivergenceOptions, observable_divergence
from .groups import is_prime
from .quantum import Observable
from .sampling import random_povm
from .serialize import estimate_to_json, load_json, observable_from_json
from .verify import (
    ESTIMATOR_TOL,
    PHASE_SPACE_MAX_DIM,
    TOL_CHECK,
    DemoFailure,
    bound_curve,
    check_tolerance,
    default_random_fixture,
    phase_space_demo,
    q8_program_pair,
    quaternion_demo,
    verify_b_properties,
    verify_prop1,
    verify_prop3,
    wh_program_pair,
)

SEED_ENV = "QML_SEED"
# the largest bound sweep: 100_000 steps of 2e-5 across [-1, 1], 0.41 s as a
# whole run (median of three, one BLAS thread) and a few MB of output; anything
# above exits 2 before any work
MAX_POINTS = 100_001
# the largest verify run: prop1 and prop3 sample in blocks of bounded memory, so
# trials bound their time: 50_000 on the d = 19 phase space take 1.25 s (prop1)
# and 0.68 s (prop3) as whole runs, most of it sampling, and peak at 88 MiB RSS
# under a 1 GiB address-space cap (median of three fresh processes, one BLAS
# thread of a 2-vCPU Xeon VM)
MAX_TRIALS = 50_000
# verify bprops costs about 8 ms per trial, mostly one divergence re-estimate
# per trial for its B4 check: 3000 trials take 22.8 s as a whole run (median of
# three fresh processes, 20.9-24.0 s, one BLAS thread of a 2-vCPU Xeon VM); its
# own cap keeps the longest run under a minute
MAX_BPROPS_TRIALS = 3_000

# scalar keys: a config file sets them, QML_SEED overrides the seed, flags override both
SCALAR_KEYS = (
    "seed", "trials", "out", "dim", "points", "fixture", "e1", "e2", "restarts",
)
# scalar keys whose config-file value must be a JSON integer (true and false are
# not); the others must be strings
INTEGER_KEYS = ("seed", "trials", "dim", "points", "restarts")
CONFIG_KEYS = {"command", "tolerances", *SCALAR_KEYS}
TOLERANCE_KEYS = {"tol_check", "estimator_tol"}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    trials: int = 1000
    tolerances: dict = field(default_factory=dict)
    out: str = None
    dim: int = 3
    points: int = 201
    fixture: str = "random"
    e1: str = None
    e2: str = None
    restarts: int = 32


def _load_config_file(path: str) -> dict:
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict) or set(tols) - TOLERANCE_KEYS:
        raise ConfigError(f"tolerances must map a subset of {sorted(TOLERANCE_KEYS)}")
    for key in SCALAR_KEYS:
        val = doc.get(key)
        kind, name = (int, "an integer") if key in INTEGER_KEYS else (str, "a string")
        if val is not None and (isinstance(val, bool) or not isinstance(val, kind)):
            raise ConfigError(f"config key {key} must be {name}, got {val!r}")
    return doc


def _parse_tol_flags(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        if key not in TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}; known: {sorted(TOLERANCE_KEYS)}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--tol {key} expects a number, got {val!r}") from exc
    return out


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_doc = _load_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command)
    for key in SCALAR_KEYS:
        if key in file_doc and file_doc[key] is not None:
            setattr(cfg, key, file_doc[key])
    cfg.tolerances.update(file_doc.get("tolerances", {}))

    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from exc

    for key in SCALAR_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    cfg.tolerances.update(_parse_tol_flags(getattr(args, "tol", None)))
    for key, val in cfg.tolerances.items():
        try:
            check_tolerance(val, key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg


def _reject_unread_flags(args: argparse.Namespace, cfg: RunConfig):
    """A --seed, --dim or --fixture flag that a demo, verify or bound run would
    not read is a config error. Config-file values and QML_SEED may be shared
    between commands, so only flags are checked."""
    if args.command in ("demo", "bound") and args.seed is not None:
        raise ConfigError(f"--seed is not read by {args.command}")
    if args.command == "bound":
        return
    if args.which == "bprops" and args.fixture is not None:
        raise ConfigError("--fixture is not read by verify bprops")
    reads_dim = args.which == "phase-space" or (
        args.which in ("prop1", "prop3") and cfg.fixture == "phase-space"
    )
    if args.dim is not None and not reads_dim:
        raise ConfigError(
            "--dim is read only by demo phase-space and verify prop1/prop3 --fixture phase-space"
        )


def _emit(cfg: RunConfig, payload: str):
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _require_phase_space_dim(dim: int):
    if not is_prime(dim) or dim > PHASE_SPACE_MAX_DIM:
        raise ConfigError(f"--dim must be a prime <= {PHASE_SPACE_MAX_DIM}, got {dim}")


def _fixture_for(cfg: RunConfig):
    if cfg.fixture == "q8":
        return q8_program_pair()
    if cfg.fixture == "phase-space":
        _require_phase_space_dim(cfg.dim)
        return wh_program_pair(cfg.dim)
    if cfg.fixture == "random":
        return default_random_fixture(cfg.seed)
    raise ConfigError(f"unknown fixture {cfg.fixture!r}")


def _run_demo(cfg: RunConfig, args: argparse.Namespace) -> int:
    _reject_unread_flags(args, cfg)
    which = args.which
    if which == "phase-space":
        _require_phase_space_dim(cfg.dim)
    try:
        doc = quaternion_demo() if which == "q8" else phase_space_demo(cfg.dim)
    except DemoFailure as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    _emit(cfg, json.dumps(doc, indent=2))
    return 0


def _run_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    which = args.which
    cap = MAX_BPROPS_TRIALS if which == "bprops" else MAX_TRIALS
    if not 1 <= cfg.trials <= cap:
        raise ConfigError(f"--trials must lie in [1, {cap}] for {which}, got {cfg.trials}")
    _reject_unread_flags(args, cfg)
    tol = cfg.tolerances.get("tol_check", TOL_CHECK)
    if which == "prop1":
        mm, xi1, xi2, _, _ = _fixture_for(cfg)
        report = verify_prop1(mm, xi1, xi2, trials=cfg.trials, seed=cfg.seed, tol_check=tol)
    elif which == "prop3":
        mm, xi1, xi2, l1, l2 = _fixture_for(cfg)
        report = verify_prop3(mm, xi1, xi2, l1, l2, trials=cfg.trials, seed=cfg.seed, tol_check=tol)
    else:
        rng = np.random.default_rng(cfg.seed)
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        report = verify_b_properties(
            e1,
            e2,
            n=cfg.trials,
            seed=cfg.seed,
            estimator_tol=cfg.tolerances.get("estimator_tol", ESTIMATOR_TOL),
        )
    _emit(cfg, json.dumps(report.to_dict(), indent=2))
    if report.violations:
        print(
            f"{report.check}: {report.violations} violation(s), worst margin {report.worst_margin:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_bound(cfg: RunConfig, args: argparse.Namespace) -> int:
    _reject_unread_flags(args, cfg)
    if not 1 <= cfg.points <= MAX_POINTS:
        raise ConfigError(f"--points must lie in [1, {MAX_POINTS}], got {cfg.points}")
    curve = bound_curve(points=cfg.points)
    _emit(cfg, curve.to_csv())
    return 0


def _run_divergence(cfg: RunConfig) -> int:
    if not 0 <= cfg.restarts <= MAX_RESTARTS:
        raise ConfigError(f"--restarts must lie in [0, {MAX_RESTARTS}], got {cfg.restarts}")
    if not cfg.e1 or not cfg.e2:
        raise ConfigError("divergence needs --e1 and --e2 observable files")
    try:
        e1 = observable_from_json(load_json(cfg.e1))
        e2 = observable_from_json(load_json(cfg.e2))
    # a file of the wrong JSON shape (a list) fails with a TypeError
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load observables: {exc}") from exc
    if e1.dim != e2.dim:
        raise ConfigError(f"observables must share a dimension, got {e1.dim} and {e2.dim}")
    if e1.n_outcomes != e2.n_outcomes:
        raise ConfigError(
            f"observables must share an outcome count, got {e1.n_outcomes} and {e2.n_outcomes}"
        )
    # the library pairs outcomes by position: E2's effects go to E1's label order
    if e2.outcomes != e1.outcomes:
        if set(e2.outcomes) != set(e1.outcomes):
            raise ConfigError(
                f"observables must share their outcome labels, got {e1.outcomes} and {e2.outcomes}"
            )
        order = [e2.outcomes.index(label) for label in e1.outcomes]
        e2 = Observable(e2.effects[order], outcomes=e1.outcomes)
    opts = DivergenceOptions(seed=cfg.seed, restarts=cfg.restarts)
    est = observable_divergence(e1, e2, opts)
    _emit(cfg, json.dumps(estimate_to_json(est), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmultimeter",
        description="Programmable multimeter demos, verification suites, and bound sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (same keys as the flags)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    demo = sub.add_parser("demo", help="run a built-in pipeline end to end")
    demo.add_argument("which", choices=["q8", "phase-space"])
    demo.add_argument("--dim", type=int, default=None, help="prime dimension for phase-space")
    common(demo)

    ver = sub.add_parser("verify", help="run a randomized verification suite")
    ver.add_argument("which", choices=["prop1", "prop3", "bprops"])
    ver.add_argument(
        "--trials", type=int, default=None,
        help=f"randomized trials (default 1000): at most {MAX_TRIALS} for prop1 and prop3; "
        f"at most {MAX_BPROPS_TRIALS} for bprops, which takes about 8 ms per trial "
        "(about 23 s at the cap on one BLAS thread)",
    )
    ver.add_argument(
        "--fixture", choices=["random", "q8", "phase-space"], default=None,
        help="device under test (default: seeded random multimeter)",
    )
    ver.add_argument("--dim", type=int, default=None)
    ver.add_argument("--tol", action="append", metavar="KEY=VALUE")
    common(ver)

    bound = sub.add_parser("bound", help="sweep the sharp-pair programming bound to CSV")
    bound.add_argument("--points", type=int, default=None)
    common(bound)

    div = sub.add_parser("divergence", help="estimate the divergence of two observables")
    div.add_argument("--e1", default=None, help="observable JSON file")
    div.add_argument("--e2", default=None, help="observable JSON file")
    div.add_argument("--restarts", type=int, default=None)
    common(div)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "demo":
            return _run_demo(cfg, args)
        if args.command == "verify":
            return _run_verify(cfg, args)
        if args.command == "bound":
            return _run_bound(cfg, args)
        if args.command == "divergence":
            return _run_divergence(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
