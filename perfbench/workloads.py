"""The benchmark's workloads: fixtures, seeded per-op inputs, the op, and its check.

Every call into the package goes through a module attribute looked up at call
time (``verify.phase_space_demo``, not a name imported here), so the tracer's
wrappers see it. Inputs come from ``numpy.random.default_rng([seed, i])`` for
op ``i`` and are built before the op's timer starts; op 0 is the warm-up.
"""

from __future__ import annotations

import math

import numpy as np

from qmultimeter import divergence, groups, sampling, verify

PHASE_SPACE_DIM = 7
PROGRAM_TRIALS = 5000
DEMO_DEFECT_TOL = 1e-8
BOUND_TOL = 1e-6
BPROPS_SEED = 0


class PhaseSpaceCold:
    """``demo phase-space --dim 7``: a new covariant multimeter per op, so the
    cache of dual pointer effects is always cold and programming dominates."""

    name = "phase_space_cold"
    window = 2

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int):
        return PHASE_SPACE_DIM

    def op(self, d):
        return verify.phase_space_demo(d)

    def check(self, d, out) -> bool:
        defects = (out["worst_overlap_gap"], out["worst_idempotency_defect"],
                   out["worst_orthogonality_defect"])
        return out["vector_count"] == d + 1 and max(defects) <= DEMO_DEFECT_TOL


class ProgramWarm:
    """Many programs on one warm d=7 device: ``verify_prop1`` and ``verify_prop3``
    for a fresh probe-state pair and kernel pair per op."""

    name = "program_warm"
    window = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.device = groups.covariant_multimeter(groups.weyl_heisenberg(PHASE_SPACE_DIM))
        self.device.dual_pointer_effects()

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        probe = self.device.probe_dim
        outcomes = self.device.pointer.n_outcomes
        return (
            sampling.random_density(rng, probe),
            sampling.random_density(rng, probe),
            sampling.random_postprocessing(rng, outcomes, PHASE_SPACE_DIM),
            sampling.random_postprocessing(rng, outcomes, PHASE_SPACE_DIM),
            int(rng.integers(2**31)),
        )

    def op(self, args):
        xi1, xi2, l1, l2, trial_seed = args
        r1 = verify.verify_prop1(self.device, xi1, xi2, trials=PROGRAM_TRIALS, seed=trial_seed)
        r3 = verify.verify_prop3(self.device, xi1, xi2, l1, l2, trials=PROGRAM_TRIALS, seed=trial_seed)
        return r1, r3

    def check(self, args, out) -> bool:
        return all(r.violations == 0 and r.trials == PROGRAM_TRIALS for r in out)


class DivergenceB4:
    """The B4 re-estimate of ``verify bprops``: a conjugated qubit POVM pair
    estimated with 4 restarts; Nelder-Mead does the work."""

    name = "divergence_b4"
    window = 4

    def __init__(self, seed: int):
        self.seed = seed
        # The pair is the one ``verify bprops`` builds at its default seed, for
        # every --seed; only the unitaries and estimator seeds vary. A pair
        # drawn from --seed moved the median op time by 9% across five seeds,
        # which is the pair's cost profile, not run-to-run noise.
        rng = np.random.default_rng(BPROPS_SEED)
        self.e1 = sampling.random_povm(rng, 2, 3)
        self.e2 = sampling.random_povm(rng, 2, 3)
        # the reference uses the default options, as verify_b_properties does
        ref_opts = divergence.DivergenceOptions(seed=BPROPS_SEED)
        self.reference = divergence.observable_divergence(self.e1, self.e2, ref_opts).value

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        u = sampling.random_unitary(rng, 2)
        opts = divergence.DivergenceOptions(seed=int(rng.integers(2**31)), restarts=4, maxiter=600)
        return u, opts

    def op(self, args):
        u, opts = args
        return divergence.observable_divergence(self.e1.conjugated(u), self.e2.conjugated(u), opts)

    def check(self, args, out) -> bool:
        return abs(out.value - self.reference) < verify.ESTIMATOR_TOL


class BoundSweep:
    """``sharpmin_bound(t)`` at seeded t in [-1, 1]: the lattice scan plus
    Nelder-Mead refinement, checked against the closed form."""

    name = "bound_sweep"
    window = 8

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int):
        return float(np.random.default_rng([self.seed, i]).uniform(-1.0, 1.0))

    def op(self, t):
        return verify.sharpmin_bound(t)

    def check(self, t, out) -> bool:
        closed_form = math.sqrt(2.0) / (math.sqrt(1.0 + t) + math.sqrt(1.0 - t))
        return abs(out - closed_form) <= BOUND_TOL


WORKLOADS = {w.name: w for w in (PhaseSpaceCold, ProgramWarm, DivergenceB4, BoundSweep)}
