"""Executable verification harness: inequality reports, the sharp-pair bound curve,
and the quaternion / finite-phase-space demonstration pipelines."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .divergence import (
    DivergenceOptions,
    bhattacharyya,
    divergence_ratio,
    observable_divergence,
)
# unused here, but the benchmark tracer (perfbench/tracing.py MINIMIZERS) wraps
# verify.minimize on every traced run; binding the lazy wrapper, not scipy's
# minimize, keeps scipy.optimize out of the package import
from .divergence import minimize  # noqa: F401
from .groups import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    covariant_multimeter,
    eigenvector_program,
    is_prime,
    q8_representation,
    weyl_heisenberg,
    wh_element_index,
)
from .postprocessing import PostProcessing, post_process_observable, pp_fidelity
from .quantum import (
    DensityState,
    Multimeter,
    Observable,
    dual_apply,
    fidelity,
    outcome_distribution,
    program,
)
from .sampling import (
    random_channel,
    random_density,
    random_multimeter,
    random_postprocessing,
    random_povm,
    random_pure_pair,
    random_unitary,
    rng_from,
)

TOL_CHECK = 1e-9
ESTIMATOR_TOL = 2e-3
PHASE_SPACE_MAX_DIM = 19
# elements per (d^2, rows) block of the margin sampler: 8 MiB of real state coordinates
SAMPLE_BLOCK = 1 << 20
# eigenvalues of U(i), U(j), U(k) whose eigenvectors project onto the +axis
Q8_TARGETS = {"i": 1j, "j": -1j, "k": 1j}


class DemoFailure(AssertionError):
    """A demo pipeline identity failed; the message names the identity."""


@dataclass
class VerificationReport:
    check: str
    seed: int
    trials: int
    violations: int
    worst_margin: float
    fixtures: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoundCurve:
    """Sweep of the sharp-pair programming bound against the axis overlap."""

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.ts.shape != self.values.shape:
            raise ValueError("t grid and values must align")
        lo, hi = 1 / np.sqrt(2) - 1e-6, 1.0 + 1e-6
        if self.values.min() < lo or self.values.max() > hi:
            raise ValueError(
                f"bound values escape [{lo}, {hi}]: range "
                f"[{self.values.min()}, {self.values.max()}]"
            )
        sym = np.max(np.abs(self.values - self.values[::-1]))
        if sym > 1e-6:
            raise ValueError(f"bound curve is not symmetric in t (defect {sym:.3e})")

    def to_csv(self) -> str:
        lines = ["t,bound"]
        for t, v in zip(self.ts, self.values):
            lines.append(f"{t:.9g},{v:.9g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized inequality reports


def _effect_coordinates(effects: np.ndarray) -> np.ndarray:
    """Real (n, d^2) coordinates of a Hermitian effect stack: the diagonal, then
    2 Re E_ij and -2 Im E_ij over the upper triangle i < j (``np.triu_indices``
    order), so that <v|E|v> is their dot product with the state coordinates
    built in ``_born_statistics``."""
    d = effects.shape[1]
    first, second = np.triu_indices(d, 1)
    upper = effects[:, first, second]
    diagonal = np.diagonal(effects, axis1=1, axis2=2).real
    return np.concatenate([diagonal, 2 * upper.real, -2 * upper.imag], axis=1)


def _born_statistics(coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clipped (rows, n) statistics <v|E|v> of the effects with real coordinates
    ``coords`` at the pure states in the rows of ``v``.

    A state's coordinates are |v_i|^2, then Re and Im of conj(v_i) v_j for each
    upper-triangle pair i < j. They are built from a (d, rows) copy of ``v``, so
    trials stay on the fast axis, and the pairs (i, j > i) of one i go through
    one scratch buffer, so a block allocates little beyond its coordinates and
    statistics."""
    v = np.ascontiguousarray(v.T)
    d, rows = v.shape
    pairs = d * (d - 1) // 2
    w = np.empty((d * d, rows))
    np.square(v.real, out=w[:d])
    w[:d] += np.square(v.imag)
    cross = np.empty((d - 1, rows), dtype=complex)
    row = d
    for i in range(d - 1):
        c = np.multiply(v[i + 1 :], v[i].conj(), out=cross[: d - 1 - i])
        w[row : row + len(c)] = c.real
        w[pairs + row : pairs + row + len(c)] = c.imag
        row += len(c)
    q = w.T @ coords.T
    return np.maximum(q, 0.0, out=q)


def _integer_seed(seed) -> int:
    """``seed`` as a Python int. A bool, a float, a Generator or any other
    non-integer is refused by type, so the draws are keyed, and the reports
    written, by value."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed)


@functools.lru_cache(maxsize=1)
def _sampled_pairs(seed: int, trials: int, d1: int, d2: int) -> tuple:
    """Seeded random pure pairs: read-only unit rows v1 (trials, d1) and
    v2 (trials, d2), all of v1 drawn first, and their overlaps |<v1|v2>|.

    The last draw is kept, so a ``verify_prop3`` that follows a
    ``verify_prop1`` with the same seed, trials and dimensions reuses it."""
    rng = rng_from(seed)
    vectors = []
    for d in (d1, d2):
        v = rng.standard_normal((trials, d)) + 1j * rng.standard_normal((trials, d))
        vectors.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    f_states = np.abs((vectors[0].conj() * vectors[1]).sum(axis=1))
    for a in (*vectors, f_states):
        a.flags.writeable = False
    return vectors[0], vectors[1], f_states


def _sampled_margins(e1, e2, trials, seed, f_prog, kernels, f_kern) -> np.ndarray:
    """Margins B(q1, q2) - |<v1|v2>| * f_prog * f_kern over seeded random pure
    pairs (v1, v2) from ``_sampled_pairs``, where q_k is the statistics of e_k
    at v_k, relabelled by ``kernels[k]``.

    For a Hermitian effect E the Born rule is one real dot product over d^2
    coordinates:  <v|E|v> = sum_i |v_i|^2 E_ii + sum_{i<j} 2 Re(conj(v_i) v_j) Re E_ij
    - 2 Im(conj(v_i) v_j) Im E_ij.  Each effect stack is written in these
    coordinates once (``_effect_coordinates``); a kernel L is applied to the
    effects first, F_y = sum_x L[x, y] E_x, so the statistics of the relabelled
    outcomes come straight out of the product and are clipped at zero once.
    An identity kernel leaves the coordinates, and so the margins, bit for bit
    unchanged.

    The statistics and margins are computed for blocks of
    ``SAMPLE_BLOCK // max(d^2, outcomes)`` trials, so memory beyond the draws
    does not grow with trials. A block's statistics are one real
    (rows, d^2) by (d^2, outcomes) product per side, in ``_born_statistics``.
    """
    *vectors, f_states = _sampled_pairs(seed, trials, e1.dim, e2.dim)
    width = max(max(e.dim**2, e.n_outcomes) for e in (e1, e2))
    rows = max(1, SAMPLE_BLOCK // width)
    coords = [kern.kernel.T @ _effect_coordinates(e.effects) for kern, e in zip(kernels, (e1, e2))]
    margins = np.empty(trials)
    for lo in range(0, trials, rows):
        q = _born_statistics(coords[0], vectors[0][lo : lo + rows])
        q *= _born_statistics(coords[1], vectors[1][lo : lo + rows])
        margins[lo : lo + rows] = np.sqrt(q, out=q).sum(axis=1)
    return margins - f_states * f_prog * f_kern


def _margin_report(check, seed, margins, tol_check, fixtures, t0):
    return VerificationReport(
        check=check,
        seed=seed,
        trials=len(margins),
        violations=int(np.sum(margins < -tol_check)),
        worst_margin=float(margins.min()) if len(margins) else 0.0,
        fixtures=fixtures,
        elapsed=time.perf_counter() - t0,
    )


def _programmed_margins(multimeter, xi1, xi2, l1, l2, trials, seed) -> tuple:
    """Margins of the post-processing assisted bound on seeded random pure pairs,
    with the program and kernel fidelities; kernel shapes are checked first."""
    n_pointer = multimeter.n_outcomes
    if l1.n_in != n_pointer or l2.n_in != n_pointer:
        raise ValueError("kernel input size must match the pointer outcome count")
    if l1.n_out != l2.n_out:
        raise ValueError("kernels must produce the same number of outputs")
    e1 = program(multimeter, xi1)
    e2 = program(multimeter, xi2)
    f_prog = fidelity(xi1, xi2)
    f_kern = pp_fidelity(l1, l2)
    margins = _sampled_margins(e1, e2, trials, seed, f_prog, (l1, l2), f_kern)
    return margins, f_prog, f_kern


def verify_prop1(
    multimeter: Multimeter,
    xi1: DensityState,
    xi2: DensityState,
    trials: int,
    seed: int = 0,
    tol_check: float = TOL_CHECK,
) -> VerificationReport:
    """Check the programming bound: state fidelity times program fidelity never
    exceeds the Bhattacharyya overlap of the programmed outcome statistics.

    This is the post-processing assisted bound with the identity relabelling on
    both sides, whose kernel fidelity is 1."""
    t0 = time.perf_counter()
    seed = _integer_seed(seed)
    ident = PostProcessing.identity(multimeter.n_outcomes)
    margins, f_prog, _ = _programmed_margins(multimeter, xi1, xi2, ident, ident, trials, seed)
    fixtures = {
        "program_fidelity": f_prog,
        "system_dim": multimeter.system_dim,
        "pointer_outcomes": multimeter.n_outcomes,
        "tol_check": tol_check,
    }
    return _margin_report("prop1", seed, margins, tol_check, fixtures, t0)


def verify_prop3(
    multimeter: Multimeter,
    xi1: DensityState,
    xi2: DensityState,
    l1: PostProcessing,
    l2: PostProcessing,
    trials: int,
    seed: int = 0,
    tol_check: float = TOL_CHECK,
) -> VerificationReport:
    """Check the post-processing assisted bound with the kernel fidelity folded in."""
    t0 = time.perf_counter()
    seed = _integer_seed(seed)
    margins, f_prog, f_kern = _programmed_margins(multimeter, xi1, xi2, l1, l2, trials, seed)
    fixtures = {
        "program_fidelity": f_prog,
        "kernel_fidelity": f_kern,
        "system_dim": multimeter.system_dim,
        "kernel_outputs": l1.n_out,
        "tol_check": tol_check,
    }
    return _margin_report("prop3", seed, margins, tol_check, fixtures, t0)


def verify_povm_bound(dim: int, trials: int, seed: int = 0) -> VerificationReport:
    """Outcome-statistics overlap of a shared observable never undercuts state fidelity."""
    t0 = time.perf_counter()
    rng = rng_from(seed)
    margins = np.empty(trials)
    for i in range(trials):
        n_out = int(rng.integers(2, dim + 3))
        e = random_povm(rng, dim, n_out)
        rho1 = random_density(rng, dim)
        rho2 = random_density(rng, dim)
        b = bhattacharyya(outcome_distribution(e, rho1), outcome_distribution(e, rho2))
        margins[i] = b - fidelity(rho1, rho2)
    fixtures = {"dim": dim, "tol_check": TOL_CHECK}
    return _margin_report("povm_bound", seed, margins, TOL_CHECK, fixtures, t0)


def verify_b_properties(
    e1: Observable,
    e2: Observable,
    n: int = 200,
    seed: int = 0,
    estimator_tol: float = ESTIMATOR_TOL,
) -> VerificationReport:
    """Battery over the divergence estimator: symmetry, no sampled pair below the
    estimate, equality case, unitary invariance, and the pointwise channel /
    kernel monotonicity surrogates."""
    t0 = time.perf_counter()
    opts = DivergenceOptions(seed=seed)
    # the conjugated re-estimates start from every eigenvector-candidate row
    # and converge with a short polish; full restarts add time, not accuracy
    conj_opts = DivergenceOptions(seed=seed, restarts=4, maxiter=600)
    rng = rng_from(seed)
    d = e1.dim
    checks: dict = {}
    violations = 0
    margins = []

    est12 = observable_divergence(e1, e2, opts)
    est21 = observable_divergence(e2, e1, opts)

    # B1: estimator symmetric under swapping the observables
    b1_diff = abs(est12.value - est21.value)
    checks["b1_swap_difference"] = b1_diff
    margins.append(estimator_tol - b1_diff)
    violations += b1_diff >= estimator_tol

    # B2: no sampled pure pair beats the estimate by more than the estimator
    # tolerance (observable_divergence clamps the estimate into [0, 1] itself)
    checks["b2_estimate"] = est12.value
    b2_min = np.inf
    for _ in range(n):
        v1, v2 = random_pure_pair(rng, d)
        r = divergence_ratio(e1, e2, DensityState.from_vector(v1), DensityState.from_vector(v2))
        b2_min = min(b2_min, r)
    checks["b2_min_sampled_ratio"] = b2_min
    b2_margin = b2_min - (est12.value - estimator_tol)
    margins.append(b2_margin)
    violations += b2_margin < 0.0

    # B3: equality case only; distinctness is exercised by the sharp-pair suites
    if e1.allclose(e2):
        checks["b3_equal_estimate"] = est12.value
        margins.append(est12.value - (1.0 - estimator_tol))
        violations += est12.value < 1.0 - estimator_tol
    else:
        checks["b3_equal_estimate"] = None

    # B4: unitary conjugation of both observables leaves the estimate unchanged
    b4_worst = 0.0
    for _ in range(n):
        u = random_unitary(rng, d)
        est_u = observable_divergence(e1.conjugated(u), e2.conjugated(u), conj_opts)
        b4_worst = max(b4_worst, abs(est_u.value - est12.value))
    checks["b4_worst_difference"] = b4_worst
    margins.append(estimator_tol - b4_worst)
    violations += b4_worst >= estimator_tol

    # B5 surrogate: ratios of channel-pulled-back observables stay above the estimate
    b5_worst = np.inf
    for _ in range(n):
        ch = random_channel(rng, d, n_kraus=int(rng.integers(1, 4)))
        d1 = dual_apply(ch, e1)
        d2 = dual_apply(ch, e2)
        v1, v2 = random_pure_pair(rng, d)
        r = divergence_ratio(
            d1, d2, DensityState.from_vector(v1), DensityState.from_vector(v2)
        )
        b5_worst = min(b5_worst, r - (est12.value - estimator_tol))
    checks["b5_worst_margin"] = b5_worst
    margins.append(b5_worst)
    violations += b5_worst < 0.0

    # B6 surrogate: classical relabeling never decreases the statistics overlap
    b6_worst = np.inf
    for _ in range(n):
        v1, v2 = random_pure_pair(rng, d)
        p1 = outcome_distribution(e1, DensityState.from_vector(v1))
        p2 = outcome_distribution(e2, DensityState.from_vector(v2))
        kern = random_postprocessing(rng, e1.n_outcomes, int(rng.integers(1, e1.n_outcomes + 2)))
        lhs = bhattacharyya(p1 @ kern.kernel, p2 @ kern.kernel)
        b6_worst = min(b6_worst, lhs - bhattacharyya(p1, p2) + 1e-12)
    checks["b6_worst_margin"] = b6_worst
    margins.append(b6_worst)
    violations += b6_worst < 0.0
    checks["estimator_tol"] = estimator_tol

    return VerificationReport(
        check="b_properties",
        seed=seed,
        trials=n,
        violations=int(violations),
        worst_margin=float(min(margins)),
        fixtures=checks,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the sharp-pair programming bound


def sharpmin_bound(t: float) -> float:
    """Upper bound on the program fidelity for two sharp qubit targets whose
    axes have overlap ``t``, maximized over the four-parameter splitting table.

    The maximum is attained at the balanced splitting
    a = c = 1 - b = 1 - e = sqrt(1 + t) / (sqrt(1 + t) + sqrt(1 - t)), where all
    four terms of the minimum agree: sqrt(2) / (sqrt(1 + t) + sqrt(1 - t)).
    ``tests/oracles.sharpmin_oracle`` maximizes the table numerically as a check.
    """
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"axis overlap must lie in [-1, 1], got {t}")
    return math.sqrt(2.0) / (math.sqrt(1.0 + t) + math.sqrt(1.0 - t))


def bound_curve(points: int = 201) -> BoundCurve:
    ts = np.linspace(-1.0, 1.0, points)
    return BoundCurve(ts, np.array([sharpmin_bound(float(t)) for t in ts]))


# ---------------------------------------------------------------------------
# demonstration pipelines


def _check(condition: bool, identity: str):
    if not condition:
        raise DemoFailure(f"identity failed: {identity}")


def quaternion_demo() -> dict:
    """Program the three complementary qubit measurements with pairwise
    non-orthogonal probe states and verify the overlap saturates the bound."""
    t0 = time.perf_counter()
    rep = q8_representation()
    mm = covariant_multimeter(rep)

    plan = [("i", PAULI_X), ("j", PAULI_Y), ("k", PAULI_Z)]
    vectors = {}
    pvms = {}
    for name, pauli in plan:
        gen = rep.group.names.index(name)
        psi, probe, kern, _ = eigenvector_program(rep, gen, Q8_TARGETS[name])
        vectors[name] = psi
        proj = np.outer(psi, psi.conj())
        _check(
            float(np.max(np.abs(proj - (np.eye(2) + pauli) / 2))) <= 1e-9,
            f"programming projection for <{name}> equals (1 + sigma_{name})/2",
        )
        sharp = post_process_observable(kern, program(mm, probe))
        expected = [(np.eye(2) + pauli) / 2, (np.eye(2) - pauli) / 2]
        for eff, exp in zip(sharp.effects, expected):
            _check(
                float(np.max(np.abs(eff - exp))) <= 1e-9,
                f"coset-merged observable for <{name}> is the sigma_{name} PVM",
            )
        pvms[name] = sharp

    names = [p[0] for p in plan]
    fund = 1 / np.sqrt(2)
    fids = {}
    overlaps = []
    for i in range(3):
        for j in range(i + 1, 3):
            f = fidelity(
                DensityState.from_vector(vectors[names[i]]),
                DensityState.from_vector(vectors[names[j]]),
            )
            fids[f"{names[i]}{names[j]}"] = f
            _check(abs(f - fund) <= 1e-10, f"program fidelity F(psi_{names[i]}, psi_{names[j]}) = 1/sqrt(2)")
            overlaps.append(abs(np.vdot(vectors[names[i]], vectors[names[j]])))
    _check(max(overlaps) - min(overlaps) <= 1e-10, "gram matrix off-diagonals share a modulus")

    bound0 = sharpmin_bound(0.0)
    _check(abs(bound0 - fund) <= 1e-6, "bound at orthogonal axes equals 1/sqrt(2)")

    from .serialize import matrix_to_json

    return {
        "check": "quaternion_demo",
        "pvms": {
            name: [matrix_to_json(eff) for eff in obs.effects] for name, obs in pvms.items()
        },
        "program_fidelities": fids,
        "gram_offdiag_modulus": overlaps[0],
        "bound_at_zero": bound0,
        "bound_tightness_gap": abs(bound0 - fund),
        "elapsed": time.perf_counter() - t0,
    }


def phase_space_demo(d: int) -> dict:
    """Build the prime-dimension displacement multimeter, derive the d+1
    mutually unbiased programming vectors, and sharpen each programmed
    observable by its coset merging."""
    if not is_prime(d):
        raise ValueError(f"dimension must be prime, got {d}")
    if d > PHASE_SPACE_MAX_DIM:
        raise ValueError(f"demo is desk scale only (d <= {PHASE_SPACE_MAX_DIM}), got {d}")
    t0 = time.perf_counter()
    rep = weyl_heisenberg(d)
    mm = covariant_multimeter(rep)
    omega = np.exp(2j * np.pi / d)

    generators = [(0, 1)] + [(1, k) for k in range(d)]
    targets = [1.0 + 0j] + [omega] * d
    vectors, probes, kernels = [], [], []
    target_missing = []
    for (x, y), target in zip(generators, targets):
        psi, probe, kern, exact = eigenvector_program(rep, wh_element_index(d, x, y), target)
        if not exact:
            # at d = 2 the closed-form coefficients degenerate and the
            # canonical target is no eigenvalue; the fallback is recorded
            target_missing.append(f"({x},{y})")
        vectors.append(psi)
        probes.append(probe)
        kernels.append(kern)

    unbiased = 1 / np.sqrt(d)
    worst_overlap_gap = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            gap = abs(abs(np.vdot(vectors[i], vectors[j])) - unbiased)
            worst_overlap_gap = max(worst_overlap_gap, gap)
            _check(
                gap <= 1e-8,
                f"|<psi_{generators[i]}|psi_{generators[j]}>| = 1/sqrt({d})",
            )

    worst_idem = 0.0
    worst_orth = 0.0
    first, second = np.triu_indices(d, 1)
    for (x, y), probe, kern in zip(generators, probes, kernels):
        sharp = post_process_observable(kern, program(mm, probe))
        _check(sharp.n_outcomes == d, f"coset merging of <({x},{y})> has {d} outcomes")
        e = sharp.effects
        worst_idem = max(worst_idem, float(np.max(np.abs(e @ e - e))))
        traces = np.trace(e, axis1=1, axis2=2).real
        _check(bool(np.all(np.abs(traces - 1.0) <= 1e-8)), "effects are rank one")
        worst_orth = max(worst_orth, float(np.max(np.abs(e[first] @ e[second]))))
        _check(worst_idem <= 1e-8, f"merged effects for <({x},{y})> are idempotent")
        _check(worst_orth <= 1e-8, f"merged effects for <({x},{y})> are mutually orthogonal")

    return {
        "check": "phase_space_demo",
        "dim": d,
        "vector_count": len(vectors),
        "unbiased_overlap": unbiased,
        "worst_overlap_gap": worst_overlap_gap,
        "worst_idempotency_defect": worst_idem,
        "worst_orthogonality_defect": worst_orth,
        "canonical_eigenvalue_missing": target_missing,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# stock fixtures for the randomized reports


def q8_program_pair() -> tuple:
    """The quaternion multimeter with probe states programming the i and k axes."""
    rep = q8_representation()
    _, xi1, l1, _ = eigenvector_program(rep, rep.group.names.index("i"), Q8_TARGETS["i"])
    _, xi2, l2, _ = eigenvector_program(rep, rep.group.names.index("k"), Q8_TARGETS["k"])
    return covariant_multimeter(rep), xi1, xi2, l1, l2


def wh_program_pair(d: int = 3) -> tuple:
    """The phase-space multimeter with probe states from two unbiased subgroups."""
    rep = weyl_heisenberg(d)
    _, xi1, l1, _ = eigenvector_program(rep, wh_element_index(d, 0, 1), 1.0 + 0j)
    _, xi2, l2, _ = eigenvector_program(rep, wh_element_index(d, 1, 0), np.exp(2j * np.pi / d))
    return covariant_multimeter(rep), xi1, xi2, l1, l2


def default_random_fixture(seed: int = 0) -> tuple:
    """Random qubit multimeter with a 4-dimensional probe, plus a random
    probe-state pair and kernel pair."""
    rng = rng_from(seed)
    mm = random_multimeter(rng, 2, 4)
    xi1 = random_density(rng, mm.probe_dim)
    xi2 = random_density(rng, mm.probe_dim)
    n_out = int(rng.integers(2, mm.pointer.n_outcomes + 1))
    l1 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
    l2 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
    return mm, xi1, xi2, l1, l2
