"""Executable verification harness: inequality reports, the sharp-pair bound curve,
and the quaternion / finite-phase-space demonstration pipelines."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .divergence import (
    DivergenceOptions,
    bhattacharyya,
    checked_integer,
    divergence_ratio,
    observable_divergence,
)
# unused here, but the benchmark tracer (perfbench/tracing.py MINIMIZERS) wraps
# verify.minimize on every traced run, so verify binds the divergence L-BFGS
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
    block_items,
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
)

TOL_CHECK = 1e-9
ESTIMATOR_TOL = 2e-3
PHASE_SPACE_MAX_DIM = 19
# elements per (d^2, rows) block of the margin sampler: 512 KiB of real state
# coordinates, so a block's temporaries stay in cache
SAMPLE_BLOCK = 1 << 16
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
    fixtures: dict
    elapsed: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoundCurve:
    """Sweep of the sharp-pair programming bound against the axis overlap."""

    ts: np.ndarray
    values: np.ndarray

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


def check_tolerance(value, name: str):
    """Refuse a tolerance that is a bool, not an int or float, or not finite:
    a NaN slack makes every margin comparison False, so nothing could fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"tolerance {name} must be a finite number, got {value!r}")


def _trial_count(count, name: str) -> int:
    """``count`` as a Python int of at least 1: no check passes unsampled."""
    count = checked_integer(count, name)
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return count


@functools.lru_cache(maxsize=1)
def _sampled_pairs(seed: int, trials: int, d1: int, d2: int) -> tuple:
    """Seeded random pure pairs: read-only unit rows v1 (trials, d1) and
    v2 (trials, d2), all of v1 drawn first, and their overlaps |<v1|v2>|.

    The last draw is kept, so a ``verify_prop3`` that follows a
    ``verify_prop1`` with the same seed, trials and dimensions reuses it."""
    rng = np.random.default_rng(seed)
    vectors = []
    for d in (d1, d2):
        # filled in place, bit for bit the sum a + 1j * b of the two draws
        v = np.empty((trials, d), dtype=complex)
        v.real = rng.standard_normal((trials, d))
        v.imag = rng.standard_normal((trials, d))
        # complex / real is a multiply of both parts by the reciprocal in
        # numpy, so scaling the float view by it is bit for bit that division
        parts = v.view(float)
        parts *= 1.0 / np.linalg.norm(v, axis=1, keepdims=True)
        vectors.append(v)
    f_states = np.abs((vectors[0].conj() * vectors[1]).sum(axis=1))
    for a in (*vectors, f_states):
        a.flags.writeable = False
    return vectors[0], vectors[1], f_states


def _sampled_margins(e1, e2, trials, seed, f_prog, kernels=None, f_kern=1.0) -> np.ndarray:
    """Margins B(q1, q2) - |<v1|v2>| * f_prog * f_kern over seeded random pure
    pairs (v1, v2) from ``_sampled_pairs``, where q_k is the statistics of e_k
    at v_k, relabelled by ``kernels[k]`` when kernels are given.

    For a Hermitian effect E the Born rule is one real dot product over d^2
    coordinates:  <v|E|v> = sum_i |v_i|^2 E_ii + sum_{i<j} 2 Re(conj(v_i) v_j) Re E_ij
    - 2 Im(conj(v_i) v_j) Im E_ij.  Each effect stack is written in these
    coordinates once (``_effect_coordinates``); a kernel L is applied to the
    effects first, F_y = sum_x L[x, y] E_x, so the statistics of the relabelled
    outcomes come straight out of the product and are clipped at zero once.
    Without kernels the effect coordinates are used as they are, which is
    bit for bit what identity kernels give.

    The statistics and margins are computed for blocks of
    ``SAMPLE_BLOCK // max(d^2, outcomes)`` trials, so memory beyond the draws
    does not grow with trials. A block's statistics are one real
    (rows, d^2) by (d^2, outcomes) product per side, in ``_born_statistics``.
    """
    *vectors, f_states = _sampled_pairs(seed, trials, e1.dim, e2.dim)
    width = max(max(e.dim**2, e.n_outcomes) for e in (e1, e2))
    rows = max(1, SAMPLE_BLOCK // width)
    coords = [_effect_coordinates(e.effects) for e in (e1, e2)]
    if kernels is not None:
        coords = [kern.kernel.T @ c for kern, c in zip(kernels, coords)]
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
        worst_margin=float(margins.min()),
        fixtures=fixtures,
        elapsed=time.perf_counter() - t0,
    )


@functools.lru_cache(maxsize=1)
def _programmed_pair(multimeter: Multimeter, xi1: DensityState, xi2: DensityState) -> tuple:
    """The observables (e1, e2) that ``multimeter`` realizes with probe states
    ``xi1`` and ``xi2``, and the program fidelity F(xi1, xi2).

    The last pair is kept, so a ``verify_prop3`` that follows a
    ``verify_prop1`` on the same device and probe states reuses it. The key is
    object identity: devices and states hash by identity and keep read-only
    arrays, and the cache holds its key alive, so no id is reused while it
    is cached. An equal state in another object is programmed anew."""
    e1 = program(multimeter, xi1)
    e2 = program(multimeter, xi2)
    return e1, e2, fidelity(xi1, xi2)


def _programmed_margins(multimeter, xi1, xi2, trials, seed, kernels=None) -> tuple:
    """Margins of the post-processing assisted bound on seeded random pure pairs,
    with the program and kernel fidelities; the shapes of the two ``kernels``,
    when given, are checked first. Without kernels the outcomes are kept as
    they are, the identity relabelling, whose kernel fidelity is 1."""
    f_kern = 1.0
    if kernels is not None:
        l1, l2 = kernels
        n_pointer = multimeter.n_outcomes
        if l1.n_in != n_pointer or l2.n_in != n_pointer:
            raise ValueError("kernel input size must match the pointer outcome count")
        if l1.n_out != l2.n_out:
            raise ValueError("kernels must produce the same number of outputs")
        f_kern = pp_fidelity(l1, l2)
    e1, e2, f_prog = _programmed_pair(multimeter, xi1, xi2)
    margins = _sampled_margins(e1, e2, trials, seed, f_prog, kernels, f_kern)
    return margins, f_prog, f_kern


def verify_prop1(
    multimeter: Multimeter,
    xi1: DensityState,
    xi2: DensityState,
    trials: int,
    seed: int,
    tol_check: float = TOL_CHECK,
) -> VerificationReport:
    """Check the programming bound: state fidelity times program fidelity never
    exceeds the Bhattacharyya overlap of the programmed outcome statistics.

    This is the post-processing assisted bound with the identity relabelling on
    both sides, whose kernel fidelity is 1."""
    t0 = time.perf_counter()
    seed = checked_integer(seed, "seed")
    trials = _trial_count(trials, "trials")
    check_tolerance(tol_check, "tol_check")
    margins, f_prog, _ = _programmed_margins(multimeter, xi1, xi2, trials, seed)
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
    seed: int,
    tol_check: float = TOL_CHECK,
) -> VerificationReport:
    """Check the post-processing assisted bound with the kernel fidelity folded in."""
    t0 = time.perf_counter()
    seed = checked_integer(seed, "seed")
    trials = _trial_count(trials, "trials")
    check_tolerance(tol_check, "tol_check")
    margins, f_prog, f_kern = _programmed_margins(multimeter, xi1, xi2, trials, seed, (l1, l2))
    fixtures = {
        "program_fidelity": f_prog,
        "kernel_fidelity": f_kern,
        "system_dim": multimeter.system_dim,
        "kernel_outputs": l1.n_out,
        "tol_check": tol_check,
    }
    return _margin_report("prop3", seed, margins, tol_check, fixtures, t0)


def verify_povm_bound(dim: int, trials: int, seed: int) -> VerificationReport:
    """Outcome-statistics overlap of a shared observable never undercuts state fidelity."""
    t0 = time.perf_counter()
    seed = checked_integer(seed, "seed")
    trials = _trial_count(trials, "trials")
    rng = np.random.default_rng(seed)
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
    n: int,
    seed: int,
    estimator_tol: float = ESTIMATOR_TOL,
) -> VerificationReport:
    """Battery over the divergence estimator: symmetry, no sampled pair below the
    estimate, equality case, unitary invariance, and the pointwise channel /
    kernel monotonicity surrogates."""
    t0 = time.perf_counter()
    seed = checked_integer(seed, "seed")
    n = _trial_count(n, "n")
    check_tolerance(estimator_tol, "estimator_tol")
    opts = DivergenceOptions(seed=seed)
    # the conjugated re-estimates start from every eigenvector-candidate row
    # and converge with a short polish; full restarts add time, not accuracy
    conj_opts = DivergenceOptions(seed=seed, restarts=4, maxiter=600)
    rng = np.random.default_rng(seed)
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


def bound_curve(points: int) -> BoundCurve:
    """``sharpmin_bound`` at ``points`` evenly spaced axis overlaps in [-1, 1];
    ``points`` is checked first, as ``_trial_count`` says."""
    ts = np.linspace(-1.0, 1.0, _trial_count(points, "points"))
    return BoundCurve(ts, np.array([sharpmin_bound(float(t)) for t in ts]))


# ---------------------------------------------------------------------------
# demonstration pipelines


def _check(condition: bool, identity: str, *args):
    """Raise ``DemoFailure`` naming ``identity.format(*args)`` unless
    ``condition`` holds; the name is formatted only for a failure."""
    if not condition:
        raise DemoFailure("identity failed: " + identity.format(*args))


def quaternion_demo() -> dict:
    """Program the three complementary qubit measurements with pairwise
    non-orthogonal probe states and verify the overlap saturates the bound."""
    t0 = time.perf_counter()
    rep = q8_representation()
    mm = covariant_multimeter(rep)

    plan = [("i", PAULI_X), ("j", PAULI_Y), ("k", PAULI_Z)]
    gens = [rep.group.names.index(name) for name, _ in plan]
    programs = eigenvector_program(rep, gens, [Q8_TARGETS[name] for name, _ in plan])
    vectors = {}
    pvms = {}
    for (name, pauli), (psi, probe, kern, _) in zip(plan, programs):
        vectors[name] = psi
        proj = np.outer(psi, psi.conj())
        _check(
            float(np.max(np.abs(proj - (np.eye(2) + pauli) / 2))) <= 1e-9,
            "programming projection for <{0}> equals (1 + sigma_{0})/2",
            name,
        )
        sharp = post_process_observable(kern, program(mm, probe))
        expected = [(np.eye(2) + pauli) / 2, (np.eye(2) - pauli) / 2]
        for eff, exp in zip(sharp.effects, expected):
            _check(
                float(np.max(np.abs(eff - exp))) <= 1e-9,
                "coset-merged observable for <{0}> is the sigma_{0} PVM",
                name,
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
            _check(
                abs(f - fund) <= 1e-10,
                "program fidelity F(psi_{}, psi_{}) = 1/sqrt(2)",
                names[i],
                names[j],
            )
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


def _sharp_defects(factors: np.ndarray) -> tuple:
    """Bounds that certify the effects E_x = A_x A_x^dagger of the (..., k, d, s)
    factors A_x as mutually orthogonal rank-one projectors,
    in O(k s d + k^2 d) work per leading index: the largest, over x and over
    pairs x < y, of bounds on ||E_x - c_x c_x^dagger|| for a column c_x, on
    |E_x E_x - E_x| and on |E_x E_y|, all spectral norms, which bound every
    entry. A stack gives the three bounds of each of its leading indices; a
    plain (k, d, s) input gives three scalars.

    Each A_x is compressed to one column c_x = u |b|, with u its largest
    column made unit and b = A_x^dagger u. With R = A_x - u b^dagger, so that
    u^dagger R = 0, E_x - c_x c_x^dagger = u b^dagger R^dagger + R b u^dagger
    + R R^dagger, of norm at most delta_x = |R|_F (2 |b| + |R|_F). With
    G = V^dagger V, V = [c_1 ... c_k], one Gram product, E_x^2 - E_x is
    (G_xx - 1) c_x c_x^dagger plus terms in Delta_x = E_x - c_x c_x^dagger,
    at most |G_xx - 1| G_xx + delta_x (2 G_xx + 1 + delta_x), and E_x E_y is
    G_xy c_x c_y^dagger plus such terms, at most
    |G_xy| |c_x| |c_y| + G_xx delta_y + delta_x (G_yy + delta_y).
    Each bound adds (d + 2 s) eps for the rounding of G and of the effects
    built from their factors (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). A zero factor gives NaN bounds, which fail every check.
    The per-effect steps run once on every effect of the stack, flattened to
    (n, d, s), and give each effect the bits it gets alone; the Gram products
    are one batched product.
    """
    *lead, k, d, s = factors.shape
    flat = factors.reshape(-1, d, s)
    rows = np.arange(len(flat))
    norms = np.einsum("kds,kds->ks", flat.conj(), flat).real
    pivot = norms.argmax(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = flat[rows, :, pivot] / np.sqrt(norms[rows, pivot])[:, None]
    b = np.einsum("kd,kds->ks", u.conj(), flat)
    residual = flat - u[:, :, None] * b[:, None, :]
    r = np.sqrt(np.einsum("kds,kds->k", residual.conj(), residual).real)
    mu = np.einsum("ks,ks->k", b.conj(), b).real
    size = np.sqrt(mu)
    delta, c = r * (2 * size + r), u * size[:, None]
    delta, mu, size = (a.reshape(*lead, k) for a in (delta, mu, size))
    c = c.reshape(*lead, k, d)
    gram = c.conj() @ c.swapaxes(-1, -2)
    idem = np.abs(gram.diagonal(0, -2, -1).real - 1.0) * mu + delta * (2 * mu + 1 + delta)
    orth = np.abs(gram) * (size[..., :, None] * size[..., None, :])
    orth += mu[..., :, None] * delta[..., None, :]
    orth += delta[..., :, None] * (mu + delta)[..., None, :]
    # the pairs x != y; the bound is symmetric in them
    orth[..., np.arange(k), np.arange(k)] = 0.0
    slack = (d + 2 * s) * np.finfo(float).eps
    return delta.max(-1), idem.max(-1) + slack, orth.max((-2, -1)) + slack


def phase_space_demo(d: int) -> dict:
    """Build the prime-dimension displacement multimeter, derive the d+1
    mutually unbiased programming vectors, and sharpen each programmed
    observable by its coset merging.

    Each vector is built, programmed and merged in one pass. Its probe is
    kept as its factors and its merged effects as their Gram factors, so no
    d^2 x d^2 matrix and no effect is built. ``_sharp_defects`` certifies the
    factors as orthogonal rank-one projectors in stacks of as many vectors as
    ``block_items`` allows (all d + 1 up to d = 11), and every overlap comes
    from one Gram product of the vectors. The checks then run vector by
    vector: the overlaps with the earlier vectors, the outcome count, the
    three bounds. So a failure names the first identity in that order. A
    vector with the wrong outcome count ends the pass, since its factors
    cannot join a stack."""
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
    unbiased = 1 / np.sqrt(d)
    vectors, counts, stack, defects = [], [], [], []
    target_missing = []
    programs = eigenvector_program(rep, [wh_element_index(d, x, y) for x, y in generators], targets)
    for (x, y), (psi, probe, kern, exact) in zip(generators, programs):
        if not exact:
            # at d = 2 the closed-form coefficients degenerate and the
            # canonical target is no eigenvalue; the fallback is recorded
            target_missing.append(f"({x},{y})")
        vectors.append(psi)
        sharp = post_process_observable(kern, program(mm, probe))
        counts.append(sharp.n_outcomes)
        if sharp.n_outcomes != d:
            break
        stack.append(sharp._factors)
        if len(stack) == block_items(sharp._factors.size):
            defects += zip(*_sharp_defects(np.array(stack)))
            stack = []
    if stack:
        defects += zip(*_sharp_defects(np.array(stack)))

    gram = np.conj(vectors) @ np.transpose(vectors)
    # np.hypot rounds as abs() of one complex scalar; the array np.abs does not
    gaps = np.abs(np.hypot(gram.real, gram.imag) - unbiased)
    for j, (x, y) in enumerate(generators[: len(vectors)]):
        for i, g in enumerate(generators[:j]):
            _check(gaps[i, j] <= 1e-8, "|<psi_{}|psi_{}>| = 1/sqrt({})", g, (x, y), d)
        _check(counts[j] == d, "coset merging of <({},{})> has {} outcomes", x, y, d)
        delta, idem, orth = defects[j]
        _check(delta <= 1e-8, "effects are rank one")
        _check(idem <= 1e-8, "merged effects for <({},{})> are idempotent", x, y)
        _check(orth <= 1e-8, "merged effects for <({},{})> are mutually orthogonal", x, y)

    _, idem, orth = np.max(defects, axis=0)
    return {
        "check": "phase_space_demo",
        "dim": d,
        "vector_count": len(vectors),
        "unbiased_overlap": unbiased,
        "worst_overlap_gap": float(np.max(gaps[np.triu_indices(len(vectors), 1)])),
        "worst_idempotency_defect": float(idem),
        "worst_orthogonality_defect": float(orth),
        "canonical_eigenvalue_missing": target_missing,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# stock fixtures for the randomized reports


def q8_program_pair() -> tuple:
    """The quaternion multimeter with probe states programming the i and k axes."""
    rep = q8_representation()
    (_, xi1, l1, _), (_, xi2, l2, _) = eigenvector_program(
        rep, [rep.group.names.index(n) for n in "ik"], [Q8_TARGETS[n] for n in "ik"]
    )
    return covariant_multimeter(rep), xi1, xi2, l1, l2


def wh_program_pair(d: int) -> tuple:
    """The phase-space multimeter with probe states from two unbiased subgroups."""
    rep = weyl_heisenberg(d)
    gens = [wh_element_index(d, 0, 1), wh_element_index(d, 1, 0)]
    (_, xi1, l1, _), (_, xi2, l2, _) = eigenvector_program(
        rep, gens, [1.0 + 0j, np.exp(2j * np.pi / d)]
    )
    return covariant_multimeter(rep), xi1, xi2, l1, l2


def default_random_fixture(seed: int) -> tuple:
    """Random qubit multimeter with a 4-dimensional probe, plus a random
    probe-state pair and kernel pair."""
    rng = np.random.default_rng(seed)
    mm = random_multimeter(rng, 2, 4)
    xi1 = random_density(rng, mm.probe_dim)
    xi2 = random_density(rng, mm.probe_dim)
    n_out = int(rng.integers(2, mm.pointer.n_outcomes + 1))
    l1 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
    l2 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
    return mm, xi1, xi2, l1, l2
