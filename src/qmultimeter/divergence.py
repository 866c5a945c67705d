"""Bhattacharyya coefficient and the observable divergence estimated over state pairs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .quantum import DensityState, Observable, fidelity, outcome_distribution

EPS_DEN = 1e-8        # state pairs closer to orthogonal than this are excluded
ZERO_TOL = 1e-10      # any evaluated ratio below this certifies an exact zero
PROB_FLOOR = 1e-13    # candidate-scan probabilities below this are treated as exact zeros
GTOL = 1e-10          # L-BFGS stop test: gradient infinity norm at most this
FTOL = 2.220446049250313e-09  # L-BFGS stop test: a step's relative reduction at most this
MEMORY = 10           # L-BFGS correction pairs
WOLFE = (1e-3, 0.9)   # sufficient-decrease and curvature constants of the line search
LINE_EVALS = 20       # evaluations after which a line search fails
CLAMP_HI = 1.0 + 1e-9
MAX_RESTARTS = 4096   # each start is one L-BFGS run: the cap bounds time, not memory
GRID_BLOCK = 128      # rows of the first collection per block of the candidate scan


def minimize(fun, x0, maxiter):
    """L-BFGS (Nocedal and Wright, Alg. 7.4 and 7.5) of ``fun(x) -> (value, gradient)``
    from ``x0``. ``success``: the ``GTOL`` or the ``FTOL`` stop test was met within
    ``maxiter`` iterations; a failed line search ends the run without it."""
    nfev, nit, gamma = 0, 0, 1.0

    def counted(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    x = np.array(x0, dtype=float)
    f, g = counted(x)
    pairs = deque(maxlen=MEMORY)  # (s, y, 1 / s.y), newest last
    success = np.abs(g).max() <= GTOL
    while not success and nit < maxiter:
        # two-loop recursion for -H g over (s.y / y.y) I, or with no pairs -g / |g|
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ d))
            d -= alphas[-1] * y
        d *= gamma if pairs else 1 / np.linalg.norm(d)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * float(y @ d)) * s
        found = _wolfe_step(counted, x, f, g, d)
        if found is None:
            break
        s, y = found[0] - x, found[2] - g
        if (sy := float(s @ y)) > 0:
            pairs.append((s, y, 1 / sy))
            gamma = sy / float(y @ y)
        nit, f_old, (x, f, g) = nit + 1, f, found
        success = f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0) or np.abs(g).max() <= GTOL
    return SimpleNamespace(x=x, fun=f, nfev=nfev, nit=nit, success=bool(success))


def _wolfe_step(fun, x, f0, g0, d):
    """``(x, f, g)`` at a strong-Wolfe step along ``d``, trying 1 first (Nocedal and Wright,
    Alg. 3.5 and 3.6); None if ``d`` is no descent direction or ``LINE_EVALS`` trials fail."""
    c1, c2 = WOLFE
    slope0 = g0 @ d
    # lo: the best (step, value, slope) with sufficient decrease; hi: a bracket's other end
    step, lo, hi = 1.0, (0.0, f0, slope0), None
    for _ in range(LINE_EVALS if slope0 < 0 else 0):
        xt = x + step * d
        f, g = fun(xt)
        slope = g @ d
        if f > f0 + c1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) > -c2 * slope0:
            hi = lo if slope * (hi[0] - step if hi else 1.0) >= 0 else hi
            lo = (step, f, slope)
        else:
            return xt, f, g
        step = 4 * step if hi is None else _trial_step(lo, hi)
    return None


def _trial_step(lo, hi) -> float:
    """Minimiser of the cubic through both ends' values and slopes, else of the quadratic
    without hi's slope, else the midpoint; a tenth of the bracket from either end."""
    (a, fa, da), (b, fb, db) = np.array([lo, hi], dtype=float)
    w = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = da + db - 3 * (fb - fa) / w
        d2 = np.sign(w) * np.sqrt(d1 * d1 - da * db)
        cubic = b - w * (db + d2 - d1) / (db - da + 2 * d2)
        quadratic = a - da * w * w / (2 * (fb - fa - da * w))
    t = next((t for t in (cubic, quadratic) if np.isfinite(t)), a + w / 2)
    return float(np.clip(t, *sorted((a + 0.1 * w, b - 0.1 * w))))


def bhattacharyya(p, q) -> float:
    """Overlap sum sqrt(p_i q_i) of two discrete distributions; 1 iff equal."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must be equal-length vectors, got {p.shape} and {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if v.min(initial=0.0) < -1e-12:
            raise ValueError(f"{name} has a negative entry {v.min():.3e}")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {v.sum()!r}, not 1")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    return float(np.sqrt(p * q).sum())


def divergence_ratio(
    e1: Observable, e2: Observable, rho1: DensityState, rho2: DensityState
) -> float:
    """Bhattacharyya of the two outcome distributions divided by the state fidelity."""
    f = fidelity(rho1, rho2)
    if f < EPS_DEN:
        raise ValueError(f"state pair is near orthogonal (fidelity {f:.3e} < {EPS_DEN:.1e})")
    p1 = outcome_distribution(e1, rho1)
    p2 = outcome_distribution(e2, rho2)
    return bhattacharyya(p1, p2) / f


@dataclass
class DivergenceOptions:
    """Knobs for the divergence estimator; defaults match the shipped reports."""

    seed: int = 0
    restarts: int = 32
    maxiter: int = 2000


@dataclass
class DivergenceEstimate:
    """Upper estimate of the observable divergence with its witnessing state pair."""

    value: float
    argmin: tuple
    method: str
    restarts: int
    converged: bool
    seed: int


def _pair_from_params(x: np.ndarray) -> np.ndarray:
    """The unit vectors (2, d) of the parameter row ``x`` of a feasible pair."""
    v = x.view(complex).reshape(2, -1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _params_from_pair(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The 4d real parameters of a pair: the real and imaginary part of each
    coordinate side by side, so that the parameters view as the two vectors."""
    return np.concatenate([v1, v2]).astype(complex).view(float)


def _floored(p: np.ndarray) -> np.ndarray:
    """Probabilities below ``PROB_FLOOR``, rounding negatives included, set to 0 in place."""
    p[p < PROB_FLOOR] = 0.0
    return p


def _effect_roots(stacks: np.ndarray) -> tuple:
    """Factors L with E = L L^dagger of every effect in ``stacks`` (..., d, d),
    from its eigendecomposition with negative rounding eigenvalues set to 0,
    and their adjoints."""
    w, v = np.linalg.eigh(stacks)
    root = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    return root, np.ascontiguousarray(root.conj().swapaxes(-1, -2))


def _ratio_gradient(x: np.ndarray, roots: tuple):
    """The unfloored ratio B(p1, p2) / |<v1|v2>| at the pair of unnormalised
    vectors z1, z2 held in ``x`` (as ``_params_from_pair`` lays them out) and
    its gradient in ``x``; ``None`` where a vector's norm is below 1e-12 or
    the fidelity below ``EPS_DEN``. ``roots`` holds the factors of the two
    effect stacks (2, outcomes, d, d), as ``_effect_roots`` returns them.

    Probabilities are not floored: sqrt(p) = |L^dagger z| / |z| is accurate to
    rounding even where p is near 0, where sqrt(z^dagger E z) would turn a
    rounding error of 1e-17 in p into one of 3e-9 in the ratio. With the
    Wirtinger derivatives dp/dz* = (E z - p z) / |z|^2 and
    d log|<z1|z2>| / dz1* = z2 / (2 <z1|z2>), the terms along z cancel and
    dr/dz1* = sum_x (s2_x / |y1_x|) L1_x y1_x / (2 |z1| F) - r z2 / (2 <z1|z2>),
    with y = L^dagger z and s = sqrt(p); the gradient of the real ratio is
    2 dr/dz*, its real and imaginary parts side by side. It is 0 on the terms
    of outcomes whose probability is 0, where sqrt(p) has a cusp.
    """
    z = x.view(complex).reshape(2, -1)
    xr = x.reshape(2, -1)
    nz = np.sqrt(np.einsum("si,si->s", xr, xr))
    c = complex(np.vdot(z[0], z[1]))
    if nz.min() < 1e-12 or abs(c) < EPS_DEN * nz[0] * nz[1]:
        return None
    root, root_h = roots
    y = root_h @ z[:, None, :, None]  # (2, outcomes, d, 1)
    yr = y.view(float)
    ny = np.sqrt(np.einsum("sxij,sxij->sx", yr, yr))
    s = ny / nz[:, None]
    f = abs(c) / (nz[0] * nz[1])
    ratio = float(s[0] @ s[1]) / f
    w = np.divide(s[::-1], ny * (nz[:, None] * f), out=np.zeros_like(s), where=ny > 0)
    g = np.einsum("sx,sxij->si", w, root @ y)
    g -= np.array([ratio / c, ratio / c.conjugate()])[:, None] * z[::-1]
    return ratio, g.view(float).ravel()


def _clamped(raw: float) -> float:
    return 0.0 if raw < ZERO_TOL else min(max(raw, 0.0), CLAMP_HI)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for real a (m, k) and b (n, k), added term by term over k. BLAS
    rounds a row differently by how many rows it multiplies at once; here
    each entry rounds the same in any block of rows."""
    out = a[:, :1] * b[:, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[:, k]
    return out


def _interleaved(*parts: np.ndarray) -> np.ndarray:
    """Columns of equal-shape (n, d) arrays interleaved into one (n, len(parts) d)."""
    n, d = parts[0].shape
    return np.stack(parts, axis=-1).reshape(n, len(parts) * d)


def _row_ratio_min(stack1, stack2, states1, states2) -> tuple:
    """For each state of the first collection, the least floored ratio against
    the second and the first column attaining it (inf and 0 where every pair of
    the row is near orthogonal). The scan walks blocks of ``GRID_BLOCK`` rows
    and sums each product term by term (``_cross``), so every ratio is the
    same bit for bit whichever block holds its row. The fidelity |<a|b>| is
    the hypot of sum(ar br + ai bi) and sum(ar bi - ai br)."""
    sq1 = np.sqrt(_floored(np.einsum("si,xij,sj->sx", states1.conj(), stack1, states1).real))
    sq2 = np.sqrt(_floored(np.einsum("si,xij,sj->sx", states2.conj(), stack2, states2).real))
    x1 = _interleaved(states1.real, states1.imag)
    x2 = _interleaved(states2.real, states2.imag)
    y2 = _interleaved(states2.imag, -states2.real)
    low = np.empty(len(states1))
    col = np.empty(len(states1), dtype=int)
    for start in range(0, len(states1), GRID_BLOCK):
        rows = slice(start, start + GRID_BLOCK)
        b = _cross(sq1[rows], sq2)
        f = np.hypot(_cross(x1[rows], x2), _cross(x1[rows], y2))
        far = f < EPS_DEN
        ratio = np.divide(b, np.maximum(f, EPS_DEN, out=f), out=b)
        ratio[far] = np.inf
        col[rows] = np.argmin(ratio, axis=1)
        low[rows] = ratio.min(axis=1)
    return low, col


def _top_eigenvectors(effects: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(effects)[1][:, :, -1]


def observable_divergence(
    e1: Observable, e2: Observable, opts: DivergenceOptions | None = None
) -> DivergenceEstimate:
    """Upper estimate of D(E1, E2), the infimum of ratio(rho1, rho2) over all
    state pairs, searched over pure pairs only.

    Equal effect stacks return D(E, E) = 1 at (v, v) without a search: one
    measurement never separates two states more than they differ, so
    B(p1, p2) >= F(rho1, rho2), with equality at rho1 = rho2.

    Otherwise one candidate scan comes first: every top eigenvector of E1
    against every top eigenvector of E2. A floored ratio below ``ZERO_TOL``
    returns an exact zero at the first pair attaining the least. Then one
    ``minimize`` (L-BFGS) run with the analytic gradient of the unfloored ratio
    (``_ratio_gradient``) starts from each top eigenvector of E1 paired with
    its best candidate in E2, and from ``restarts`` random starts; each run
    is ranked by the ratio at the point it returns, so the estimate is the
    ratio at the reported pair, hence an upper bound on D.

    Pure pairs lose nothing: their infimum r is D. Take mixed rho1, rho2
    with Uhlmann purifications psi1, psi2 on C^d x C^d, <psi1|psi2> =
    F(rho1, rho2). Measuring the ancilla in a basis |k> leaves pure states
    phi_ik with weights q_ik, so F <= sum_k sqrt(q_1k q_2k) |<phi_1k|phi_2k>|
    and p_i = sum_k q_ik p_ik. Forgetting k never lowers the Bhattacharyya
    coefficient (B6, coarse-graining), so B(p1, p2) >= sum_k sqrt(q_1k q_2k)
    B(p_1k, p_2k) >= r sum_k sqrt(q_1k q_2k) |<phi_1k|phi_2k>| >= r F.
    """
    if e1.dim != e2.dim:
        raise ValueError("observables must share a dimension")
    if e1.n_outcomes != e2.n_outcomes:
        raise ValueError("observables must share an outcome count")
    opts = opts or DivergenceOptions()
    if not 0 <= opts.restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must lie in [0, {MAX_RESTARTS}], got {opts.restarts}")
    if opts.maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {opts.maxiter}")

    def estimate(value, v1, v2, note, restarts, converged):
        return DivergenceEstimate(
            value=value,
            argmin=(DensityState.from_vector(v1), DensityState.from_vector(v2)),
            method=_method_string(opts.restarts, note),
            restarts=restarts,
            converged=converged,
            seed=opts.seed,
        )

    top1 = _top_eigenvectors(e1.effects)
    if np.array_equal(e1.effects, e2.effects):
        note = "equal observables, D(E,E) = 1 at (v, v) without a search"
        return estimate(1.0, top1[0], top1[0], note, 0, True)
    d = e1.dim
    stacks = np.stack([e1.effects, e2.effects])
    roots = _effect_roots(stacks)
    # analytic witness candidates: top eigenvectors of every effect pair
    top2 = _top_eigenvectors(e2.effects)
    low, col = _row_ratio_min(*stacks, top1, top2)
    i = int(np.argmin(low))
    if low[i] < ZERO_TOL:
        note = "exact-zero witness from eigenvector candidates"
        return estimate(0.0, top1[i], top2[col[i]], note, 0, True)
    starts = [_params_from_pair(top1[r], top2[col[r]]) for r in np.flatnonzero(low < np.inf)]
    rng = np.random.default_rng(opts.seed)
    starts += [rng.standard_normal(4 * d) for _ in range(opts.restarts)]

    # B <= 1 and F >= EPS_DEN, so every feasible ratio lies below this value
    infeasible = 2 / EPS_DEN

    def objective(x):
        out = _ratio_gradient(x, roots)
        return (infeasible, np.zeros_like(x)) if out is None else out

    best, winner = infeasible, None
    for x0 in starts:
        res = minimize(objective, x0, maxiter=opts.maxiter)
        # ranked by the ratio at the returned point, not by the fun reported with it
        ratio = objective(res.x)[0]
        if ratio < best:
            best, winner = ratio, res
            if best < ZERO_TOL:
                break
    if winner is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    value = _clamped(float(best))
    v1, v2 = _pair_from_params(winner.x)
    note = f"multi-start l-bfgs (memory {MEMORY}) on the unfloored ratio over pure pairs"
    return estimate(value, v1, v2, note, opts.restarts, bool(winner.success) or value == 0.0)


def _method_string(restarts: int, note: str) -> str:
    return (
        f"{note}; upper bound on D (attained over pure pairs); restarts={restarts}; "
        f"gtol={GTOL:g}; ftol={FTOL:g}; "
        f"scan prob_floor={PROB_FLOOR:g}; clamp=[0,{CLAMP_HI}]"
    )
