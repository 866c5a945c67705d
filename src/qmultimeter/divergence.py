"""Bhattacharyya coefficient and the observable divergence estimated over state pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused here; perfbench/tracing.py patches divergence.minimize on every traced run
from scipy.optimize import minimize  # noqa: F401

from .quantum import DensityState, Observable, fidelity, outcome_distribution

EPS_DEN = 1e-8        # state pairs closer to orthogonal than this are excluded
ZERO_TOL = 1e-10      # any evaluated ratio below this certifies an exact zero
PROB_FLOOR = 1e-13    # probabilities below this are treated as exact zeros
BLOCH_GRID = 40       # per-angle resolution of the qubit grid scan
FATOL = 1e-9          # Nelder-Mead tolerances on the objective and the parameters
XATOL = 1e-7
CLAMP_HI = 1.0 + 1e-9
MAX_RESTARTS = 4096   # the lockstep search holds (restarts + 2) simplices of 4d + 1 points
GRID_BLOCK = 128      # rows of the first collection per block of a candidate scan
_PENALTY = 1e6
# scipy's non-adaptive Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, and the initial simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# each trial point is a * xbar + b * worst, in the order reflection, expansion,
# outside contraction, inside contraction, with scipy's coefficients
_TRIAL_XBAR = np.array([[1 + _RHO], [1 + _RHO * _CHI], [1 + _PSI * _RHO], [1 - _PSI]])
_TRIAL_WORST = np.array([[-_RHO], [-_RHO * _CHI], [-_PSI * _RHO], [_PSI]])


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


def _pair_from_params(x: np.ndarray, d: int):
    v1 = x[:d] + 1j * x[d : 2 * d]
    v2 = x[2 * d : 3 * d] + 1j * x[3 * d :]
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 < 1e-12 or n2 < 1e-12:
        return None, None
    return v1 / n1, v2 / n2


def _params_from_pair(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    return np.concatenate([v1.real, v1.imag, v2.real, v2.imag])


def _floored(p: np.ndarray) -> np.ndarray:
    """Probabilities below ``PROB_FLOOR``, rounding negatives included, set to 0 in place."""
    p[p < PROB_FLOOR] = 0.0
    return p


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a stacked vector product is one BLAS dot per row, the call np.vdot and
    # np.linalg.norm make for a single vector, so every row rounds as they do
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pairs_ratio(stacks: np.ndarray, u: np.ndarray):
    """Overlap of the floored statistics over the fidelity |<u1|u2>| for each
    row of unit-vector pairs ``u`` (m, 2, d), with that fidelity; ``stacks``
    holds the two effect stacks (2, outcomes, d, d)."""
    bra = u.conj()
    dot = _row_dot(bra[:, 0], u[:, 1])
    f = np.hypot(dot.real, dot.imag)
    p = _floored(np.einsum("sti,txij,stj->stx", bra, stacks, u).real)
    overlap = p[:, 0] * p[:, 1]
    return np.sqrt(overlap, out=overlap).sum(axis=1) / f, f


def _population_ratio(stacks: np.ndarray, x: np.ndarray, d: int):
    """The Nelder-Mead objective of every parameter row of ``x`` (m, 4d): the
    ratio where the row is a feasible pair, a penalty elsewhere. Returns the
    values and the feasibility mask."""
    # (m, 2, d, 2): each coordinate's real and imaginary parts side by side,
    # so the pair of complex vectors is a view and each norm takes the two
    # strided dots np.linalg.norm takes (BLAS rounds them unlike contiguous ones)
    interleaved = np.ascontiguousarray(x.reshape(len(x), 2, 2, d).swapaxes(2, 3))
    parts = interleaved.swapaxes(2, 3)
    n = np.sqrt(_row_dot(parts, parts).sum(axis=2))
    ratio, f = _pairs_ratio(stacks, interleaved.view(complex)[..., 0] / n[..., None])
    unnormed = (n < 1e-12).any(axis=1)
    infeasible = unnormed | (f < EPS_DEN)
    # their ratios divided by a norm or fidelity that may be 0
    ratio[infeasible] = _PENALTY + np.where(unnormed, 0.0, EPS_DEN - f)[infeasible]
    return ratio, ~infeasible


def _clamped(raw: float) -> float:
    return 0.0 if raw < ZERO_TOL else min(max(raw, 0.0), CLAMP_HI)


def _bloch_states(n_theta: int, n_phi: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.reshape(-1)
    pp = pp.reshape(-1)
    out = np.empty((tt.size, 2), dtype=complex)
    out[:, 0] = np.cos(tt / 2)
    out[:, 1] = np.exp(1j * pp) * np.sin(tt / 2)
    return out


def _grid_ratio_min(stack1, stack2, states1, states2):
    """Best ratio over the product of two explicit pure-state collections; the
    first pair attaining it, or inf when every pair is near orthogonal.

    The fidelity of two unit vectors is at most 1, so every ratio is at least
    its overlap over 1 + 1e-12, and a row whose least overlap exceeds an
    attained ratio (times 1 + 1e-12) cannot hold the minimum. The first pass
    takes each row's least overlap; the exact ratios of the row with the
    smallest set that cap; the second pass computes exact ratios only for the
    rows at or below it, in ascending order, so the first minimum is the full
    matrix's. Each pass holds at most ``GRID_BLOCK`` rows of the product.
    """
    sq1 = np.sqrt(_floored(np.einsum("si,xij,sj->sx", states1.conj(), stack1, states1).real))
    sq2 = np.sqrt(_floored(np.einsum("si,xij,sj->sx", states2.conj(), stack2, states2).real)).T
    conj1 = states1.conj()

    def ratios(rows):
        b = sq1[rows] @ sq2
        f = np.abs(conj1[rows] @ states2.T)
        far = f < EPS_DEN
        ratio = np.divide(b, np.maximum(f, EPS_DEN, out=f), out=b)
        ratio[far] = np.inf
        return ratio

    low = np.empty(len(states1))
    out = np.empty((min(GRID_BLOCK, len(states1)), sq2.shape[1]))  # reused by every block
    for lo in range(0, len(states1), GRID_BLOCK):
        overlap = np.matmul(sq1[lo : lo + GRID_BLOCK], sq2, out=out[: len(states1) - lo])
        overlap.min(axis=1, out=low[lo : lo + GRID_BLOCK])
    cap = ratios(np.argmin(low)).min() * (1 + 1e-12)
    kept = np.flatnonzero(low <= cap)
    if len(kept) == 1 < len(states1):
        # numpy multiplies a lone row by matrix-vector BLAS, which may round
        # unlike the matrix-matrix product of the full scan; a repeat keeps it
        kept = np.repeat(kept, 2)
    best, arg = np.inf, (0, 0)
    # near-equal blocks, so no block after the first holds a lone row
    for rows in np.array_split(kept, -(-len(kept) // GRID_BLOCK)):
        ratio = ratios(rows)
        i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
        if ratio[i, j] < best:
            best, arg = float(ratio[i, j]), (rows[i], j)
    return best, states1[arg[0]], states2[arg[1]]


def _top_eigenvectors(effects: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(effects)[1][:, :, -1]


def _lockstep_nelder_mead(fun, x0: np.ndarray, maxiter: int, stop_below: float):
    """scipy's non-adaptive Nelder-Mead (``xatol=XATOL``, ``fatol=FATOL``) run
    from every row of ``x0`` at once.

    ``fun(points) -> (values, feasible)`` maps (m, n) points to (m,) values.
    Each step makes one call with every start's reflection and its three
    candidate second points (expansion, outside and inside contraction);
    scipy's rules then pick the candidate, if any, and only the points that
    start's own ``minimize`` run evaluates count towards the best. A shrink
    is one more call. All starts share the iteration counter; a start stops
    when its simplex meets both tolerances (converged) or at ``maxiter`` (not
    converged), and every start stops once the best feasible value falls
    below ``stop_below``.

    Returns the per-start converged flags, the best feasible value and the
    point where it was evaluated (``None`` when no point was feasible).
    """
    p, n = x0.shape
    best = [np.inf, None]

    def record(points, values, counted):
        cand = np.where(counted, values, np.inf)
        i = cand.argmin()  # a flat index: one point per value, in the order of points
        if cand.item(i) < best[0]:
            best[:] = cand.item(i), points[i].copy()

    def evaluate(points):
        values, feasible = fun(points)
        record(points, values, feasible)
        return values

    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = evaluate(sim.reshape(-1, n)).reshape(p, n + 1)
    for _ in range(2):  # scipy sorts the initial simplex twice; ties may reorder
        sim, fsim = _sorted_simplex(sim, fsim)
    r = rows = np.arange(p)  # positions in the live arrays, and the starts they hold
    converged = np.zeros(p, dtype=bool)
    iterations = 1
    while iterations < maxiter and not best[0] < stop_below:
        done = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= XATOL
        if np.count_nonzero(done):  # the value tolerance, only where the point one holds
            done[done] = np.abs(fsim[done, :1] - fsim[done, 1:]).max(axis=1) <= FATOL
            if np.count_nonzero(done):
                converged[rows[done]] = True
                rows, sim, fsim = rows[~done], sim[~done], fsim[~done]
                if not rows.size:
                    break
                r = np.arange(len(rows))
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = _TRIAL_XBAR * xbar[:, None] + _TRIAL_WORST * sim[:, -1:]
        points = trial.reshape(-1, n)
        values, feasible = fun(points)
        values, feasible = values.reshape(-1, 4), feasible.reshape(-1, 4)
        fxr = values[:, 0]
        expand = fxr < fsim[:, 0]
        contract = ~(expand | (fxr < fsim[:, -2]))
        outside = contract & (fxr < fsim[:, -1])
        second = np.where(expand, 1, np.where(outside, 2, 3))
        moved = expand | contract
        counted = np.zeros(values.shape, dtype=bool)
        counted[:, 0] = True
        counted[r, second] = moved
        record(points, values, feasible & counted)
        # an expansion must beat the reflection, an outside contraction match
        # it, an inside contraction beat the worst vertex
        f2 = values[r, second]
        take2 = moved & np.where(outside, f2 <= fxr, f2 < np.where(expand, fxr, fsim[:, -1]))
        shrink = contract & ~take2
        keep = (~shrink).nonzero()[0]
        pick = np.where(take2, second, 0)[keep]
        sim[keep, -1] = trial[keep, pick]
        fsim[keep, -1] = values[keep, pick]
        if len(keep) < len(r):
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + _SIGMA * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = evaluate(s[:, 1:].reshape(-1, n)).reshape(len(s), n)
        iterations += 1
        sim, fsim = _sorted_simplex(sim, fsim)
    return converged, best[0], best[1]


def _sorted_simplex(sim, fsim):
    ind = fsim.argsort(axis=1)
    r = np.arange(len(fsim))[:, None]
    return sim[r, ind], fsim[r, ind]


def observable_divergence(
    e1: Observable, e2: Observable, opts: DivergenceOptions | None = None
) -> DivergenceEstimate:
    """Upper estimate of the infimum of ratio(rho1, rho2) over pure-state pairs.

    Candidate scans come first: every pair of top eigenvectors of the two
    effect sets and, for qubits, a Bloch grid; the best pair of each scan
    seeds the search, and a scan that reaches a ratio below ``ZERO_TOL``
    returns an exact zero with its witnessing pair. Then Nelder-Mead runs
    from the scan seeds and ``restarts`` random starts in lockstep, over
    unconstrained parameterizations of two unit vectors; the estimate is the
    best feasible ratio any start evaluated. The restriction to pure pairs
    makes the result an upper bound on the unrestricted infimum.
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
    d = e1.dim
    stacks = np.stack([e1.effects, e2.effects])
    stack1, stack2 = stacks
    rng = np.random.default_rng(opts.seed)

    best = {"value": np.inf, "pair": None}

    def consider(value, v1, v2):
        if value < best["value"]:
            best["value"] = value
            best["pair"] = (v1.copy(), v2.copy())

    # analytic witness candidates: top eigenvectors of every effect pair
    scans = [
        ("eigenvector candidates", _top_eigenvectors(e1.effects), _top_eigenvectors(e2.effects))
    ]
    if d == 2:
        grid = _bloch_states(BLOCH_GRID, BLOCH_GRID)
        scans.append(("grid scan", grid, grid))
    starts = []
    for source, states1, states2 in scans:
        val, v1, v2 = _grid_ratio_min(stack1, stack2, states1, states2)
        if val < np.inf:
            consider(val, v1, v2)
            starts.append(_params_from_pair(v1, v2))
        if best["value"] < ZERO_TOL:
            v1, v2 = best["pair"]
            return DivergenceEstimate(
                value=0.0,
                argmin=(DensityState.from_vector(v1), DensityState.from_vector(v2)),
                method=_method_string(opts.restarts, f"exact-zero witness from {source}"),
                restarts=0,
                converged=True,
                seed=opts.seed,
            )

    for _ in range(opts.restarts):
        starts.append(rng.standard_normal(4 * d))

    converged = np.zeros(0, dtype=bool)
    if starts:
        # the objective divides by the zero norms and fidelities of rows it penalises
        with np.errstate(divide="ignore", invalid="ignore"):
            converged, value, x = _lockstep_nelder_mead(
                lambda points: _population_ratio(stacks, points, d),
                np.array(starts, dtype=float),
                opts.maxiter,
                ZERO_TOL,
            )
        if x is not None:
            consider(value, *_pair_from_params(x, d))

    if best["pair"] is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    v1, v2 = best["pair"]
    value = _clamped(float(best["value"]))
    return DivergenceEstimate(
        value=value,
        argmin=(DensityState.from_vector(v1), DensityState.from_vector(v2)),
        method=_method_string(opts.restarts, "multi-start nelder-mead over pure pairs"),
        restarts=opts.restarts,
        converged=bool(converged.any()) or value == 0.0,
        seed=opts.seed,
    )


def _method_string(restarts: int, note: str) -> str:
    return (
        f"{note}; pure-state upper bound; restarts={restarts}; "
        f"bloch_grid={BLOCH_GRID}; fatol={FATOL:g}; "
        f"prob_floor={PROB_FLOOR:g}; clamp=[0,{CLAMP_HI}]"
    )


def estimate_recompute(e1: Observable, e2: Observable, est: DivergenceEstimate) -> float:
    """Re-evaluate the estimator objective at the reported argmin pair."""
    psi1 = np.linalg.eigh(est.argmin[0].matrix)[1][:, -1]
    psi2 = np.linalg.eigh(est.argmin[1].matrix)[1][:, -1]
    ratio, _ = _pairs_ratio(np.stack([e1.effects, e2.effects]), np.stack([psi1, psi2])[None])
    return _clamped(float(ratio[0]))
