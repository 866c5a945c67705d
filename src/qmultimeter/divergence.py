"""Bhattacharyya coefficient and the observable divergence estimated over state pairs."""

from __future__ import annotations

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
INFEASIBLE = 2 / EPS_DEN  # B <= 1 and F >= EPS_DEN, so every feasible ratio lies below
MAX_RESTARTS = 4096   # each start is one L-BFGS row: the cap bounds time, START_BLOCK memory
GRID_BLOCK = 128      # rows of the first collection per block of the candidate scan
START_BLOCK = 2**18   # floats of search state per block of starts (``_row_floats`` a start)


def minimize(fun, x0, maxiter):
    """L-BFGS (Nocedal and Wright, Alg. 7.4 and 7.5) of ``fun(X) -> (values, gradients)``
    from every row of the (k, p) stack ``x0``, all rows in lockstep: each round
    makes one call of ``fun`` on the stacked points of every row still searching,
    and a row leaves the stack when it stops.

    Each row keeps its own correction pairs, line search and stop tests, and
    every operation on a row reads that row alone, so a row ends bit for bit
    where it would end alone. A row ``converged`` when it met the ``GTOL`` or
    the ``FTOL`` stop test within ``maxiter`` iterations; a failed line search
    ends it without. ``nfev`` counts the points evaluated and ``success`` is
    ``converged.all()``."""
    x = np.array(x0, dtype=float)
    k, p = x.shape
    f, g = fun(x)
    nfev, nit = k, np.zeros(k, dtype=int)
    converged = np.abs(g).max(axis=1) <= GTOL
    rows = np.flatnonzero(~converged & (maxiter > 0))
    # the rows still searching, with their points and correction pairs
    xa, fa, ga = x[rows], f[rows], g[rows]
    pairs = _Pairs(len(rows), p)
    while rows.size:
        ok, xs, fs, gs, evals = _wolfe_steps(fun, xa, fa, ga, pairs.direction(ga))
        nfev += evals
        pairs.push(xs - xa, gs - ga)
        scale = np.maximum(np.maximum(np.abs(fa), np.abs(fs)), 1.0)
        met = ok & ((fa - fs <= FTOL * scale) | (np.abs(gs).max(axis=1) <= GTOL))
        nit[rows] += ok
        xa, fa, ga = xs, fs, gs
        stop = ~ok | met | (nit[rows] >= maxiter)
        if stop.any():
            x[rows[stop]], f[rows[stop]], g[rows[stop]] = xa[stop], fa[stop], ga[stop]
            converged[rows[met]] = True
            keep = ~stop
            rows, xa, fa, ga = rows[keep], xa[keep], fa[keep], ga[keep]
            pairs.keep(keep)
    return SimpleNamespace(
        x=x, fun=f, nit=nit, converged=converged, nfev=nfev, success=bool(converged.all())
    )


class _Pairs:
    """The ``MEMORY`` newest correction pairs (s, y) of each row, oldest first
    and unused slots 0, with what the compact form of the inverse Hessian
    approximation H needs (Byrd, Nocedal and Schnabel, Math. Prog. 63, 1994):
    the inverse of R, the upper triangle of the s_i.y_j (a unit diagonal in
    unused slots, so that they add nothing), and the diagonal D of R."""

    def __init__(self, n: int, p: int):
        self.s = np.zeros((n, MEMORY, p))
        self.y = np.zeros((n, MEMORY, p))
        self.rinv = np.tile(np.eye(MEMORY), (n, 1, 1))
        self.diag = np.zeros((n, MEMORY))
        self.gamma = np.ones(n)  # H = gamma I with no pairs: s.y / y.y of the newest

    def keep(self, rows):
        vars(self).update({name: value[rows] for name, value in vars(self).items()})

    def direction(self, g):
        """-H g for each row, or -g / |g| in rows with no pair: with a = S'g,
        b = Y'g, u = R^-1 a and v = R^-T (D u + gamma (Y'Y u - b)),
        H g = gamma (g - Y u) + S v, all over the row's own pairs."""
        gamma = self.gamma[:, None, None]
        u = self.rinv @ (self.s @ g[..., None])
        yu_g = self.y.swapaxes(1, 2) @ u - g[..., None]
        rhs = self.diag[..., None] * u + gamma * (self.y @ yu_g)
        v = self.rinv.swapaxes(1, 2) @ rhs
        d = (gamma * yu_g - self.s.swapaxes(1, 2) @ v)[..., 0]
        first = self.diag[:, -1] == 0  # no pair yet: every pair held has s.y > 0
        if first.any():
            d[first] = -g[first] * (1 / np.sqrt(np.einsum("kp,kp->k", g[first], g[first])))[:, None]
        return d

    def push(self, s, y):
        """Append (s, y) to every row where s.y > 0, dropping its oldest pair: R
        loses its first row and column, whose inverse is that of R without them,
        and gains the column c = (s_j.y) over c_new = s.y, so that the new
        inverse holds -R^-1 c / c_new and 1 / c_new in its last column (its
        last row is 0 elsewhere already, as R^-1 is upper triangular). When
        every row updates, as in most rounds, the rows are sliced, not masked."""
        sy = np.einsum("kp,kp->k", s, y)
        rows = sy > 0
        if rows.all():
            rows = slice(None)
        elif rows.any():
            s, y, sy = s[rows], y[rows], sy[rows]
        else:
            return
        col = self.rinv[rows, 1:, 1:] @ (self.s[rows, 1:] @ y[..., None])
        for kept in (self.s, self.y, self.diag):
            kept[rows, :-1] = kept[rows, 1:]
        self.rinv[rows, :-1, :-1] = self.rinv[rows, 1:, 1:]
        self.rinv[rows, :-1, -1] = -col[..., 0] / sy[:, None]
        self.rinv[rows, -1, -1] = 1 / sy
        self.s[rows, -1], self.y[rows, -1], self.diag[rows, -1] = s, y, sy
        self.gamma[rows] = sy / np.einsum("kp,kp->k", y, y)


def _wolfe_steps(fun, x, f0, g0, d):
    """Strong-Wolfe steps along the rows of ``d``, trying 1 first (Nocedal and
    Wright, Alg. 3.5 and 3.6), all rows in lockstep: ``(ok, x, f, g, evals)``,
    with the rows ``ok`` at their accepted step and the others where they were.
    A row fails where ``d`` is no descent direction or ``LINE_EVALS`` trials fail.

    When every row descends, the unit step is tried on all rows in one pass,
    with no row picked out: in most rounds every row takes it, and the search
    returns there. Otherwise the bracketing loop goes on from that trial."""
    c1, c2 = WOLFE
    n = len(x)
    slope0 = np.einsum("kp,kp->k", g0, d)
    descends = slope0 < 0
    first = None
    evals = 0
    if descends.all():
        xt = x + d
        f, g = fun(xt)
        evals = n
        slope = np.einsum("kp,kp->k", g, d)
        up = (f > f0 + c1 * slope0) | (f >= f0)
        curved = ~up & (np.abs(slope) > -c2 * slope0)
        if not (up | curved).any():
            return np.ones(n, dtype=bool), xt, f, g, evals
        first = xt, f, g, slope, up, curved
    xs, fs, gs = x.copy(), f0.copy(), g0.copy()
    ok = np.zeros(n, dtype=bool)
    step = np.ones(n)
    # lo: the best (step, value, slope) with sufficient decrease; hi: a bracket's other end
    lo = np.array([np.zeros(n), f0, slope0])
    hi = np.zeros((3, n))
    has_hi = np.zeros(n, dtype=bool)
    r = np.flatnonzero(descends)
    for _ in range(LINE_EVALS):
        if not r.size:
            break
        t = step[r]
        if first is None:
            dr, s0 = d[r], slope0[r]
            xt = x[r] + t[:, None] * dr
            f, g = fun(xt)
            evals += r.size
            slope = np.einsum("kp,kp->k", g, dr)
            up = (f > f0[r] + c1 * t * s0) | (f >= lo[1, r])
            curved = ~up & (np.abs(slope) > -c2 * s0)
        else:  # the unit step, already tried on every row: r holds them all
            xt, f, g, slope, up, curved = first
            first = None
        done = ~up & ~curved
        a = r[done]
        xs[a], fs[a], gs[a], ok[a] = xt[done], f[done], g[done], True
        if done.all():
            break
        trial = np.array([t, f, slope])
        flip = curved & (slope * np.where(has_hi[r], hi[0, r] - t, 1.0) >= 0)
        hi[:, r[flip]] = lo[:, r[flip]]
        hi[:, r[up]] = trial[:, up]
        lo[:, r[curved]] = trial[:, curved]
        has_hi[r[up | flip]] = True
        r = r[~done]
        cut = has_hi[r]
        step[r[~cut]] *= 4
        if cut.any():
            step[r[cut]] = _trial_step(lo[:, r[cut]], hi[:, r[cut]])
    return ok, xs, fs, gs, evals


def _trial_step(lo, hi):
    """Minimiser of the cubic through both ends' values and slopes, else of the quadratic
    without hi's slope, else the midpoint; a tenth of the bracket from either end.
    ``lo`` and ``hi`` are (step, value, slope) triples of scalars or of equal-length rows."""
    (a, fa, da), (b, fb, db) = np.array([lo, hi], dtype=float)
    w = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = da + db - 3 * (fb - fa) / w
        d2 = np.sign(w) * np.sqrt(d1 * d1 - da * db)
        cubic = b - w * (db + d2 - d1) / (db - da + 2 * d2)
        quadratic = a - da * w * w / (2 * (fb - fa - da * w))
    t = np.where(np.isfinite(cubic), cubic, np.where(np.isfinite(quadratic), quadratic, a + w / 2))
    ends = a + 0.1 * w, b - 0.1 * w
    return np.clip(t, np.minimum(*ends), np.maximum(*ends))


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


def checked_integer(value, name: str) -> int:
    """``value`` as a Python int. A bool, a float, a Generator or any other
    non-integer is refused by type, so draws are keyed, and reports written,
    by value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


@dataclass
class DivergenceOptions:
    """Knobs for the divergence estimator; defaults match the shipped reports.

    Each must be an integer (``checked_integer``): ``seed`` at least 0,
    ``restarts`` at most ``MAX_RESTARTS`` and ``maxiter`` at least 1.
    ``observable_divergence`` refuses any other value with a ``ValueError``
    naming the field, before any search."""

    seed: int = 0
    restarts: int = 32
    maxiter: int = 2000


@dataclass(eq=False)
class DivergenceEstimate:
    """Upper estimate of the observable divergence with its witnessing pair: ``argmin``
    holds the unit vectors of E1's state (row 0) and E2's (row 1), read-only (2, d)."""

    value: float
    argmin: np.ndarray
    method: str
    restarts: int
    converged: bool
    converged_starts: int
    seed: int


def _pair_from_params(x: np.ndarray) -> np.ndarray:
    """The unit vectors (2, d) of the parameter row ``x`` of a feasible pair."""
    v = x.view(complex).reshape(2, -1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _params_from_pair(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The 4d real parameters of a pair, or a row of them for each row of
    equal-shape stacks: the real and imaginary part of each coordinate side
    by side, so that the parameters view as the two vectors."""
    return np.concatenate([v1, v2], axis=-1).astype(complex).view(float)


def _row_floats(d: int, outcomes: int) -> int:
    """Floats one row of the search holds at most, to within about 15%: its
    correction pairs, the inverse of their triangle R and its diagonal, twice
    while ``_Pairs.push`` rebuilds them, and its terms (2, outcomes, d)
    complex, twice over, and four points of 4d in ``_ratio_gradient``."""
    return 2 * MEMORY * (8 * d + MEMORY + 1) + 8 * d * (outcomes + 4)


def _floored(p: np.ndarray) -> np.ndarray:
    """Probabilities below ``PROB_FLOOR``, rounding negatives included, set to 0 in place."""
    p[p < PROB_FLOOR] = 0.0
    return p


def _effect_roots(w: np.ndarray, v: np.ndarray) -> tuple:
    """Factors L with E = L L^dagger of every effect in the two stacks
    (2, outcomes, d, d), from their eigendecomposition ``np.linalg.eigh`` (w, v)
    with negative rounding eigenvalues set to 0: their adjoints stacked into
    one (2, outcomes d, d) matrix per stack, and the factors side by side in
    one (2, d, outcomes d)."""
    root = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    n, x, d, _ = root.shape
    lift = root.conj().swapaxes(-1, -2).reshape(n, x * d, d)
    return lift, np.ascontiguousarray(root.swapaxes(1, 2).reshape(n, d, x * d))


def _ratio_gradient(x: np.ndarray, roots: tuple) -> tuple:
    """The unfloored ratio B(p1, p2) / |<v1|v2>| at the pair of unnormalised
    vectors z1, z2 held in each row of the stack ``x`` (k, 4d) (as
    ``_params_from_pair`` lays them out) and its gradient in that row; rows
    where a vector's norm is below 1e-12 or the fidelity below ``EPS_DEN``
    read (``INFEASIBLE``, 0). ``roots`` holds the factors of the two effect
    stacks as ``_effect_roots`` returns them. Each row's values are computed
    from that row alone.

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
    k = len(x)
    z = x.view(complex).reshape(k, 2, -1)
    xr = x.reshape(k, 2, -1)
    nz = np.sqrt(np.einsum("ksi,ksi->ks", xr, xr))
    c = np.einsum("ki,ki->k", z[:, 0].conj(), z[:, 1])
    overlap, norms = np.abs(c), nz[:, 0] * nz[:, 1]
    ok = (nz.min(axis=1) >= 1e-12) & (overlap >= EPS_DEN * norms)
    if not ok.all():
        value, grad = np.full(k, INFEASIBLE), np.zeros_like(x)
        if ok.any():
            value[ok], grad[ok] = _ratio_gradient(x[ok], roots)
        return value, grad
    lift, back = roots
    # one matrix-vector product per row and stack: no product spans rows
    y = (lift @ z[..., None]).reshape(k, 2, -1, z.shape[2])  # (k, 2, outcomes, d)
    yr = y.view(float)
    ny = np.sqrt(np.einsum("ksxi,ksxi->ksx", yr, yr))
    nz = nz[:, :, None]
    s = ny / nz
    f = overlap / norms
    ratio = np.einsum("kx,kx->k", s[:, 0], s[:, 1]) / f
    w = np.divide(s[:, ::-1], ny * (nz * f[:, None, None]), out=np.zeros(s.shape), where=ny > 0)
    g = (back @ (w[..., None] * y).reshape(k, 2, -1, 1))[..., 0]
    overlaps = np.empty((k, 2), dtype=complex)  # <z1|z2> and <z2|z1>
    overlaps[:, 0] = c
    np.conj(c, out=overlaps[:, 1])
    g -= (ratio[:, None] / overlaps)[:, :, None] * z[:, ::-1]
    return ratio, g.view(float).reshape(k, -1)


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
    returns an exact zero at the first pair attaining the least. Then an
    L-BFGS run (``minimize``) with the analytic gradient of the unfloored ratio
    (``_ratio_gradient``) starts from each top eigenvector of E1 paired with
    its best candidate in E2, and from ``restarts`` random starts. The starts
    run in lockstep, in blocks of ``START_BLOCK`` floats of search state taken
    in order; a run ends where it would end alone, so no block size changes
    the estimate. Each run is ranked by the value ``minimize`` returns with
    its point, which is the ratio there, so the estimate is the ratio at the
    reported pair, hence an upper bound on D: the first start that ends below
    ``ZERO_TOL`` wins, else the first least ratio. ``converged_starts``
    counts the runs, up to that first zero, that met a stop test.

    Outcomes are paired by position, not by label: the coset kernels label
    their outputs by coset, and programmed observables of different subgroups
    must still be compared. The ``divergence`` command aligns file labels first.

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
    seed, restarts, maxiter = (
        checked_integer(getattr(opts, name), name) for name in ("seed", "restarts", "maxiter")
    )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must lie in [0, {MAX_RESTARTS}], got {restarts}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter}")

    def estimate(value, pair, note, restarts_used, converged, converged_starts=0):
        pair.flags.writeable = False
        return DivergenceEstimate(
            value=value,
            argmin=pair,
            method=_method_string(restarts, note),
            restarts=restarts_used,
            converged=converged,
            converged_starts=converged_starts,
            seed=seed,
        )

    # one eigendecomposition of both stacks (numpy's eigh runs matrix by
    # matrix): the top eigenvectors for the candidates, the rest for the roots
    stacks = np.stack([e1.effects, e2.effects])
    w, v = np.linalg.eigh(stacks)
    top1, top2 = v[..., -1]
    if np.array_equal(e1.effects, e2.effects):
        note = "equal observables, D(E,E) = 1 at (v, v) without a search"
        return estimate(1.0, top1[[0, 0]], note, 0, True)
    d = e1.dim
    roots = _effect_roots(w, v)
    # analytic witness candidates: top eigenvectors of every effect pair
    low, col = _row_ratio_min(*stacks, top1, top2)
    i = int(np.argmin(low))
    if low[i] < ZERO_TOL:
        note = "exact-zero witness from eigenvector candidates"
        return estimate(0.0, np.stack([top1[i], top2[col[i]]]), note, 0, True)
    rows = np.flatnonzero(low < np.inf)
    seeds = _params_from_pair(top1[rows], top2[col[rows]])
    rng = np.random.default_rng(seed)
    n = len(seeds) + restarts

    # the first start that ends below ZERO_TOL, else the first least ratio:
    # blocks are searched in order, and a run one start at a time would stop
    # after that first zero, so the count of converged starts stops there too
    best, winner, count = INFEASIBLE, None, 0
    size = max(1, START_BLOCK // _row_floats(d, e1.n_outcomes))
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        x0 = seeds[lo:hi]
        x0 = np.concatenate([x0, rng.standard_normal((hi - lo - len(x0), 4 * d))])
        res = minimize(lambda x: _ratio_gradient(x, roots), x0, maxiter=maxiter)
        zero = np.flatnonzero(res.fun < ZERO_TOL)
        j = zero[0] if zero.size else np.argmin(res.fun)
        count += int(res.converged[: j + 1 if zero.size else None].sum())
        if res.fun[j] < best:
            best, winner = res.fun[j], (_pair_from_params(res.x[j]), bool(res.converged[j]))
        if zero.size:
            break
    if winner is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    value = _clamped(float(best))
    note = f"multi-start l-bfgs (memory {MEMORY}) on the unfloored ratio over pure pairs"
    return estimate(value, winner[0], note, restarts, winner[1] or value == 0.0, count)


def _method_string(restarts: int, note: str) -> str:
    return (
        f"{note}; upper bound on D (attained over pure pairs); restarts={restarts}; "
        f"gtol={GTOL:g}; ftol={FTOL:g}; "
        f"scan prob_floor={PROB_FLOOR:g}; clamp=[0,{CLAMP_HI}]"
    )
