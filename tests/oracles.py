"""Independent brute-force oracles, and small helpers, used only by the tests."""

import itertools
import json
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.optimize import minimize


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index enumeration."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def simplex_grid(n: int, subdivisions: int) -> np.ndarray:
    """Barycentric lattice on the probability simplex of n outcomes."""
    points = []
    for cuts in itertools.combinations(range(subdivisions + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(subdivisions + n - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / subdivisions


def bloch_vector_state(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _bloch_grid(theta_lo, theta_hi, phi_lo, phi_hi, n_theta, n_phi, closed_phi):
    thetas = np.linspace(theta_lo, theta_hi, n_theta)
    phis = np.linspace(phi_lo, phi_hi, n_phi, endpoint=closed_phi)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    states = np.empty((tt.size, 2), dtype=complex)
    states[:, 0] = np.cos(tt / 2)
    states[:, 1] = np.exp(1j * pp) * np.sin(tt / 2)
    return states, tt, pp


def bloch_grid_infimum(e1, e2, n_theta=25, n_phi=40, zooms=2, eps_den=1e-8):
    """Brute-force infimum of the divergence ratio over pure qubit pairs.

    Each stage enumerates a full product grid (n_theta * n_phi states per
    side, about 1e6 pairs) and then zooms the boxes around the argmin; the
    zoom stages squeeze out the discretization gap of the coarse pass.
    """
    s1 = np.stack(e1.effects)
    s2 = np.stack(e2.effects)
    boxes = [(0.0, np.pi, 0.0, 2 * np.pi), (0.0, np.pi, 0.0, 2 * np.pi)]
    best = np.inf
    arg = None
    for stage in range(zooms + 1):
        closed = stage > 0
        g1, t1, p1 = _bloch_grid(*boxes[0], n_theta, n_phi, closed)
        g2, t2, p2 = _bloch_grid(*boxes[1], n_theta, n_phi, closed)
        q1 = np.clip(np.einsum("si,xij,sj->sx", g1.conj(), s1, g1).real, 0.0, None)
        q2 = np.clip(np.einsum("si,xij,sj->sx", g2.conj(), s2, g2).real, 0.0, None)
        b = np.sqrt(q1) @ np.sqrt(q2).T
        f = np.abs(g1.conj() @ g2.T)
        ratio = np.where(f >= eps_den, b / np.maximum(f, eps_den), np.inf)
        i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
        if ratio[i, j] < best:
            best = float(ratio[i, j])
            arg = (t1[i], p1[i], t2[j], p2[j])
        dth = (boxes[0][1] - boxes[0][0]) / (n_theta - 1)
        dph = (boxes[0][3] - boxes[0][2]) / n_phi
        boxes = [
            (
                max(arg[0] - 2 * dth, 0.0),
                min(arg[0] + 2 * dth, np.pi),
                arg[1] - 2 * dph,
                arg[1] + 2 * dph,
            ),
            (
                max(arg[2] - 2 * dth, 0.0),
                min(arg[2] + 2 * dth, np.pi),
                arg[3] - 2 * dph,
                arg[3] + 2 * dph,
            ),
        ]
    return best


def smeared_qubit_observable(axis, eta=0.5):
    """Two-outcome qubit observable with effects (1 +- eta axis.sigma)/2."""
    from qmultimeter import Observable
    from qmultimeter.groups import PAULI_X, PAULI_Y, PAULI_Z

    axis = np.asarray(axis, dtype=float)
    m = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    eye = np.eye(2)
    return Observable([(eye + eta * m) / 2, (eye - eta * m) / 2])


def _program_through_duals(mm, xi, dual):
    """Every pointer effect lifted to 1 x Z(x), pulled back by ``dual`` on the
    whole system x probe space, then contracted with 1 x xi over the probe."""
    from qmultimeter import Observable
    from qmultimeter.linalg import hermitianize

    d_sys, d_probe = mm.system_dim, mm.probe_dim
    eye = np.eye(d_sys)
    effects = []
    for z in mm.pointer.effects:
        d4 = dual(np.kron(eye, z)).reshape(d_sys, d_probe, d_sys, d_probe)
        effects.append(hermitianize(np.einsum("ikml,lk->im", d4, xi.matrix)))
    return Observable(effects, outcomes=list(mm.pointer.outcomes), atol_complete=1e-8)


def partial_swap_channel(d: int):
    """Unitary channel permuting A x B x C to B x A x C on three d-dim factors:
    its one Kraus operator is the dense d^3 x d^3 0/1 matrix of basis vector
    (a, b, c) -> (b, a, c). It is the interaction of the covariant multimeter,
    which the package never builds (753 MB at d = 19)."""
    from qmultimeter import QuantumChannel

    perm = np.arange(d**3).reshape(d, d, d).transpose(1, 0, 2).reshape(-1)
    return QuantumChannel([np.eye(d**3, dtype=complex)[perm]])


def heisenberg_program(mm, xi):
    """Programmed observable through the device's dense Heisenberg duals:
    the sum of K†(1 x Z(x))K over the dense Kraus operators. A covariant
    device carries no channel, so its partial swap is built here."""
    from qmultimeter.groups import CovariantMultimeter

    covariant = isinstance(mm, CovariantMultimeter)
    kraus = (partial_swap_channel(mm.system_dim) if covariant else mm.interaction).kraus
    return _program_through_duals(mm, xi, lambda b: sum(k.conj().T @ b @ k for k in kraus))


def gathered_heisenberg_program(mm, xi):
    """Programmed observable of a partial-SWAP covariant device through duals
    gathered by index, with no channel of the package.

    The swap's Kraus operator is K = eye(d^3)[perm] for the basis map
    (a, b, c) -> (b, a, c), so K†BK = B[inv][:, inv] with inv the inverse
    permutation. With no dense (d^3)^2 products this oracle reaches the d=11
    phase-space device in seconds, where ``heisenberg_program`` takes minutes.
    """
    d = mm.representation.degree
    perm = np.arange(d**3).reshape(d, d, d).transpose(1, 0, 2).reshape(-1)
    inv = np.argsort(perm)
    return _program_through_duals(mm, xi, lambda b: b[np.ix_(inv, inv)])


def einsum_margins(e1, e2, trials, seed, f_prog, kernels=None, f_kern=1.0):
    """Margins of ``verify._sampled_margins`` with the Born rule and the state
    overlaps written as unoptimised einsums over the same seeded vectors."""
    rng = np.random.default_rng(seed)
    vecs, stats = [], []
    for k, e in enumerate((e1, e2)):
        v = rng.standard_normal((trials, e.dim)) + 1j * rng.standard_normal((trials, e.dim))
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        q = np.clip(np.einsum("si,xij,sj->sx", v.conj(), np.stack(e.effects), v).real, 0.0, None)
        if kernels is not None:
            q = np.clip(q @ kernels[k].kernel, 0.0, None)
        vecs.append(v)
        stats.append(q)
    f_states = np.abs(np.einsum("si,si->s", vecs[0].conj(), vecs[1]))
    return np.sqrt(stats[0] * stats[1]).sum(axis=1) - f_states * f_prog * f_kern


@lru_cache(maxsize=4)
def _sharpmin_tables(grid: int):
    xs = np.linspace(0.0, 1.0, grid)
    a = xs[:, None, None, None]
    b = xs[None, :, None, None]
    c = xs[None, None, :, None]
    e = xs[None, None, None, :]
    plus = np.minimum(np.sqrt(2 * a * c), np.sqrt(2 * (1 - b) * (1 - e)))
    minus = np.minimum(np.sqrt(2 * (1 - a) * e), np.sqrt(2 * b * (1 - c)))
    return xs, plus, minus


def _sharpmin_objective(x: np.ndarray, sp: float, sm: float) -> float:
    a, b, c, e = np.clip(x, 0.0, 1.0)
    terms = []
    if sp > 0.0:
        terms.append(np.sqrt(2 * a * c) / sp)
        terms.append(np.sqrt(2 * (1 - b) * (1 - e)) / sp)
    if sm > 0.0:
        terms.append(np.sqrt(2 * (1 - a) * e) / sm)
        terms.append(np.sqrt(2 * b * (1 - c)) / sm)
    return float(min(terms))


def sharpmin_oracle(t: float, grid: int = 41, refine: bool = True) -> float:
    """Sharp-pair programming bound at axis overlap ``t`` by brute force: the
    four-parameter splitting table maximized numerically.

    A lattice scan over the unit box seeds a local simplex refinement. At
    |t| = 1 the two terms with vanishing denominators are dropped from the
    minimum (they diverge).
    """
    if abs(t) > 1.0:
        raise ValueError(f"axis overlap must lie in [-1, 1], got {t}")
    sp = float(np.sqrt(1.0 + t))
    sm = float(np.sqrt(1.0 - t))
    xs, plus, minus = _sharpmin_tables(grid)

    if sm == 0.0:
        vals = plus / sp
    elif sp == 0.0:
        vals = minus / sm
    else:
        vals = np.minimum(plus / sp, minus / sm)
    flat = int(np.argmax(vals))
    best = float(vals.reshape(-1)[flat])
    idx = np.unravel_index(flat, vals.shape)

    if not refine:
        return best

    starts = [np.array([xs[i] for i in idx])]
    # balanced splitting: all four terms equal; numerically confirmed optimal,
    # seeding it keeps the refined curve symmetric to machine precision
    a_bal = sp / (sp + sm) if sp + sm > 0 else 1.0
    starts.append(np.array([a_bal, 1.0 - a_bal, a_bal, 1.0 - a_bal]))

    def neg(theta):
        # smooth box parameterization for the simplex search
        return -_sharpmin_objective(np.sin(theta) ** 2, sp, sm)

    for x0 in starts:
        theta0 = np.arcsin(np.sqrt(np.clip(x0, 0.0, 1.0)))
        best = max(best, _sharpmin_objective(x0, sp, sm))
        res = minimize(
            neg,
            theta0,
            method="Nelder-Mead",
            options={"maxiter": 4000, "fatol": 1e-12, "xatol": 1e-9},
        )
        best = max(best, float(-res.fun))
    return best


# The lockstep L-BFGS's line search and correction-pair update as they ran
# before the unit step was tried on every row in one pass and the pairs of a
# stack whose rows all update were written through slices: every trial picks
# its rows by index array and every update masks its rows. The package's
# versions must match them bit for bit.


def wolfe_steps_oracle(fun, x, f0, g0, d):
    """``divergence._wolfe_steps`` with every trial, the first included, on
    the rows picked out by an index array."""
    from qmultimeter.divergence import LINE_EVALS, WOLFE, _trial_step

    c1, c2 = WOLFE
    n = len(x)
    slope0 = np.einsum("kp,kp->k", g0, d)
    xs, fs, gs = x.copy(), f0.copy(), g0.copy()
    ok = np.zeros(n, dtype=bool)
    step = np.ones(n)
    # lo: the best (step, value, slope) with sufficient decrease; hi: a bracket's other end
    lo = np.array([np.zeros(n), f0, slope0])
    hi = np.zeros((3, n))
    has_hi = np.zeros(n, dtype=bool)
    r = np.flatnonzero(slope0 < 0)
    evals = 0
    for _ in range(LINE_EVALS):
        if not r.size:
            break
        t, dr, s0 = step[r], d[r], slope0[r]
        xt = x[r] + t[:, None] * dr
        f, g = fun(xt)
        evals += r.size
        slope = np.einsum("kp,kp->k", g, dr)
        up = (f > f0[r] + c1 * t * s0) | (f >= lo[1, r])
        curved = ~up & (np.abs(slope) > -c2 * s0)
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


def pairs_oracle(n: int, p: int):
    """A ``divergence._Pairs`` whose ``direction`` forms Y u - g twice and
    whose ``push`` masks its rows even when every row updates."""
    from qmultimeter.divergence import _Pairs

    class MaskedPairs(_Pairs):
        def direction(self, g):
            gamma = self.gamma[:, None, None]
            u = self.rinv @ (self.s @ g[..., None])
            yu = self.y.swapaxes(1, 2) @ u
            rhs = self.diag[..., None] * u + gamma * (self.y @ (yu - g[..., None]))
            v = self.rinv.swapaxes(1, 2) @ rhs
            d = (gamma * (yu - g[..., None]) - self.s.swapaxes(1, 2) @ v)[..., 0]
            first = self.diag[:, -1] == 0
            if first.any():
                d[first] = -g[first] * (1 / np.sqrt(np.einsum("kp,kp->k", g[first], g[first])))[:, None]
            return d

        def push(self, s, y):
            sy = np.einsum("kp,kp->k", s, y)
            rows = sy > 0
            if not rows.any():
                return
            s, y, sy = s[rows], y[rows], sy[rows]
            col = self.rinv[rows, 1:, 1:] @ (self.s[rows, 1:] @ y[..., None])
            for kept in (self.s, self.y, self.diag):
                kept[rows, :-1] = kept[rows, 1:]
            self.rinv[rows, :-1, :-1] = self.rinv[rows, 1:, 1:]
            self.rinv[rows, :-1, -1] = -col[..., 0] / sy[:, None]
            self.rinv[rows, -1, -1] = 1 / sy
            self.s[rows, -1], self.y[rows, -1], self.diag[rows, -1] = s, y, sy
            self.gamma[rows] = sy / np.einsum("kp,kp->k", y, y)

    return MaskedPairs(n, p)


def top_eigenvectors(effects: np.ndarray) -> np.ndarray:
    """The eigenvector of each effect's largest eigenvalue, as ``eigh`` orders them."""
    return np.linalg.eigh(effects)[1][:, :, -1]


def full_ratio_matrix(stack1, stack2, states1, states2):
    """Floored candidate-scan ratio of every pair of two pure-state
    collections at once, inf where a pair is near orthogonal."""
    from qmultimeter.divergence import EPS_DEN, PROB_FLOOR

    p1 = np.einsum("si,xij,sj->sx", states1.conj(), stack1, states1).real
    p2 = np.einsum("si,xij,sj->sx", states2.conj(), stack2, states2).real
    p1 = np.clip(p1, 0.0, None)
    p2 = np.clip(p2, 0.0, None)
    p1[p1 < PROB_FLOOR] = 0.0
    p2[p2 < PROB_FLOOR] = 0.0
    # sums in the scan's order, term by term, so that any block of its rows
    # matches the full matrix bit for bit
    q1, q2 = np.sqrt(p1)[:, None, :], np.sqrt(p2)[None, :, :]
    b = q1[..., 0] * q2[..., 0]
    for x in range(1, q1.shape[-1]):
        b = b + q1[..., x] * q2[..., x]
    ar, ai = states1.real[:, None, :], states1.imag[:, None, :]
    br, bi = states2.real[None, :, :], states2.imag[None, :, :]
    re = ar[..., 0] * br[..., 0] + ai[..., 0] * bi[..., 0]
    im = ar[..., 0] * bi[..., 0] - ai[..., 0] * br[..., 0]
    for i in range(1, ar.shape[-1]):
        re = re + ar[..., i] * br[..., i] + ai[..., i] * bi[..., i]
        im = im + ar[..., i] * bi[..., i] - ai[..., i] * br[..., i]
    f = np.hypot(re, im)
    return np.where(f >= EPS_DEN, b / np.maximum(f, EPS_DEN), np.inf)


def full_grid_ratio_min(stack1, stack2, states1, states2):
    """Candidate scan over the whole product of two pure-state collections at
    once: the first minimum of the full ratio matrix and the pair attaining
    it, or inf when every pair is near orthogonal."""
    ratio = full_ratio_matrix(stack1, stack2, states1, states2)
    idx = np.unravel_index(np.argmin(ratio), ratio.shape)
    return float(ratio[idx]), states1[idx[0]], states2[idx[1]]


def scipy_multistart_divergence(e1, e2, opts=None):
    """The divergence estimate by derivative-free search: one scipy
    Nelder-Mead run per start, one after another, on the unfloored ratio
    (probabilities clipped at 0, not floored) of a scalar objective; the same
    candidate scan, starts and payload as ``observable_divergence``. The value
    is the lowest ratio any run evaluated, at the pair it was evaluated at. It
    shares no optimizer code with the package, whose search is its own L-BFGS."""
    from qmultimeter import divergence as dv

    penalty = 1e6  # above every feasible ratio
    opts = opts or dv.DivergenceOptions()
    d = e1.dim
    stack1 = np.stack(e1.effects)
    stack2 = np.stack(e2.effects)
    rng = np.random.default_rng(opts.seed)

    best = {"value": np.inf, "pair": None}

    def probs(stack, psi):
        return np.clip(np.einsum("i,xij,j->x", psi.conj(), stack, psi).real, 0.0, None)

    def objective(x):
        v1, v2 = x.view(complex).reshape(2, d)  # the layout of dv._params_from_pair
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 < 1e-12 or n2 < 1e-12:
            return penalty
        v1, v2 = v1 / n1, v2 / n2
        f = pure_fidelity(v1, v2)
        if f < dv.EPS_DEN:
            return penalty + (dv.EPS_DEN - f)
        val = float(np.sqrt(probs(stack1, v1) * probs(stack2, v2)).sum()) / f
        if val < best["value"]:
            best["value"] = val
            best["pair"] = (v1, v2)
        return val

    top1 = top_eigenvectors(e1.effects)
    top2 = top_eigenvectors(e2.effects)
    ratio = full_ratio_matrix(stack1, stack2, top1, top2)
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    if ratio[i, j] < dv.ZERO_TOL:
        return dv.DivergenceEstimate(
            value=0.0,
            argmin=np.stack([top1[i], top2[j]]),
            method=dv._method_string(opts.restarts, "exact-zero witness from eigenvector candidates"),
            restarts=0,
            converged=True,
            converged_starts=0,
            seed=opts.seed,
        )
    # one seed per row: each top eigenvector of e1 with its best partner in e2
    starts = [
        dv._params_from_pair(top1[r], top2[np.argmin(row)])
        for r, row in enumerate(ratio)
        if row.min() < np.inf
    ]
    for _ in range(opts.restarts):
        starts.append(rng.standard_normal(4 * d))

    converged_starts = 0
    for x0 in starts:
        res = minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": opts.maxiter, "fatol": 1e-9, "xatol": 1e-7},
        )
        converged_starts += bool(res.success)
        if best["value"] < dv.ZERO_TOL:
            break

    if best["pair"] is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    v1, v2 = best["pair"]
    value = dv._clamped(best["value"])
    return dv.DivergenceEstimate(
        value=value,
        argmin=np.stack([v1, v2]),
        method=dv._method_string(opts.restarts, "multi-start nelder-mead over pure pairs"),
        restarts=opts.restarts,
        converged=converged_starts > 0 or value == 0.0,
        converged_starts=converged_starts,
        seed=opts.seed,
    )


def eigvalsh_observable_check(effects, outcomes=None, atol_complete=1e-9):
    """``Observable`` validation by the smallest eigenvalues of the whole
    stack at once, with no blocks: raises the ``ValueError`` the constructor
    must raise for these inputs, or returns None when it must accept them.
    An effect is positive only when the smallest eigenvalue of its Hermitian
    part E/2 + E^dagger/2 is at least -TOL_PSD, so a NaN eigenvalue fails."""
    from qmultimeter.linalg import TOL_HERM, TOL_PSD

    effects = [np.asarray(e, dtype=complex) for e in effects]
    # each effect in turn: a matrix, then finite, before any other check
    for e in effects:
        if e.ndim != 2:
            raise ValueError(f"expected a matrix, got array of shape {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("non-finite entry (NaN or inf) in matrix")
    if not effects:
        raise ValueError("observable needs at least one effect")
    d = effects[0].shape[0]
    n = len(effects)
    n_ok = next((j for j, e in enumerate(effects) if e.shape != (d, d)), n)
    stack = np.array(effects[:n_ok]).reshape(n_ok, d, d)
    herm = stack.conj().transpose(0, 2, 1)
    defects = np.max(np.abs(stack - herm), axis=(1, 2))
    n_herm = next((j for j, x in enumerate(defects) if x > TOL_HERM), n_ok)
    lows = np.linalg.eigvalsh(stack[:n_herm] / 2 + herm[:n_herm] / 2)[:, 0]
    negative = np.flatnonzero(~(lows >= -TOL_PSD))
    if negative.size:
        low = lows[negative[0]]
        raise ValueError(f"effect has eigenvalue {low:.3e} below -{TOL_PSD:.1e}")
    if n_herm < n_ok:
        raise ValueError(
            f"matrix is not Hermitian: defect {defects[n_herm]:.3e} > {TOL_HERM:.1e}"
        )
    if n_ok < n:
        raise ValueError("effects must be square matrices of equal dimension")
    total = sum(effects)
    defect = float(np.max(np.abs(total - np.eye(d))))
    if defect > atol_complete:
        raise ValueError(
            f"effects sum to identity only within {defect:.3e} > {atol_complete:.1e}"
        )
    labels = [str(i) for i in range(n)] if outcomes is None else outcomes
    if len(labels) != n:
        raise ValueError("one outcome label per effect required")


def left_cosets(group, generator) -> list:
    """Partition of element indices into left cosets of the cyclic subgroup
    ``<generator>``, each sorted, in the order of the coset helper
    ``groups._coset_relabellings`` that the coset kernels are built from."""
    from qmultimeter.groups import _coset_relabellings, cyclic_subgroup

    h = cyclic_subgroup(group, generator)
    relabel = _coset_relabellings(group, h[:, None])[0][0]
    return np.argsort(relabel, kind="stable").reshape(-1, len(h)).tolist()


def walked_powers(group, generator) -> list:
    """The powers e, g, g^2, ... of ``generator``, each the left product of
    the generator with the one before, one table lookup at a time."""
    powers = [group.identity]
    while (g := int(group.table[generator, powers[-1]])) != group.identity:
        powers.append(g)
    return powers


def walked_cosets(group, generator) -> list:
    """Left cosets of ``<generator>`` by walking the table: the identity's
    first, then that of each element not yet covered, in index order."""
    cosets, powers = [], walked_powers(group, generator)
    for g in [group.identity, *range(group.order)]:
        if not any(g in c for c in cosets):
            cosets.append(sorted(int(group.table[g, h]) for h in powers))
    return cosets


def sharp_generators(rep) -> list:
    """Every generator of a cyclic subgroup of order #G / degree."""
    want = rep.group.order // rep.degree
    return [g for g in range(rep.group.order) if len(walked_powers(rep.group, g)) == want]


def root_of_unity_index(w, u, m) -> np.ndarray:
    """For eigenvalues ``w`` of ``u`` with u^m scalar, the k of the m-th root
    phi exp(2 pi i k / m) nearest each, phi the principal m-th root of the
    scalar: the index taken from the nearest candidate root, not from a phase."""
    phi = np.exp(1j * np.angle(np.linalg.matrix_power(u, m)[0, 0]) / m)
    roots = phi * np.exp(2j * np.pi * np.arange(m) / m)
    return np.argmin(np.abs(np.asarray(w)[:, None] - roots[None, :]), axis=1)


def eig_program_states(u, m) -> tuple:
    """Eigenvalues and eigenvectors of a stack ``u`` of normal matrices of
    order m up to a scalar, by a general ``np.linalg.eig``: the values sorted
    by their root-of-unity index k, rounded from the phase against phi, the
    principal m-th root of the first eigenvalue's m-th power; the sorted
    vectors orthonormalised by QR; each column's phase fixed through the
    scalar abs of its largest entry. The eigenbasis the package took before
    it ran one Hermitian ``eigh``."""
    eigvals, vecs = np.linalg.eig(u)
    phi = np.array([(complex(w) ** m) ** (1 / m) for w in eigvals[:, 0]])
    k = np.rint(np.angle(eigvals / phi[:, None]) * (m / (2 * np.pi))) % m
    order = np.argsort(k, axis=-1, kind="stable")
    eigvals = np.take_along_axis(eigvals, order, axis=-1)
    vecs = np.linalg.qr(np.take_along_axis(vecs, order[:, None, :], axis=-1))[0]
    return eigvals, phase_fixed_by_column(vecs)


def phase_fixed_by_column(vecs) -> np.ndarray:
    """A stack of bases with each column divided, one column at a time, by
    the unit phase x / abs(x) of its largest entry x, through the scalar abs."""
    vecs = np.array(vecs)
    for basis in vecs:
        for col in range(basis.shape[1]):
            x = basis[np.argmax(np.abs(basis[:, col])), col]
            basis[:, col] = basis[:, col] / (x / abs(x))
    return vecs


def schur_vectors_by_index(u, m) -> tuple:
    """Eigenvalues and Schur vectors of a normal matrix with u^m scalar, ordered
    by root-of-unity index: a unitary eigenbasis from an independent
    factorisation."""
    t, z = scipy.linalg.schur(u, output="complex")
    order = np.argsort(root_of_unity_index(np.diag(t), u, m), kind="stable")
    return np.diag(t)[order], z[:, order]


def trivial_observable(dim: int, n_outcomes: int = 1):
    """Observable whose every effect is the identity over ``n_outcomes``."""
    from qmultimeter import Observable

    return Observable([np.eye(dim, dtype=complex) / n_outcomes] * n_outcomes)


def pure_fidelity(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>| for unit vectors; equals fidelity of the projectors."""
    return float(abs(np.vdot(psi1, psi2)))


def state_root(m: np.ndarray) -> np.ndarray:
    """The square root V sqrt(w) V^dagger of a state matrix from one ``eigh``,
    with eigenvalues below 1e-12 of the largest set to zero: that relative
    clip decides the numerical rank, as the package's ``REL_RANK_CLIP`` does."""
    from qmultimeter.linalg import hermitianize

    w, v = np.linalg.eigh(hermitianize(m))
    w = np.clip(w, 0.0, None)
    w[w < w.max() * 1e-12] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def sqrt_fidelity(m1: np.ndarray, m2: np.ndarray) -> float:
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) of two state matrices, evaluated as
    the trace norm |sqrt(rho1) sqrt(rho2)|_1 of the product of the two square
    roots, which is the same quantity without the square roots of noise
    eigenvalues that the middle product would carry; clipped into [0, 1]."""
    prod = state_root(m1) @ state_root(m2)
    return min(max(float(np.linalg.svd(prod, compute_uv=False).sum()), 0.0), 1.0)


def channel_output(channel, rho):
    """Schroedinger-picture action sum_k K rho K^dagger of a Kraus channel on a state."""
    from qmultimeter import DensityState

    return DensityState(sum(k @ rho.matrix @ k.conj().T for k in channel.kraus))


def ancilla_extended(e):
    """The observable E x 1 on C^d x C^d: pure states there reach, through
    their reductions, every state of C^d."""
    from qmultimeter import Observable

    return Observable(np.kron(e.effects, np.eye(e.dim)), outcomes=list(e.outcomes))


def covariant_effects_oracle(rep, m: np.ndarray) -> np.ndarray:
    """The covariant effects hermitianize((d/#G) U(g) m U(g)^dagger) of a seed
    m as two dense products per element: the triple-product formula the
    package's seed-factor form must match."""
    from qmultimeter.linalg import hermitianize

    u = rep.matrices
    return hermitianize((rep.degree / rep.group.order) * u @ m @ u.conj().transpose(0, 2, 1))


def dense_covariant(rep, seed):
    """The covariant observable of the state ``seed`` as a dense observable,
    validated in full, of the triple-product effects of
    ``covariant_effects_oracle``, labelled by the group elements."""
    from qmultimeter import Observable

    return Observable(covariant_effects_oracle(rep, seed.matrix), outcomes=list(rep.group.names))


def programmed_covariant(rep, seed):
    """The covariant observable of the state ``seed`` as the package builds
    it: the covariant multimeter of ``rep`` programmed with the probe
    eta x seed^T, eta maximally mixed, so it keeps its Gram factors."""
    from qmultimeter import DensityState, covariant_multimeter, covariant_program_state, program

    eta = DensityState.maximally_mixed(rep.degree)
    return program(covariant_multimeter(rep), covariant_program_state(eta, seed))


def sharp_from_subgroup(rep, generator, psi: np.ndarray):
    """Sharp observable from coset-merging the covariant POVM seeded with psi.

    psi must be an eigenvector of U(generator); the effects are the orbit of
    its projection under the walked coset representatives.
    """
    from qmultimeter import Observable
    from qmultimeter.groups import EIGVEC_INVARIANCE_TOL
    from qmultimeter.linalg import hermitianize

    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != rep.degree:
        raise ValueError("vector dimension does not match the representation degree")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("psi must be a unit vector")
    p = np.outer(psi, psi.conj())
    u_gen = rep.matrices[generator]
    if float(np.max(np.abs(u_gen @ p @ u_gen.conj().T - p))) > EIGVEC_INVARIANCE_TOL:
        raise ValueError("psi is not an eigenvector of the subgroup generator")
    firsts = [coset[0] for coset in walked_cosets(rep.group, generator)]
    u = rep.matrices[firsts]
    effects = hermitianize(u @ p @ u.conj().transpose(0, 2, 1))
    return Observable(effects, outcomes=[rep.group.names[g] for g in firsts])


def sharp_projector_defects(effects: np.ndarray) -> tuple:
    """The largest entries of E E - E over an effect stack and of E_x E_y over
    its pairs x < y, by dense products: the check the phase-space demo ran on
    its merged effects before it read their Gram factors, which held each to
    1e-8."""
    idem = float(np.max(np.abs(effects @ effects - effects)))
    first, second = np.triu_indices(len(effects), 1)
    orth = float(np.max(np.abs(effects[first] @ effects[second]), initial=0.0))
    return idem, orth


def sharp_defects_oracle(factors: np.ndarray) -> tuple:
    """The three bounds of ``verify._sharp_defects`` for one (k, d, s) factor
    stack, one vector at a time, as the phase-space demo took them before it
    certified its vectors as one stack: the stacked certificate must give
    each vector these bits."""
    k, d, s = factors.shape
    rows = np.arange(k)
    norms = np.einsum("kds,kds->ks", factors.conj(), factors).real
    pivot = norms.argmax(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = factors[rows, :, pivot] / np.sqrt(norms[rows, pivot])[:, None]
    b = np.einsum("kd,kds->ks", u.conj(), factors)
    residual = factors - u[:, :, None] * b[:, None, :]
    r = np.sqrt(np.einsum("kds,kds->k", residual.conj(), residual).real)
    mu = np.einsum("ks,ks->k", b.conj(), b).real
    size = np.sqrt(mu)
    delta, c = r * (2 * size + r), u * size[:, None]
    gram = c.conj() @ c.T
    idem = np.abs(gram.diagonal().real - 1.0) * mu + delta * (2 * mu + 1 + delta)
    orth = np.abs(gram) * (size[:, None] * size) + mu[:, None] * delta
    orth += delta[:, None] * (mu + delta)
    orth.flat[:: k + 1] = 0.0  # the pairs x != y; the bound is symmetric in them
    slack = (d + 2 * s) * np.finfo(float).eps
    return float(delta.max()), float(idem.max() + slack), float(orth.max() + slack)


def estimate_recompute(e1, e2, est) -> float:
    """Re-evaluate the reported ratio at the reported argmin pair: the
    unfloored ratio the search minimises, or for a zero estimate the floored
    candidate-scan ratio that certifies it."""
    from qmultimeter.divergence import (
        _clamped,
        _effect_roots,
        _params_from_pair,
        _ratio_gradient,
        _row_ratio_min,
    )

    stacks = np.stack([e1.effects, e2.effects])
    if est.value == 0.0:
        raw = _row_ratio_min(*stacks, est.argmin[:1], est.argmin[1:])[0][0]
    else:
        roots = _effect_roots(*np.linalg.eigh(stacks))
        raw = _ratio_gradient(_params_from_pair(*est.argmin)[None], roots)[0][0]
    return _clamped(float(raw))


# JSON decoders and encoders the package does not need: states (the estimate
# document's argmin), channels and kernels, in the package's matrix format


def state_from_json(doc: dict):
    from qmultimeter import DensityState
    from qmultimeter.serialize import matrix_from_json

    s = DensityState(matrix_from_json(doc["matrix"]))
    if s.dim != int(doc["dim"]):
        raise ValueError("declared dim does not match the matrix")
    return s


def channel_to_json(c) -> dict:
    from qmultimeter.serialize import matrix_to_json

    return {
        "in_dim": c.in_dim,
        "out_dim": c.out_dim,
        "kraus": [matrix_to_json(k) for k in c.kraus],
    }


def channel_from_json(doc: dict):
    from qmultimeter import QuantumChannel
    from qmultimeter.serialize import matrix_from_json

    c = QuantumChannel([matrix_from_json(k) for k in doc["kraus"]])
    if (c.in_dim, c.out_dim) != (int(doc["in_dim"]), int(doc["out_dim"])):
        raise ValueError("declared dims do not match the Kraus operators")
    return c


def postprocessing_to_json(l) -> dict:
    doc = {
        "n_in": l.n_in,
        "n_out": l.n_out,
        "entries": [float(x) for x in l.kernel.reshape(-1)],
    }
    if l.out_labels is not None:
        doc["out_labels"] = list(l.out_labels)
    return doc


def postprocessing_from_json(doc: dict):
    from qmultimeter import PostProcessing

    n_in, n_out = int(doc["n_in"]), int(doc["n_out"])
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.size != n_in * n_out:
        raise ValueError(f"expected {n_in * n_out} kernel entries, got {entries.size}")
    return PostProcessing(entries.reshape(n_in, n_out), out_labels=doc.get("out_labels"))


def save_json(doc: dict, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
