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


def heisenberg_program(mm, xi):
    """Programmed observable through the device's dense Heisenberg duals:
    the sum of K†(1 x Z(x))K over the dense Kraus operators."""
    kraus = mm.interaction.kraus
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
    is the lowest ratio any run evaluated, at the pair it was evaluated at."""
    from qmultimeter import divergence as dv
    from qmultimeter.quantum import DensityState

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

    top1 = dv._top_eigenvectors(e1.effects)
    top2 = dv._top_eigenvectors(e2.effects)
    ratio = full_ratio_matrix(stack1, stack2, top1, top2)
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    if ratio[i, j] < dv.ZERO_TOL:
        return dv.DivergenceEstimate(
            value=0.0,
            argmin=(DensityState.from_vector(top1[i]), DensityState.from_vector(top2[j])),
            method=dv._method_string(opts.restarts, "exact-zero witness from eigenvector candidates"),
            restarts=0,
            converged=True,
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

    converged = False
    for x0 in starts:
        res = minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": opts.maxiter, "fatol": 1e-9, "xatol": 1e-7},
        )
        converged = converged or bool(res.success)
        if best["value"] < dv.ZERO_TOL:
            break

    if best["pair"] is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    v1, v2 = best["pair"]
    value = dv._clamped(best["value"])
    return dv.DivergenceEstimate(
        value=value,
        argmin=(DensityState.from_vector(v1), DensityState.from_vector(v2)),
        method=dv._method_string(opts.restarts, "multi-start nelder-mead over pure pairs"),
        restarts=opts.restarts,
        converged=converged or value == 0.0,
        seed=opts.seed,
    )


def eigvalsh_observable_check(effects, outcomes=None, atol_complete=1e-9):
    """``Observable`` validation by smallest eigenvalues alone, with no
    Cholesky certificate: raises the ``ValueError`` the constructor must raise
    for these inputs, or returns None when it must accept them."""
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
    lows = np.linalg.eigvalsh((stack[:n_herm] + herm[:n_herm]) / 2)[:, 0]
    negative = np.flatnonzero(lows < -TOL_PSD)
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


def walked_cosets(group, sub) -> list:
    """Left cosets by walking the table: the identity's first, then that of
    each element not yet covered, in index order."""
    cosets = []
    for g in [group.identity, *range(group.order)]:
        if not any(g in c for c in cosets):
            cosets.append(sorted(group.mul(g, h) for h in sub.elements))
    return cosets


def program_vectors_by_column(u) -> np.ndarray:
    """Schur vectors ordered by eigenvalue phase, each column's phase fixed
    one column at a time through the scalar abs of its largest entry."""
    t, z = scipy.linalg.schur(u, output="complex")
    order = np.argsort(np.mod(np.angle(np.diag(t)), 2 * np.pi), kind="stable")
    vecs = z[:, order].copy()
    for col in range(vecs.shape[1]):
        x = vecs[np.argmax(np.abs(vecs[:, col])), col]
        vecs[:, col] = vecs[:, col] / (x / abs(x))
    return vecs


def trivial_observable(dim: int, n_outcomes: int = 1):
    """Observable whose every effect is the identity over ``n_outcomes``."""
    from qmultimeter import Observable

    return Observable([np.eye(dim, dtype=complex) / n_outcomes] * n_outcomes)


def pure_fidelity(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>| for unit vectors; equals fidelity of the projectors."""
    return float(abs(np.vdot(psi1, psi2)))


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
