"""Bhattacharyya coefficient and the observable divergence estimated over state pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .quantum import (
    DensityState,
    Observable,
    fidelity,
    outcome_distribution,
    pure_fidelity,
)

EPS_DEN = 1e-8        # state pairs closer to orthogonal than this are excluded
ZERO_TOL = 1e-10      # any evaluated ratio below this certifies an exact zero
PROB_FLOOR = 1e-13    # probabilities below this are treated as exact zeros
BLOCH_GRID = 40       # per-angle resolution of the qubit grid scan
FATOL = 1e-9          # Nelder-Mead tolerances on the objective and the parameters
XATOL = 1e-7
CLAMP_HI = 1.0 + 1e-9
_PENALTY = 1e6


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
    e1: Observable, e2: Observable, rho1: DensityState, rho2: DensityState,
    eps_den: float = EPS_DEN,
) -> float:
    """Bhattacharyya of the two outcome distributions divided by the state fidelity."""
    f = fidelity(rho1, rho2)
    if f < eps_den:
        raise ValueError(f"state pair is near orthogonal (fidelity {f:.3e} < {eps_den:.1e})")
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


def _floored_probs(stack: np.ndarray, psi: np.ndarray) -> np.ndarray:
    p = np.einsum("i,xij,j->x", psi.conj(), stack, psi).real
    p = np.clip(p, 0.0, None)
    p[p < PROB_FLOOR] = 0.0
    return p


def _pair_ratio(stack1, stack2, v1, v2, f: float) -> float:
    """Overlap of the floored statistics of one pure pair over its fidelity ``f``."""
    p1 = _floored_probs(stack1, v1)
    p2 = _floored_probs(stack2, v2)
    return float(np.sqrt(p1 * p2).sum()) / f


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
    first pair attaining it, or inf when every pair is near orthogonal."""
    p1 = np.einsum("si,xij,sj->sx", states1.conj(), stack1, states1).real
    p2 = np.einsum("si,xij,sj->sx", states2.conj(), stack2, states2).real
    p1 = np.clip(p1, 0.0, None)
    p2 = np.clip(p2, 0.0, None)
    p1[p1 < PROB_FLOOR] = 0.0
    p2[p2 < PROB_FLOOR] = 0.0
    b = np.sqrt(p1) @ np.sqrt(p2).T
    f = np.abs(states1.conj() @ states2.T)
    ratio = np.where(f >= EPS_DEN, b / np.maximum(f, EPS_DEN), np.inf)
    idx = np.unravel_index(np.argmin(ratio), ratio.shape)
    return float(ratio[idx]), states1[idx[0]], states2[idx[1]]


def _top_eigenvectors(effects) -> np.ndarray:
    return np.array([np.linalg.eigh(eff)[1][:, -1] for eff in effects])


def observable_divergence(
    e1: Observable, e2: Observable, opts: DivergenceOptions | None = None
) -> DivergenceEstimate:
    """Upper estimate of the infimum of ratio(rho1, rho2) over pure-state pairs.

    Candidate scans come first: every pair of top eigenvectors of the two
    effect sets and, for qubits, a Bloch grid; the best pair of each scan
    seeds the search, and a scan that reaches a ratio below ``ZERO_TOL``
    returns an exact zero with its witnessing pair. Then multi-start
    Nelder-Mead runs over unconstrained parameterizations of two unit
    vectors. The restriction to pure pairs makes the result an upper bound
    on the unrestricted infimum.
    """
    if e1.dim != e2.dim:
        raise ValueError("observables must share a dimension")
    if e1.n_outcomes != e2.n_outcomes:
        raise ValueError("observables must share an outcome count")
    opts = opts or DivergenceOptions()
    d = e1.dim
    stack1 = np.stack(e1.effects)
    stack2 = np.stack(e2.effects)
    rng = np.random.default_rng(opts.seed)

    best = {"value": np.inf, "pair": None}

    def consider(value, v1, v2):
        if value < best["value"]:
            best["value"] = value
            best["pair"] = (v1.copy(), v2.copy())

    def objective(x):
        v1, v2 = _pair_from_params(x, d)
        if v1 is None:
            return _PENALTY
        f = pure_fidelity(v1, v2)
        if f < EPS_DEN:
            return _PENALTY + (EPS_DEN - f)
        val = _pair_ratio(stack1, stack2, v1, v2, f)
        consider(val, v1, v2)
        return val

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

    converged = False
    for x0 in starts:
        res = minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": opts.maxiter, "fatol": FATOL, "xatol": XATOL},
        )
        converged = converged or bool(res.success)
        if best["value"] < ZERO_TOL:
            break

    if best["pair"] is None:
        raise ValueError("no feasible state pair was evaluated; increase restarts")
    v1, v2 = best["pair"]
    value = _clamped(best["value"])
    return DivergenceEstimate(
        value=value,
        argmin=(DensityState.from_vector(v1), DensityState.from_vector(v2)),
        method=_method_string(opts.restarts, "multi-start nelder-mead over pure pairs"),
        restarts=opts.restarts,
        converged=converged or value == 0.0,
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
    f = pure_fidelity(psi1, psi2)
    return _clamped(_pair_ratio(np.stack(e1.effects), np.stack(e2.effects), psi1, psi2, f))
