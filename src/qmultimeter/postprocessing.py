"""Classical post-processing kernels, their action on observables, and kernel fidelity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import Observable

ROW_SUM_TOL = 1e-12


@dataclass(eq=False)
class PostProcessing:
    """Row-stochastic relabeling kernel.

    ``kernel[i, j]`` is the probability that input outcome i is relabelled to
    output outcome j, so every row is a probability vector. ``out_labels`` is
    optional bookkeeping for merged outcome names.
    """

    kernel: np.ndarray
    out_labels: list = None

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2:
            raise ValueError(f"kernel must be a matrix, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("non-finite entry (NaN or inf) in kernel")
        if k.min(initial=0.0) < -ROW_SUM_TOL or k.max(initial=0.0) > 1.0 + ROW_SUM_TOL:
            raise ValueError("kernel entries must lie in [0, 1]")
        k = np.clip(k, 0.0, 1.0)
        sums = k.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1, worst defect {np.max(np.abs(sums - 1.0)):.3e}")
        self.kernel = k
        if self.out_labels is not None:
            self.out_labels = [str(x) for x in self.out_labels]
            if len(self.out_labels) != self.n_out:
                raise ValueError("one output label per column required")

    @property
    def n_in(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_out(self) -> int:
        return self.kernel.shape[1]

    @classmethod
    def identity(cls, n: int) -> "PostProcessing":
        return cls(np.eye(n))


def post_process_observable(l: PostProcessing, e: Observable) -> Observable:
    """Mix effects classically: output effect j is sum_i kernel[i, j] E(i)."""
    if l.n_in != e.n_outcomes:
        raise ValueError(f"kernel expects {l.n_in} inputs, observable has {e.n_outcomes}")
    return Observable(
        np.tensordot(l.kernel, e.effects, axes=(0, 0)),
        outcomes=l.out_labels,
        atol_complete=e.atol_complete,
    )


def pp_fidelity(l1: PostProcessing, l2: PostProcessing) -> float:
    """Kernel closeness: worst-case row Bhattacharyya overlap.

    Equals the infimum over input distributions of the Bhattacharyya
    coefficient between the two relabelled distributions; the infimum is
    attained on a point mass, hence the row minimum.
    """
    if (l1.n_in, l1.n_out) != (l2.n_in, l2.n_out):
        raise ValueError("kernels must share a shape")
    rows = np.sqrt(l1.kernel * l2.kernel).sum(axis=1)
    return float(rows.min())
