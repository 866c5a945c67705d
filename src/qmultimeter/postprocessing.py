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
    optional bookkeeping for merged outcome names. A kernel whose every row
    holds a single exact 1 and zeros otherwise is a relabelling, and keeps the
    output of each input as the index array ``_relabel``; any other kernel
    keeps None there.
    """

    kernel: np.ndarray
    out_labels: list = None

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2:
            raise ValueError(f"kernel must be a matrix, got shape {k.shape}")
        if not len(k):
            raise ValueError("kernel needs at least one input row")
        if not np.isfinite(k).all():
            raise ValueError("non-finite entry (NaN or inf) in kernel")
        if k.min(initial=0.0) < -ROW_SUM_TOL or k.max(initial=0.0) > 1.0 + ROW_SUM_TOL:
            raise ValueError("kernel entries must lie in [0, 1]")
        k = np.clip(k, 0.0, 1.0)
        sums = k.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1, worst defect {np.max(np.abs(sums - 1.0)):.3e}")
        self.kernel = k
        # entries of 0 and 1 in rows that sum to 1 within ROW_SUM_TOL: one 1 a row
        self._relabel = np.argmax(k, axis=1) if np.all((k == 0.0) | (k == 1.0)) else None
        self._check_labels()

    def _check_labels(self):
        if self.out_labels is not None:
            self.out_labels = [str(x) for x in self.out_labels]
            if len(self.out_labels) != self.n_out:
                raise ValueError("one output label per column required")

    @classmethod
    def _relabelling(cls, relabel: np.ndarray, n_out: int, out_labels: list) -> "PostProcessing":
        """The relabelling that sends input i to output ``relabel[i]``, an
        index in [0, n_out) for each of at least one input. Its kernel rows
        are rows of the identity, 0 and 1 with one 1 a row by construction, so
        only the labels are checked."""
        pp = cls.__new__(cls)
        pp.kernel, pp._relabel, pp.out_labels = np.eye(n_out)[relabel], relabel, out_labels
        pp._check_labels()
        return pp

    @property
    def n_in(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_out(self) -> int:
        return self.kernel.shape[1]


def _merged_factors(relabel: np.ndarray, n_out: int, factors: np.ndarray) -> np.ndarray:
    """The (n_out, d, c r) factors of a relabelling's merged effects: output
    j's block holds the (d, r) factors of its inputs side by side, padded with
    zero columns to the c inputs of the largest output."""
    n_in, d, r = factors.shape
    sizes = np.bincount(relabel, minlength=n_out)
    order = np.argsort(relabel, kind="stable")
    # each input's place among the inputs of its output
    slot = np.arange(n_in) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    merged = np.zeros((n_out, d, sizes.max(), r), dtype=factors.dtype)
    merged[relabel[order], :, slot] = factors[order]
    return merged.reshape(n_out, d, -1)


def post_process_observable(l: PostProcessing, e: Observable) -> Observable:
    """Mix effects classically: output effect j is sum_i kernel[i, j] E(i).

    A relabelling of an observable that keeps its Gram factors
    (``Observable._from_factors``) merges factors, not effects: output j is
    the Gram product of its inputs' factors side by side (``_merged_factors``),
    which is that sum, certified by construction as ``_from_factors`` argues,
    with c r columns for c inputs of r columns each. Any other pair
    is summed by ``np.tensordot`` and validated in full: effects certified
    only above -TOL_PSD can sum below it.
    """
    if l.n_in != e.n_outcomes:
        raise ValueError(f"kernel expects {l.n_in} inputs, observable has {e.n_outcomes}")
    if l._relabel is not None and e._factors is not None:
        factors = _merged_factors(l._relabel, l.n_out, e._factors)
        return Observable._from_factors(factors, l.out_labels, e.atol_complete)
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
