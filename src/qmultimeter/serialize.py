"""JSON codecs for matrices, states, observables, and estimator output.

Complex entries travel as [re, im] pairs; floats round-trip at full binary
precision through the standard json encoder.
"""

from __future__ import annotations

import json

import numpy as np

from .divergence import DivergenceEstimate
from .quantum import DensityState, Observable


def matrix_to_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def _json_int(doc: dict, key: str) -> int:
    x = doc[key]
    # not a float or a string, and not true or false, which json reads as bools
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{key!r} must be a JSON integer, got {x!r}")
    return x


def _json_number(x):
    # json reads true and false as bools, which Python counts as integers
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"matrix entries must be JSON numbers, got {x!r}")
    return x


def matrix_from_json(doc: dict) -> np.ndarray:
    rows, cols = _json_int(doc, "rows"), _json_int(doc, "cols")
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.array([complex(_json_number(re), _json_number(im)) for re, im in entries])
    return flat.reshape(rows, cols)


def state_to_json(s: DensityState) -> dict:
    return {"dim": s.dim, "matrix": matrix_to_json(s.matrix)}


def observable_to_json(e: Observable) -> dict:
    return {
        "dim": e.dim,
        "outcomes": list(e.outcomes),
        "effects": {
            label: matrix_to_json(eff) for label, eff in zip(e.outcomes, e.effects)
        },
    }


def observable_from_json(doc: dict) -> Observable:
    # a string or an object would otherwise be read item by item as labels
    if not isinstance(doc["outcomes"], list):
        raise ValueError(f"'outcomes' must be a JSON list, got {doc['outcomes']!r}")
    if not isinstance(doc["effects"], dict):
        raise ValueError(f"'effects' must be a JSON object, got {doc['effects']!r}")
    outcomes = [str(x) for x in doc["outcomes"]]
    if len(set(outcomes)) != len(outcomes):
        raise ValueError(f"outcome labels must be distinct, got {outcomes}")
    if set(doc["effects"]) != set(outcomes):
        raise ValueError(f"effect keys {sorted(doc['effects'])} must be the outcome labels {outcomes}")
    effects = [matrix_from_json(doc["effects"][label]) for label in outcomes]
    e = Observable(effects, outcomes=outcomes)
    if e.dim != _json_int(doc, "dim"):
        raise ValueError("declared dim does not match the effects")
    return e


def estimate_to_json(est: DivergenceEstimate) -> dict:
    return {
        "value": est.value,
        "argmin": [state_to_json(DensityState.from_vector(v)) for v in est.argmin],
        "method": est.method,
        "restarts": est.restarts,
        "converged": est.converged,
        "converged_starts": est.converged_starts,
        "seed": est.seed,
    }


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
