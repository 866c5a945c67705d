import json
import os
import subprocess
import sys
from pathlib import Path

import qmultimeter
from qmultimeter import divergence, verify

# run in a fresh interpreter: the test session itself has long imported scipy
PROBE = """
import json, sys

import numpy as np

import qmultimeter
from qmultimeter import divergence, groups, sampling, verify

def loaded():
    return [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]

stages = {"import": loaded()}
verify.sharpmin_bound(0.3)
verify.bound_curve(points=3)
mm, xi1, xi2, _, _ = verify.default_random_fixture(0)
verify.verify_prop1(mm, xi1, xi2, trials=200)
stages["closed_forms_and_prop1"] = loaded()
groups.eigenvector_program_states(groups.weyl_heisenberg(3), groups.wh_element_index(3, 0, 1))
stages["eigenvector_program_states"] = loaded()
rng = np.random.default_rng(0)
divergence.observable_divergence(sampling.random_povm(rng, 2, 2), sampling.random_povm(rng, 2, 2))
stages["observable_divergence"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_loads_only_where_it_is_called():
    src = str(Path(qmultimeter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {
        "import": [],
        "closed_forms_and_prop1": [],
        "eigenvector_program_states": ["scipy.linalg"],
        "observable_divergence": ["scipy.optimize", "scipy.linalg"],
    }


def test_verify_binds_the_divergence_minimizer():
    # perfbench/tracing.py MINIMIZERS wraps ``minimize`` in both modules, so
    # verify must keep binding it, and to the lazy wrapper, not to scipy's
    assert verify.minimize is divergence.minimize
    assert divergence.minimize.__module__ == "qmultimeter.divergence"
