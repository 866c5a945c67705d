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
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {"import": loaded()}
verify.sharpmin_bound(0.3)
verify.bound_curve(points=3)
mm, xi1, xi2, _, _ = verify.default_random_fixture(0)
verify.verify_prop1(mm, xi1, xi2, trials=200)
stages["closed_forms_and_prop1"] = loaded()
groups.eigenvector_program_states(groups.weyl_heisenberg(3), groups.wh_element_index(3, 0, 1))
stages["eigenvector_program_states"] = loaded()
verify.phase_space_demo(3)
stages["phase_space_demo"] = loaded()
verify.quaternion_demo()
stages["quaternion_demo"] = loaded()
mm, xi1, xi2, _, _ = verify.q8_program_pair()
verify.verify_prop1(mm, xi1, xi2, trials=200)
stages["q8_program_pair_and_prop1"] = loaded()
rng = np.random.default_rng(0)
divergence.observable_divergence(sampling.random_povm(rng, 2, 2), sampling.random_povm(rng, 2, 2))
stages["observable_divergence"] = "scipy.optimize" in sys.modules
print(json.dumps(stages))
"""

CLI_PROBE = """
import contextlib, io, json, sys

from qmultimeter import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["demo", "phase-space", "--dim", "3"])
print(json.dumps({"code": code, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def run_probe(probe: str):
    src = str(Path(qmultimeter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_scipy_loads_only_where_it_is_called():
    assert run_probe(PROBE) == {
        "import": [],
        "closed_forms_and_prop1": [],
        "eigenvector_program_states": [],
        "phase_space_demo": [],
        "quaternion_demo": [],
        "q8_program_pair_and_prop1": [],
        "observable_divergence": True,
    }


def test_phase_space_demo_command_loads_no_scipy():
    assert run_probe(CLI_PROBE) == {"code": 0, "scipy": []}


def test_verify_binds_the_divergence_minimizer():
    # perfbench/tracing.py MINIMIZERS wraps ``minimize`` in both modules, so
    # verify must keep binding it, and to the lazy wrapper, not to scipy's
    assert verify.minimize is divergence.minimize
    assert divergence.minimize.__module__ == "qmultimeter.divergence"
