import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import save_json

import qmultimeter
from qmultimeter import divergence, verify
from qmultimeter.sampling import random_povm
from qmultimeter.serialize import observable_to_json

# run in a fresh interpreter: the test session itself imports scipy for its oracles
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
verify.verify_prop1(mm, xi1, xi2, trials=200, seed=0)
stages["closed_forms_and_prop1"] = loaded()
groups.eigenvector_program_states(groups.weyl_heisenberg(3), groups.wh_element_index(3, 0, 1))
stages["eigenvector_program_states"] = loaded()
verify.phase_space_demo(3)
stages["phase_space_demo"] = loaded()
verify.quaternion_demo()
stages["quaternion_demo"] = loaded()
mm, xi1, xi2, _, _ = verify.q8_program_pair()
verify.verify_prop1(mm, xi1, xi2, trials=200, seed=0)
stages["q8_program_pair_and_prop1"] = loaded()
rng = np.random.default_rng(0)
divergence.observable_divergence(sampling.random_povm(rng, 2, 2), sampling.random_povm(rng, 2, 2))
stages["observable_divergence"] = loaded()
print(json.dumps(stages))
"""

# one command per fresh interpreter; argv arrives as JSON in sys.argv[1]
CLI_PROBE = """
import contextlib, io, json, sys

from qmultimeter import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def run_probe(probe: str, *args: str):
    src = str(Path(qmultimeter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_scipy_loads_nowhere():
    assert run_probe(PROBE) == {
        "import": [],
        "closed_forms_and_prop1": [],
        "eigenvector_program_states": [],
        "phase_space_demo": [],
        "quaternion_demo": [],
        "q8_program_pair_and_prop1": [],
        "observable_divergence": [],
    }


def test_importing_the_package_loads_no_numpy_random():
    # numpy imports numpy.random on first use: about 5 MiB of RSS that a
    # run which draws nothing, or draws only after its peak, need not carry
    probe = "import json, sys\nimport qmultimeter\nprint(json.dumps('numpy.random' in sys.modules))"
    assert run_probe(probe) is False


@pytest.fixture(scope="module")
def observable_files(tmp_path_factory):
    rng = np.random.default_rng(5)
    paths = []
    for name in ("e1", "e2"):
        path = tmp_path_factory.mktemp("povms") / f"{name}.json"
        save_json(observable_to_json(random_povm(rng, 2, 3)), str(path))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command", ["phase-space", "divergence", "bprops"])
def test_cli_commands_load_no_scipy(command, observable_files):
    e1, e2 = observable_files
    argv = {
        "phase-space": ["demo", "phase-space", "--dim", "3"],
        "divergence": ["divergence", "--e1", e1, "--e2", e2, "--restarts", "2"],
        "bprops": ["verify", "bprops", "--trials", "2"],
    }[command]
    assert run_probe(CLI_PROBE, json.dumps(argv)) == {"code": 0, "scipy": []}


def test_no_module_imports_scipy():
    package = Path(qmultimeter.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, names)


def test_verify_binds_the_divergence_minimizer():
    # perfbench/tracing.py MINIMIZERS wraps ``minimize`` in both modules, so
    # verify must keep binding it, and to the in-package L-BFGS
    assert verify.minimize is divergence.minimize
    assert divergence.minimize.__module__ == "qmultimeter.divergence"


REPO = Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_reads_the_minimizer_result(rng):
    # perfbench/tracing.py records int(out.nfev) and bool(out.success) of every
    # ``minimize`` call; a stacked result must keep both scalar
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        divergence.observable_divergence(e1, e2, divergence.DivergenceOptions(restarts=4))
    finally:
        tracer.uninstall()
    assert divergence.minimize.__module__ == "qmultimeter.divergence"  # the original is back
    (attrs,) = [span[5] for span in tracer.spans if span[0] == "divergence.nm"]
    assert type(attrs["nfev"]) is int and attrs["nfev"] > e1.n_outcomes + 4
    assert type(attrs["success"]) is bool
# loads perfbench/workloads.py by path and runs one op of every workload, in a
# fresh interpreter: program_warm's set-up builds 49 dense duals (about 124 MiB)
WORKLOAD_PROBE = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
checks = {}
for name, workload in workloads.WORKLOADS.items():
    w = workload(1)
    args = w.inputs(1)
    checks[name] = bool(w.check(args, w.op(args)))
print(json.dumps(checks))
"""


def test_every_benchmark_workload_runs_and_passes_its_check():
    # the benchmark calls the package only through these workloads, so a src/
    # change that breaks one (a renamed function, a deleted method) fails here
    declared = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    checks = run_probe(WORKLOAD_PROBE, str(REPO / "perfbench" / "workloads.py"))
    assert checks == dict.fromkeys(declared, True)


PACKAGE_SOURCES = sorted((REPO / "src" / "qmultimeter").glob("*.py"))
# public definitions (functions, classes, and the methods and properties of
# public classes) that nothing in src/, scripts/ or perfbench/ reaches, and why they stay
UNCALLED_PUBLIC = {
    "observable_to_json": "it writes the observable file format the divergence command reads",
}
# imports a module keeps without using them, and why
UNUSED_IMPORTS = {
    ("verify", "minimize"): "perfbench/tracing.py MINIMIZERS wraps verify.minimize",
}
DOTTED_NAME = re.compile(r"[A-Za-z_][\w.]*")


def referenced_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Every name, attribute, imported name and dotted-name string constant in
    ``tree`` (string constants are how perfbench/tracing.py names its targets),
    except those inside the node ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                out.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def public_definitions(body):
    """The public functions and classes of a module body, and the public
    methods and properties of each public class, as (node, dotted name)."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, ast.FunctionDef) and not inner.name.startswith("_"):
                    yield inner, f"{node.name}.{inner.name}"


def test_every_public_definition_has_a_caller():
    # the __init__ exports do not count: they are how the tests reach the package
    callers = [p for p in PACKAGE_SOURCES if p.name != "__init__.py"]
    callers += sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in PACKAGE_SOURCES:
        if path.name == "__init__.py":
            continue
        tree = trees[path]
        for node, dotted in public_definitions(tree.body):
            elsewhere = any(node.name in refs for p, refs in names.items() if p != path)
            if not elsewhere and node.name not in referenced_names(tree, skip=node):
                uncalled.append(dotted)
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC)


def test_no_module_keeps_an_unused_import():
    unused = []
    for path in PACKAGE_SOURCES:
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append((path.stem, bound))
    assert sorted(unused) == sorted(UNUSED_IMPORTS)


def test_no_module_imports_a_private_name():
    # a name with a leading underscore belongs to its own module
    private = []
    for path in PACKAGE_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                private += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []
