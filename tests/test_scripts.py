import json
import os
import subprocess
import sys
from pathlib import Path

import qmultimeter

REPO = Path(__file__).resolve().parents[1]
VERIFICATION_REPORTS = {
    "prop1_q8", "prop3_q8", "prop1_wh3", "prop3_wh3", "prop1_random", "prop3_random",
    "b_properties", "povm_bound",
}


def run_verification(*args) -> subprocess.CompletedProcess:
    src = str(Path(qmultimeter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_verification.py"), *args],
        env=env, capture_output=True, text=True, timeout=600,
    )


def test_run_verification_writes_clean_reports(tmp_path):
    proc = run_verification(str(tmp_path), "--trials", "200")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("total violations: 0")
    docs = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
    assert set(docs) == VERIFICATION_REPORTS | {"demo_q8", "demo_phase_space_3"}
    for name in VERIFICATION_REPORTS:
        assert docs[name]["violations"] == 0, name


def test_run_verification_rejects_bad_counts_before_writing(tmp_path):
    cases = [
        ("--trials", "0", "at least 1"),
        ("--trials", "-3", "at least 1"),
        ("--seed", "-1", "non-negative"),
    ]
    for flag, value, rule in cases:
        proc = run_verification(str(tmp_path / "out"), flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines()[-1].endswith(
            f"error: {flag} must be {rule}, got {value}"
        )
    assert not (tmp_path / "out").exists()


def test_size_report_counts_lines_and_settable_values(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""A module docstring\n'                  # docstring line
        'over two lines."""\n'                     # docstring line
        "from dataclasses import dataclass, field\n"
        "# a comment line\n"                       # comment line
        "def f(x, y=1, *, z=2, w): pass\n"       # 2
        "def _g(x=1):\n"                          # private: 0
        '    """A function docstring."""\n'       # docstring line
        "    return x  # a comment after code\n"  # code line
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"                        # 1
        "    c: list = field(default_factory=list)\n"  # 1
        "    def m(self, k=3): pass\n"            # 1
        "class _P:\n"
        "    def m(self, k=3): pass\n"            # private class: 0
        "class Q:\n"
        "    r: int = 0\n"                        # not a dataclass: 0
    )
    (tmp_path / "b.py").write_text("x = 1\n\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "size_report.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "lines 20\nsettable values 5\ncode lines 15\ndocstring lines 3\ncomment lines 1\n"
    )


# a stand-in for perfbench/run.py: it logs its tree and seed, and its
# environment with whether its bytecode cache held the file it leaves there;
# then it prints the last-line JSON of an end-to-end run: op_p50_s read
# from the tree's speed file, the other metrics it knows derived from it, for
# each name the tree's BENCHMARK.json declares
FAKE_RUN = """
import json, os, pathlib, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(sys.argv[0].replace("run.py", "../../runs.log"), "a") as log:
    log.write(pathlib.Path.cwd().name + " " + seed + "\\n")
cache = pathlib.Path(os.environ["PYTHONPYCACHEPREFIX"])
with open(sys.argv[0].replace("run.py", "../../envs.log"), "a") as log:
    stale = (cache / "left_behind.pyc").exists()
    log.write(json.dumps({"env": dict(os.environ), "stale": stale}) + "\\n")
(cache / "left_behind.pyc").write_text("")
p50 = float(pathlib.Path("speed").read_text()) * (1 + int(seed) / 100)
values = {"setup_s": 0.5, "op_p50_s": p50, "op_tail_s": 2 * p50, "ops_per_s": 1 / p50,
          "peak_rss_mb": 50.0}
names = [m["name"] for m in json.loads(pathlib.Path("BENCHMARK.json").read_text())["end_to_end"]]
print(json.dumps({"metrics": {n: {"value": values[n]} for n in names if n in values}}))
"""


def fake_tree(root: Path, name: str, speed: float) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "src" / "qmultimeter").mkdir(parents=True)
    (tree / "src" / "qmultimeter" / "__init__.py").write_text("")
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tree / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    (tree / "speed").write_text(str(speed))
    return tree


def ab_bench(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "ab_bench.py"), *map(str, args)],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_ab_bench_alternates_the_trees_and_counts_the_wins(tmp_path):
    parent, change = fake_tree(tmp_path, "parent", 0.010), fake_tree(tmp_path, "change", 0.008)
    proc = ab_bench(parent, change, "--workload", "divergence_b4", "--pairs", 3, "--seconds", 1)
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "runs.log").read_text().split("\n")[:-1]
    # the order swaps each pair, and the seed is the pair number
    assert runs == ["parent 0", "change 0", "change 1", "parent 1", "parent 2", "change 2"]
    out = proc.stdout
    # every end-to-end metric the benchmark declares, medians per tree
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} == {
        "setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb"
    }
    for line in (
        "median setup_s: parent 0.5, change 0.5 (+0.0%)",
        "median op_p50_s: parent 0.0101, change 0.00808 (-20.0%)",
        "median op_tail_s: parent 0.0202, change 0.01616 (-20.0%)",
        "median ops_per_s: parent 99.0099, change 123.762 (+25.0%)",
        "median peak_rss_mb: parent 50, change 50 (+0.0%)",
    ):
        assert line in out
    assert "parent op_p50_s quartiles: 0.01 .. 0.0102" in out
    assert out.rstrip().endswith("change faster in 3 of 3 pairs")


def test_ab_bench_starts_both_trees_alike(tmp_path):
    parent, change = fake_tree(tmp_path, "parent", 0.010), fake_tree(tmp_path, "change", 0.008)
    # bytecode in one tree only, as an earlier run would leave it
    (parent / "src" / "qmultimeter" / "__pycache__").mkdir()
    proc = ab_bench(parent, change, "--workload", "divergence_b4", "--pairs", 2, "--seconds", 1,
                    env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in (tmp_path / "envs.log").read_text().splitlines()]
    assert len(runs) == 4
    # the same environment in every run, with one bytecode cache outside
    # both trees, emptied before each run
    assert all(run["env"] == runs[0]["env"] for run in runs)
    cache = Path(runs[0]["env"]["PYTHONPYCACHEPREFIX"])
    assert parent not in cache.parents and change not in cache.parents
    assert not any(run["stale"] for run in runs)
    assert "PYTHONPATH" not in runs[0]["env"]
    assert "PYTHONDONTWRITEBYTECODE" not in runs[0]["env"]
    assert not cache.exists()


def test_ab_bench_fails_when_a_run_lacks_a_declared_metric(tmp_path):
    parent, change = fake_tree(tmp_path, "parent", 0.010), fake_tree(tmp_path, "change", 0.008)
    doc = json.loads((parent / "BENCHMARK.json").read_text())
    doc["end_to_end"].append({"name": "op_p99_s", "unit": "s", "better": "lower"})
    (parent / "BENCHMARK.json").write_text(json.dumps(doc))
    proc = ab_bench(parent, change, "--workload", "divergence_b4", "--pairs", 1, "--seconds", 1)
    assert proc.returncode == 1
    assert "reported no op_p99_s" in proc.stderr


def test_ab_bench_rejects_a_missing_tree_or_a_bad_count_before_any_run(tmp_path):
    tree = fake_tree(tmp_path, "tree", 0.01)
    bare = fake_tree(tmp_path, "bare", 0.01)
    (bare / "BENCHMARK.json").unlink()
    cases = [
        ((tmp_path / "missing", tree, "--pairs", 2), "is no source tree"),
        ((tree, tmp_path / "missing", "--pairs", 2), "is no source tree"),
        ((bare, tree, "--pairs", 2), "BENCHMARK.json is missing"),
        ((tree, tree, "--pairs", 0), "--pairs must be at least 1, got 0"),
        ((tree, tree, "--pairs", -2), "--pairs must be at least 1, got -2"),
        ((tree, tree, "--pairs", "2.5"), "invalid int value"),
        ((tree, tree, "--pairs", 2, "--seconds", 0), "--seconds must be positive"),
    ]
    for args, message in cases:
        if "--seconds" not in args:
            args += ("--seconds", 1)
        proc = ab_bench(*args, "--workload", "divergence_b4")
        assert proc.returncode == 2, (args, proc.stderr)
        assert message in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "runs.log").exists()
