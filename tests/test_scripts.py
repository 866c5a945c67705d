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
        "from dataclasses import dataclass, field\n"
        "def f(x, y=1, *, z=2, w): pass\n"       # 2
        "def _g(x=1): pass\n"                     # private: 0
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
    assert proc.stdout == "lines 15\nsettable values 5\n"
