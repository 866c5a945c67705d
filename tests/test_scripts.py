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


def test_run_verification_writes_clean_reports(tmp_path):
    src = str(Path(qmultimeter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_verification.py"), str(tmp_path), "--trials", "200"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("total violations: 0")
    docs = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
    assert set(docs) == VERIFICATION_REPORTS | {"demo_q8", "demo_phase_space_3"}
    for name in VERIFICATION_REPORTS:
        assert docs[name]["violations"] == 0, name
