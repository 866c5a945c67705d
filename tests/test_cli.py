import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import save_json

import qmultimeter
from qmultimeter import cli
from qmultimeter.cli import MAX_BPROPS_TRIALS, MAX_POINTS, MAX_TRIALS, main
from qmultimeter.divergence import MAX_RESTARTS
from qmultimeter.groups import is_prime
from qmultimeter.quantum import Observable
from qmultimeter.sampling import random_povm
from qmultimeter.serialize import matrix_to_json, observable_to_json
from qmultimeter.verify import PHASE_SPACE_MAX_DIM

CAP = str(PHASE_SPACE_MAX_DIM)
PRIME_PAST_CAP = str(next(p for p in itertools.count(PHASE_SPACE_MAX_DIM + 1) if is_prime(p)))

SQRT_HALF = 1 / np.sqrt(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemoCommand:
    def test_q8_exit_zero_and_payload(self, capsys):
        code, out, err = run(capsys, "demo", "q8")
        assert code == 0
        doc = json.loads(out)
        for f in doc["program_fidelities"].values():
            assert abs(f - SQRT_HALF) < 1e-10
        assert set(doc["pvms"]) == {"i", "j", "k"}

    def test_phase_space_dim_flag(self, capsys):
        code, out, _ = run(capsys, "demo", "phase-space", "--dim", "3")
        assert code == 0
        assert json.loads(out)["vector_count"] == 4

    @pytest.mark.parametrize("dim", ["4", str(PHASE_SPACE_MAX_DIM + 1), PRIME_PAST_CAP])
    def test_bad_dim_is_config_error(self, capsys, dim):
        code, out, err = run(capsys, "demo", "phase-space", "--dim", dim)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--dim" in err

    def test_out_file_leaves_stdout_clean(self, tmp_path, capsys):
        target = tmp_path / "demo.json"
        code, out, _ = run(capsys, "demo", "q8", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["check"] == "quaternion_demo"

    @pytest.mark.parametrize("argv", [("demo", "q8"), ("demo", "phase-space", "--dim", "3")])
    def test_failed_identity_exits_1(self, capsys, monkeypatch, argv):
        # unmerged observables break the coset-merging identity of either demo
        monkeypatch.setattr("qmultimeter.verify.post_process_observable", lambda kern, e: e)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("demo failed: identity failed: ")


class TestMemoryEnvelope:
    """The largest advertised runs finish under a 1 GiB address-space cap; the
    limit is set in the child only."""

    @staticmethod
    def _python_capped(*argv):
        """Run ``python *argv`` under the cap and parse its JSON stdout."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(qmultimeter.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, *argv],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout)

    @classmethod
    def _run_capped(cls, *argv):
        return cls._python_capped("-m", "qmultimeter", *argv)

    def test_largest_phase_space_demo_fits_one_gib(self):
        doc = self._run_capped("demo", "phase-space", "--dim", CAP)
        assert doc["vector_count"] == PHASE_SPACE_MAX_DIM + 1

    @pytest.mark.parametrize("which", ["prop1", "prop3"])
    def test_most_trials_on_the_largest_phase_space_fit_one_gib(self, which):
        doc = self._run_capped(
            "verify", which, "--fixture", "phase-space", "--dim", CAP,
            "--trials", str(MAX_TRIALS),
        )
        assert doc["trials"] == MAX_TRIALS and doc["violations"] == 0

    def test_prop3_after_prop1_on_the_largest_phase_space_fits_one_gib(self):
        # prop3 reuses prop1's seeded draws, which stay cached beside its own arrays
        docs = self._python_capped("-c", (
            "import json\n"
            "from qmultimeter import verify\n"
            "from qmultimeter.cli import MAX_TRIALS\n"
            "mm, xi1, xi2, l1, l2 = verify.wh_program_pair(verify.PHASE_SPACE_MAX_DIM)\n"
            "r1 = verify.verify_prop1(mm, xi1, xi2, trials=MAX_TRIALS, seed=0)\n"
            "r3 = verify.verify_prop3(mm, xi1, xi2, l1, l2, trials=MAX_TRIALS, seed=0)\n"
            "hits = verify._sampled_pairs.cache_info().hits\n"
            "print(json.dumps([r1.to_dict(), r3.to_dict(), hits]))\n"
        ))
        r1, r3, hits = docs
        assert hits == 1
        for doc in (r1, r3):
            assert doc["trials"] == MAX_TRIALS and doc["violations"] == 0

    @pytest.mark.parametrize("dim", [str(PHASE_SPACE_MAX_DIM + 1), PRIME_PAST_CAP])
    @pytest.mark.parametrize("argv", [("demo", "phase-space"),
                                      ("verify", "prop1", "--fixture", "phase-space"),
                                      ("verify", "prop3", "--fixture", "phase-space")])
    def test_dims_past_the_cap_exit_2_before_any_work(self, capsys, monkeypatch, argv, dim):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("phase_space_demo", "wh_program_pair", "verify_prop1", "verify_prop3"):
            monkeypatch.setattr(f"qmultimeter.cli.{name}", refuse)
        code, out, err = run(capsys, *argv, "--dim", dim)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "--dim" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("which,trials", [("bprops", "-2"), ("prop1", "-5"), ("prop3", "0")])
    def test_bad_trials_is_config_error(self, capsys, which, trials):
        code, out, err = run(capsys, "verify", which, "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "--trials" in err

    @pytest.mark.parametrize("which", ["prop1", "prop3", "bprops"])
    def test_trials_past_the_limit_is_config_error(self, capsys, monkeypatch, which):
        def refuse(*args, **kwargs):
            raise AssertionError("the verification started")

        for name in ("_fixture_for", "verify_prop1", "verify_prop3", "verify_b_properties"):
            monkeypatch.setattr(f"qmultimeter.cli.{name}", refuse)
        too_many = str(MAX_TRIALS + 1)
        code, out, err = run(
            capsys, "verify", which, "--fixture", "phase-space", "--dim", CAP, "--trials", too_many
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and too_many in err

    def test_bprops_cap_is_accepted(self, monkeypatch):
        class Started(Exception):
            pass

        def refuse(e1, e2, n, **kwargs):
            raise Started(n)

        monkeypatch.setattr("qmultimeter.cli.verify_b_properties", refuse)
        with pytest.raises(Started) as started:
            main(["verify", "bprops", "--trials", str(MAX_BPROPS_TRIALS)])
        assert started.value.args == (MAX_BPROPS_TRIALS,)

    def test_bprops_past_its_cap_is_config_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the verification started")

        monkeypatch.setattr("qmultimeter.cli.verify_b_properties", refuse)
        too_many = str(MAX_BPROPS_TRIALS + 1)
        code, out, err = run(capsys, "verify", "bprops", "--trials", too_many)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and too_many in err

    def test_prop1_default_random_multimeter(self, capsys):
        code, out, _ = run(capsys, "verify", "prop1", "--trials", "1000", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["trials"] == 1000

    def test_prop3_q8_fixture(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prop3", "--trials", "500", "--seed", "1", "--fixture", "q8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["fixtures"]["kernel_fidelity"] <= 1e-12

    def test_bprops_small(self, capsys):
        code, out, _ = run(capsys, "verify", "bprops", "--trials", "3", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "b_properties"
        assert doc["violations"] == 0

    def test_identical_configs_identical_payloads(self, capsys):
        _, out1, _ = run(capsys, "verify", "prop1", "--trials", "100", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "prop1", "--trials", "100", "--seed", "3")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed")
        d2.pop("elapsed")
        assert d1 == d2

    def test_tolerance_override_flag(self, capsys):
        # an absurdly strict slack manufactures violations and exit 1
        code, out, err = run(
            capsys,
            "verify", "prop1", "--trials", "200", "--seed", "0",
            "--tol", "tol_check=-0.5",
        )
        assert code == 1
        assert json.loads(out)["violations"] > 0
        assert "violation" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "tiny"])
    def test_non_finite_tolerance_flag_is_config_error(self, capsys, value):
        code, out, err = run(
            capsys, "verify", "prop1", "--trials", "10", "--tol", f"tol_check={value}"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "tol_check" in err

    def test_non_finite_config_tolerance_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {"estimator_tol": float("nan")}}))
        code, out, err = run(capsys, "verify", "bprops", "--trials", "2", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "finite" in err

    @pytest.mark.parametrize("flag, expected", [(["--tol", "estimator_tol=0.9"], 0.9), ([], 2e-3)])
    def test_bprops_records_its_estimator_tolerance(self, capsys, flag, expected):
        code, out, _ = run(capsys, "verify", "bprops", "--trials", "2", "--seed", "0", *flag)
        assert code == 0
        assert json.loads(out)["fixtures"]["estimator_tol"] == expected

    def test_unknown_tolerance_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "prop1", "--trials", "10", "--tol", "bogus=1"
        )
        assert code == 2
        assert "bogus" in err


class TestBoundCommand:
    def test_csv_payload(self, capsys):
        code, out, _ = run(capsys, "bound", "--points", "21")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,bound"
        assert len(lines) == 22
        row0 = [ln for ln in lines if ln.startswith("0,")][0]
        assert abs(float(row0.split(",")[1]) - 0.70710678) < 1e-6

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "bound", "--points", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("t,bound")

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_bad_points_is_config_error(self, capsys, points):
        code, out, err = run(capsys, "bound", "--points", points)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--points" in err

    def test_points_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "bound", "--points", str(MAX_POINTS))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == MAX_POINTS + 1
        assert lines[1].startswith("-1,") and lines[-1].startswith("1,")

    def test_points_past_the_limit_is_config_error(self, capsys, monkeypatch):
        def refuse(points):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("qmultimeter.cli.bound_curve", refuse)
        too_many = str(MAX_POINTS + 1)
        code, out, err = run(capsys, "bound", "--points", too_many)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and too_many in err


class TestDivergenceCommand:
    @pytest.fixture
    def observable_files(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for name in ("e1", "e2"):
            e = random_povm(rng, 2, 3)
            p = tmp_path / f"{name}.json"
            save_json(observable_to_json(e), str(p))
            paths.append(str(p))
        return paths

    def test_estimate_payload(self, capsys, observable_files):
        e1, e2 = observable_files
        code, out, _ = run(
            capsys, "divergence", "--e1", e1, "--e2", e2, "--restarts", "4", "--seed", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["value"] <= 1.0 + 1e-9
        assert doc["restarts"] == 4
        assert len(doc["argmin"]) == 2

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "divergence", "--e1", str(tmp_path / "nope.json"), "--e2", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot load" in err

    def test_non_finite_observable_file_is_config_error(self, capsys, observable_files):
        e1, e2 = observable_files
        doc = json.loads(Path(e1).read_text())
        doc["effects"][doc["outcomes"][0]]["entries"][0] = [float("nan"), 0.0]
        # json writes and reads the bare NaN token
        Path(e1).write_text(json.dumps(doc))
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "non-finite" in err

    @pytest.mark.parametrize(
        "low, named",
        [
            # eigenvalue -1.5e308: (E + E^dagger)/2 would overflow to -inf and
            # leave a NaN eigenvalue that passes no check
            (-1.5e308, "effect has eigenvalue -1.500e+308"),
            # positive effects whose sum overflows, with no warning on stderr
            (1.5e308, "effects sum to identity only within inf"),
        ],
    )
    def test_overflowing_observable_file_is_config_error(
        self, capsys, observable_files, tmp_path, low, named
    ):
        effects = [np.diag([1.5e308, 0.0]), np.diag([low, 0.0]), np.eye(2)]
        doc = {
            "dim": 2,
            "outcomes": ["0", "1", "2"],
            "effects": {str(j): matrix_to_json(e.astype(complex)) for j, e in enumerate(effects)},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "divergence", "--e1", str(path), "--e2", observable_files[1])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and named in err

    def test_dimension_zero_observable_file_is_config_error(self, capsys, tmp_path):
        doc = {"dim": 0, "outcomes": ["a"], "effects": {"a": {"rows": 0, "cols": 0, "entries": []}}}
        path = tmp_path / "z.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "divergence", "--e1", str(path), "--e2", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: cannot load observables")
        assert "dimension at least 1" in err

    @pytest.mark.parametrize(
        "malformed", ["list", "null rows", "fractional rows", "string rows"]
    )
    def test_malformed_observable_file_is_config_error(self, capsys, observable_files, malformed):
        e1, e2 = observable_files
        if malformed == "list":
            doc = []
        else:
            doc = json.loads(Path(e1).read_text())
            # a cast to int would read 2.9 and "2" as the 2 rows of the file
            rows = {"null rows": None, "fractional rows": 2.9, "string rows": "2"}[malformed]
            doc["effects"][doc["outcomes"][0]]["rows"] = rows
        Path(e1).write_text(json.dumps(doc))
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: cannot load observables")

    @pytest.mark.parametrize(
        "malformed, named",
        [
            ("boolean entry", "matrix entries must be JSON numbers"),
            ("extra effect key", "must be the outcome labels"),
            ("repeated label", "outcome labels must be distinct"),
            # iterated as a string, "012" would load as the labels 0, 1 and 2
            ("string outcomes", "'outcomes' must be a JSON list"),
            ("effect list", "'effects' must be a JSON object"),
        ],
        ids=["boolean-entry", "extra-effect-key", "repeated-label", "string-outcomes", "effect-list"],
    )
    def test_observable_file_json_shape_is_checked(self, capsys, observable_files, malformed, named):
        e1, e2 = observable_files
        doc = json.loads(Path(e1).read_text())
        first = doc["outcomes"][0]
        if malformed == "boolean entry":
            # false for the diagonal's imaginary 0.0: read as 0, the file would load
            assert doc["effects"][first]["entries"][0][1] == 0.0
            doc["effects"][first]["entries"][0][1] = False
        elif malformed == "extra effect key":
            doc["effects"]["unused"] = doc["effects"][first]
        elif malformed == "repeated label":
            doc["outcomes"].append(first)
        elif malformed == "string outcomes":
            assert doc["outcomes"] == ["0", "1", "2"]
            doc["outcomes"] = "012"
        else:
            doc["effects"] = list(doc["outcomes"])
        Path(e1).write_text(json.dumps(doc))
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: cannot load observables")
        assert named in err

    @pytest.mark.parametrize(
        "dim, outcomes, named", [(2, 4, "outcome count"), (3, 3, "dimension")]
    )
    def test_mismatched_observables_are_config_error(
        self, capsys, tmp_path, observable_files, dim, outcomes, named
    ):
        # both files are well formed; only the pair cannot be compared
        e1, _ = observable_files
        e2 = str(tmp_path / "other.json")
        save_json(observable_to_json(random_povm(np.random.default_rng(1), dim, outcomes)), e2)
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and named in err

    @staticmethod
    def _labelled_files(tmp_path, e1, e2, order):
        """Files of ``e1`` and ``e2``, and of ``e2`` with its outcomes listed in
        ``order``, each label keeping its own effect."""
        paths = [str(tmp_path / name) for name in ("e1.json", "e2.json", "e2_reordered.json")]
        save_json(observable_to_json(e1), paths[0])
        save_json(observable_to_json(e2), paths[1])
        doc = observable_to_json(e2)
        doc["outcomes"] = order
        save_json(doc, paths[2])
        return paths

    def test_reordered_labels_give_the_same_order_estimate(self, capsys, tmp_path):
        # a Z measurement against itself: paired by position, the reordered
        # file would read 0.0, not 1.0
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        z = Observable([up, down], outcomes=["up", "down"])
        e1, e2, reordered = self._labelled_files(tmp_path, z, z, ["down", "up"])
        code, same, _ = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 0 and json.loads(same)["value"] == 1.0
        assert run(capsys, "divergence", "--e1", e1, "--e2", reordered) == (0, same, "")

    def test_reordered_labels_of_a_random_povm(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        e1, e2 = (
            Observable(random_povm(rng, 2, 3).effects, outcomes=["a", "b", "c"]) for _ in range(2)
        )
        e1, e2, reordered = self._labelled_files(tmp_path, e1, e2, ["c", "a", "b"])
        argv = ["divergence", "--e1", e1, "--restarts", "4", "--e2"]
        code, same, _ = run(capsys, *argv, e2)
        assert code == 0 and 0.0 < json.loads(same)["value"] < 1.0
        assert run(capsys, *argv, reordered) == (0, same, "")

    def test_other_labels_are_config_error_before_any_search(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search started before the labels were checked")

        monkeypatch.setattr(cli, "observable_divergence", refuse)
        rng = np.random.default_rng(32)
        e1 = Observable(random_povm(rng, 2, 3).effects, outcomes=["a", "b", "c"])
        e1, e2, _ = self._labelled_files(tmp_path, e1, random_povm(rng, 2, 3), ["0", "1", "2"])
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert "['a', 'b', 'c']" in err and "['0', '1', '2']" in err

    def test_missing_flags_rejected(self, capsys):
        code, _, err = run(capsys, "divergence")
        assert code == 2

    def test_negative_restarts_is_config_error(self, capsys, observable_files):
        e1, e2 = observable_files
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2, "--restarts", "-3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "--restarts" in err

    def test_restarts_above_cap_is_config_error(self, capsys, observable_files):
        e1, e2 = observable_files
        too_many = str(MAX_RESTARTS + 1)
        code, out, err = run(capsys, "divergence", "--e1", e1, "--e2", e2, "--restarts", too_many)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and too_many in err


def refuse_all_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    for name in (
        "_fixture_for", "phase_space_demo", "quaternion_demo", "verify_prop1", "verify_prop3",
        "verify_b_properties", "bound_curve", "observable_divergence",
    ):
        monkeypatch.setattr(f"qmultimeter.cli.{name}", refuse)


class TestIntegerInputs:
    """Seeds below 0 and config values of the wrong type exit 2 before any work."""

    @pytest.mark.parametrize(
        "argv,env_seed",
        [
            (("verify", "prop1", "--trials", "5", "--seed", "-1"), None),
            (("verify", "bprops", "--trials", "1", "--seed", "-2"), None),
            (("verify", "prop3"), "-3"),
        ],
        ids=["prop1-flag", "bprops-flag", "prop3-env"],
    )
    def test_negative_seed_is_config_error(self, capsys, monkeypatch, argv, env_seed):
        refuse_all_work(monkeypatch)
        if env_seed is not None:
            monkeypatch.setenv("QML_SEED", env_seed)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and "seed" in err

    @pytest.mark.parametrize(
        "doc,argv",
        [
            ({"trials": "many"}, ("verify", "prop1")),
            ({"dim": [5]}, ("verify", "prop1", "--fixture", "phase-space")),
            ({"seed": 1.9}, ("verify", "prop1")),
            ({"trials": True}, ("verify", "prop3")),
            ({"points": 201.0}, ("bound",)),
            ({"restarts": "4"}, ("divergence", "--e1", "e1.json", "--e2", "e2.json")),
            # an integer would be opened as a file descriptor
            ({"out": 2}, ("bound",)),
        ],
        ids=["trials-string", "dim-list", "seed-float", "trials-bool", "points-float",
             "restarts-string", "out-integer"],
    )
    def test_wrongly_typed_config_value_is_config_error(
        self, tmp_path, capsys, monkeypatch, doc, argv
    ):
        refuse_all_work(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        [key] = doc
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and key in err


class TestUnreadFlags:
    """A --seed, --dim or --fixture flag that the run would not read exits 2 before any work."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("demo", "q8", "--dim", "4"), "--dim"),
            (("verify", "prop1", "--fixture", "q8", "--dim", "4"), "--dim"),
            (("verify", "bprops", "--fixture", "phase-space", "--dim", "4"), "--fixture"),
            (("demo", "q8", "--seed", "5"), "--seed"),
            (("bound", "--points", "3", "--seed", "9"), "--seed"),
        ],
        ids=["demo-q8", "prop1-q8", "bprops", "demo-seed", "bound-seed"],
    )
    def test_unread_flag_is_config_error(self, capsys, monkeypatch, argv, flag):
        refuse_all_work(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and flag in err


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 150, "seed": 4}))
        code, out, _ = run(capsys, "verify", "prop1", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 150
        assert doc["seed"] == 4

    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 150, "seed": 4}))
        code, out, _ = run(
            capsys, "verify", "prop1", "--config", str(cfg), "--trials", "60"
        )
        assert code == 0
        assert json.loads(out)["trials"] == 60

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trails": 100}))
        code, _, err = run(capsys, "verify", "prop1", "--config", str(cfg))
        assert code == 2
        assert "trails" in err

    def test_env_seed_overrides_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 4}))
        monkeypatch.setenv("QML_SEED", "99")
        code, out, _ = run(capsys, "verify", "prop1", "--trials", "50", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QML_SEED", "99")
        code, out, _ = run(capsys, "verify", "prop1", "--trials", "50", "--seed", "5")
        assert code == 0
        assert json.loads(out)["seed"] == 5

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("QML_SEED", "not-a-number")
        code, _, err = run(capsys, "verify", "prop1", "--trials", "10")
        assert code == 2
        assert "QML_SEED" in err


def _without_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _without_elapsed(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [_without_elapsed(v) for v in doc]
    return doc


class TestSameSeedDeterminism:
    """Two in-process runs with the same arguments print the same bytes once
    ``elapsed`` is removed."""

    @pytest.fixture(scope="class")
    def povm_files(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        paths = []
        for name in ("e1", "e2"):
            p = tmp_path_factory.mktemp("povms") / f"{name}.json"
            save_json(observable_to_json(random_povm(rng, 2, 3)), str(p))
            paths.append(str(p))
        return paths

    def _payload(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if argv[0] == "bound":
            return out
        return json.dumps(_without_elapsed(json.loads(out)), indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "q8"),
            ("demo", "phase-space", "--dim", "5"),
            ("verify", "prop1", "--seed", "4"),
            ("verify", "prop3", "--trials", "200", "--seed", "4"),
            ("verify", "bprops", "--trials", "5", "--seed", "4"),
            ("bound", "--points", "11"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_payload_repeats(self, capsys, argv):
        assert self._payload(capsys, argv) == self._payload(capsys, argv)

    def test_divergence_payload_repeats(self, capsys, povm_files):
        e1, e2 = povm_files
        argv = ("divergence", "--e1", e1, "--e2", e2, "--restarts", "4", "--seed", "6")
        assert self._payload(capsys, argv) == self._payload(capsys, argv)
