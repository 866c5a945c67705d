"""README checks: every number README claims, every CLI line it shows, and
every name it puts in backticks.

The claims table has the columns claim | source | field | value. A source is
a CLI line, run in-process through ``cli.main``, whose field is a JSON
pointer into its report or ``t=x``, the row of the bound CSV at axis overlap
x; a module constant such as ``cli.MAX_TRIALS``, with no field; or a test
node, which must exist and whose value reads ``passes``. A value is a number,
matched to the digits shown (an integer exactly), or ``≤ x``, a bound.
Outside the table and the code blocks README may state no time or memory
figure, since no committed benchmark file measures one.

Each line of the ``sh`` block of README's CLI section must exit 0.

Name lint: a dotted name (``Observable._from_factors``, ``groups.eigenvector_program_states``)
is resolved by import and ``getattr`` from a name that ``qmultimeter``, its
modules, ``tests/oracles.py``, ``scripts/`` or ``perfbench/`` define; a bare
identifier must be a name one of them defines at module or class level. A
call ``name(args)`` is checked by its name. File names, JSON literals, CLI
lines, flags and formulas are not names and are skipped by pattern.
"""

import ast
import builtins
import contextlib
import csv
import functools
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import re
import shlex
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import qmultimeter
from qmultimeter.cli import SEED_ENV, main
from qmultimeter.sampling import random_povm
from qmultimeter.serialize import observable_to_json

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

SPAN = re.compile(r"`([^`\n]+)`")
# an optional leading dot (an attribute), a dotted name, an optional flat call
NAME = re.compile(r"^\.?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^()]*\))?$")
FILE = re.compile(r"/|\.(py|json|md|toml|txt|csv)$")
JSON_LITERAL = re.compile(r"^(true|false|null|-?\d[\d.eE+-]*|\".*\")$")
# the package itself: a name README uses for the package and its command
PACKAGE = {"qmultimeter": qmultimeter}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_readme_lint_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scanned_modules() -> list:
    """The package, each of its modules, the test oracles and every script
    and benchmark module, imported without running their entry points."""
    found = [qmultimeter]
    for info in pkgutil.iter_modules(qmultimeter.__path__):
        if info.name != "__main__":
            found.append(importlib.import_module(f"qmultimeter.{info.name}"))
    dirs = [ROOT / "scripts", ROOT / "perfbench"]
    paths = [ROOT / "tests" / "oracles.py"] + [p for d in dirs for p in sorted(d.glob("*.py"))]
    # the benchmark modules import one another by their bare names
    saved = list(sys.path)
    sys.path[:0] = [str(d) for d in dirs]
    try:
        found += [_load(p) for p in paths]
    finally:
        sys.path[:] = saved
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or ROOT).parent in dirs:
                del sys.modules[name]
    return found


@pytest.fixture(scope="module")
def modules() -> list:
    return scanned_modules()


def defined_names(modules: list) -> set:
    """Every name a module binds, and every attribute or dataclass field of a
    class a module defines."""
    names = set()
    for module in modules:
        names.update(vars(module))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                names.update(vars(cls), getattr(cls, "__dataclass_fields__", {}))
    return names


_MISSING = object()


def _resolves(dotted: str, modules: list) -> bool:
    """Whether ``getattr`` reaches ``dotted`` from a name a module binds; a
    dataclass field without a default is no class attribute, so it is read
    off the class's fields."""
    head, *rest = dotted.split(".")
    for scope in [PACKAGE] + [vars(m) for m in modules]:
        obj = scope.get(head, _MISSING)
        for part in rest:
            fields = getattr(obj, "__dataclass_fields__", {})
            obj = fields[part] if part in fields else getattr(obj, part, _MISSING)
        if obj is not _MISSING:
            return True
    return False


def unresolved(text: str, modules: list) -> list:
    """The backticked names of ``text`` that no scanned module defines, in order."""
    names = defined_names(modules) | set(dir(builtins)) | set(PACKAGE)
    missing = []
    for span in SPAN.findall(text):
        if FILE.search(span) or JSON_LITERAL.match(span):
            continue
        match = NAME.match(span)
        if match is None:
            continue
        name = match.group(1)
        ok = _resolves(name, modules) if "." in name else name in names
        if not ok:
            missing.append(span)
    return missing


def test_every_backticked_name_resolves(modules):
    assert unresolved(README.read_text(encoding="utf-8"), modules) == []


def test_a_deleted_name_fails_the_lint(modules):
    line = "Each state builds its square root (`DensityState.root`) on first read.\n"
    assert unresolved(line, modules) == ["DensityState.root"]
    assert unresolved("`_state_root` and `DensityState.factor`", modules) == ["_state_root"]


@pytest.mark.parametrize(
    "span", ["tests/oracles.py", "size_report.py", "true", "null", "1.5", "--dim", "demo q8",
             "1/sqrt(2)", "OPENBLAS_NUM_THREADS=1", "[re, im]"],
)
def test_file_names_literals_and_command_lines_are_skipped(span, modules):
    assert unresolved(f"`{span}`", modules) == []


@pytest.mark.parametrize(
    "span", ["DensityState.factor", "groups.eigenvector_program_states", "Observable.effects",
             "qmultimeter.verify", "verify.PHASE_SPACE_MAX_DIM", "fidelity(rho1, rho2)", ".matrix",
             "np.linalg.eigh", "REL_RANK_CLIP", "ValueError"],
)
def test_names_in_the_code_resolve(span, modules):
    assert unresolved(f"`{span}`", modules) == []


# ---------------------------------------------------------------------------
# the claims table

CLAIMS_HEADER = "| claim | source | field | value |"
# a number with a unit of time or memory
UNIT_FIGURE = re.compile(
    r"(?<![\w.])\d[\d.,]*(?:[eE][-+]?\d+)?\s?(?:s|ms|µs|μs|KiB|MiB|MB|GiB)\b"
)
NO_FIELD = "—"


def claim_rows(text: str) -> list:
    """The cells of each row of the claims table, backticks stripped."""
    lines = text.splitlines()
    start = lines.index(CLAIMS_HEADER) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip().strip("|").split("|")])
    return rows


@functools.lru_cache(maxsize=None)
def run_cli(line: str) -> tuple:
    """The exit code and stdout of a ``qmultimeter ...`` line, run in-process
    with no ``$QML_SEED``."""
    argv = shlex.split(line)
    assert argv[0] == "qmultimeter", line
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.delenv(SEED_ENV, raising=False)
        code = main(argv[1:])
    return code, out.getvalue()


def _json_pointer(doc: dict, pointer: str):
    """The value at the JSON pointer ``pointer``, object keys only, of ``doc``."""
    if not pointer.startswith("/"):
        raise LookupError(f"field {pointer!r} is no JSON pointer")
    for key in pointer[1:].split("/"):
        try:
            doc = doc[key]
        except (KeyError, TypeError):
            raise LookupError(f"the report has no field {pointer}") from None
    return doc


def _csv_row(text: str, field: str) -> float:
    """The bound at the axis overlap t of ``field`` = ``t=x`` in a bound CSV."""
    t = float(field.removeprefix("t="))
    for row in csv.DictReader(io.StringIO(text)):
        if float(row["t"]) == t:
            return float(row["bound"])
    raise LookupError(f"the CSV has no row {field}")


def _node_exists(node: str) -> bool:
    """Whether the test file of ``node`` defines its classes and functions."""
    path, *names = node.split("::")
    file = ROOT / path
    if not names or not file.is_file():
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        defs = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        found = [n for n in defs if n.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def _read(source: str, field: str):
    """The value of ``field`` in the output of ``source``, or None for a
    test node, which must exist."""
    if source.startswith("qmultimeter "):
        code, out = run_cli(source)
        if code != 0:
            raise LookupError(f"{source!r} exited {code}")
        if field.startswith("t="):
            return _csv_row(out, field)
        return _json_pointer(json.loads(out), field)
    if field != NO_FIELD:
        raise LookupError(f"{source!r} takes no field, got {field!r}")
    if "::" in source:
        if not _node_exists(source):
            raise LookupError(f"no test node {source}")
        return None
    module, _, name = source.rpartition(".")
    try:
        return getattr(importlib.import_module(f"qmultimeter.{module}"), name)
    except (ImportError, AttributeError, ValueError):
        raise LookupError(f"no module constant {source}") from None


def _matches(actual, value: str) -> bool:
    """Whether ``actual`` is ``value``: ``≤ x`` as a bound, an integer
    exactly, any other number to the digits shown."""
    if value.startswith("≤"):
        return actual <= float(value[1:])
    if re.fullmatch(r"-?\d+", value):
        return actual == int(value)
    shown = Decimal(value)
    half_digit = Decimal(5).scaleb(shown.as_tuple().exponent - 1)
    return abs(Decimal(repr(float(actual))) - shown) <= half_digit


def claim_failures(text: str) -> list:
    """A line for each row of the claims table that its source does not bear out."""
    failures = []
    for row in claim_rows(text):
        if len(row) != 4:
            failures.append(f"row {row} does not have four cells")
            continue
        claim, source, field, value = row
        try:
            actual = _read(source, field)
        except LookupError as exc:
            failures.append(f"{claim}: {exc}")
            continue
        ok = value == "passes" if actual is None else _matches(actual, value)
        if not ok:
            failures.append(f"{claim}: {source} {field} reads {actual!r}, README says {value}")
    return failures


def unit_figures(text: str) -> list:
    """The time and memory figures of ``text`` outside code blocks and tables."""
    prose, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and not line.startswith("|"):
            prose.append(line)
    return UNIT_FIGURE.findall("\n".join(prose))


@pytest.fixture(scope="module")
def readme() -> str:
    return README.read_text(encoding="utf-8")


def test_every_claim_holds(readme):
    assert len(claim_rows(readme)) >= 35
    assert claim_failures(readme) == []


def test_no_time_or_memory_figure_outside_the_table(readme):
    assert unit_figures(readme) == []


def test_a_claim_off_in_its_last_digit_fails(readme):
    text = readme.replace("| 0.5773502692 |", "| 0.5773502693 |", 1)
    assert claim_failures(text) == [
        "phase space d = 3: pairwise overlap 1/√d: qmultimeter demo phase-space --dim 3 "
        "/unbiased_overlap reads 0.5773502691896258, README says 0.5773502693"
    ]


def test_a_field_the_payload_lacks_fails(readme):
    text = readme.replace("`/vector_count` | 6", "`/vector_counts` | 6", 1)
    assert claim_failures(text) == [
        "phase space d = 5: d + 1 programming vectors: the report has no field /vector_counts"
    ]


def test_a_missing_test_node_fails(readme):
    text = readme.replace("::TestProposition1IsTight`", "::TestProposition1IsLoose`", 1)
    assert [f.rpartition(": ")[2] for f in claim_failures(text)] == [
        "no test node tests/test_verify.py::TestProposition1IsLoose"
    ]


def test_a_timing_in_the_prose_fails(readme):
    text = readme.replace("## CLI\n", "## CLI\n\nThe demo takes 0.3 s.\n", 1)
    assert unit_figures(text) == ["0.3 s"]


@pytest.mark.parametrize(
    ("value", "actual", "ok"),
    [("0.7071067812", 0.7071067811865476, True), ("0.7071067811", 0.7071067811865476, False),
     ("0", 0.0, True), ("0", 1e-300, False), ("4", 4, True), ("≤ 1e-8", 1e-8, True),
     ("≤ 1e-8", 1.1e-8, False), ("0.3779644730", 0.37796447300922725, True)],
)
def test_values_match_to_the_digits_shown(value, actual, ok):
    assert _matches(actual, value) is ok


@pytest.mark.parametrize(
    "line", ["takes 0.3 s", "peaks at 88 MiB", "in 12.5 ms", "9 µs a call", "a 1 GiB cap"]
)
def test_units_of_time_and_memory_are_found(line):
    assert unit_figures(line) != []


@pytest.mark.parametrize("line", ["d + 1 vectors", "2 sharp effects", "1000 trials", "(2k - 1)"])
def test_other_numbers_are_not_figures(line):
    assert unit_figures(line) == []


# ---------------------------------------------------------------------------
# the CLI examples


def cli_examples(text: str) -> list:
    """The lines of the ``sh`` block of README's CLI section, comments stripped."""
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [kept for line in block.splitlines() if (kept := line.split("#", 1)[0].strip())]


@pytest.mark.parametrize("line", cli_examples(README.read_text(encoding="utf-8")))
def test_every_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV, raising=False)
    rng = np.random.default_rng(0)
    for name in ("e1.json", "e2.json"):
        (tmp_path / name).write_text(json.dumps(observable_to_json(random_povm(rng, 2, 3))))
    argv = shlex.split(line)
    assert argv[0] == "qmultimeter"
    assert main(argv[1:]) == 0, capsys.readouterr().err
