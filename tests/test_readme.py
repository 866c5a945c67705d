"""README name lint: every name README puts in backticks exists in the code.

A dotted name (``Observable._from_factors``, ``groups.eigenvector_program_states``)
is resolved by import and ``getattr`` from a name that ``qmultimeter``, its
modules, ``tests/oracles.py``, ``scripts/`` or ``perfbench/`` define; a bare
identifier must be a name one of them defines at module or class level. A
call ``name(args)`` is checked by its name. File names, JSON literals, CLI
lines, flags and formulas are not names and are skipped by pattern.
"""

import builtins
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import qmultimeter

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
