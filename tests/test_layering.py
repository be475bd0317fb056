"""The import rules of the package.

`fdsolver` (the finite-difference oracle) takes nothing from `specfun` or
`quantum`, `specfun` takes nothing from `fdsolver`, and no module of the
package uses mpmath, which only the tests' extended-precision oracles may.
Over the whole package the imports run one way, so that the library
computes and only the CLI writes: `specfun`, `fdsolver` and `svgplot` import
no package module, `geometry` and `quantum` only `specfun`, `polyene` only
`quantum` and `specfun`, and `cli` whatever it needs.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spiralbox"


def _imported(path):
    """Every dotted part of every name a file imports, or imports from.

    `from .specfun import bessel_j` gives {"specfun", "bessel_j"}: more than
    the modules, which can only make the rule stricter.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        names.update(part for name in dotted for part in name.split(".") if part)
    return names


def test_the_import_reader_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import mpmath as mp\n"
        "from . import quantum, geometry\n"
        "from .specfun import bessel_j\n"
        "import spiralbox.fdsolver\n"
        "from spiralbox import svgplot\n"
        "def f():\n"
        "    from numpy import linalg\n"
    )
    got = _imported(probe)
    assert {"mpmath", "quantum", "geometry", "specfun", "fdsolver", "svgplot", "numpy"} <= got


@pytest.mark.parametrize(
    "module,forbidden",
    [("fdsolver", {"specfun", "quantum"}), ("specfun", {"fdsolver"})],
)
def test_the_two_legs_import_nothing_from_each_other(module, forbidden):
    assert not _imported(SRC / f"{module}.py") & forbidden


# each module of the package -> the package modules it may import
IMPORT_ORDER = {
    "specfun": set(),
    "fdsolver": set(),
    "svgplot": set(),
    "geometry": {"specfun"},
    "quantum": {"specfun"},
    "polyene": {"quantum", "specfun"},
    "cli": {"fdsolver", "geometry", "polyene", "quantum", "specfun", "svgplot"},
}


def test_every_module_imports_only_the_modules_below_it():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(IMPORT_ORDER)
    got = {m: _imported(SRC / f"{m}.py") & modules for m in sorted(modules)}
    assert got == IMPORT_ORDER


def test_no_package_module_imports_mpmath():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"fdsolver", "specfun", "quantum", "cli"}
    assert [p.name for p in paths if "mpmath" in _imported(p)] == []


def test_the_package_exports_only_names_its_modules_list():
    # every name `spiralbox/__init__.py` imports is in its module's __all__,
    # and every __all__ entry of every module exists
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    imported = {}
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert set(imported) <= modules and imported
    for name in sorted(modules):
        module = importlib.import_module(f"spiralbox.{name}")
        assert imported.get(name, set()) <= set(module.__all__), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
