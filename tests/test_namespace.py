"""The top-level spar namespace: the user surface and nothing else.

The fits, their specs and result types, data and model I/O, plugin
registration and every error are exported from spar; the building
blocks stay in their modules.  README, the benchmark scripts and the
golden regenerator may use spar.X only for exported names and submodules.
"""

import ast
import pkgutil
import re
from pathlib import Path

import pytest

import spar
from spar import errors

ROOT = Path(__file__).resolve().parents[1]

ERRORS = {
    "ConfigError", "CvError", "DataError", "DomainError", "InsufficientDataError",
    "NumericError", "ParseError", "SingularError", "SparError", "VersionError",
}
EXPORTS = ERRORS | {
    "fit_spar", "fit_spar_cv", "ScreenSpec", "RpSpec", "ModelSpec",
    "SparEnsemble", "AveragedCoef", "MarginalModel", "StandardizationStats", "Family",
    "ProjectionMatrix", "SelectionGrid", "GridCell", "Dataset", "SyntheticSpec",
    "generate_synthetic", "load_csv", "save_csv", "load_model", "save_model",
    "serialize_model", "standardize", "register_rp_plugin", "register_screen_plugin",
}


def test_all_is_the_user_surface():
    assert len(spar.__all__) == len(set(spar.__all__)) == 34
    assert set(spar.__all__) == EXPORTS
    for name in spar.__all__:
        assert getattr(spar, name) is not None
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.SparError)}
    assert classes == ERRORS  # every error class, and only those


@pytest.mark.parametrize("path", [
    ROOT / "README.md", ROOT / "tests" / "golden" / "regen.py",
    *sorted((ROOT / "bench").glob("*.py")),
], ids=lambda p: str(p.relative_to(ROOT)))
def test_docs_and_scripts_use_only_exported_names(path):
    submodules = {m.name for m in pkgutil.iter_modules(spar.__path__)}
    text = path.read_text()
    used = set(re.findall(r"\bspar\.(\w+)", text))
    for names in re.findall(r"\bfrom spar import ([\w, ]+)", text):
        used |= {n.strip() for n in names.split(",")}
    assert used - EXPORTS - submodules == set()


def test_every_public_function_has_a_caller():
    """A module-level public function is exported from spar or referenced inside src/spar.

    jl_min_dim is the one exception: acceptance criterion 2 checks the
    JL bound with it.  A function only tests reach is dead API.
    """
    defined, referenced = set(), set()
    for path in sorted((ROOT / "src" / "spar").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined - referenced - set(spar.__all__) == {"jl_min_dim"}


def test_every_public_method_has_a_reader():
    """A public method or property of a class in src/spar is read as an attribute inside
    src/spar.  ProjectionMatrix.rows is the one exception: the bench's cw hook counts a cw
    matrix's empty rows with it.  A method only tests reach is dead API."""
    defined, read = set(), set()
    for path in sorted((ROOT / "src" / "spar").glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defined |= {(cls.name, node.name) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {f"{c}.{name}" for c, name in defined if name not in read} == {"ProjectionMatrix.rows"}


def test_only_fit_models_screens_and_refreshes_cw_values():
    """The full fit and every CV fold screen and refresh cw values on one path.

    Outside screening.py, compute_screening is called only by
    ensemble.fit_models, and so is ProjectionMatrix.with_column_values.
    """
    callers = {"compute_screening": set(), "with_column_values": set()}
    for path in sorted((ROOT / "src" / "spar").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers and path.name != "screening.py":
                    callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"compute_screening": {"ensemble.fit_models"},
                       "with_column_values": {"ensemble.fit_models"}}


def test_only_the_specs_modules_resolve_plugins():
    """cli.py imports nothing from spar.plugins; outside plugins.py only screening.py and
    projection.py call resolve, so plugin names are looked up in one place per kind."""
    callers = set()
    for path in sorted((ROOT / "src" / "spar").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.name == "cli.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
                modules += [alias.name for alias in node.names]
                assert not any(m and m.endswith("plugins") for m in modules), ast.unparse(node)
            if (isinstance(node, ast.Call) and path.name != "plugins.py"
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "resolve"):
                callers.add(path.name)
    assert callers == {"screening.py", "projection.py"}
