"""Import hygiene of the package: every import sits at module level,
neither the oracle nor the certificate module imports the rule engine, and
the rule engine imports nothing from the oracle, so the oracle is evidence
independent of the engine whose certificates it checks.  Every exported
name is bound, every docstring example runs, and every function the
benchmark tracer wraps exists and is labelled with the verdict's own
deciding rule."""

import ast
import doctest
import importlib
import importlib.util
from pathlib import Path

import pytest

from qdense import DiagonalForm, decide

SRC = Path(__file__).resolve().parent.parent / "src" / "qdense"
MODULES = sorted(SRC.glob("*.py"))


def _dotted(path):
    return "qdense" if path.stem == "__init__" else f"qdense.{path.stem}"


def _imported_modules(node):
    """Dotted names an Import/ImportFrom node can bind, relative ones as '.x'."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "." * node.level + (node.module or "")
    if node.module is None:
        return [base + alias.name for alias in node.names]
    return [base]


def test_package_modules_found():
    assert {"denseness.py", "oracle.py", "certificates.py"} <= {
        m.name for m in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    tree = ast.parse(path.read_text())
    nested = [
        f"{path.name}:{inner.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside functions: {nested}"


def _imports_of(name):
    tree = ast.parse((SRC / name).read_text())
    imported = [
        target
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for target in _imported_modules(node)
    ]
    assert imported, "the walk found no imports at all"
    return imported


@pytest.mark.parametrize("name", ["oracle.py", "certificates.py"])
def test_no_engine_import_from(name):
    bad = [t for t in _imports_of(name) if t.split(".")[-1] == "denseness"]
    assert not bad, f"{name} imports the rule engine: {bad}"


def test_no_oracle_import_from_engine():
    bad = [t for t in _imports_of("denseness.py") if t.split(".")[-1] == "oracle"]
    assert not bad, f"the rule engine imports the oracle: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_docstring_examples_run(path):
    result = doctest.testmod(importlib.import_module(_dotted(path)))
    assert result.failed == 0, f"{result.failed} docstring example(s) failed"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    module = importlib.import_module(_dotted(path))
    unbound = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not unbound, f"{path.name} exports unbound names: {unbound}"


def test_package_reexports_match_all():
    """qdense re-exports exactly the __all__ of each module that declares
    one, so together with the test above no deleted name stays exported."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports, "the walk found no imports at all"
    for node in imports:
        module = importlib.import_module(f"qdense.{node.module}")
        if hasattr(module, "__all__"):
            names = [alias.name for alias in node.names]
            assert sorted(names) == sorted(module.__all__), node.module


def _load_tracer():
    """perfbench/tracer.py, loaded by path; it imports only the stdlib."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps exists, so renaming one in
    src/ fails here instead of breaking `perfbench/run.py --trace 1`."""
    targets = _load_tracer().TARGETS
    assert targets, "the tracer names no targets"
    missing = [
        f"{module}.{attr}"
        for _, module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"tracer targets that do not resolve: {missing}"


def test_tracer_deciding_rule_matches_verdicts():
    """The tracer labels each decide span with its own deciding_rule; it must
    agree with Verdict.deciding_rule, R5 traces (which end in R1) included."""
    tracer = _load_tracer()
    for n, coeffs, p in [(4, (1, -1, 3), 5), (3, (1, 2), 7), (2, (1, -1), 5),
                         (3, (1, 1, 1), 7), (5, (1, 1, 2), 7), (2, (1, 1), 3)]:
        verdict = decide(DiagonalForm(n, coeffs), p)
        assert tracer.deciding_rule(verdict) == verdict.deciding_rule
