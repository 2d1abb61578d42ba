"""The package's public names and its modules' imports, checked with the
standard library only: a rule deleted from a module must take its export
and every import of it along.  README's Python examples run here too, with
the values their comments state."""
import ast
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import cyclemaps

SRC = Path(cyclemaps.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = cyclemaps.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(cyclemaps, name)] == []


def test_every_public_function_and_class_the_package_imports_is_exported():
    imported = {
        name
        for name, obj in vars(cyclemaps).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("cyclemaps.")
    }
    assert len(imported) > 40  # the check sees the package's imports at all
    assert sorted(imported - set(cyclemaps.__all__)) == []


def test_the_spectrum_result_stays_exported_without_the_dense_spectrum():
    # the Choi spectrum comes from ChoiStructure.spectrum; the block eigensolver keeps min_eigenvalue only
    assert "SpectrumResult" in cyclemaps.__all__
    assert "hermitian_spectrum" not in cyclemaps.__all__
    assert not hasattr(cyclemaps.matlin, "hermitian_spectrum")


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, those in string annotations and in
    ``__all__`` included."""
    read, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _names_read(ast.parse(note.value))
    return read


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with its line; ``__future__`` binds none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({(alias.asname or alias.name.split(".")[0]): node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(alias.asname or alias.name): node.lineno for alias in node.names})
    return bound


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree).items() if name not in read]
    assert unused == []


def test_the_unused_import_check_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\nimport e\n__all__ = ['b']\ndef f(y: 'e') -> None:\n    return a\n")
    assert set(_imported_names(tree)) - _names_read(tree) == {"c"}


def _quick_start(ns):
    report = ns["report"]
    statuses = [getattr(report, f).status for f in ("positive", "completely_positive", "atomic", "decomposable")]
    assert statuses == ["yes", "no", "yes", "no"]
    assert cyclemaps.min_eigenvalue(ns["choi"](ns["p"])) == pytest.approx(-1.0, abs=1e-12)


def _spa(ns):
    state, dec = ns["state"], ns["dec"]
    assert state.lambda_star == pytest.approx(0.4, abs=1e-15)
    assert state.matrix.shape == (9, 9) and np.trace(state.matrix) == pytest.approx(1.0, abs=1e-15)
    assert cyclemaps.min_eigenvalue(state.matrix) == pytest.approx(0.0, abs=1e-12)
    assert dec.normalization == pytest.approx(1 / 15, abs=1e-15) and dec.residual <= 1e-10
    assert all(t.kind in ("pair", "diagonal") for t in dec.terms)


def _witness(ns):
    cert = ns["cert"]
    assert (cert.span_rank, cert.optimal) == (9, True)
    assert max(abs(e) for e in cert.expectations) <= 1e-9


def _involution_split(ns):
    cert = ns["cert"]
    assert cert.pairs.tolist() == [[1, 3], [2, 4]]
    assert cert.p_min_eigenvalue >= -1e-9 and (cert.q_pt_min_eigenvalues >= -1e-9).all()
    assert cert.reconstruction_residual <= 1e-10


def test_readme_python_examples_run():
    # in order and in one namespace, as a reader pastes them: a removed or
    # renamed name fails here instead of leaving the README stale.  Each block's
    # comments state values, checked before the next block runs (two bind cert)
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    checks = [_quick_start, _spa, _witness, _involution_split]
    assert len(blocks) == len(checks)
    namespace = {}
    for number, (block, check) in enumerate(zip(blocks, checks), 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
        check(namespace)


# Exported names that no package module reads and README does not name,
# kept as library API for a reason of their own.
KEEP = {
    "theta_apply",  # the map Theta of the paper
    "delta_apply",  # its diagonal compression Delta
    "d_matrix",  # the matrix D through which Theta acts on the diagonal
    "partial_transpose",  # the Gamma of "decomposable": C = P + Q^Gamma
    "matrix_to_json",  # writes the --state files that CI and README feed the CLI
    "maximally_entangled_state",  # the state of a README example
}


def _unexplained_exports(package, modules: list[ast.Module], readme: str, keep: set[str]) -> list[str]:
    """Functions and classes in ``package.__all__`` that none of ``modules``
    reads, ``readme`` does not name and ``keep`` does not list."""
    read = set().union(*map(_names_read, modules))
    return sorted(
        name
        for name in package.__all__
        if (inspect.isfunction(getattr(package, name)) or inspect.isclass(getattr(package, name)))
        and name not in read | keep
        and not re.search(rf"\b{name}\b", readme)
    )


def test_every_exported_function_and_class_is_read_named_or_kept():
    # the package's own __init__ reads every export through __all__; the other modules must
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 7
    assert KEEP <= set(cyclemaps.__all__)
    assert _unexplained_exports(cyclemaps, modules, README.read_text(), KEEP) == []


def test_the_export_check_sees_an_unexplained_export():
    def f():
        pass

    package = types.SimpleNamespace(__all__=["used", "named", "kept", "stray", "CONSTANT"], CONSTANT=1.0,
                                    used=f, named=f, kept=f, stray=f)
    modules = [ast.parse("def f():\n    return used()\n")]
    assert _unexplained_exports(package, modules, "call `named` here", {"kept"}) == ["stray"]
