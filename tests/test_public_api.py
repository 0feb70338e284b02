"""The package's public surface: the names README's "Library use" and the
command line rely on, and no more.  Everything else is reached through
its submodule and is internal."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import periorbit

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "load_problem", "parse_problem_text", "ProblemFileError", "ProblemSpec",
    "PeriodicCoeff", "parse_expression",
    "certify", "Certificate", "theorem_for",
    "find_periodic", "Orbit", "State", "NoConvergenceError",
}


def _submodules():
    return [importlib.import_module(f"periorbit.{m.name}")
            for m in pkgutil.iter_modules(periorbit.__path__)]


def test_package_exports_exactly_the_public_names():
    assert set(periorbit.__all__) == PUBLIC
    assert len(periorbit.__all__) == len(PUBLIC)
    for name in periorbit.__all__:
        assert hasattr(periorbit, name), name


def test_no_submodule_declares_its_own_export_list():
    modules = _submodules()
    assert {m.__name__ for m in modules} >= {"periorbit.cli",
                                             "periorbit.solver"}
    for module in modules:
        assert not hasattr(module, "__all__"), module.__name__


def test_readme_library_use_runs_verbatim(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("T3.1 True (")
    assert abs(float(lines[1].split()[0]) - 399.93) < 0.5


# numpy's BLAS products: the bits of a value taken through one follow the
# host's BLAS kernel
BLAS_PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _uses(banned):
    """(file, line) of every @ or @= in src/ when "@" is in `banned`, and
    of every attribute or import there that names one of `banned`."""
    sources = sorted((ROOT / "src" / "periorbit").glob("*.py"))
    assert len(sources) > 5
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                hit = "@" in banned and isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Attribute):
                hit = node.attr in banned
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [a.name for a in node.names]
                hit = bool(banned.intersection(
                    part for name in names for part in name.split(".")))
            else:
                hit = False
            if hit:
                found.append((path.name, node.lineno))
    return found


def test_src_needs_no_numpy_linalg():
    """The package takes its 2x2 eigenvalues and inverses from matrix
    entries: no source file names numpy.linalg or imports linalg."""
    assert _uses({"linalg"}) == []


def test_blas_products_only_at_the_known_sites():
    """No known site is left: no value in src/ passes through a BLAS
    product.  No source file holds an @ or @=, or names or imports dot,
    matmul, einsum, inner, vdot or tensordot; the package writes its
    products elementwise."""
    assert _uses(BLAS_PRODUCTS | {"@"}) == []


# module-level imports that their module never reads, and why each stays
UNREAD_IMPORTS = {
    ("cli", "closed_form_constant"):
        "bench/spans.py rebinds it on cli to time kernel builds",
    ("cli", "numeric_periodic_green"):
        "bench/spans.py rebinds it on cli to time kernel builds",
    ("hypotheses", "closed_form_constant"):
        "bench/spans.py rebinds it on hypotheses to time kernel builds",
    ("hypotheses", "numeric_periodic_green"):
        "bench/spans.py rebinds it on hypotheses to time kernel builds",
}


def _unread_imports(tree):
    """(name, line) of every name a module imports at module level and
    never reads; a name listed in the module's __all__ counts as read."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items()
                  if name not in read)


def test_module_level_imports_are_read():
    """A census of the imports in src/: every name a module imports at
    module level is read in it, or exported through periorbit's __all__,
    or listed with its reason in UNREAD_IMPORTS, and each listed one is
    still imported and unread."""
    seen = set()
    for path in sorted((ROOT / "src" / "periorbit").glob("*.py")):
        for name, line in _unread_imports(ast.parse(path.read_text())):
            site = (path.stem, name)
            assert site in UNREAD_IMPORTS, (path.name, name, line)
            seen.add(site)
    assert seen == set(UNREAD_IMPORTS)
