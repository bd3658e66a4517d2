"""Dead-import, dead-code and import-boundary guards: stdlib stand-ins for a linter.

Every module of the package reads each name it imports, or perfbench reads
it through that module, and the package's __init__ is its docstring alone,
so each name has one import path.  Every
top-level definition of the package is reached from what a command, a gate
or the benchmark reads, so code that only tests read lives in
tests/oracles.py.  Every parameter of a function or lambda is read by its
body, but for the few the benchmark still passes.  No module takes
another module's underscore name.  In cli.py only main opens, writes or
flushes output; every command yields its text.  scalar.py imports the
standard library alone, and importing cli.py loads nothing else but
scalar.py, so that a genus command never loads numpy.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "x0genus"
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module binds by import statements (__future__ excluded)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def unread_imports(path: Path) -> set[str]:
    """The names a module imports that neither it nor perfbench reads.

    perfbench reading a name through the module (genus_mod.genus) counts.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {name for module, name in reads_of(PERFBENCH) if module == path.stem}
    return imported_names(tree) - read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == set()


def test_an_unread_import_is_found(tmp_path):
    # genus is read through the genus module by perfbench, not through stats
    package = plant(tmp_path, "\n\nfrom math import tau\nfrom .scalar import genus\n")
    assert unread_imports(package / "stats.py") == {"tau", "genus"}


def test_package_init_is_its_docstring_alone():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None


def _module_of(node: ast.AST, modules: dict) -> str | None:
    """The package module an expression names: an alias or import_module("x0genus.<module>")."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module"
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("x0genus.")):
        return node.args[0].value.removeprefix("x0genus.")
    return None


def _package_names(tree: ast.Module) -> tuple[dict, dict]:
    """What a file's imports from the package stand for.

    Returns the (module, name) each imported name stands for, and the
    module each module alias stands for.  Relative imports are the
    package's own; a file outside it imports from x0genus.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "x0genus"):
            home = (node.module or "").removeprefix("x0genus").removeprefix(".")
            for a in node.names:
                if home:
                    names[a.asname or a.name] = (home, a.name)
                else:
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.Assign) and _module_of(node.value, modules):
            modules.update((t.id, _module_of(node.value, modules))
                           for t in node.targets if isinstance(t, ast.Name))
    return names, modules


def _reads(node: ast.AST, names: dict, modules: dict) -> set[tuple[str, str]]:
    """(module, name) of every package name that node reads, bare or as a module attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names:
            out.add(names[n.id])
        elif isinstance(n, ast.Attribute) and (mod := _module_of(n.value, modules)):
            out.add((mod, n.attr))
    return out


def reads_of(paths) -> set[tuple[str, str]]:
    """(module, name) of every package name that the files at paths read."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= _reads(tree, *_package_names(tree))
    return found


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines, the module protocol's dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        found = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        found = [stmt.target.id]
    else:
        found = []
    return [n for n in found if not (n.startswith("__") and n.endswith("__"))]


def package_graph(package: Path = PACKAGE) -> tuple[dict, set]:
    """Edges from each top-level definition to the package names it reads.

    Module-level code that defines nothing runs on import, so what it
    reads is returned as a root.
    """
    edges, roots = {}, set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _package_names(tree)
        names.update((n, (path.stem, n)) for stmt in tree.body for n in _defined(stmt))
        for stmt in tree.body:
            reads = _reads(stmt, names, modules)
            edges.update(((path.stem, n), reads) for n in _defined(stmt))
            if not _defined(stmt):
                roots |= reads
    return edges, roots


def unreached(package: Path = PACKAGE) -> list[str]:
    """The package's top-level definitions that no command, gate or benchmark reaches."""
    edges, roots = package_graph(package)
    roots |= {("cli", "main")} | reads_of([ROOT / "tests" / "test_acceptance.py", *PERFBENCH])
    reached, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node in edges and node not in reached:
            reached.add(node)
            todo.extend(edges[node])
    return sorted(f"{m}.{n}" for m, n in edges.keys() - reached)


def test_every_definition_is_reached():
    assert unreached() == []


def plant(tmp_path: Path, code: str, module: str = "stats.py") -> Path:
    """A copy of the package in tmp_path with code appended to one module file."""
    for path in MODULES:
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / module, "a", encoding="utf-8") as f:
        f.write(code)
    return tmp_path


def test_an_unreached_definition_is_found(tmp_path):
    package = plant(tmp_path, "\n\ndef planted(n):\n    return factorize(n)\n")
    assert unreached(package) == ["stats.planted"]


# parameters no body reads, kept because the benchmark (perfbench/) still
# passes or reads them: its trace wrapper records iter_blocks' threads, and
# its deep-windows workload calls check_bounds_range with threads=1
UNREAD_BUT_KEPT = {
    ("genus", "iter_blocks", "threads"),
    ("bounds", "check_bounds_range", "threads"),
}


def unread_parameters(package: Path = PACKAGE) -> set[tuple[str, str, str]]:
    """(module, function, name) of every parameter its function's body never reads.

    A nested function's body counts as part of its enclosing one, so a
    parameter a closure reads is read.
    """
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found |= {(path.stem, name, p.arg) for p in params if p.arg not in read}
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_BUT_KEPT


def test_an_unread_parameter_is_found(tmp_path):
    package = plant(tmp_path, "\n\ndef planted(n, unused):\n    return factorize(n)\n")
    assert unread_parameters(package) - UNREAD_BUT_KEPT == {("stats", "planted", "unused")}


def private_imports(package: Path = PACKAGE) -> set[tuple[str, str]]:
    """(module, home.name) of every underscore name a module takes from another module.

    An imported name counts, and so does an attribute read through a
    module alias (from . import genus, then genus._lift).
    """
    found = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _package_names(tree)
        taken = set(names.values()) | _reads(tree, names, modules)
        found |= {(path.stem, f"{home}.{name}") for home, name in taken
                  if name.startswith("_") and home != path.stem}
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports() == set()


def test_a_private_import_is_found(tmp_path):
    package = plant(tmp_path, "\n\nfrom .genus import _lift\n")
    assert private_imports(package) == {("stats", "genus._lift")}


def output_calls(package: Path = PACKAGE) -> set[tuple[str, str]]:
    """(function, what) of every output call in cli.py outside main.

    An open() call, a read of sys.stdout, and a .write, .writelines or
    .flush call count; main is the one sink every command's text passes.
    """
    found = set()
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for n in ast.walk(func):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open":
                found.add((func.name, "open"))
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("write", "writelines", "flush")):
                found.add((func.name, n.func.attr))
            elif (isinstance(n, ast.Attribute) and n.attr == "stdout"
                    and isinstance(n.value, ast.Name) and n.value.id == "sys"):
                found.add((func.name, "sys.stdout"))
    return found


def test_only_main_writes_cli_output():
    assert output_calls() == set()


def test_an_output_call_outside_main_is_found(tmp_path):
    code = ("\n\ndef planted(args):\n    with open(args.output, 'w') as f:\n"
            "        f.write('x')\n        f.flush()\n    sys.stdout.writelines([])\n")
    package = plant(tmp_path, code, "cli.py")
    assert output_calls(package) == {("planted", "open"), ("planted", "write"),
                                     ("planted", "flush"), ("planted", "sys.stdout"),
                                     ("planted", "writelines")}


def nonstdlib_imports(path: Path, at_import: bool = False) -> set[str]:
    """The modules outside the standard library that a module's imports name.

    A relative import is named with its dots (".scalar", and "from . import
    stats" as ".stats").  With at_import, the imports in function bodies,
    which run only when the function is called, are left out.
    """
    found, todo = set(), [ast.parse(path.read_text(encoding="utf-8"))]
    while todo:
        node = todo.pop()
        if at_import and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            found |= {dots + node.module} if node.module else {dots + a.name for a in node.names}
        todo.extend(ast.iter_child_nodes(node))
    return {m for m in found if m.split(".")[0] not in sys.stdlib_module_names}


def test_scalar_imports_the_stdlib_alone():
    assert nonstdlib_imports(PACKAGE / "scalar.py") == set()


def test_a_nonstdlib_import_in_scalar_is_found(tmp_path):
    code = "\n\nfrom . import arith\n\n\ndef planted():\n    import numpy as np\n    return np\n"
    package = plant(tmp_path, code, "scalar.py")
    assert nonstdlib_imports(package / "scalar.py") == {".arith", "numpy"}


def test_cli_loads_scalar_alone_at_import():
    assert nonstdlib_imports(PACKAGE / "cli.py", at_import=True) == {".scalar"}


def test_an_import_at_cli_import_is_found(tmp_path):
    # a command's own import runs at its call and is not one
    code = ("\n\nimport numpy as np\nif np:\n    from .genus import iter_blocks\n\n\n"
            "def planted():\n    from . import stats\n    return stats, iter_blocks\n")
    package = plant(tmp_path, code, "cli.py")
    assert nonstdlib_imports(package / "cli.py", at_import=True) == {".scalar", "numpy", ".genus"}
