"""Source-level rules for the library package."""
import ast
import pathlib
import sys

import gensplines

PACKAGE = pathlib.Path(gensplines.__file__).parent


def test_library_uses_no_bare_assert():
    # assert statements vanish under python -O; library self-checks must
    # raise AssertionError explicitly.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert in {found}"


def test_library_has_no_unused_imports():
    # __init__.py imports names only to re-export them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations":
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, f"unused imports {found}"


def test_library_imports_only_the_standard_library():
    # the library keeps zero runtime dependencies
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"imports outside the standard library {found}"


def test_cli_writes_stdout_once_in_main():
    # main loads, runs and emits every subcommand, so stdout stays empty
    # on exits 2 and 3
    writes, prints = [], []
    for top in ast.parse((PACKAGE / "cli.py").read_text()).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if callee == "sys.stdout.write":
                writes.append(where)
            elif callee == "print" and not any(
                    k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                    for k in node.keywords):
                prints.append(f"{where}:{node.lineno}")
    assert writes == ["main"], f"sys.stdout.write in {writes}"
    assert not prints, f"print to stdout in {prints}"


def test_gkm_walks_fundamental_cycles_only_in_the_tree_reduction():
    # the cycle rows of reduce_via_tree are the one place that walks the
    # fundamental cycles; syzygy_check solves the tree rows and tests each
    # chord row instead
    callers = []
    for top in ast.parse((PACKAGE / "gkm.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "fundamental_cycles":
                callers.append(getattr(top, "name", "<module>"))
    assert callers == ["reduce_via_tree"], f"fundamental_cycles called in {callers}"


def test_serialize_does_not_import_the_constructions():
    # the JSON layer reads a family's fields; it needs no construct import
    tree = ast.parse((PACKAGE / "serialize.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "construct" not in modules, modules
