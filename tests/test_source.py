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


def test_library_does_not_import_dataclasses():
    # dataclasses imports inspect, which a CLI process otherwise never
    # loads; the records build on rings.Record instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert not found, f"dataclasses imported at {found}"


def test_library_imports_fractions_only_inside_functions():
    # a Q[x] content is a pair of ints; fractions, which loads decimal and
    # numbers, is imported only by the functions that read or take a
    # Fraction, so a command that never does so does not load it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.parse(path.read_text(), str(path)).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    nodes.extend(ast.iter_child_nodes(node))
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "fractions"]
    assert not found, f"fractions imported at module level at {found}"


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


def test_cli_loads_only_the_shared_modules_at_module_level():
    # each cmd_* imports construct, gkm or analysis itself, so a subcommand
    # that runs none of them does not pay for loading them
    shared = {"rings", "serialize", "graphs", "splines"}
    found = []
    for node in ast.parse((PACKAGE / "cli.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [name for name in names if name not in shared]
    assert not found, f"cli.py imports {found} at module level"


def test_budget_default_is_defined_once():
    # the CLI's --budget resolves to analysis.DEFAULT_BUDGET; no module
    # writes the value out again
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and node.id == "DEFAULT_BUDGET" \
                    and isinstance(node.ctx, ast.Store):
                found.append(f"{path.name} DEFAULT_BUDGET =")
            elif isinstance(node, ast.Constant) and node.value == 10_000_000:
                found.append(f"{path.name} 10_000_000")
    assert found == ["analysis.py DEFAULT_BUDGET =", "analysis.py 10_000_000"], found


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
