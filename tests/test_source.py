"""Source-level rules for the library package."""
import ast
import pathlib

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
