"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import nls2lab

PACKAGE = Path(nls2lab.__file__).parent


def private_imports(path: Path) -> list:
    """(line, module, name) of each leading-underscore name the file imports
    from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("nls2lab"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, node.module, alias.name))
    return found


def test_no_private_name_crosses_a_module_boundary():
    offenders = {p.name: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}
