"""No module of the package imports another module's private names, and
only spectral.py imports scipy.fft."""

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


def scipy_fft_imports(path: Path) -> list:
    """What the file imports of scipy.fft: "scipy.fft" for the module
    (`import scipy.fft`, `from scipy import fft`), "scipy.fft.<name>" for a
    name taken out of it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "scipy.fft"]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found += ["scipy.fft" for a in node.names if a.name == "fft"]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.fft":
            found += [f"scipy.fft.{a.name}" for a in node.names]
    return found


def test_only_spectral_imports_scipy_fft_and_only_the_module():
    """Every transform is then a `sfft.<name>` lookup at call time, so
    patching an attribute of scipy.fft (as a tracer does) sees every call."""
    found = {p.name: scipy_fft_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {"spectral.py": ["scipy.fft"]}
