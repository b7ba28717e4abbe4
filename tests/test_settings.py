"""The package reads no environment variable, and exports no test reference.

Every setting is a CLI flag or a function parameter, which the README's flag
table and the docstrings list; a value read from the environment would be a
setting neither shows. References that only tests compare against stay in
their modules and out of the top-level exports.
"""

import ast
from pathlib import Path

import squeezelax

PACKAGE = Path(squeezelax.__file__).parent
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    """file:line of each os.environ / os.getenv access, or import of one, in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"{path.name}:{node.lineno}")
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in READERS for alias in node.names)):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    assert [where for path in modules for where in _environment_reads(path)] == []


def test_test_references_are_not_package_exports():
    # the RK45 stepper and the four-channel dissipator are references the
    # tests read from ``ode`` and ``lindblad``; no production path runs them
    assert [name for name in ("integrate", "IntegratorConfig", "dissipator")
            if hasattr(squeezelax, name)] == []
