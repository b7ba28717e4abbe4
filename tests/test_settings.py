"""The package reads no environment variable, exports no test reference, and reads its imports.

Every setting is a CLI flag or a function parameter, which the README's flag
table and the docstrings list; a value read from the environment would be a
setting neither shows. References that only tests compare against stay in
their modules and out of the top-level exports. A name imported and never
read is dead code that still costs its import.
"""

import ast
from pathlib import Path

import squeezelax

PACKAGE = Path(squeezelax.__file__).parent
TESTS = Path(__file__).parent
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
    # the RK45 stepper is a reference the tests read from ``ode``, and the
    # four-channel dissipator one they keep themselves; no production path runs them
    assert [name for name in ("integrate", "IntegratorConfig", "dissipator")
            if hasattr(squeezelax, name)] == []


def _unread_imports(path: Path) -> list[str]:
    """file:name of each name one module imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{name}" for name in imported if name not in read]


def test_every_module_reads_what_it_imports():
    # __init__.py imports its names to re-export them
    modules = [path for path in (*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py")))
               if path.name != "__init__.py"]
    assert len(modules) > 10
    assert [unread for path in modules for unread in _unread_imports(path)] == []
