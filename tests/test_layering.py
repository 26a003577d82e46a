"""The package's modules import each other only along the pinned layers.

``arith`` is the leaf; the closed forms, the oracle, the Frobenius solver and
the polytope code each rest on ``arith`` alone, so the combinatorial layer
cannot read a Milnor table; only ``planner`` combines them.  Imports under
``if TYPE_CHECKING:`` serve annotations and are skipped.
"""

import ast
from pathlib import Path

import pytest

import cobforge

PACKAGE = Path(cobforge.__file__).resolve().parent

ALLOWED = {
    "arith": set(),
    "chern": {"arith"},
    "milnor": {"arith"},
    "frobenius": {"arith"},
    "polytope": {"arith"},
    "planner": {"arith", "chern", "milnor", "polytope"},
}


def _is_type_checking(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def package_imports(module):
    """The sibling modules ``module`` imports with ``from .``, outside TYPE_CHECKING blocks."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .arith import x" names arith; "from . import milnor" names milnor
            found.update([node.module] if node.module else (a.name for a in node.names))
        pending.extend(c for c in ast.iter_child_nodes(node) if not _is_type_checking(c))
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_layers(module):
    assert package_imports(module) == ALLOWED[module]

