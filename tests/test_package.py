"""The package holds only what the program runs: code that only tests call
belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "sparsense"

# public functions no program code calls yet, each kept for a planned use
UNCALLED = {
    "min_component_snr": "the exact-support check of the theorem's SNR condition will call it",
}


def test_every_public_function_is_used_by_the_package():
    """Each public module-level function of a module other than ``__init__``
    is referred to by code of such a module: by its bare name, or as an
    attribute of its module (``bounds.omega_for_probability``). An import, a
    docstring or a same-named attribute of another object (``d.coherence``)
    is not a use."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PKG.glob("*.py") if p.stem != "__init__"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
    uncalled = {node.name for module, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and node.name not in used and f"{module}.{node.name}" not in used}
    assert uncalled == set(UNCALLED)


def test_the_package_init_re_exports_nothing():
    """Each name is imported from the module that defines it, so the package
    ``__init__`` holds no import statement."""
    tree = ast.parse((PKG / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
