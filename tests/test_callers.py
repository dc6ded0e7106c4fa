"""Every public module-level function and class of ``codtsim`` has a reference under ``src/``.

A reference is a use of the name in code (a name or an attribute), outside
the name's own definition.  Imports and ``__all__`` re-export a name, and a
docstring or comment only mentions it; none of them uses it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "codtsim"

# public names without a reference under src/, each kept for a caller outside it
ALLOWED = {
    "static_potential": "perfbench's kernel micro run calls it",
    "beam_intensity": "the kernel tests compare against this per-beam reference",
    "thermo_metrics": "TestThermoMetrics in test_trapchar.py checks it",
    "evaporation_efficiency": "criterion 07 uses it",
}


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_public_names() -> set[str]:
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                continue
            names = _referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # its own definition, recursion and docstring included
                if not node.name.startswith("_"):
                    defined.add(node.name)
            referenced |= names
    return defined - referenced


def test_every_public_name_has_a_caller():
    assert unreferenced_public_names() == set(ALLOWED)
