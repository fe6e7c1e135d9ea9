"""mfgrow's runtime imports stay within what pyproject declares:
``dependencies = ["numpy>=1.24"]``, beside the standard library. And every
public function and class of the package has a caller in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mfgrow

PACKAGE = Path(mfgrow.__file__).parent

# Imports every module of the package in turn and prints the top-level name
# of each module the imports added to sys.modules, one per line.
_IMPORT_ALL = """
import importlib
import sys

before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print("\\n".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_runtime_imports_are_stdlib_or_numpy():
    modules = sorted("mfgrow" if p.stem == "__init__" else f"mfgrow.{p.stem}"
                     for p in PACKAGE.glob("*.py"))
    assert "mfgrow.cli" in modules and "mfgrow.net" in modules
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL, *modules], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    added = set(out.split())
    assert {"mfgrow", "numpy"} <= added
    assert added - sys.stdlib_module_names - {"mfgrow", "numpy"} == set()


# Public names that nothing in the package calls, each kept for its own
# reason.
_UNCALLED = {
    ("measure", "coupling_contrast"): "criterion 10's subject: the paired-minus-decoupled gap",
    ("transfer", "duplicate_grow"): "the paper's naive-duplication baseline, criterion 3",
}


def _names_used(tree, skip):
    """Every name and attribute read in ``tree`` outside the node ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_has_a_caller():
    # By name, outside the definition's own body; __init__.py's re-exports
    # are not callers.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in _names_used(t, node) for t in trees.values())):
                uncalled.add((module, node.name))
    assert uncalled == set(_UNCALLED)
