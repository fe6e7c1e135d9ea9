"""mfgrow's runtime imports stay within what pyproject declares:
``dependencies = ["numpy>=1.24"]``, beside the standard library."""

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
