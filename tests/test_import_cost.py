"""Importing the translator stays cheap: no module of the package imports
`dataclasses`, which generates and compiles methods for every class at
import time and pulls in `inspect`, `ast`, `dis` and `tokenize`, nor
`inspect` or `typing`."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
EXCLUDED = {"dataclasses", "inspect", "typing"}

# -S leaves out the site hooks, which may import typing themselves
PROBE = (
    "import sys\n"
    f"sys.path.insert(0, {SRC!r})\n"
    "before = set(sys.modules)\n"
    "import tptp2miz.cli\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_a_fresh_import_loads_none_of_them():
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "tptp2miz.obvious" in added
    assert not added & EXCLUDED


def test_no_module_imports_them():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "tptp2miz", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(os.path.basename(path), name) for name in names
                      if name.split(".")[0] in EXCLUDED]
    assert found == []
