import json
import os
import subprocess
import sys
from pathlib import Path

import ionvq

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import ionvq, ionvq.cli
names = [m.name for m in pkgutil.iter_modules(ionvq.__path__)]
for name in names:
    importlib.import_module("ionvq." + name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_package_imports_without_scipy():
    # scipy is a test-only dependency: no ionvq module may pull it in
    src = str(Path(ionvq.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                          env=env, check=True)
    result = json.loads(proc.stdout)
    assert {"cli", "compiler", "core", "qec", "sampling", "tables"} <= set(result["modules"])
    assert result["scipy"] == []
