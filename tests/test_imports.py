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


def _fresh(code):
    src = str(Path(ionvq.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_imports_without_scipy():
    # scipy is a test-only dependency: no ionvq module may pull it in
    result = _fresh(IMPORT_ALL)
    assert {"cli", "compiler", "core", "qec", "sampling", "tables"} <= set(result["modules"])
    assert result["scipy"] == []


def test_config_is_checked_without_jsonschema():
    # jsonschema is the test-only reference for the CLI's own schema checker
    config = Path(__file__).resolve().parents[1] / "configs" / "smoke_bv.json"
    result = _fresh(f"""
import json, sys
from ionvq.cli import main
code = main(["bv", "--config", {str(config)!r}])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")]))
""")
    assert result == [0, []]


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures costs milliseconds of start-up; only a repcode curve needs it
    result = _fresh("""
import json, sys
import ionvq.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")))
""")
    assert result == []
