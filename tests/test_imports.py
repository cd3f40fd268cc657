import ast
import importlib
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
    # concurrent.futures costs milliseconds of start-up; a repcode curve runs on the main thread
    result = _fresh("""
import json, sys, threading
import ionvq.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
code = ionvq.cli.main(["repcode", "--L", "5", "--n", "2", "--p-grid", "1e-3:1e-1:3",
                       "--shots", "1000", "--seed", "1"])
print(json.dumps([loaded, code, sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"),
                  threading.active_count()]))
""")
    assert result == [[], 0, [], 1]


def test_tables_run_loads_no_random_module(tmp_path):
    # numpy 2 imports numpy.random lazily (about 12 ms); the audit draws nothing
    result = _fresh(f"""
import json, sys
from ionvq.cli import main
code = main(["tables", "--out", {str(tmp_path / "audit.json")!r}])
print(json.dumps([code, "numpy.random" in sys.modules]))
""")
    assert result == [0, False]


def test_cli_runs_load_no_argparse(tmp_path):
    # argparse, with the gettext and locale imports its first use makes, cost about
    # 5 ms of every CLI call; flags are read from config_schema.json instead
    configs = Path(__file__).resolve().parents[1] / "configs"
    argvs = [["-h"], *([command, "--config", str(configs / f"smoke_{command}.json")]
                       for command in ("xeb", "bv", "repcode", "manifold", "tables")),
             ["compile", "--target", str(configs / "smoke_target.txt"),
              "--register", str(configs / "smoke_register.json"), "--seed", "0"]]
    result = _fresh(f"""
import json, sys
from ionvq.cli import main
codes = [main([*argv, "--out", {str(tmp_path / "out")!r}]) for argv in {argvs!r}]
print(json.dumps([codes, sorted({{"argparse", "gettext", "locale"}} & set(sys.modules))]))
""")
    assert result == [[0] * 7, []]


# every ionvq name perfbench/workloads.py reaches, as (module, attribute path)
BENCHMARK_NAMES = [
    ("sampling", "CircuitPolicy"),
    ("sampling", "CircuitPolicy.register"),
    ("sampling", "DEFAULT_THRESHOLDS"),
    ("sampling", "brickwork_layer"),
    ("sampling", "xeb_exact"),
    ("core", "Register.from_config"),
    ("core", "parse_circuit"),
    ("core", "sequence_matrix"),
    ("compiler", "MSSlot"),
    ("compiler", "RSlot"),
    ("compiler", "Template"),
    ("compiler", "Template.gates"),
    ("compiler", "Template.n_params"),
    ("compiler", "LEFT_FIRST"),
    ("compiler", "distance"),
    ("manifold", "CostParams"),
    ("manifold", "precompute_level_data"),
    ("manifold", "manifold_cost"),
    ("atomic", "load_level_model"),
]


def test_benchmark_names_resolve():
    # the benchmark imports these from the checkout it measures: a deletion must fail here first
    missing = []
    for module, path in BENCHMARK_NAMES:
        obj = importlib.import_module("ionvq." + module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"ionvq.{module}.{path}")
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]

# top-level definitions of src/ionvq that no package module, script or benchmark
# module reaches, each with why it stays
UNREFERENCED = {
    "qec.exact_logical_error": "exact p_L; ROADMAP items 2 and 9 give it package callers",
}


def _references(node):
    """Identifiers a node reads: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_every_package_definition_is_referenced():
    # dead code fails here: each top-level def or class of the package must be
    # named outside its own body by the package, a script or the benchmark
    package = sorted((ROOT / "src" / "ionvq").glob("*.py"))
    others = [*sorted((ROOT / "scripts").glob("*.py")),
              *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))]
    defined, used = [], set()
    for path in package + others:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.ClassDef)) else None)
            if own and path in package:
                defined.append(f"{path.stem}.{own}")
            used.update(name for name in _references(stmt) if name != own)
    assert sorted(d for d in defined if d.partition(".")[2] not in used) == sorted(UNREFERENCED)
