import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


# package functions that no command runs, each with what reaches it instead
NOT_RUN_BY_A_COMMAND = {
    "core.parse_circuit": "perfbench's compile check reads the compiled circuit back",
    "core.StateVector.probabilities": "BENCHMARK.json names the span perfbench/spans.py puts on it",
    "compiler.overlap_cost": "BENCHMARK.json names its span; compile reaches it only with a "
                             "template of no angles, which the CLI never builds",
    "compiler.overlap": "overlap_cost's overlap, and the dense reference the tests hold each "
                        "variational slice to",
    "sampling.brickwork_layer": "perfbench's xeb check builds its layers",
    "sampling._bricks": "brickwork_layer's bricks",
    "manifold.manifold_cost": "perfbench's manifold check scores the top manifold again",
    "manifold.allowed_graph": "manifold_cost's coupling graph",
    "sampling.nlogn_fit": "scripts/run_xeb_scaling.py fits its curves",
    "qec.exact_logical_error": "closed-form p_L that criterion 7 explains itself with; ROADMAP "
                               "item 2 gives it a package caller",
}

# the profiler is set before ionvq is imported, so import-time helpers and first calls of
# cached functions count; every named def of the package is listed, nested ones too, with
# each dataclass's generated __init__, and set against the code objects that were called
RUN_GUARD = """
import json, os, pkgutil, sys, types
ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
import ionvq
for info in pkgutil.iter_modules(ionvq.__path__):
    __import__("ionvq." + info.name)
os.chdir({root!r})  # the smoke compile config names repo-relative files
codes = [ionvq.cli.main(argv) for argv in {argvs!r}]
sys.setprofile(None)
called, package, defs = {{id(code) for code in ran}}, os.path.dirname(ionvq.__file__), {{}}

def walk(name, code):
    defs[name] = code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            walk(name + "." + const.co_name, const)

for info in pkgutil.iter_modules(ionvq.__path__):
    module = sys.modules["ionvq." + info.name]
    for key, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for attr, member in vars(obj).items() if isinstance(obj, type) else [("", obj)]:
            for unwrap in ("fget", "__func__", "func", "__wrapped__"):  # property, static-
                member = getattr(member, unwrap, member)  # method, cached_property, cache
            code = getattr(member, "__code__", None)
            if code and (code.co_filename.startswith(package) or attr == "__init__"):
                walk(".".join(filter(None, (info.name, key, attr))), code)
print(json.dumps([codes, sorted(name for name, code in defs.items() if id(code) not in called)]))
"""


def _guard_argvs(tmp: Path) -> list[list[str]]:
    """Every smoke config, each enum value of the schema, the branches that flags pick
    (longrange draws on three ions, fixed depth, a field sweep, exact compile off the
    fast path and variational compile), help, and a malformed flag."""
    rng = np.random.default_rng(10)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    files = {"haar.txt": q * (np.diag(r) / np.abs(np.diag(r))), "eye.txt": np.eye(4),
             "tree.json": {"ions": [{"d": 4, "allowed_r": [[0, 1], [0, 2], [2, 3]]}]},
             "pair.json": {"ions": [{"d": 2}, {"d": 2}]}}
    for name, value in files.items():
        (tmp / name).write_text(json.dumps(value) if name.endswith(".json") else "".join(
            " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n" for row in value))
    out = ["--out", str(tmp / "out")]
    smoke = [[command, "--config", str(ROOT / "configs" / f"smoke_{command}.json"), *out]
             for command in ("xeb", "bv", "repcode", "manifold", "tables", "compile")]
    xeb = ["xeb", "--circuits", "2", "--seed", "1", *out]
    return [*smoke,
            [*xeb, "--qubits", "4", "--n", "1", "--policy", "minimal", "--statistic", "moment"],
            [*xeb, "--qubits", "6", "--n", "3", "--policy", "ms_limited", "--statistic", "xeb"],
            [*xeb, "--qubits", "8", "--n", "4", "--policy", "all_to_all"],
            [*xeb, "--qubits", "6", "--n", "2", "--arch", "longrange"],
            [*xeb, "--qubits", "4", "--n", "2", "--arch", "brickwork", "--layers", "2",
             "--mode", "exact"],
            [*xeb, "--qubits", "4", "--n", "2", "--layers", "2", "--mode", "sampled",
             "--shots", "10", "--format", "json"],
            ["bv", "--s", "101", "--layout", "n1", "--shots", "8", "--seed", "1", *out],
            ["bv", "--s", "10", "--layout", "n2", "--shots", "8", "--seed", "1", *out],
            ["repcode", "--d", "3", "--n", "1", "--p-grid", "1e-2:1e-1:2", "--shots", "100",
             "--seed", "1", "--pauli-convention", "quarter_rate", *out],
            ["repcode", "--L", "5", "--n", "2", "--p", "0.01", "--shots", "100", "--seed", "1",
             "--pauli-convention", "uniform_nonidentity", *out],
            ["manifold", "--n", "3", "--top-k", "1", "--mechanism", "m1", *out],
            ["manifold", "--field-sweep", "10:20:2", "--n", "2", "--top-k", "1",
             "--mechanism", "raman", *out],
            ["tables", *out],
            ["compile", "--target", str(tmp / "haar.txt"), "--register", str(tmp / "tree.json"),
             *out],
            ["compile", "--target", str(tmp / "eye.txt"), "--register", str(tmp / "pair.json"),
             "--layers-max", "1", "--restarts", "1", *out],
            ["-h"],
            ["xeb", "--qubits", *out]]


def test_every_package_function_runs_under_a_command(tmp_path):
    # dead code fails here, methods included: each named function of the package runs under
    # one of the argv below, or is in NOT_RUN_BY_A_COMMAND with what reaches it
    argvs = _guard_argvs(tmp_path)
    schema = json.loads((Path(ionvq.__file__).parent / "data" / "config_schema.json").read_text())
    given = {(argv[0], flag, value) for argv in argvs for flag, value in zip(argv[1:], argv[2:])}
    enum = [(command, "--" + key.replace("_", "-"), str(value))
            for command, spec in schema["definitions"].items()
            for key, prop in spec["properties"].items() for value in prop.get("enum", ())]
    codes, not_run = _fresh(RUN_GUARD.format(root=str(ROOT), argvs=argvs))
    assert codes == [0] * (len(argvs) - 1) + [2]
    assert not_run == sorted(NOT_RUN_BY_A_COMMAND)
    # a new enum value fails here until an argv above sets it
    assert [option for option in enum if option not in given] == []
