"""ionvq CLI benchmark.

    python3 perfbench/run.py --workload xeb --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  One closed-loop client runs the
workload's ops (``workloads.py``) one after another, each in a fresh
interpreter through ``ionvq.cli.main(argv)`` (``child.py``), because users
pay the import and lazy set-up on every CLI call.  A pass runs every op
once; passes repeat with the same inputs while another one fits in
``--seconds``.  Outputs are checked after each op.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics.  The
last stdout line is the JSON result; earlier lines are the environment
record and one line per op (with its output sha256).  Files go under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # ops still running then are stopped and counted as failed
IMPORT_MODULES = ("numpy", "scipy.optimize", "ionvq.core", "ionvq.compiler", "ionvq.tables",
                  "ionvq.manifold", "ionvq.cli")
IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


class Runner:
    """Runs ops in child interpreters and keeps their results."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.next_id = 0

    def run(self, op: workloads.Op, trace: bool = False) -> dict:
        op_id = self.next_id
        self.next_id += 1
        result_path = self.workdir / f"result{op_id:03d}.json"
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "child.py"),
               str(self.root / "src"), str(result_path), str(op_id), "1" if trace else "0", "--",
               *op.argv]
        rec = {"id": op_id, "label": op.label, "phase": op.phase, "argv": op.argv, "ok": False,
               "items": 0.0, "error": None}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(5.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            rec.update(rc=None, error="timed out", wall_s=time.perf_counter() - t0)
            return rec
        rec["wall_s"] = time.perf_counter() - t0
        rec["rc"] = proc.returncode
        try:
            res = json.loads(result_path.read_text())
            result_path.unlink()
        except (OSError, json.JSONDecodeError):
            rec["error"] = f"no result from child: {proc.stderr.strip()[-300:]}"
            return rec
        rec.update(setup_s=res["setup_s"], run_s=res["run_s"], peak_rss_mb=res["peak_rss_mb"])
        if trace:
            rec["trace"] = res["trace"]
            rec["imports"] = parse_importtime(proc.stderr)
        if proc.returncode != 0:
            rec["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return rec
        try:
            text = op.out.read_text()
            rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            rec["items"] = float(op.check(text))
            rec["ok"] = True
        except (OSError, ValueError, KeyError, workloads.CheckFailed) as exc:
            rec["error"] = f"check failed: {exc}"
        return rec


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each of IMPORT_MODULES from
    ``-X importtime``: the lines of the module and its submodules at their
    outermost nesting level (lazy packages such as ``scipy.optimize`` log
    only their submodules)."""
    lines = [(len(m.group(3)), m.group(4), int(m.group(2))) for m in IMPORTTIME.finditer(stderr)]
    out = {}
    for mod in IMPORT_MODULES:
        hits = [(indent, us) for indent, name, us in lines
                if name == mod or name.startswith(mod + ".")]
        if hits:
            top = min(indent for indent, _ in hits)
            out[mod] = sum(us for indent, us in hits if indent == top) * 1e-6
    return out


def run_passes(runner: Runner, ops, seconds: float, start: float) -> list[list[dict]]:
    """Whole passes while another one is expected to end within ``seconds``."""
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append([runner.run(op) for op in ops])
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def end_to_end(passes: list[list[dict]]) -> dict:
    recs = [r for p in passes for r in p]
    done = [r for r in recs if "run_s" in r]
    if not done:  # no op got as far as running; every metric reads 0
        return {"ops_failed_frac": 1.0}
    out = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": statistics.median(sum(r.get("run_s", 0.0) for r in p) for p in passes),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
    }
    for phase in (1, 2):
        ok = [r for r in recs if r["ok"] and r["phase"] == phase]
        time_s = sum(r["run_s"] for r in ok)
        out[f"phase{phase}_per_s"] = sum(r["items"] for r in ok) / time_s if time_s else 0.0
        out[f"phase{phase}_p50_s"] = statistics.median(r["run_s"] for r in ok) if ok else 0.0
        out[f"phase{phase}_items"] = sum(r["items"] for r in ok)
        out[f"phase{phase}_time_s"] = time_s
    out["ops_failed_frac"] = sum(1 for r in recs if not r["ok"]) / len(recs)
    return out


# workload-specific names for the phase figures, printed for reference
NAMED = {
    "xeb": {"xeb.small_circuits_per_s": "phase1_per_s", "xeb.wide_gates_per_s": "phase2_per_s"},
    "compile": {"compile.targets_per_s": "phase1_per_s", "compile.p50_s": "phase1_p50_s",
                "tables.audit_s": "phase2_p50_s"},
    "repcode": {"repcode.n1_shots_per_s": "phase1_per_s", "repcode.n2_shots_per_s": "phase2_per_s"},
    "manifold": {"manifold.points_per_s": "phase1_per_s",
                 "manifold.field_p50_s": "phase2_p50_s"},
}


def named(workload: str, values: dict) -> dict:
    out = {name: values[key] for name, key in NAMED[workload].items()}
    if workload == "repcode":
        out["repcode.shots_per_s"] = (values["phase1_items"] + values["phase2_items"]) / (
            values["phase1_time_s"] + values["phase2_time_s"])
    out["ops_failed_frac"] = values["ops_failed_frac"]
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; see the README for definitions."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for rec in traced:
        tr = rec.get("trace")
        if tr is None:
            continue
        absent.update(tr["absent"])
        for row, own in zip(tr["spans"], spans.self_times(tr["spans"])):
            name = row[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        for key, val in tr["counters"].items():
            if key == "core.max_dim":
                counters[key] = max(counters.get(key, 0), val)
            else:
                counters[key] = counters.get(key, 0.0) + val
    out = {}
    for name in dict.fromkeys(target[0] for target in spans.TARGETS):
        if name not in absent:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["atomic.self_s"] = sum(v for k, v in self_s.items() if k.startswith("atomic."))
    gates = calls.get("core.apply_native", 0)
    if "core.validate_gate" not in absent:
        out["core.validate_gate.per_gate"] = calls.get("core.validate_gate", 0) / gates if gates else 0.0
    max_dim = int(counters.get("core.max_dim", 0))
    out["core.max_dim"] = max_dim
    wide_gates = counters.get(f"core.gates_at_dim.{max_dim}", 0.0)
    out["core.wide_computed_bytes_per_gate"] = (
        counters.get(f"core.bytes_at_dim.{max_dim}", 0.0) / wide_gates if wide_gates else 0.0
    )
    restarts = counters.get("compiler.restarts", 0.0)
    out["compiler.restarts"] = restarts
    out["compiler.converged_restart_frac"] = (
        counters.get("compiler.converged", 0.0) / restarts if restarts else 0.0
    )
    out["qec.shots"] = counters.get("qec.shots", 0.0)
    out["qec.decode.first_call_s"] = counters.get("qec.decode.first_call_s", 0.0)
    scored = calls.get("manifold.manifold_cost", 0)
    out["manifold.kept_ratio"] = counters.get("manifold.kept", 0.0) / scored if scored else 0.0
    for mod in IMPORT_MODULES:
        vals = [r["imports"][mod] for r in traced if mod in r.get("imports", {})]
        out[f"setup.import.{mod}_s"] = statistics.median(vals) if vals else 0.0
    wall_t = sum(r.get("run_s", 0.0) for r in traced)
    wall_u = sum(r.get("run_s", 0.0) for r in untraced)
    out["trace.overhead_s"] = wall_t - wall_u
    out["trace.overhead_frac"] = (wall_t - wall_u) / wall_u if wall_u else 0.0
    return out


def environment(root: Path, args, ops) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "git_commit": _git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [" ".join(op.argv) for op in ops],
    }
    l3 = _l3_bytes()
    if l3:
        # 20 qubits: 2^20 amplitudes (16 MiB); 20-bit bv with its auxiliary ion: 32 MiB
        env["l3_bytes"] = l3
        env["wide_state_mib"] = [16, 32]
        env["wide_states_fit_l3"] = 32 * 2**20 <= l3
    return env


def _blas(numpy) -> dict:
    try:
        cfg = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        return {}
    return cfg.get("Build Dependencies", {}).get("blas", {})


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _l3_bytes() -> int | None:
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def _op_line(rec: dict) -> str:
    status = "ok" if rec["ok"] else f"FAILED ({rec['error']})"
    return (f"op {rec['id']:3d} phase{rec['phase']} {rec['label']:<20} "
            f"setup={rec.get('setup_s', float('nan')):.4f}s run={rec.get('run_s', float('nan')):.4f}s "
            f"rss={rec.get('peak_rss_mb', float('nan')):.1f}MB {status} "
            f"sha256={rec.get('sha256', '-')} argv={' '.join(rec['argv'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "ionvq" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of an ionvq checkout (needs src/ionvq and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    ops = workloads.build(args.workload, args.seed, workdir)
    env = environment(root, args, ops)
    print("env " + json.dumps(env, sort_keys=True))
    runner = Runner(root, workdir, start + RUN_LIMIT_S)
    if args.trace:
        untraced = [runner.run(op) for op in ops]
        traced = [runner.run(op, trace=True) for op in ops]
        recs = untraced + traced
        values = per_layer(traced, untraced)
        wanted = spec["per_layer"]
    else:
        passes = run_passes(runner, ops, args.seconds, start)
        recs = [r for pss in passes for r in pss]
        values = end_to_end(passes)
        wanted = spec["end_to_end"]
        if "wall_s" in values:
            print("named " + json.dumps(named(args.workload, values), sort_keys=True))
    for rec in recs:
        print(_op_line(rec))
    failed = sum(1 for r in recs if not r["ok"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("absent at this commit (reported as 0): " + ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record = {"env": env, "ops": [{k: v for k, v in r.items() if k != "trace"} for r in recs],
              "metrics": metrics}
    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        with gzip.open(workdir / "spans.json.gz", "wt") as fh:
            json.dump([r["trace"] for r in recs if "trace" in r], fh)
    print(json.dumps({"correct": failed == 0, "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
