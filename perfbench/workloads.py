"""The four workloads: ops generated from the run seed, and their checks.

Each op is one ``ionvq`` CLI call.  Its ``check`` reads the op's output
file, raises ``CheckFailed`` when the output is wrong, and returns the
op's work items: circuits, native gates, verified targets, audits, decoded
shots or field points, counted for the op's phase.

Every workload has two phases, reported as ``phase1_*`` and ``phase2_*``:

========  ===============================  ==============================
workload  phase 1 (items)                  phase 2 (items)
========  ===============================  ==============================
xeb       8/12-qubit registers (circuits)  20-qubit registers (gates)
compile   compile targets (targets)        ``tables`` audit (audits)
repcode   n=1 curve, d=9 (shots)           n=2 curve, d=19 (shots)
manifold  field sweep (field points)       single fields (field points)
========  ===============================  ==============================

The ionvq names used by the checks are public ones from the checkout's
``src``; the run adds it to ``sys.path`` before calling ``build``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("xeb", "compile", "repcode", "manifold")

# compile: fixed pool of variational targets.  Per-target time spans two
# orders of magnitude between random instances (0.15 s to 18 s at these
# settings), so a set drawn from each run seed, small enough for one run,
# would move the compile figures between seeds by more than any bound.
# The pool is drawn once from these constant generator seeds; the run seed
# draws the exact-synthesis targets.
COMPILE_POOL = (0, 1, 2, 3)
COMPILE_SEED = 1000  # --seed of the pool ops: restarts start from it
DIST_TOL = 1e-6
TABLES_AUDITS = 2


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    label: str
    phase: int
    argv: list
    check: Callable[[str], float]
    out: Path | None = None


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _with_out(op: Op, workdir: Path, k: int) -> Op:
    op.out = workdir / f"op{k:02d}-{op.label}.out"
    op.argv = op.argv + ["--out", str(op.out)]
    return op


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one pass of a workload, in run order."""
    ops = {"xeb": _xeb, "compile": _compile, "repcode": _repcode, "manifold": _manifold}[name](
        seed, workdir
    )
    return [_with_out(op, workdir, k) for k, op in enumerate(ops)]


# ---------------------------------------------------------------------------
# xeb: gates-to-threshold and XEB on 8/12-qubit and on 20-qubit registers


def _gtt_check(qubits: int, n: int, circuits: int, seed: int, dense: bool):
    def check(text: str) -> float:
        rows = _rows(text)
        require(len(rows) == circuits, f"{len(rows)} rows, expected {circuits}")
        counts = [int(r["gate_count"]) for r in rows]
        require(all(c > 0 and c % 3 == 0 for c in counts),
                "gate counts are not positive multiples of the 3-gate brick")
        if dense:
            ref = dense_crossing(qubits, n, seed, circuits)
            require(counts[0] == ref, f"circuit 0 crossed at {counts[0]}, dense reference {ref}")
        return float(circuits)

    return check


def dense_crossing(qubits: int, n: int, seed: int, circuits: int) -> int:
    """Gate count at which circuit 0 of a gates-to-threshold run crosses the
    default XEB threshold, recomputed with dense ``sequence_matrix``."""
    from ionvq import sampling
    from ionvq.core import sequence_matrix

    policy = sampling.CircuitPolicy(n=n)
    reg = policy.register(qubits)
    threshold = sampling.DEFAULT_THRESHOLDS["xeb"]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(circuits)[0])
    U = np.eye(reg.dim, dtype=np.complex128)
    gates = 0
    for _ in range(400):
        layer = sampling.brickwork_layer(policy, reg.num_ions, rng)
        U = sequence_matrix(layer, reg) @ U
        gates += len(layer)
        if sampling.xeb_exact(np.abs(U[:, 0]) ** 2) <= threshold:
            return gates
    raise CheckFailed("dense reference did not cross the threshold")


def _gtt_gates(circuits: int):
    def check(text: str) -> float:
        rows = _rows(text)
        require(len(rows) == circuits, f"{len(rows)} rows, expected {circuits}")
        counts = [int(r["gate_count"]) for r in rows]
        require(all(c > 0 and c % 3 == 0 for c in counts), "bad gate counts")
        return float(sum(counts))

    return check


def _fixed_depth_gates(circuits: int, layers: int, ions: int):
    def check(text: str) -> float:
        rows = _rows(text)
        require(len(rows) == circuits, f"{len(rows)} rows, expected {circuits}")
        per = 3 * ions * layers  # ions bricks per layer, 3 gates per brick
        require(all(int(r["gate_count"]) == per for r in rows), f"expected {per} gates per circuit")
        require(all(math.isfinite(float(r["statistic"])) for r in rows), "non-finite statistic")
        return float(per * circuits)

    return check


def _bv_check(s: str):
    def check(text: str) -> float:
        out = json.loads(text)
        require(out["success"] is True, f"recovered {out['recovered']!r}, hidden {s!r}")
        require(out["intra_count"] == 4 * s.count("1"), "intra-ion count is not 4*popcount(s)")
        return float(out["intra_count"] + out["ms_count"])

    return check


def _xeb(seed, workdir):
    s = _seeds(seed, 7)
    small = [Op(f"xeb-q{q}-n{n}", 1,
                ["xeb", "--qubits", str(q), "--n", str(n), "--circuits", str(c),
                 "--seed", str(s[k])],
                _gtt_check(q, n, c, s[k], dense=(q, n) == (8, 1)))
             for k, (q, n, c) in enumerate(((8, 1, 500), (8, 2, 500), (12, 3, 120)))]
    # fixed Hamming weight: the bv op's gate count depends on popcount(s)
    bits = "".join(str(b) for b in np.random.default_rng(s[5]).permutation([0, 1] * 10))
    wide = [
        Op("xeb-q20-n2", 2,
           ["xeb", "--qubits", "20", "--n", "2", "--circuits", "2", "--seed", str(s[3])],
           _gtt_gates(2)),
        Op("xeb-q20-sampled", 2,
           ["xeb", "--qubits", "20", "--n", "2", "--layers", "6", "--mode", "sampled",
            "--circuits", "1", "--shots", "500", "--seed", str(s[4])],
           _fixed_depth_gates(1, 6, 10)),
        Op("bv-20", 2, ["bv", "--s", bits, "--layout", "n2", "--seed", str(s[6])],
           _bv_check(bits)),
    ]
    return _interleave(small, wide)


def _interleave(a: list, b: list) -> list:
    """Spread the ops of ``b`` evenly among those of ``a``, so that both
    phases sample the whole run and not one stretch of it."""
    out, used = [], 0
    for i, op in enumerate(a):
        out.append(op)
        while used < int((i + 1) * len(b) / len(a) + 0.5):
            out.append(b[used])
            used += 1
    return out


# ---------------------------------------------------------------------------
# compile: variational pool, seed-drawn exact syntheses, tables audit

TWO_ION = {"qubit_order": "msb_first",
           "ions": [{"d": 4, "map": [0, 1, 2, 3], "allowed_r": None},
                    {"d": 2, "map": [0, 1], "allowed_r": None}]}
ONE_ION = {
    "d4-fig1": {"ions": [{"d": 4, "map": [0, 1, 2, 3], "allowed_r": [[0, 1], [0, 2], [2, 3]]}]},
    "d8": {"ions": [{"d": 8, "map": list(range(8)), "allowed_r": None}]},
}


def default_slots():
    """The CLI's default slot set for the d=4 + d=2 register: one MS on the
    {0,1} pairs, R on (0,1), (0,3), (1,2) of the d=4 ion and (0,1) of the
    d=2 ion."""
    from ionvq.compiler import MSSlot, RSlot, Template

    return Template((MSSlot(0, 1, (0, 1), (0, 1)), RSlot(0, (0, 1)), RSlot(0, (0, 3)),
                     RSlot(0, (1, 2)), RSlot(1, (0, 1))))


def _write_unitary(path: Path, U: np.ndarray):
    path.write_text("".join(
        " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n" for row in U
    ))


def _compile_check(U: np.ndarray, reg_cfg: dict):
    def check(text: str) -> float:
        from ionvq.compiler import LEFT_FIRST, distance
        from ionvq.core import Register, parse_circuit, sequence_matrix

        reg = Register.from_config(reg_cfg)
        circ = parse_circuit(text, reg)
        require(f"composition: {LEFT_FIRST}" in text, "unexpected composition order")
        dist = distance(U, sequence_matrix(circ.gates, reg, True))
        require(dist <= DIST_TOL, f"re-verified distance {dist:.3g} > {DIST_TOL}")
        return 1.0

    return check


def _tables_check(text: str) -> float:
    summary = json.loads(text)["summary"]
    # acceptance criterion 3 fails by design: 18 of the 35 rows pass
    require(summary["rows"] == 35, f"{summary['rows']} rows, expected 35")
    require(summary["passed"] == 18, f"{summary['passed']} rows pass, expected 18")
    return 1.0


def _compile(seed, workdir):
    from ionvq.core import Register, sequence_matrix

    reg = Register.from_config(TWO_ION)
    reg_path = workdir / "reg-d4d2.json"
    reg_path.write_text(json.dumps(TWO_ION))
    tmpl = default_slots()
    ops = []
    for k in COMPILE_POOL:
        x = np.random.default_rng(k).uniform(0.0, 2 * math.pi, tmpl.n_params)
        U = sequence_matrix(tmpl.gates(x, 1), reg)
        tgt = workdir / f"var{k}.txt"
        _write_unitary(tgt, U)
        ops.append(Op(f"compile-var{k}", 1,
                      ["compile", "--target", str(tgt), "--register", str(reg_path),
                       "--seed", str(COMPILE_SEED + k), "--layers-max", "1", "--restarts", "8"],
                      _compile_check(U, TWO_ION)))
    rng = np.random.default_rng(seed)
    for name, cfg in ONE_ION.items():
        d = cfg["ions"][0]["d"]
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        U = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed
        tgt = workdir / f"exact-{name}.txt"
        _write_unitary(tgt, U)
        rp = workdir / f"reg-{name}.json"
        rp.write_text(json.dumps(cfg))
        ops.append(Op(f"compile-exact-{name}", 1,
                      ["compile", "--target", str(tgt), "--register", str(rp), "--seed", "0"],
                      _compile_check(U, cfg)))
    return _interleave(ops, [Op("tables", 2, ["tables"], _tables_check) for _ in range(TABLES_AUDITS)])


# ---------------------------------------------------------------------------
# repcode: matched L=11 curves; n=2 builds a 2^18-entry decoder table


REPCODE_SHOTS = 100_000
REPCODE_POINTS = 5


def _repcode_check(n: int, d: int, results: dict):
    def check(text: str) -> float:
        rows = _rows(text)
        require(len(rows) == REPCODE_POINTS, f"{len(rows)} rows, expected {REPCODE_POINTS}")
        for r in rows:
            require(int(r["d"]) == d and int(r["shots"]) == REPCODE_SHOTS, "wrong d or shots")
            lo, pl, hi = float(r["ci_low"]), float(r["p_L"]), float(r["ci_high"])
            require(lo <= pl <= hi, f"p_L {pl} outside [{lo}, {hi}]")
        results[n] = rows
        if len(results) == 2:
            low1, low2 = results[1][0], results[2][0]
            require(float(low2["p_L"]) <= float(low1["ci_high"]),
                    f"n=2 worse than n=1 at p={low1['p']}: {low2['p_L']} > {low1['ci_high']}")
        return float(REPCODE_SHOTS * len(rows))

    return check


def _repcode(seed, workdir):
    s = _seeds(seed, 3)
    results: dict = {}
    ops = [Op(f"repcode-n{n}", n,
              ["repcode", "--L", "11", "--n", str(n), "--rounds", "9",
               "--p-grid", f"1e-3:1e-1:{REPCODE_POINTS}", "--shots", str(REPCODE_SHOTS),
               "--seed", str(s[k])],
              _repcode_check(n, d, results))
           for k, (n, d) in enumerate(((1, 9), (1, 9), (2, 19)))]
    return _interleave(ops[:2], ops[2:])


# ---------------------------------------------------------------------------
# manifold: n=2 top-k field sweep and single-field searches

SWEEP_POINTS = 10  # per sweep op; two ops cover the range
SINGLE_FIELDS = 6


def _sweep_check(text: str) -> float:
    rows = _rows(text)
    require(len(rows) == SWEEP_POINTS, f"{len(rows)} rows, expected {SWEEP_POINTS}")
    for r in rows:
        require(int(r["candidates"]) == 10, "top-k list shorter than 10")
        lo, med, hi = float(r["min_cost"]), float(r["median_cost"]), float(r["max_cost"])
        require(0 < lo <= med <= hi and math.isfinite(hi), "cost statistics out of order")
    return float(len(rows))


def _field_check(field_G: float):
    def check(text: str) -> float:
        from dataclasses import replace

        from ionvq import atomic, manifold

        report = json.loads(text)
        require(len(report) == 10, f"{len(report)} candidates, expected 10")
        costs = [c["cost"] for c in report]
        require(costs == sorted(costs), "top-k list is not sorted by cost")
        params = replace(manifold.CostParams(), B_T=field_G * 1e-4)
        data = manifold.precompute_level_data(atomic.load_level_model("ba137_d52"), params)
        top = manifold.manifold_cost(report[0]["states"], data, params)
        rel = abs(top.cost - costs[0]) / abs(costs[0])
        require(rel <= 1e-8, f"re-scored top cost differs by {rel:.3g} relative")
        return 1.0

    return check


def _manifold(seed, workdir):
    rng = np.random.default_rng(seed)
    lo, hi = round(rng.uniform(1.0, 5.0), 2), round(rng.uniform(65.0, 70.0), 2)
    grid = np.linspace(lo, hi, 2 * SWEEP_POINTS)
    sweeps = [Op(f"manifold-sweep{k}", 1,
                 ["manifold", "--field-sweep", f"{a:.6g}:{b:.6g}:{SWEEP_POINTS}", "--n", "2",
                  "--top-k", "10"],
                 _sweep_check)
              for k, (a, b) in enumerate(((grid[0], grid[SWEEP_POINTS - 1]),
                                          (grid[SWEEP_POINTS], grid[-1])))]
    # one field per stratum of 5-70 G: search time depends on the field
    width = 65.0 / SINGLE_FIELDS
    fields = [round(rng.uniform(5.0 + k * width, 5.0 + (k + 1) * width), 1)
              for k in range(SINGLE_FIELDS)]
    singles = [Op(f"manifold-field{k}", 2,
                  ["manifold", "--field", str(f), "--n", "2", "--top-k", "10", "--format", "json"],
                  _field_check(f))
               for k, f in enumerate(fields)]
    return _interleave(sweeps, singles)
