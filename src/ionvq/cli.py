"""Command-line front end: deterministic experiment runs and report files.

Every stochastic subcommand requires an explicit --seed; identical arguments
produce byte-identical data files (no timestamps in outputs).  Files are
written atomically (temp file + rename) and partial outputs are removed when
a run fails.  Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import atomic, manifold, qec, sampling, tables
from .compiler import (
    MSSlot,
    RSlot,
    Template,
    VariationalBudget,
    synthesize_exact,
    synthesize_variational,
)
from .core import Circuit, Register, format_circuit, load_register

CONFIG_ERROR, RUNTIME_ERROR = 2, 3


class ConfigError(Exception):
    pass


def _atomic_write(path: str, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _config_schema(command: str) -> dict:
    with open(atomic.data_dir() / "config_schema.json") as fh:
        return json.load(fh)["definitions"][command]


_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "exclusiveMinimum": (operator.gt, "above"),
    "maximum": (operator.le, "at most"),
}


def _merge_config(args, command: str):
    """--config values, validated against the shipped schema, fill in flags
    the user did not set explicitly; unknown keys are rejected.  Every value
    set either way must then lie within the schema's numeric bounds."""
    schema = _config_schema(command)
    if getattr(args, "config", None):
        import jsonschema

        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
        try:
            jsonschema.validate(cfg, schema)
        except jsonschema.ValidationError as exc:
            path = "/".join(str(x) for x in exc.absolute_path) or "<root>"
            raise ConfigError(f"{args.config}: {path}: {exc.message}") from exc
        for key, val in cfg.items():
            if getattr(args, key, None) is None:
                setattr(args, key, val)
    for key, prop in schema["properties"].items():
        val = getattr(args, key, None)
        for word, (within, text) in _BOUNDS.items():
            if val is not None and word in prop and not within(val, prop[word]):
                raise ConfigError(f"--{key.replace('_', '-')} {val}: must be {text} {prop[word]}")


def _or(val, default):
    """``default`` when a flag was not given; unlike ``val or default`` this
    keeps an explicit 0."""
    return default if val is None else val


# ---------------------------------------------------------------------------
# subcommands


def _cmd_xeb(args) -> list[tuple[str, str]]:
    _merge_config(args, "xeb")
    for field in ("qubits", "n", "seed"):
        if getattr(args, field) is None:
            raise ConfigError(f"--{field} is required")
    unread = ({"--arch": args.arch == sampling.LONGRANGE, "--statistic": args.statistic == "moment",
               "--threshold": args.threshold is not None} if args.layers is not None
              else {"--mode": args.mode == "sampled", "--shots": args.shots is not None})
    flag = next((f for f, given in unread.items() if given), None)
    if flag:
        raise ConfigError(f"{flag} {getattr(args, flag[2:])}: not read "
                          f"{'with' if args.layers is not None else 'without'} --layers")
    if args.qubits % args.n:
        raise ConfigError(f"--qubits {args.qubits}: must be a multiple of --n {args.n}")
    ions = args.qubits // args.n
    if ions < 2 or (ions % 2 and args.arch != sampling.LONGRANGE):
        raise ConfigError(f"--qubits {args.qubits}: must be split into at least two ions, an "
                          f"even number for brickwork circuits (--n {args.n} gives {ions})")
    policy = sampling.CircuitPolicy(
        n=args.n,
        connectivity=args.policy or sampling.ALL_TO_ALL,
        architecture=args.arch or sampling.BRICKWORK,
    )
    header = ["N", "n", "policy", "gate_count", "statistic", "stderr", "seed"]
    if args.layers is not None:
        # fixed-depth cross-entropy values, one circuit per row
        rows, vals = [], []
        for k in range(_or(args.circuits, 20)):
            circ = sampling.build_brickwork(policy, args.qubits, args.layers, seed=args.seed + k)
            r = sampling.estimate_xeb(
                circ, args.mode or "exact", shots=_or(args.shots, 500), seed=args.seed + 10_000 + k
            )
            vals.append(r.value)
            rows.append([args.qubits, args.n, policy.connectivity, len(circ.gates),
                         f"{r.value:.8g}", "", args.seed + k])
        summary = {
            "mean_statistic": float(np.mean(vals)),
            "stderr": float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "layers": args.layers,
            "mode": args.mode or "exact",
            "circuits": len(vals),
        }
        text = _csv_text(header, rows)
        return [(text, "csv"), (json.dumps(summary, indent=1, sort_keys=True) + "\n", "json")]
    threshold = args.threshold if args.threshold is not None else (
        sampling.DEFAULT_THRESHOLDS[args.statistic or "xeb"]
    )
    res = sampling.gates_to_threshold(
        policy,
        args.qubits,
        threshold,
        statistic=args.statistic or "xeb",
        circuits=_or(args.circuits, 20),
        seed=args.seed,
    )
    rows = [
        [args.qubits, args.n, policy.connectivity, c, res.statistic, f"{res.stderr:.6g}", args.seed]
        for c in res.counts
    ]
    text = _csv_text(header, rows)
    summary = {
        "mean_gates": res.mean_gates,
        "stderr": res.stderr,
        "threshold": threshold,
        "statistic": res.statistic,
        "circuits": len(res.counts),
    }
    return [(text, "csv"), (json.dumps(summary, indent=1, sort_keys=True) + "\n", "json")]


def _cmd_bv(args):
    _merge_config(args, "bv")
    if args.s is None or args.seed is None:
        raise ConfigError("--s and --seed are required")
    layout = args.layout or "n2"
    if not args.s or set(args.s) - {"0", "1"}:
        raise ConfigError(f"--s {args.s}: must be a bit string")
    if layout == "n2" and len(args.s) % 2:
        raise ConfigError(f"--s {args.s}: must be of even length for --layout n2")
    bv, recovered, counts = sampling.run_bv(
        args.s, layout, shots=_or(args.shots, 200), seed=args.seed
    )
    out = {
        "s": args.s,
        "layout": bv.layout,
        "intra_count": bv.intra_count,
        "ms_count": bv.ms_count,
        "recovered": recovered,
        "success": recovered == args.s,
        "counts": dict(sorted(counts.items())),
        "seed": args.seed,
    }
    return [(json.dumps(out, indent=1, sort_keys=True) + "\n", "json")]


def _cmd_repcode(args):
    _merge_config(args, "repcode")
    if args.seed is None or args.n is None:
        raise ConfigError("--n and --seed are required")
    if (args.L is None) == (args.d is None):
        raise ConfigError("give exactly one of --L (matched layout) or --d")
    if args.L is not None:
        try:
            d1, d2 = qec.matched_distances(args.L)
        except ValueError as exc:
            raise ConfigError(f"--L {args.L}: {exc}") from exc
        d = d1 if args.n == 1 else d2
        rounds = _or(args.rounds, d1)
        L = args.L
    else:
        d = args.d
        if d < 1 or d % 2 == 0:
            raise ConfigError(f"--d {d}: code distance must be odd")
        rounds = _or(args.rounds, d)
        L = (d + 2) if args.n == 1 else (d + 1) // 2 + 1
    if args.p_grid:
        try:
            lo, hi, num = args.p_grid.split(":")
            ps = np.logspace(math.log10(float(lo)), math.log10(float(hi)), int(num))
        except ValueError as exc:
            raise ConfigError(f"--p-grid expects lo:hi:steps, got {args.p_grid!r}") from exc
    elif args.p is not None:
        ps = [args.p]
    else:
        raise ConfigError("give --p or --p-grid")
    if len(ps) == 0 or not all(0.0 < p / 14.0 <= 0.1 for p in ps):
        raise ConfigError("need at least one p, each in (0, 1.4] (eps1 = p/14 at most 0.1)")
    rows = []
    for k, p in enumerate(ps):
        r = qec.sample_logical_error(
            d, args.n, p / 14.0, rounds, _or(args.shots, 10**5), args.seed + k,
            pauli_convention=args.pauli_convention or "uniform_nonidentity",
        )
        rows.append(
            [L, args.n, d, rounds, f"{p:.8g}", f"{r.p_logical:.8g}",
             f"{r.ci_low:.8g}", f"{r.ci_high:.8g}", r.shots, r.seed]
        )
    text = _csv_text(
        ["L", "n", "d", "rounds", "p", "p_L", "ci_low", "ci_high", "shots", "seed"], rows
    )
    return [(text, "csv")]


def _cmd_manifold(args):
    _merge_config(args, "manifold")
    model = atomic.load_level_model(args.level or "ba137_d52")
    params = manifold.CostParams()
    if args.mechanism:
        params = replace(params, mechanism=args.mechanism)
    if args.kappa is not None:
        params = replace(params, kappa=args.kappa)
    n = _or(args.n, 2)
    k = _or(args.top_k, 10)
    if args.field_sweep:
        try:
            lo, hi, steps = args.field_sweep.split(":")
            fields = np.linspace(float(lo), float(hi), int(steps)) * 1e-4  # gauss -> T
        except ValueError as exc:
            raise ConfigError(f"--field-sweep expects lo:hi:steps in gauss") from exc
        fields = np.maximum(fields, 1e-6)
        points = manifold.field_sweep(model, n, params, fields, k)
        rows = [
            [f"{pt.B_T*1e4:.6g}", f"{pt.median_cost:.8g}", f"{pt.min_cost:.8g}",
             f"{pt.max_cost:.8g}", f"{pt.median_gate_time:.8g}", f"{pt.min_gate_time:.8g}",
             f"{pt.max_gate_time:.8g}", pt.candidates]
            for pt in points
        ]
        text = _csv_text(
            ["field_G", "median_cost", "min_cost", "max_cost",
             "median_gate_time_s", "min_gate_time_s", "max_gate_time_s", "candidates"],
            rows,
        )
        return [(text, "csv")]
    B = (args.field if args.field is not None else 20.0) * 1e-4
    top = manifold.search_top_k(model, n, replace(params, B_T=B), k)
    rows = []
    report = []
    for rank, cb in enumerate(top, start=1):
        labels = ";".join(f"F={F:g},mF={mf:g}" for F, mf in cb.labels)
        rows.append(
            [rank, labels, f"{cb.cost:.8g}", f"{cb.eps_memory:.8g}", f"{cb.eps_internal:.8g}",
             f"{cb.eps_spectator:.8g}", cb.edge_count, f"{cb.mean_element:.8g}",
             f"{cb.t_gate:.8g}"]
        )
        report.append(
            {
                "rank": rank,
                "states": list(cb.states),
                "labels": [[F, mf] for F, mf in cb.labels],
                "cost": cb.cost,
                "eps_memory": cb.eps_memory,
                "eps_internal": cb.eps_internal,
                "eps_spectator": cb.eps_spectator,
                "kappa": params.kappa,
                "edge_count": cb.edge_count,
                "mean_element": cb.mean_element,
                "gate_time_s": cb.t_gate,
            }
        )
    text = _csv_text(
        ["rank", "labels", "cost", "eps_memory", "eps_internal", "eps_spectator",
         "edge_count", "mean_element", "gate_time_s"],
        rows,
    )
    return [(text, "csv"), (json.dumps(report, indent=1, sort_keys=True) + "\n", "json")]


def _cmd_tables(args):
    _merge_config(args, "tables")
    which = tuple((args.tables or "I,II,III,IV").split(","))
    entries = tables.run_table_suite(which)
    payload = {
        "summary": tables.audit_summary(entries),
        "entries": [e.to_dict() for e in entries],
    }
    return [(json.dumps(payload, indent=1, sort_keys=True) + "\n", "json")]


def _read_unitary(path) -> np.ndarray:
    vals = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0]
                vals.extend(float(tok) for tok in line.replace(",", " ").split())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if len(vals) % 2:
        raise ConfigError(f"{path}: expected interleaved re/im pairs")
    z = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    dim = int(round(math.sqrt(z.size)))
    if dim * dim != z.size:
        raise ConfigError(f"{path}: {z.size} entries is not a square matrix")
    return z.reshape(dim, dim)


def _default_template(reg: Register) -> Template:
    slots = []
    for i in range(reg.num_ions - 1):
        slots.append(MSSlot(i, i + 1, (0, 1), (0, 1)))
    for ion in range(reg.num_ions):
        d = reg.ions[ion].d
        if d == 2:
            slots.append(RSlot(ion, (0, 1)))
        else:
            for pair in ((0, 1), (0, 3), (1, 2)):
                if pair[1] < d:
                    slots.append(RSlot(ion, pair))
    return Template(tuple(slots))


def _cmd_compile(args):
    _merge_config(args, "compile")
    if not args.target or not args.register:
        raise ConfigError("--target and --register are required")
    try:
        reg = load_register(args.register)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"{args.register}: {exc}") from exc
    U = _read_unitary(args.target)
    if U.shape[0] != reg.dim:
        raise ConfigError(
            f"target dimension {U.shape[0]} does not match register dim {reg.dim}"
        )
    from .core import is_unitary

    if not is_unitary(U):
        raise ConfigError("target matrix is not unitary")
    if reg.num_ions == 1:
        rep = synthesize_exact(U, reg.ions[0])
    else:
        rep = synthesize_variational(
            U,
            _default_template(reg),
            reg,
            VariationalBudget(layers_max=_or(args.layers_max, 4), restarts=_or(args.restarts, 8)),
            seed=_or(args.seed, 0),
        )
        if not rep.converged:
            raise RuntimeError(
                f"variational synthesis did not reach the cost floor (cost {rep.cost:.3g})"
            )
    circ = Circuit(reg, list(rep.sequence.gates), meta={
        "distance": f"{rep.distance:.3e}",
        "pulses": rep.pulse_count,
        "composition": rep.sequence.composition_order,
    })
    return [(format_circuit(circ), "txt")]


COMMANDS = {
    "xeb": _cmd_xeb,
    "bv": _cmd_bv,
    "repcode": _cmd_repcode,
    "manifold": _cmd_manifold,
    "tables": _cmd_tables,
    "compile": _cmd_compile,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ionvq",
        description="Simulate and compile trapped-ion registers with virtual qubits",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        sp.add_argument("--config", help="JSON config supplying unset flags")

    sp = sub.add_parser("xeb", help="gates to reach a cross-entropy threshold")
    sp.add_argument("--qubits", type=int)
    sp.add_argument("--n", type=int, help="virtual qubits per ion")
    sp.add_argument("--policy", choices=[sampling.ALL_TO_ALL, sampling.MINIMAL, sampling.MS_LIMITED])
    sp.add_argument("--arch", choices=[sampling.BRICKWORK, sampling.LONGRANGE])
    sp.add_argument("--statistic", choices=["xeb", "moment"])
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--circuits", type=int)
    sp.add_argument("--layers", type=int, help="fixed depth: report per-circuit statistics")
    sp.add_argument("--mode", choices=["exact", "sampled"])
    sp.add_argument("--shots", type=int)
    sp.add_argument("--seed", type=int)
    add_common(sp)

    sp = sub.add_parser("bv", help="Bernstein-Vazirani circuit, counts and recovery")
    sp.add_argument("--s", help="hidden bit string")
    sp.add_argument("--layout", choices=["n1", "n2"])
    sp.add_argument("--shots", type=int)
    sp.add_argument("--seed", type=int)
    add_common(sp)

    sp = sub.add_parser("repcode", help="repetition-code logical error rates")
    sp.add_argument("--L", type=int, help="matched ion count (sets d per encoding)")
    sp.add_argument("--d", type=int, help="explicit code distance")
    sp.add_argument("--n", type=int, choices=[1, 2])
    sp.add_argument("--p", type=float, help="physical rate p = 14 eps1")
    sp.add_argument("--p-grid", dest="p_grid", help="lo:hi:steps logarithmic grid")
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--shots", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--pauli-convention", dest="pauli_convention",
                    choices=["uniform_nonidentity", "quarter_rate"])
    add_common(sp)

    sp = sub.add_parser("manifold", help="rank computational manifolds by cost")
    sp.add_argument("--field", type=float, help="quantisation field in gauss")
    sp.add_argument("--field-sweep", dest="field_sweep", help="lo:hi:steps in gauss")
    sp.add_argument("--n", type=int, choices=[2, 3])
    sp.add_argument("--top-k", dest="top_k", type=int)
    sp.add_argument("--level", help="level data name or JSON path")
    sp.add_argument("--mechanism", choices=["raman", "m1"])
    sp.add_argument("--kappa", type=float)
    add_common(sp)

    sp = sub.add_parser("tables", help="audit the stored decomposition tables")
    sp.add_argument("--tables", help="comma list, default I,II,III,IV")
    add_common(sp)

    sp = sub.add_parser("compile", help="synthesize a pulse sequence for a unitary")
    sp.add_argument("--target", help="text file of row-major re/im pairs")
    sp.add_argument("--register", help="register JSON config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--layers-max", dest="layers_max", type=int)
    sp.add_argument("--restarts", type=int)
    add_common(sp)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    written = []
    try:
        outputs = COMMANDS[args.command](args)
        chosen = _select_output(outputs, args.format)
        if args.out:
            _atomic_write(args.out, chosen)
            written.append(args.out)
        else:
            sys.stdout.write(chosen)
        return 0
    except (ConfigError, sampling.ResourceLimitError) as exc:
        print(f"ionvq: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        print(f"ionvq: error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def _select_output(outputs, fmt):
    if fmt is None:
        return outputs[0][0]
    for text, kind in outputs:
        if kind == fmt:
            return text
    raise ConfigError(f"format {fmt!r} not available for this subcommand")


if __name__ == "__main__":
    sys.exit(main())
