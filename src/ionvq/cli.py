"""Command-line front end: deterministic experiment runs and report files.

Every stochastic subcommand requires an explicit --seed; identical arguments
produce byte-identical data files (no timestamps in outputs).  Files are
written atomically (temp file + rename), so a run that fails writes no output
file.  Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import os
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import atomic, core, manifold, qec, sampling, tables
from .compiler import (
    LEFT_FIRST,
    MSSlot,
    RSlot,
    Template,
    VariationalBudget,
    synthesize_exact,
    synthesize_variational,
)
from .core import Circuit, Register, format_circuit, is_unitary, load_register

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


@functools.cache
def _schema() -> dict:
    with open(atomic.data_dir() / "config_schema.json") as fh:
        return json.load(fh)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


_TYPES = {"integer": int, "number": float, "string": str}
_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "exclusiveMinimum": (operator.gt, "above"),
    "maximum": (operator.le, "at most"),
}


def schema_error(val, schema: dict) -> str | None:
    """Why ``val`` breaks ``schema`` (a subcommand definition of
    config_schema.json or one of its properties), or None.  Covers the JSON
    Schema (Draft 7) keywords that file uses; unlike Draft 7, NaN meets no bound."""
    kind = schema["type"]
    if kind == "object":
        if not isinstance(val, dict):
            return "must be an object"
        for key, item in val.items():
            error = (schema_error(item, schema["properties"][key]) if key in schema["properties"]
                     else "unknown key")
            if error:
                return f"{key}: {error}"
        return None
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if not {"string": isinstance(val, str), "number": number,
            "integer": number and (isinstance(val, int) or val.is_integer())}[kind]:
        return f"must be {'an' if kind == 'integer' else 'a'} {kind}"
    if "enum" in schema and val not in schema["enum"]:
        return "must be one of " + ", ".join(map(str, schema["enum"]))
    for word, (within, text) in _BOUNDS.items():
        if word in schema and not within(val, schema[word]):
            return f"must be {text} {schema[word]}"
    if "pattern" in schema and not re.search(schema["pattern"], val):
        return f"must be of the form {schema['pattern']}"
    return None


def _resolve(args, command: str, *required: str) -> set[str]:
    """Set each option of ``command`` on ``args``: its flag, else its --config
    value, else the schema default.  Flags and config values pass the same
    check, and config values get the flag's type.  Returns the options set,
    which must include ``required``."""
    spec = _schema()["definitions"][command]
    props = spec["properties"]
    given = {key: getattr(args, key) for key in props if getattr(args, key) is not None}
    for key, val in given.items():
        error = schema_error(val, props[key])
        if error:
            raise ConfigError(f"{_flag(key)} {val}: {error}")
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
        error = schema_error(cfg, spec)
        if error:
            raise ConfigError(f"{args.config}: {error}")
        given = {**{k: _TYPES[props[k]["type"]](v) for k, v in cfg.items()}, **given}
    missing = [_flag(key) for key in required if key not in given]
    if missing:
        raise ConfigError(f"missing {' and '.join(missing)}")
    for key, prop in props.items():
        setattr(args, key, given.get(key, prop.get("default")))
    return set(given)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_xeb(args) -> list[tuple[str, str]]:
    given = _resolve(args, "xeb", "qubits", "n", "seed")
    unread = ({"--arch": args.arch == sampling.LONGRANGE, "--statistic": args.statistic == "moment",
               "--threshold": "threshold" in given} if args.layers is not None
              else {"--mode": args.mode == "sampled", "--shots": "shots" in given})
    flag = next((f for f, read in unread.items() if read), None)
    if flag:
        raise ConfigError(f"{flag} {getattr(args, flag[2:])}: not read "
                          f"{'with' if args.layers is not None else 'without'} --layers")
    if args.qubits % args.n:
        raise ConfigError(f"--qubits {args.qubits}: must be a multiple of --n {args.n}")
    ions = args.qubits // args.n
    if ions < 2 or (ions % 2 and args.arch != sampling.LONGRANGE):
        raise ConfigError(f"--qubits {args.qubits}: must be split into at least two ions, an "
                          f"even number for brickwork circuits (--n {args.n} gives {ions})")
    policy = sampling.CircuitPolicy(n=args.n, connectivity=args.policy, architecture=args.arch)
    header = ["N", "n", "policy", "gate_count", "statistic", "stderr", "seed"]
    if args.layers is not None:
        # fixed-depth cross-entropy values, one circuit per row
        reg = policy.register(args.qubits)

        def xeb(k, amps):
            if args.mode == "exact":
                return sampling.xeb_exact(amps)
            drawn, counts = core.sample_counts(core.StateVector(reg, amps), args.shots,
                                               args.seed + 10_000 + k)
            # |amp|^2 of the drawn outcomes, summed in order: np.sum's order moves bits
            mean_p = np.cumsum(counts * np.abs(amps[drawn]) ** 2)[-1] / args.shots
            return float(reg.dim * mean_p - 1.0)

        # map holds no row once xeb returns, so each chunk is freed as it is used up
        vals = list(map(xeb, range(args.circuits), sampling.fixed_depth_amplitudes(
            policy, args.qubits, args.layers, args.circuits, args.seed)))
        rows = [[args.qubits, args.n, policy.connectivity, 3 * ions * args.layers, f"{v:.8g}", "",
                 args.seed + k] for k, v in enumerate(vals)]
        summary = {
            "mean_statistic": float(np.mean(vals)),
            "stderr": float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "layers": args.layers,
            "mode": args.mode,
            "circuits": len(vals),
        }
        text = _csv_text(header, rows)
        return [(text, "csv"), (json.dumps(summary, indent=1, sort_keys=True) + "\n", "json")]
    threshold = (sampling.DEFAULT_THRESHOLDS[args.statistic] if args.threshold is None
                 else args.threshold)
    try:
        sampling.check_threshold(threshold, args.qubits)
    except ValueError as exc:
        raise ConfigError(f"--threshold {threshold}: {exc}") from exc
    res = sampling.gates_to_threshold(policy, args.qubits, threshold, statistic=args.statistic,
                                      circuits=args.circuits, seed=args.seed)
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
    _resolve(args, "bv", "s", "seed")
    if args.layout == "n2" and len(args.s) % 2:
        raise ConfigError(f"--s {args.s}: must be of even length for --layout n2")
    bv, recovered, counts = sampling.run_bv(args.s, args.layout, shots=args.shots, seed=args.seed)
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
    if {"p", "p_grid"} <= _resolve(args, "repcode", "n", "seed"):
        raise ConfigError(f"--p {args.p}: not read with --p-grid")
    if (args.L is None) == (args.d is None):
        raise ConfigError("give exactly one of --L (matched layout) or --d")
    if args.L is not None:
        try:
            d1, d2 = qec.matched_distances(args.L)
        except ValueError as exc:
            raise ConfigError(f"--L {args.L}: {exc}") from exc
        d, rounds, L = (d1 if args.n == 1 else d2), d1, args.L
    else:
        d = rounds = args.d
        if d % 2 == 0:
            raise ConfigError(f"--d {d}: code distance must be odd")
        L = (d + 2) if args.n == 1 else (d + 1) // 2 + 1
    if args.rounds is not None:
        rounds = args.rounds
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
    if not all(0.0 < p / 14.0 <= 0.1 for p in ps):
        raise ConfigError("each p must lie in (0, 1.4] (eps1 = p/14 at most 0.1)")
    # above a site rate of 1 every p runs one saturated channel (quarter_rate's p/4 never does)
    pmax = 14 / {1: 14, 2: 11}[args.n]
    if args.pauli_convention == "uniform_nonidentity" and max(ps) > pmax:
        raise ConfigError(f"p {max(ps):.8g}: site rate {max(ps) / pmax:.10g} exceeds 1 with --n "
                          f"{args.n} under uniform_nonidentity; p may be at most {pmax:.15g}")
    results = qec.sample_curve(d, args.n, [p / 14.0 for p in ps], rounds, args.shots,
                               args.seed, pauli_convention=args.pauli_convention)
    rows = [
        [L, args.n, d, rounds, f"{p:.8g}", f"{r.p_logical:.8g}",
         f"{r.ci_low:.8g}", f"{r.ci_high:.8g}", r.shots, r.seed]
        for p, r in zip(ps, results)
    ]
    text = _csv_text(
        ["L", "n", "d", "rounds", "p", "p_L", "ci_low", "ci_high", "shots", "seed"], rows
    )
    return [(text, "csv")]


def _cmd_manifold(args):
    if {"field", "field_sweep"} <= _resolve(args, "manifold"):
        raise ConfigError(f"--field {args.field}: not read with --field-sweep")
    try:
        model = atomic.load_level_model(args.level)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"--level {args.level}: {exc}") from exc
    params = manifold.CostParams(mechanism=args.mechanism, kappa=args.kappa)
    if args.field_sweep:
        try:
            lo, hi, steps = args.field_sweep.split(":")
            ends, steps = (float(lo), float(hi)), int(steps)
        except ValueError as exc:
            raise ConfigError(f"--field-sweep expects lo:hi:steps in gauss") from exc
        field = _schema()["definitions"]["manifold"]["properties"]["field"]
        error = next(filter(None, (schema_error(end, field) for end in ends)), None)
        if error:  # each endpoint is a --field
            raise ConfigError(f"--field-sweep {args.field_sweep}: each endpoint {error}")
        fields = np.linspace(*ends, steps) * 1e-4  # gauss -> T
        fields = np.maximum(fields, 1e-6)
        points = manifold.field_sweep(model, args.n, params, fields, args.top_k)
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
    top = manifold.search_top_k(model, args.n, replace(params, B_T=args.field * 1e-4), args.top_k)
    if not top:
        raise ConfigError(f"--field {args.field}: must be high enough to resolve a manifold")
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
    _resolve(args, "tables")
    entries = tables.run_table_suite(tuple(args.tables.split(",")))
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
    """An MS slot on levels (0, 1) of each neighbouring pair of ions, and an R
    slot on each of (0, 1), (0, 3) and (1, 2) that an ion allows."""
    slots = []
    for i in range(reg.num_ions - 1):
        slots.append(MSSlot(i, i + 1, (0, 1), (0, 1)))
    for ion in range(reg.num_ions):
        allowed = reg.ions[ion].pairs()
        slots += [RSlot(ion, pair) for pair in ((0, 1), (0, 3), (1, 2)) if pair in allowed]
    return Template(tuple(slots))


def _cmd_compile(args):
    given = _resolve(args, "compile", "target", "register")
    try:
        reg = load_register(args.register)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.register}: {exc}") from exc
    U = _read_unitary(args.target)
    if U.shape[0] != reg.dim:
        raise ConfigError(
            f"target dimension {U.shape[0]} does not match register dim {reg.dim}"
        )
    if not is_unitary(U):
        raise ConfigError("target matrix is not unitary")
    if reg.num_ions == 1:
        key = next((k for k in ("layers_max", "restarts") if k in given), None)
        if key:
            raise ConfigError(f"{_flag(key)} {getattr(args, key)}: not read with a one-ion "
                              "register, whose target is synthesized exactly")
        try:  # unitarity and dimension are checked above: what is left is the graph
            rep = synthesize_exact(U, reg.ions[0])
        except ValueError as exc:
            raise ConfigError(f"{args.register}: {exc}") from exc
    else:
        rep = synthesize_variational(
            U,
            _default_template(reg),
            reg,
            VariationalBudget(layers_max=args.layers_max, restarts=args.restarts),
            seed=args.seed,
        )
        if not rep.converged:
            raise RuntimeError(
                f"variational synthesis did not reach the cost floor (cost {rep.cost:.3g})"
            )
    circ = Circuit(reg, rep.gates, meta={
        "distance": f"{rep.distance:.3e}",
        "pulses": len(rep.gates),
        "composition": LEFT_FIRST,
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


# the flags every subcommand takes besides its schema properties
_COMMON = {
    "out": {"type": "string", "description": "output path (default: stdout)"},
    "format": {"type": "string", "enum": ["csv", "json"],
               "description": "which output to write (default: the subcommand's first)"},
    "config": {"type": "string", "description": "JSON config supplying unset flags"},
}
_HELP = dict.fromkeys(["-h", "--help"])
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(token: str, flags) -> bool:
    """Whether ``token`` reads as a flag rather than a value, by argparse's rule:
    one of ``flags``, alone or before "=", is a flag; else "-" alone, a negative
    number and a token with a space are values."""
    if token.partition("=")[0] in flags:
        return True
    return token[:1] == "-" and token != "-" and " " not in token and not _NEGATIVE.match(token)


def _help(command: str | None) -> str:
    """Usage and options of ``command`` from the schema, or the subcommands for None."""
    defs = _schema()["definitions"]
    if command is None:
        usage = "{" + ",".join(defs) + "} ..."
        about = "Simulate and compile trapped-ion registers with virtual qubits"
        rows = [(name, spec["description"]) for name, spec in defs.items()]
    else:
        usage, about = command + " [--flag VALUE ...]", defs[command]["description"]
        rows = [(_flag(key) + " " + ("{" + ",".join(map(str, prop["enum"])) + "}"
                                     if "enum" in prop else key.upper()),
                 prop["description"] + (f" (default {prop['default']})" if "default" in prop else ""))
                for key, prop in {**defs[command]["properties"], **_COMMON}.items()]
    rows = [("-h, --help", "show this help and exit"), *rows]
    width = max(len(name) for name, _ in rows) + 2
    return "".join([f"usage: ionvq {usage}\n\n{about}\n\n{'options' if command else 'commands'}:\n",
                    *(f"  {name:<{width}}{text}\n" for name, text in rows)])


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The subcommand of ``argv`` with one attribute per property of its schema
    definition and per _COMMON flag, each given as ``--flag value`` or
    ``--flag=value`` (the last of a repeated flag wins).  Values get their schema
    type and are otherwise left to _resolve, and unset flags are None; only
    --format is held to its enum here.  Prints help and returns None at -h or
    --help.  A token that is neither a flag nor its value is a ConfigError once
    all of argv is read, so that a later -h still prints help, as in argparse."""
    defs, stray, args, flags = _schema()["definitions"], [], None, _HELP
    tokens = iter(argv)
    for token in tokens:
        flag, explicit, value = token.partition("=")
        if token == "--":  # every later token is a value, and no flag is left to take it
            stray += [token, *tokens]
        elif flag in _HELP:
            if explicit:
                raise ConfigError(f"{token}: {flag} takes no value")
            sys.stdout.write(_help(args and args.command))
            return None
        elif args is None and not _is_flag(token, flags):  # the subcommand
            if token not in defs:
                raise ConfigError(f"{token}: not a subcommand; choose from " + ", ".join(defs))
            props = {**defs[token]["properties"], **_COMMON}
            flags = {**_HELP, **{_flag(key): key for key in props}}
            args = SimpleNamespace(command=token, **dict.fromkeys(props))
        elif flag not in flags:
            stray.append(token)
        else:
            if not explicit:
                value = next(tokens, None)
                if value is None or _is_flag(value, flags):
                    raise ConfigError(f"{flag}: expected a value")
            key = flags[flag]
            try:
                setattr(args, key, _TYPES[props[key]["type"]](value))
            except ValueError:  # schema_error names the type
                raise ConfigError(f"{flag} {value}: {schema_error(value, props[key])}") from None
            error = key in _COMMON and schema_error(value, props[key])
            if error:
                raise ConfigError(f"{flag} {value}: {error}")
    if args is None:
        raise ConfigError("give a subcommand: " + ", ".join(defs))
    if stray:
        raise ConfigError("unrecognized arguments: " + " ".join(stray))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # help was printed
            return 0
        outputs = COMMANDS[args.command](args)
        chosen = _select_output(outputs, args.format)
        if args.out:
            _atomic_write(args.out, chosen)
        else:
            sys.stdout.write(chosen)
        return 0
    except (ConfigError, sampling.ResourceLimitError) as exc:
        print(f"ionvq: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
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
