"""config_schema.json is the CLI's only declaration of options: argv is read
against it, and one checker holds flags and --config files to it."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionvq import manifold
from ionvq.atomic import data_dir
from ionvq.cli import ConfigError, main, parse_args, schema_error
from oracles import argparse_parser

SCHEMA = json.loads((data_dir() / "config_schema.json").read_text())
DEFS = SCHEMA["definitions"]
BOUNDS = {"minimum", "exclusiveMinimum", "maximum"}
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.mark.parametrize("command", DEFS)
def test_parser_flags_are_the_schema_properties(command):
    props = DEFS[command]["properties"]
    parsed = vars(parse_args([command]))
    assert set(parsed) == {"command", "out", "format", "config", *props}
    assert all(parsed[key] is None for key in props)  # defaults come after --config
    for key, prop in props.items():
        flag = "--" + key.replace("_", "-")
        typed = {"integer": 1, "number": 1.0, "string": "1"}[prop["type"]]
        assert vars(parse_args([command, flag, "1"]))[key] == typed
        assert vars(parse_args([command, f"{flag}=1"]))[key] == typed


def test_repeated_flag_keeps_the_last_value():
    args = parse_args(["bv", "--seed", "1", "--out=a", "--seed=2", "--out", "b", "--format",
                       "csv", "--format=json"])
    assert (args.seed, args.out, args.format) == (2, "b", "json")
    assert parse_args(["bv", "--out=--"]).out == "--"  # argparse gave []


@pytest.mark.parametrize("argv", [
    ["bv", "--s", "10", "--seed", "1", "--bogus", "1"],  # unknown flag
    ["bv", "--s", "10", "--seed", "1", "--top-k", "1"],  # another subcommand's flag
    ["bv", "--s", "10", "--seed"],  # missing value
    ["bv", "--s", "10", "--seed", "--shots", "5"],
    ["bv", "--s", "10", "--seed", "1.5"],  # bad int
    ["manifold", "--field", "2O"],  # bad float
    ["bv", "--s", "10", "--seed", "1", "stray"],
    ["bv", "--s", "10", "--seed", "1", "--", "--shots", "5"],
    ["--out", "x", "bv", "--s", "10", "--seed", "1"],  # flag before the subcommand
    ["bvv", "--s", "10", "--seed", "1"],  # unknown subcommand
    [],  # no subcommand
    ["bv", "--s", "10", "--seed", "1", "--format", "xml"],
    ["manifold", "--top", "1"],  # abbreviations are not read
])
def test_malformed_argv_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("ionvq: config error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "-h"] for c in DEFS),
                                  *([c, "--seed", "1", "--help", "--bogus"] for c in DEFS)])
def test_help_lists_every_flag(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert not out.exists()
    text = capsys.readouterr().out
    if len(argv) == 1:
        assert all(f"  {command} " in text and spec["description"] in text
                   for command, spec in DEFS.items())
    else:
        props = DEFS[argv[0]]["properties"]
        assert all(f"  --{key.replace('_', '-')} " in text
                   for key in [*props, "out", "format", "config"])
        assert all(prop["description"] + (f" (default {prop['default']})" if "default" in prop
                                          else "") in text for prop in props.values())


def _items(args):
    return repr(sorted(vars(args).items()))  # repr: NaN equals NaN


def _reference(argv):
    """(exit code, namespace) of the argparse parser: code None when it parses."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, _items(argparse_parser(SCHEMA).parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


def _parsed(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = parse_args(argv)
        except ConfigError:
            return 2, None
    return (0, None) if args is None else (None, _items(args))


_FLAGS = sorted({"--" + key.replace("_", "-") for spec in DEFS.values()
                 for key in spec["properties"]} | {"--out", "--format", "--config", "--bogus"})
_VALUES = ["1", "-1", "-.5", "-1.5", "-1e3", "1e3", "x", "", "-", "a b", "-x y", "-x", "csv",
           "json", "xml", "-h", "--help", "nan", " 2", *DEFS]
_TOKENS = st.sampled_from(_FLAGS + _VALUES + ["--"]) | st.builds(
    "{}={}".format, st.sampled_from(_FLAGS + ["-h"]), st.sampled_from(_VALUES))


@st.composite
def _argv(draw):
    """A head token, then flag-value pairs of its subcommand and stray tokens."""
    head = draw(st.sampled_from([*DEFS, "-h", "--bogus", "--"]))
    own = ["--" + key.replace("_", "-") for key in DEFS.get(head, {}).get("properties", [])]
    pair = st.tuples(st.sampled_from([*own, "--out", "--format", "--config"]),
                     st.sampled_from(_VALUES)).map(list)
    return [head, *(t for part in draw(st.lists(pair | _TOKENS.map(lambda t: [t]), max_size=5))
                    for t in part)]


@settings(max_examples=400)
@given(_argv())
@example(["bv", "--s", "-1", "--shots", "-1.5"])  # negative numbers are values
@example(["bv", "--s", "-x y"])  # so is a token with a space,
@example(["bv", "--s", "--shots=a b"])  # unless it starts with a flag and "="
@example(["bv", "--s", "-"])
@example(["bv", "--s", "1", "--", "-h"])  # after "--" no flag is read
@example(["bv", "--bogus", "-h"])  # stray tokens are refused after a later -h
@example(["bv", "--format", "xml", "-h"])  # --format is checked as it is read
@example(["bv", "-h=x", "--help"])
def test_parse_agrees_with_argparse(argv):
    # the same code (0 for help, 2 for a refusal) or the same namespace, on argv
    # with no abbreviation, which argparse alone reads, and no "--flag=--", which
    # argparse reads as an empty list
    assert _parsed(argv) == _reference(argv), argv


def test_schema_uses_only_checked_keywords():
    # every keyword below is one schema_error implements (or an annotation), so
    # a schema edit that the checker would silently ignore fails here
    assert set(SCHEMA) == {"$schema", "title", "description", "type", "definitions"}
    for command, spec in DEFS.items():
        assert set(spec) == {"description", "type", "additionalProperties", "properties"}
        assert spec["type"] == "object" and spec["additionalProperties"] is False
        for key, prop in spec["properties"].items():
            assert set(prop) <= {"type", "enum", "pattern", "default", "description"} | BOUNDS
            assert prop["type"] in ("integer", "number", "string") and prop["description"]
            if prop["type"] == "string":
                assert not BOUNDS & set(prop)
                # "$" alone also matches before a final newline in Python's re
                assert prop.get("pattern", "^$(?!\\n)").endswith("$(?!\\n)")
            else:
                assert "pattern" not in prop
            if "default" in prop:
                assert schema_error(prop["default"], prop) is None, (command, key)


def test_manifold_defaults_match_cost_params():
    props = DEFS["manifold"]["properties"]
    assert props["kappa"]["default"] == manifold.CostParams().kappa
    assert props["mechanism"]["default"] == manifold.CostParams().mechanism


def _edges(prop):
    """Values on and just past each bound, and each enum member."""
    out = list(prop.get("enum", []))
    for word in BOUNDS & set(prop):
        b = prop[word]
        out += [b, b - 1, b + 1, float(b), np.nextafter(b, -math.inf), np.nextafter(b, math.inf)]
    return [float(v) if isinstance(v, np.floating) else v for v in out]


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                     st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=3)


def _value(prop):
    pattern = prop.get("pattern")
    regex = [st.from_regex(pattern.removesuffix("(?!\\n)"), fullmatch=True)] if pattern else []
    integral = [st.sampled_from([float(v) for v in _edges(prop) if isinstance(v, int)])
                ] if prop["type"] == "integer" else []
    return st.one_of(_JSON, st.sampled_from(_edges(prop) or [None]), *regex, *integral,
                     st.sampled_from([True, False, "x", "10\n", "I,II\n", "1:2:3\n"]))


@st.composite
def _configs(draw, spec):
    keys = draw(st.sets(st.sampled_from([*spec["properties"], "bogus", "threads"])))
    cfg = {key: draw(_value(spec["properties"].get(key, {"type": "string"}))) for key in keys}
    return draw(st.one_of(st.just(cfg), _JSON))


@pytest.mark.parametrize("command", DEFS)
@settings(max_examples=100)
@given(data=st.data())
def test_checker_accepts_what_draft7_accepts(command, data):
    spec = DEFS[command]
    reference = jsonschema.Draft7Validator(spec)
    cfg = data.draw(_configs(spec))
    # each entry alone too, or one bad value would hide how the others fare
    for item in [cfg, *([{k: v} for k, v in cfg.items()] if isinstance(cfg, dict) else [])]:
        assert (schema_error(item, spec) is None) == reference.is_valid(item), item


def test_nan_meets_no_bound():
    # the one deliberate difference from Draft 7, where every comparison with
    # NaN is false and so no bound refuses it
    for spec in DEFS.values():
        for key, prop in spec["properties"].items():
            if prop["type"] == "number":
                assert BOUNDS & set(prop)
                assert jsonschema.Draft7Validator(spec).is_valid({key: math.nan})
                assert "must be" in schema_error({key: math.nan}, spec)


# (inside, outside) values of the options whose size the schema leaves open,
# at sizes that run in milliseconds to a fraction of a second.  manifold n=3
# scores up to about 156,000 connected subsets per field (0.3-0.4 s), so it is
# drawn for single fields only: sweeps stay at n=2 (see _options).
SAMPLES = {
    # 6 and 12 qubits give n=3 registers of 2 and 4 ions
    ("xeb", "qubits"): ([2, 3, 4, 5, 6, 12], [1]),
    ("bv", "s"): (["0", "1", "10", "0110"], ["", "12", "1 0", "10\n"]),
    ("repcode", "p_grid"): (["1e-3:1e-1:2", "0.01:0.1:1", "0.1:0.2:02"],
                            ["1e-3:1e-1:0", "a:b:2", "1:2", "0:1:2", "-1:1:2", "0.1:2:2", "1:2:3\n",
                             "0.01:0.1:1000"]),
    ("manifold", "n"): ([2, 3], [1, 3.5, 4]),
    ("manifold", "field_sweep"): (["5:60:2", "1:2:1", "0:1:2", "60:5:2"],
                                  ["1:2:0", "x:2:1", "1:2", "5:60:1000"]),
    ("manifold", "level"): (["ba137_d52"], ["nope", ""]),
    ("tables", "tables"): (["I", "II", "IV", "II,IV", "I,I"], ["V", "", "II,", "ii", "II\n"]),
    ("compile", "target"): ([str(CONFIGS / "smoke_target.txt")],
                            [str(CONFIGS / "smoke_register.json"), "nope"]),
    ("compile", "register"): ([str(CONFIGS / "smoke_register.json")],
                              [str(CONFIGS / "smoke_target.txt"), "nope"]),
}


def _values(command, key, prop):
    """Values of one option, inside and just outside its bounds and enum,
    split by the reference validator."""
    if (command, key) in SAMPLES:
        return SAMPLES[command, key]
    if "enum" in prop:
        near = ["bogus"] if prop["type"] == "string" else [min(prop["enum"]) - 1,
                                                          max(prop["enum"]) + 1]
        vals = prop["enum"] + near
    elif prop["type"] == "integer":  # just past the maximum too, never on it: counts are slow
        vals = list(range(prop["minimum"] - 1, prop["minimum"] + 4))
        vals += [prop["maximum"] + 1] if "maximum" in prop else []
    else:
        vals = sorted({*_edges(prop), prop.get("default", 1.0)})
    valid = jsonschema.Draft7Validator(prop).is_valid
    return [v for v in vals if valid(v)], [v for v in vals if not valid(v)]


@st.composite
def _options(draw, command):
    """Flags and --config values: the command's smoke config with options
    redrawn or dropped and at most one value just outside the schema, each
    option given either way (an integer in --config possibly as an integral
    float)."""
    props = DEFS[command]["properties"]
    smoke = json.loads((CONFIGS / f"smoke_{command}.json").read_text())
    if command == "compile":
        smoke = {key: str(ROOT / val) if key in ("target", "register") else val
                 for key, val in smoke.items()}
    bad = draw(st.none() | st.sampled_from(list(props)))
    argv, cfg, given = [command], {}, set()
    for key, prop in props.items():
        inside, outside = _values(command, key, prop)
        if (command, key) == ("manifold", "n") and "field_sweep" in given:  # declared first
            inside = [2]
        how = draw(st.sampled_from(["smoke"] * 4 + ["redraw", "drop"]))
        if key == bad:
            val = draw(st.sampled_from(outside))
        elif how == "redraw":
            val = draw(st.sampled_from(inside))
        elif how == "smoke" and key in smoke:
            val = smoke[key]
        else:
            continue
        given.add(key)
        if draw(st.booleans()):
            argv.append(f"--{key.replace('_', '-')}={val}")
        else:
            cfg[key] = float(val) if prop["type"] == "integer" and draw(st.booleans()) else val
    return argv, cfg


# argv checked on every run besides the drawn ones, each with two options redrawn
# together, which the draws reach about once in several hundred examples: n=3
# registers of 2 and 4 ions, an n=3 manifold beside a non-smoke field, and a
# matched n=2 layout on a p grid
EXAMPLES = {"xeb": [(["xeb", f"--qubits={q}", "--n=3", f"--policy={policy}", "--circuits=3",
                      "--seed=7"], {}) for q, policy in ((6, "all_to_all"), (12, "minimal"))],
            "manifold": [(["manifold", "--field=5", "--n=3", "--top-k=5"], {})],
            "repcode": [(["repcode", "--L=7", "--n=2", "--p-grid=1e-3:1e-1:2", "--shots=2000",
                          "--seed=11"], {})]}


def _run(argv, out):
    try:
        return main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse refuses a malformed flag this way
        return exc.code


@pytest.mark.parametrize("command,examples", [("xeb", 80), ("bv", 60), ("repcode", 60),
                                              ("manifold", 25), ("tables", 25), ("compile", 40)])
def test_cli_contract(command, examples):
    """Argv drawn from the schema exits 0 or 2, never 3; exit 2 writes
    nothing, and exit 0 writes the same bytes again."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        @settings(max_examples=examples)
        @given(_options(command))
        def check(options):
            argv, cfg = options
            for out in tmp.glob("out*"):
                out.unlink()
            if cfg:
                (tmp / "cfg.json").write_text(json.dumps(cfg))
                argv = [*argv, "--config", str(tmp / "cfg.json")]
            code = _run(argv, tmp / "out1")
            assert code in (0, 2), argv
            if code == 2:
                assert not (tmp / "out1").exists()
            else:
                assert _run(argv, tmp / "out2") == 0
                assert (tmp / "out1").read_bytes() == (tmp / "out2").read_bytes()

        for options in EXAMPLES.get(command, []):
            check = example(options)(check)
        check()
