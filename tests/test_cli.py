import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ionvq.cli import main
from ionvq.sampling import ResourceLimitError


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ionvq.cli", *args], capture_output=True, text=True
    )
    return proc


def test_bv_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["bv", "--s", "1100", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["bv", "--s", "1100", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# (argv, sha256 of the json), recorded from the multinomial sampler and the np.kron
# preparation: the data-qubit counts hold all the shots, so new draws leave them as they are
BV_GOLDEN = [
    (["bv", "--s", "00011111011000110100", "--layout", "n2", "--seed", "1767258088"],
     "d3137df473e7aa6809426e77be244c02760fc82d587440ab6285ccdb87d7e391"),
    (["bv", "--s", "1011001110101", "--layout", "n1", "--seed", "2"],
     "6672c5c9f862dce96319e2684331d90d5a07ec19a41ab72569eb2912ec698c7a"),
    (["bv", "--s", "110110", "--shots", "1000", "--seed", "4"],
     "18a7d0fa8b6e2efb7cfa9f1612054f8feea16c1aef9bab19a3d7ab628f86291b"),
]


@pytest.mark.parametrize("argv,sha256", BV_GOLDEN)
def test_bv_output_bytes_are_pinned(tmp_path, argv, sha256):
    out = tmp_path / "bv.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_xeb_csv_header_and_determinism(tmp_path):
    args = ["xeb", "--qubits", "8", "--n", "2", "--policy", "all_to_all",
            "--circuits", "3", "--seed", "7"]
    f1, f2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header == "N,n,policy,gate_count,statistic,stderr,seed"


def test_repcode_csv(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(["repcode", "--L", "5", "--n", "1", "--p", "0.01",
                 "--shots", "2000", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,n,d,rounds,p,p_L,ci_low,ci_high,shots,seed"
    assert len(lines) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--d", "4", "--p", "0.01"],  # even distance
        ["--L", "4", "--p", "0.01"],  # L - 2 even
        ["--d", "5", "--p", "2"],  # eps1 = p/14 above 0.1
        ["--d", "5", "--p", "0"],
        ["--d", "5", "--p-grid", "1e-3:1e-1:0"],  # no steps
    ],
)
def test_repcode_config_errors_exit_2(tmp_path, flags):
    out = tmp_path / "rep.csv"
    assert main(["repcode", "--n", "1", "--seed", "1", *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("convention", ["uniform_nonidentity", "quarter_rate"])
@pytest.mark.parametrize("n, pmax, over", [(1, 1.0, 1.0000001), (2, 14 / 11, 1.2727273)])
def test_repcode_refuses_saturated_site_rates(tmp_path, capsys, how, convention, n, pmax, over):
    # the canonical site rate is p for n=1 and 11p/14 for n=2; above 1 every p ran the
    # same saturated channel under its own label.  quarter_rate's p/4 keeps (0, 1.4].
    out, cfg = tmp_path / "rep.csv", tmp_path / "cfg.json"
    for key, value in [("p", pmax), ("p", over), ("p", 1.4), ("p_grid", f"0.5:{over!r}:2")]:
        opts = {"n": n, "pauli_convention": convention, key: value}
        if how == "flag":
            extra = [x for k, v in opts.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        else:
            cfg.write_text(json.dumps(opts))
            extra = ["--config", str(cfg)]
        code = main(["repcode", "--d", "3", "--shots", "20", "--seed", "1", *extra,
                     "--out", str(out)])
        top = value if key == "p" else over
        if convention == "uniform_nonidentity" and top > pmax:
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert f"site rate {top / pmax:.10g} exceeds 1" in err
            assert f"p may be at most {pmax:.15g}" in err
        else:
            assert code == 0
            out.unlink()


@pytest.mark.parametrize(
    "args",
    [
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--seed", "1", "--shots", "0"],
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--seed", "1", "--shots", "-3"],
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--seed", "1", "--rounds", "-1"],
        ["xeb", "--qubits", "8", "--n", "1", "--seed", "1", "--circuits", "0"],
        ["xeb", "--qubits", "8", "--n", "1", "--layers", "2", "--mode", "sampled", "--seed", "1",
         "--shots", "0"],
        ["bv", "--s", "10", "--seed", "1", "--shots", "0"],
        ["manifold", "--field", "20", "--top-k", "0"],
        ["manifold", "--field", "20", "--kappa", "1.5"],
        ["compile", "--restarts", "0"],
        ["compile", "--layers-max", "0"],
        ["bv", "--seed", "1", "--s", "101"],  # the n2 layout packs qubit pairs
        ["bv", "--seed", "1", "--s", "12"],
        ["xeb", "--n", "2", "--circuits", "1", "--seed", "1", "--qubits", "9"],
        ["xeb", "--n", "2", "--circuits", "1", "--seed", "1", "--qubits", "6"],  # 3 ions
        ["xeb", "--n", "2", "--circuits", "1", "--seed", "1", "--qubits", "2"],  # 1 ion
        ["xeb", "--qubits", "4", "--seed", "1", "--n", "0"],
        ["xeb", "--qubits", "10", "--seed", "1", "--n", "5"],
        ["bv", "--s", "10", "--seed", "-1"],
        ["tables", "--tables", "V"],  # would audit no rows
        ["manifold", "--field-sweep", "1:2:0"],  # would sweep no fields
        ["manifold", "--top-k", "1", "--field", "0.0"],  # no transition is resolved at 0 G
        ["manifold", "--top-k", "1", "--field", "inf"],
        ["manifold", "--top-k", "1", "--field", "1e+30"],  # past the 1 T bound
        # both statistics start at 2^N - 1 = 15: no threshold at or above it is crossed
        ["xeb", "--qubits", "4", "--n", "1", "--circuits", "1", "--seed", "1", "--threshold",
         "inf"],
        ["xeb", "--qubits", "4", "--n", "1", "--circuits", "1", "--seed", "1", "--threshold",
         "15.0"],
        # counts past their upper bound, which a typo would otherwise run for hours
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--shots", "1", "--seed", "1",
         "--rounds", "100000000"],
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--seed", "1", "--rounds", "1001"],
        ["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--seed", "1", "--shots", "10000001"],
        ["repcode", "--d", "3", "--n", "1", "--seed", "1", "--p-grid", "1e-3:1e-1:1000"],
        ["xeb", "--qubits", "8", "--n", "1", "--seed", "1", "--circuits", "10001"],
        ["xeb", "--qubits", "8", "--n", "1", "--circuits", "1", "--seed", "1", "--layers", "1001"],
        ["xeb", "--qubits", "8", "--n", "1", "--layers", "2", "--mode", "sampled", "--seed", "1",
         "--shots", "1000001"],
        ["bv", "--s", "10", "--seed", "1", "--shots", "1000001"],
        ["manifold", "--top-k", "1", "--field-sweep", "1:2:1000"],
        ["compile", "--restarts", "1001"],
        ["compile", "--layers-max", "101"],
    ],
)
def test_out_of_range_counts_exit_2(tmp_path, args, capsys):
    if args[0] == "compile":
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps({"ions": [{"d": 2, "map": [0, 1], "allowed_r": None}] * 2}))
        target = tmp_path / "t.txt"
        target.write_text("".join(" ".join("1 0" if i == j else "0 0" for j in range(4)) + "\n"
                                  for i in range(4)))
        args = ["compile", "--target", str(target), "--register", str(reg), *args[1:]]
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{args[-2]} {args[-1]}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["1:inf:3", "1:1e30:3", "nan:2:3", "10001:2:3"])
def test_field_sweep_endpoints_are_bounded_like_field(tmp_path, sweep, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["manifold", "--field-sweep", sweep, "--n", "2", "--top-k", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"--field-sweep {sweep}: each endpoint must be" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_compile_tol_is_rejected(tmp_path, how):
    # --tol never reached the compiler, so it was dropped
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"ions": [{"d": 2, "map": [0, 1], "allowed_r": None}]}))
    target = tmp_path / "t.txt"
    target.write_text("1 0 0 0\n0 0 1 0\n")
    args = ["compile", "--target", str(target), "--register", str(reg)]
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 0
    out.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-30}))
    extra = ["--tol", "1e-30"] if how == "flag" else ["--config", str(cfg)]
    try:
        code = main([*args, *extra, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects an unknown flag this way
        code = exc.code
    assert code == 2
    assert not out.exists()


def test_explicit_zero_rounds_is_kept(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(["repcode", "--d", "3", "--n", "1", "--p", "0.01", "--rounds", "0",
                 "--shots", "7", "--seed", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == "0" and row[8] == "7"


@pytest.mark.parametrize(
    "args",
    [
        ["xeb", "--qubits", "24", "--n", "2", "--circuits", "1", "--seed", "1"],
        ["xeb", "--qubits", "30", "--n", "1", "--layers", "2", "--seed", "1"],
        ["bv", "--s", "1" * 22, "--layout", "n2", "--seed", "1"],
        ["bv", "--s", "1" * 23, "--layout", "n1", "--seed", "1"],
    ],
)
def test_statevector_cap_exits_2(tmp_path, args, capsys):
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 2
    assert not out.exists()
    assert "22-qubit statevector limit" in capsys.readouterr().err


# the repcode pins are recorded from the channel sampler that draws a Binomial
# hit count, that many distinct shots and a Pauli product per hit shot
REPCODE_GOLDEN = """\
L,n,d,rounds,p,p_L,ci_low,ci_high,shots,seed
4,2,5,5,0.01,0.0006,0.00034326663,0.001048546,20000,11
4,2,5,5,0.031622777,0.0066,0.0055686557,0.0078208524,20000,12
4,2,5,5,0.1,0.0675,0.064105299,0.071060818,20000,13
"""


def test_repcode_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(["repcode", "--d", "5", "--n", "2", "--rounds", "5", "--p-grid", "1e-2:1e-1:3",
                 "--shots", "20000", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == REPCODE_GOLDEN.encode()


# (argv, csv), recorded with the same sampler as REPCODE_GOLDEN
REPCODE_MORE_GOLDEN = [
    (["repcode", "--L", "7", "--n", "1", "--p-grid", "2e-2:2e-1:4", "--shots", "3000",
      "--seed", "21"], """\
L,n,d,rounds,p,p_L,ci_low,ci_high,shots,seed
7,1,5,5,0.02,0,0,0.0012788957,3000,21
7,1,5,5,0.043088694,0.0023333333,0.0011307177,0.0048088765,3000,22
7,1,5,5,0.092831777,0.014333333,0.010658652,0.019250249,3000,23
7,1,5,5,0.2,0.13266667,0.1209965,0.1452764,3000,24
"""),
    (["repcode", "--d", "5", "--n", "2", "--rounds", "4", "--pauli-convention", "quarter_rate",
      "--p-grid", "5e-2:5e-1:3", "--shots", "2001", "--seed", "9"], """\
L,n,d,rounds,p,p_L,ci_low,ci_high,shots,seed
4,2,5,4,0.05,0,0,0.0019161614,2001,9
4,2,5,4,0.15811388,0.0094952524,0.0060871436,0.014783134,2001,10
4,2,5,4,0.5,0.090954523,0.079126976,0.10434966,2001,11
"""),
]


@pytest.mark.parametrize("args, golden", REPCODE_MORE_GOLDEN)
def test_repcode_more_output_bytes_are_pinned(tmp_path, args, golden):
    out = tmp_path / "rep.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == golden.encode()


@pytest.mark.parametrize("points", [1, 2, 5])
def test_repcode_grid_rows_equal_serial_points(tmp_path, points):
    from ionvq import qec

    out = tmp_path / "rep.csv"
    assert main(["repcode", "--d", "7", "--n", "2", "--rounds", "3", "--p-grid",
                 f"1e-2:3e-1:{points}", "--shots", "777", "--seed", "40", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == points
    for k, row in enumerate(rows):
        r = qec.sample_logical_error(7, 2, float(row[4]) / 14.0, 3, 777, 40 + k)
        assert row[5:] == [f"{r.p_logical:.8g}", f"{r.ci_low:.8g}", f"{r.ci_high:.8g}",
                           str(r.shots), str(r.seed)]


@pytest.mark.parametrize("exc, code", [(RuntimeError, 3), (ResourceLimitError, 2)])
def test_repcode_worker_error_reaches_main(tmp_path, monkeypatch, capsys, exc, code):
    from ionvq import qec

    real = qec.sample_logical_error

    def failing(d, n, eps1, rounds, shots, seed, *args, **kwargs):
        if seed == 3:  # the grid's second point
            raise exc("point 2 failed")
        return real(d, n, eps1, rounds, shots, seed, *args, **kwargs)

    monkeypatch.setattr(qec, "sample_logical_error", failing)
    out = tmp_path / "rep.csv"
    assert main(["repcode", "--d", "3", "--n", "1", "--p-grid", "1e-2:1e-1:3", "--shots", "50",
                 "--seed", "2", "--out", str(out)]) == code
    assert "point 2 failed" in capsys.readouterr().err
    assert not out.exists()


# recorded from the per-circuit stepper that the batched one replaced:
# (argv, sha256 of the csv, the json summary)
XEB_GOLDEN = [
    (["xeb", "--qubits", "8", "--n", "2", "--circuits", "40", "--seed", "7"],
     "05db864b91bc407a736e0d369fe6668c2d7ce858046b0b481987119797535651",
     {"circuits": 40, "mean_gates": 68.1, "statistic": "xeb", "stderr": 2.1649302706838105,
      "threshold": 2.0}),
    (["xeb", "--qubits", "8", "--n", "1", "--arch", "longrange", "--statistic", "moment",
      "--circuits", "20", "--seed", "3"],
     "5dc77fef700f5016b0cec93f97441502f079c0b360c439c380fb89cd22222b1b",
     {"circuits": 20, "mean_gates": 34.2, "statistic": "moment", "stderr": 3.011032346135406,
      "threshold": 4.0}),
    # recorded from the scalar per-brick draws that the raw-word decoder replaced
    (["xeb", "--qubits", "12", "--n", "3", "--circuits", "16", "--seed", "5"],
     "ba6041b8ad33267a637d83349e72b0d20c8778d68050c04fa5f0b3fdd4679297",
     {"circuits": 16, "mean_gates": 255.0, "statistic": "xeb", "stderr": 9.889388252060893,
      "threshold": 2.0}),
    (["xeb", "--qubits", "8", "--n", "2", "--policy", "minimal", "--circuits", "20", "--seed", "5"],
     "adf67c00258896590c8bc44312802a18783869243ccef0a11f3b69ba9b9e0741",
     {"circuits": 20, "mean_gates": 106.8, "statistic": "xeb", "stderr": 6.8493564814897985,
      "threshold": 2.0}),
    # fixed depth: per-circuit gate lists that the ensemble stepper replaced, XEB estimated
    # from 200 shots drawn by the streamed inverse CDF
    (["xeb", "--qubits", "8", "--n", "2", "--layers", "4", "--mode", "sampled", "--shots", "200",
      "--circuits", "2", "--seed", "5"],
     "20f9914d0314e87959fbe622b5d2d16ebd98546bf0dd37eab755a5e90443f56b",
     {"circuits": 2, "layers": 4, "mean_statistic": 3.939257031472589, "mode": "sampled",
      "stderr": 1.6099277617140235}),
]


@pytest.mark.parametrize("argv,csv_sha256,summary", XEB_GOLDEN)
def test_xeb_output_bytes_are_pinned(tmp_path, argv, csv_sha256, summary):
    csv_out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == csv_sha256
    assert json_out.read_text() == json.dumps(summary, indent=1, sort_keys=True) + "\n"


# n = 4 (and n = 3 longrange) ``minimal`` circuits mix slowly inside an ion: these ran past
# a 400-step cap or a 50-step "stopped decreasing" check, which made them exit 3
SLOW_MIXING = [
    ["xeb", "--config", "configs/smoke_xeb.json", "--n", "4", "--policy", "minimal"],
    ["xeb", "--qubits", "12", "--n", "3", "--policy", "minimal", "--arch", "longrange",
     "--circuits", "20", "--seed", "1"],
    ["xeb", "--qubits", "16", "--n", "4", "--policy", "minimal", "--circuits", "4", "--seed", "1"],
]


@pytest.mark.parametrize("argv", SLOW_MIXING)
def test_slow_mixing_ensembles_cross(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = tmp_path / "x.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mean_gates"] > 0


# the json prints every bit of each cost, and BLAS rounds a row of onehot @ ct
# according to the rows scored with it, so these hold only for the search's
# _CHUNK_ROWS slices and where BLAS runs the kernels they were recorded with
# (OpenBLAS 0.3.31 running its SkylakeX kernels, on a 2-CPU AVX-512 Xeon)
MANIFOLD_GOLDEN = [
    (["manifold", "--field", "20", "--n", "2", "--top-k", "10", "--format", "json"],
     "aa2da2201b7bce76d7074bd18fcd7a94a7cfe4228320e3f1c9514e2b4d58932e"),
    (["manifold", "--field-sweep", "1:70:8", "--n", "2", "--top-k", "10"],
     "91cea00528d3de351ee8f5f18c7cfad06732aaf5516c0ec82bb16d6cf0048679"),
    (["manifold", "--field", "20", "--n", "3", "--top-k", "5", "--format", "json"],
     "2d92aff1b105c4e38ce367538df0dc4af2a51a328611c8b5c42c3237fad62a06"),
    # all 968 connected candidates, scored in one slice
    (["manifold", "--field", "42.1", "--n", "2", "--top-k", "1000", "--format", "json"],
     "ff0b8b8c5114248e9d7d379cc628b99f6395e603691120c9ae72cfad4007c5ca"),
]


@pytest.mark.parametrize("argv,sha256", MANIFOLD_GOLDEN)
def test_manifold_output_bytes_are_pinned(tmp_path, argv, sha256):
    out = tmp_path / "m.out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize(
    "key,value,layers",
    [
        ("arch", "longrange", "2"),  # fixed depth
        ("statistic", "moment", "2"),
        ("threshold", 3, "2"),
        ("mode", "sampled", None),  # gates to threshold
        ("shots", 50, None),
        ("p", 0.5, None),  # repcode with --p-grid
        ("field", 30, None),  # manifold with --field-sweep
    ],
)
def test_xeb_rejects_flags_its_mode_never_reads(tmp_path, capsys, key, value, layers, how):
    args = {
        "p": ["repcode", "--d", "3", "--n", "1", "--p-grid", "1e-2:1e-1:2", "--shots", "20",
              "--seed", "1"],
        "field": ["manifold", "--n", "2", "--field-sweep", "5:10:2"],
    }.get(key, ["xeb", "--qubits", "4", "--n", "1", "--circuits", "2", "--seed", "1"])
    args += ["--layers", layers] if layers else []
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == 0
    out.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    extra = [f"--{key}", str(value)] if how == "flag" else ["--config", str(cfg)]
    assert main([*args, *extra, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"--{key} " in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("layers_max", 2), ("restarts", 3)])
def test_compile_on_one_ion_rejects_variational_flags(tmp_path, capsys, key, value, how):
    # a one-ion target is synthesized exactly, which has no layers or restarts;
    # --seed stays accepted, as the smoke config passes it with a one-ion register
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    args = ["compile", "--target", os.path.join(root, "smoke_target.txt"),
            "--register", os.path.join(root, "smoke_register.json"), "--seed", "0"]
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 0
    out.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    extra = [flag, str(value)] if how == "flag" else ["--config", str(cfg)]
    assert main([*args, *extra, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{flag} {value}: not read with a one-ion register" in capsys.readouterr().err


def test_manifold_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["manifold", "--field-sweep", "5:60:2", "--n", "2",
                 "--top-k", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("field_G,median_cost,min_cost,max_cost")
    assert len(lines) == 3


def test_manifold_sweep_from_zero_keeps_its_empty_point(tmp_path, capsys):
    # the sweep clamps 0 G to 0.01 G, where no manifold is connected: that row
    # reads NaN with no candidates, and the same field alone is refused
    out = tmp_path / "sweep.csv"
    assert main(["manifold", "--field-sweep", "0:70:4", "--n", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[-1]) for r in rows[:1]] == [("0.01", "nan", "0")]
    assert all(int(r[-1]) == 10 for r in rows[1:]) and len(rows) == 4
    assert main(["manifold", "--field", "0.01", "--n", "2", "--out", str(out)]) == 2
    assert "--field 0.01: must be high enough" in capsys.readouterr().err


def test_config_error_exit_codes(tmp_path):
    assert main(["bv", "--seed", "1"]) == 2  # missing --s
    assert main(["repcode", "--n", "1", "--seed", "1"]) == 2  # no L or d
    bad = tmp_path / "cfg.json"
    bad.write_text('{"bogus_key": 1}')
    assert main(["bv", "--config", str(bad), "--seed", "1", "--s", "10"]) == 2
    bad.write_text('{"shots": "many"}')
    assert main(["bv", "--config", str(bad), "--seed", "1", "--s", "10"]) == 2
    # an integral float for an integer key runs as the flag would
    cfg, flag_out, cfg_out = tmp_path / "f.json", tmp_path / "flag.json", tmp_path / "cfg.json"
    cfg.write_text('{"s": "10", "seed": 1, "shots": 64.0}')
    assert main(["bv", "--s", "10", "--seed", "1", "--shots", "64", "--out", str(flag_out)]) == 0
    assert main(["bv", "--config", str(cfg), "--out", str(cfg_out)]) == 0
    assert cfg_out.read_bytes() == flag_out.read_bytes()


def test_manifold_config_rejects_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": 2}')
    assert main(["manifold", "--config", str(cfg), "--field", "20"]) == 2


def test_config_fills_missing_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": "1100", "seed": 9, "shots": 64}))
    out = tmp_path / "o.json"
    assert main(["bv", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["success"] and data["s"] == "1100"


def test_runtime_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    assert main(["bv", "--s", "10", "--seed", "1", "--out", str(blocker / "out.json")]) == 3
    assert "File exists" in capsys.readouterr().err
    assert blocker.read_text() == "kept" and os.listdir(tmp_path) == ["file"]
    # unreadable register file for compile
    assert main(["compile", "--target", "/nonexistent", "--register", "/nonexistent"]) == 2


# sha256 of the tables audit, recorded before its matrices were shared
# between conventions, with OpenBLAS 0.3.31 running its SkylakeX kernels:
# (argv, sha256)
TABLES_GOLDEN = [
    (["tables"], "8df9a9859a08c8196e27ebac016cb9a283fe958e07f330047883bc0913c868a8"),
    (["tables", "--tables", "II,IV"],
     "25ba759feac39204061f7594f9ac2d25ac5334646ee4c61349493cee5b9abf8c"),
]


@pytest.mark.parametrize("argv,sha256", TABLES_GOLDEN)
def test_tables_output_bytes_are_pinned(tmp_path, argv, sha256):
    out = tmp_path / "audit.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


TWO_ION = {"ions": [{"d": 4}, {"d": 2}]}
FIG1_ION = {"ions": [{"d": 4, "allowed_r": [[0, 1], [0, 2], [2, 3]]}]}

# sha256 of the compiled circuit, recorded with OpenBLAS 0.3.31 running its SkylakeX kernels
# before the variational probes were stacked: (target, generator seed, argv, sha256). A
# "layersN" target is N layers of the CLI's d=4 + d=2 template at default_rng(seed) angles; the
# 1-layer runs take the benchmark's budget, the 2-layer one exhausts it at one layer first.
# "haar" is a Haar unitary of one d=4 ion on a tree graph, synthesized exactly.  Targets are
# written to 12 digits, dropping the last bits that depend on the BLAS kernel and SIMD level,
# so a pin that moves under another setting shows the compiler's own dependence.
COMPILE_GOLDEN = [
    ("layers1", 5, ["--layers-max", "1", "--restarts", "8", "--seed", "1005"],
     "0350cf527d4b384cdb0568553e9ba04ac2aae68741a9a000375c37c0a3e226ea"),
    ("layers1", 7, ["--layers-max", "1", "--restarts", "8", "--seed", "1007"],
     "c4bdb519d455dc82dad3f0ac78e1f988ef2c57124186dfabb17eb695a97dbe23"),
    ("layers2", 16, ["--seed", "16"],
     "9e22ccf1168c6f3f72ce8f4ac7af2bd872da90800311e20b1c2e88f23a077b04"),
    ("haar", 10, ["--seed", "0"],
     "e7a2e3a0c1df561bd27a4596efbb561d93fc69f0468ff6208fbff9d212bfe3a4"),
]


@pytest.mark.parametrize("kind,seed,argv,sha256", COMPILE_GOLDEN,
                         ids=[f"{kind}_seed{seed}" for kind, seed, *_ in COMPILE_GOLDEN])
def test_compile_output_bytes_are_pinned(tmp_path, kind, seed, argv, sha256):
    from ionvq.cli import _default_template
    from ionvq.core import Register, sequence_matrix

    rng = np.random.default_rng(seed)
    if kind == "haar":
        cfg = FIG1_ION
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        U = q * (np.diag(r) / np.abs(np.diag(r)))
    else:
        cfg, layers = TWO_ION, int(kind[-1])
        reg = Register.from_config(cfg)
        tmpl = _default_template(reg)
        x = rng.uniform(0.0, 2 * math.pi, tmpl.n_params * layers)
        U = sequence_matrix(tmpl.gates(x, layers), reg)
    regfile, tfile, out = tmp_path / "reg.json", tmp_path / "t.txt", tmp_path / "circ.txt"
    regfile.write_text(json.dumps(cfg))
    tfile.write_text("".join(" ".join(f"{z.real:.12g} {z.imag:.12g}" for z in row) + "\n"
                             for row in U))
    assert main(["compile", "--target", str(tfile), "--register", str(regfile), *argv,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_tables_json(tmp_path):
    out = tmp_path / "audit.json"
    assert main(["tables", "--tables", "II", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["rows"] == 4
    assert len(data["entries"]) == 4
    for e in data["entries"]:
        assert set(e) >= {"table", "row", "statuses", "passed", "best_distance"}


def test_data_dir_ignores_the_environment(tmp_path, monkeypatch):
    # a directory of level files once relocated the schema too, so every
    # subcommand died on a missing config_schema.json
    from ionvq.atomic import data_dir

    (tmp_path / "ba137_d52.json").write_text((data_dir() / "ba137_d52.json").read_text())
    monkeypatch.setenv("IONVQ_DATA_DIR", str(tmp_path))
    assert main(["bv", "--s", "10", "--seed", "2", "--out", str(tmp_path / "bv.json")]) == 0


def test_compile_round_trip(tmp_path):
    from ionvq.core import IonSpec, build_register, parse_circuit, sequence_matrix, load_register
    from ionvq.compiler import distance
    from scipy.stats import unitary_group

    reg = build_register([IonSpec(4)])
    regfile = tmp_path / "reg.json"
    regfile.write_text(json.dumps(reg.to_config()))
    U = unitary_group.rvs(4, random_state=np.random.default_rng(3))
    tfile = tmp_path / "target.txt"
    tfile.write_text(
        "\n".join(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in U)
    )
    out = tmp_path / "circ.txt"
    assert main(["compile", "--target", str(tfile), "--register", str(regfile),
                 "--out", str(out)]) == 0
    circ = parse_circuit(out.read_text(), load_register(regfile))
    assert distance(U, sequence_matrix(circ.gates, reg)) <= 1e-9


@pytest.mark.parametrize("register", [
    {"ions": 5},
    [],
    {"ions": [{"d": 4, "map": 3}]},
    {"ions": [{"d": 4, "allowed_r": [[0]]}]},
    # integers only: nothing is rounded, parsed or read as a bool
    {"ions": [{"d": 4.5}]},
    {"ions": [{"d": "4"}]},
    {"ions": [{"d": True}]},
    {"ions": [{"d": 4.0}]},
    {"ions": [{"d": 4, "map": [0, 1, 2.0, 3]}]},
    {"ions": [{"d": 4, "map": [0, True, 2, 3]}]},
    {"ions": [{"d": 4, "allowed_r": [[0, 1.5], [1, 2]]}]},
    {"ions": [{"d": 4, "allowed_r": [[0, 1], [False, 2]]}]},
    # well-formed, but levels 2 and 3 cannot be reached from level 0
    {"ions": [{"d": 4, "allowed_r": [[0, 1]]}]},
])
def test_malformed_register_file_exits_2(tmp_path, capsys, register):
    reg, target, out = tmp_path / "reg.json", tmp_path / "t.txt", tmp_path / "out.txt"
    reg.write_text(json.dumps(register))
    # a 4x4 identity, which compiles on a well-formed d=4 ion
    target.write_text("".join(" ".join("1 0" if i == j else "0 0" for j in range(4)) + "\n"
                              for i in range(4)))
    assert main(["compile", "--target", str(target), "--register", str(reg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(reg) in err
    assert not out.exists()


@pytest.mark.parametrize("pulses,code", [
    ([(0, 0, 1, 0.7, 0.3), (0, 1, 2, 1.1, 0.2), (1, 0, 1, 0.4, 0.9)], 0),
    ([(0, 0, 3, 0.7, 0.3)], 3),
])
def test_compile_drives_only_the_pairs_each_ion_allows(tmp_path, pulses, code):
    # ion 0 of a d=4 + d=2 register may drive (0,1), (1,2) and (2,3) only, so the
    # template has no (0,3) slot: a target that needs one fails to converge
    # rather than compile to a forbidden pulse
    from ionvq.core import R, load_register, sequence_matrix

    regfile, tfile, out = tmp_path / "reg.json", tmp_path / "t.txt", tmp_path / "circ.txt"
    regfile.write_text(json.dumps({"ions": [{"d": 4, "allowed_r": [[0, 1], [1, 2], [2, 3]]},
                                            {"d": 2}]}))
    U = sequence_matrix([R(*p) for p in pulses], load_register(regfile))
    tfile.write_text("\n".join(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)
                               for row in U))
    assert main(["compile", "--target", str(tfile), "--register", str(regfile),
                 "--layers-max", "2", "--restarts", "1", "--out", str(out)]) == code
    if code:
        assert not out.exists()
    else:
        lines = [line.split() for line in out.read_text().splitlines() if line.startswith("R ")]
        assert lines and all(ion == "1" or (a, b) in {("0", "1"), ("1", "2"), ("2", "3")}
                             for _, ion, a, b, *_ in lines)


@pytest.mark.parametrize("level", [[], {"I": [1]}, {"I": 0.7}])
def test_malformed_level_file_exits_2(tmp_path, capsys, level):
    from ionvq.atomic import data_dir

    if isinstance(level, dict):
        level = {**json.loads((data_dir() / "ba137_d52.json").read_text()), **level}
    path = tmp_path / "level.json"
    path.write_text(json.dumps(level))
    assert main(["manifold", "--level", str(path), "--field", "20"]) == 2
    assert "config error" in capsys.readouterr().err


def test_compile_rejects_nonunitary(tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"ions": [{"d": 2, "map": [0, 1], "allowed_r": None}]}))
    t = tmp_path / "t.txt"
    t.write_text("1 0 0 0\n0 0 0 0\n")
    assert main(["compile", "--target", str(t), "--register", str(reg)]) == 2


def test_entry_point_runs():
    proc = run_cli(["bv", "--s", "10", "--seed", "2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["success"]


def test_config_schema_is_valid_jsonschema(tmp_path):
    import jsonschema
    from ionvq.atomic import data_dir

    schema = json.loads((data_dir() / "config_schema.json").read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    # a valid config passes, a type violation is a config error (exit 2)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"s": "10", "seed": 4, "shots": 32}))
    assert main(["bv", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s": "10", "seed": 4, "layout": "n7"}))
    assert main(["bv", "--config", str(bad)]) == 2


def test_xeb_fixed_depth_mode(tmp_path):
    out = tmp_path / "vals.csv"
    assert main(["xeb", "--qubits", "8", "--n", "1", "--layers", "0", "--circuits", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and rows[1].split(",")[4] == "255"
    assert main(["xeb", "--qubits", "8", "--n", "1", "--layers", "4", "--circuits", "2",
                 "--mode", "sampled", "--shots", "200", "--seed", "3"]) == 0


def test_every_subcommand_exits_zero_on_bundled_smoke_config(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    cases = [
        ("xeb", "smoke_xeb.json"),
        ("bv", "smoke_bv.json"),
        ("repcode", "smoke_repcode.json"),
        ("manifold", "smoke_manifold.json"),
        ("tables", "smoke_tables.json"),
        ("compile", "smoke_compile.json"),
    ]
    cwd = os.getcwd()
    try:
        os.chdir(root)  # compile smoke config carries repo-relative paths
        for cmd, cfg in cases:
            out = tmp_path / f"{cmd}.out"
            rc = main([cmd, "--config", str(root / "configs" / cfg), "--out", str(out)])
            assert rc == 0, (cmd, cfg)
            assert out.stat().st_size > 0
    finally:
        os.chdir(cwd)
