"""The scripts/ drivers print the rows the CLI gives for the same arguments."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ionvq.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, argv, capsys, monkeypatch):
    """Exit code and stdout of scripts/<name>.py run on ``argv``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    code = module.main()
    return code, capsys.readouterr().out


def _cli(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("qubits,encodings,policy,circuits,seed", [
    ("8,12", "1,2", "all_to_all", 3, 5),
    # one of 20 n = 4 minimal circuits crosses past 400 layers
    ("8", "4", "minimal", 20, 7),
])
def test_xeb_scaling_rows_equal_cli_rows(qubits, encodings, policy, circuits, seed, capsys,
                                         monkeypatch):
    code, out = _run_script("run_xeb_scaling", [
        "--qubits", qubits, "--encodings", encodings, "--policies", policy,
        "--circuits", str(circuits), "--seed", str(seed)], capsys, monkeypatch)
    assert code == 0
    expect = ["N,n,policy,mean_gates,stderr,circuits,threshold,seed"]
    for n in encodings.split(","):
        for N in qubits.split(","):
            res = json.loads(_cli(["xeb", "--qubits", N, "--n", n, "--policy", policy,
                                   "--circuits", str(circuits), "--seed", str(seed),
                                   "--format", "json"], capsys))
            expect.append(f"{N},{n},{policy},{res['mean_gates']:.2f},{res['stderr']:.2f},"
                          f"{circuits},{res['threshold']},{seed}")
    assert out.splitlines() == expect


def test_repcode_curves_rows_equal_cli_rows(capsys, monkeypatch):
    code, out = _run_script("run_repcode_curves", [
        "--lengths", "5", "--points", "2", "--shots", "1000", "--seed", "4"], capsys, monkeypatch)
    assert code == 0
    rows = [_cli(["repcode", "--L", "5", "--n", n, "--p-grid", "0.001:0.1:2", "--shots", "1000",
                  "--seed", "4"], capsys).splitlines() for n in ("1", "2")]
    assert rows[0][0] == rows[1][0]  # one header over both encodings' rows
    assert out.splitlines() == rows[0] + rows[1][1:]
