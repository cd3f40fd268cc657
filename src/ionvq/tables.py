"""Machine-readable intra/inter-ion decomposition tables and their audit.

Each row carries the published pulse sequence for a standard-gate target.
``run_table_suite`` re-verifies every row under all four convention
combinations (two composition orders x two qubit orders) and, for rows that
fail under all of them, attaches an independently synthesized alternative of
equal or shorter length.  Statuses derive solely from the phase-invariant
reconstruction distance.  At each parameter point the four conventions share
one target, one embedding per qubit order and one set of native gate matrices.

Angles are stored as (pi_coeff, symbol, symbol_coeff) triples:
angle = pi_coeff * pi + symbol_coeff * value(symbol).  Rows whose printed
source is garbled carry a ``note`` recording the original text and the
reading encoded here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (MS, IonSpec, R, build_register, embed_standard, format_gate, gate_matrix,
                   m1_map, m2_map)
from .compiler import (
    LEFT_FIRST,
    LEFT_LAST,
    RSlot,
    Template,
    VariationalBudget,
    distance,
    sequence_matrix,
    synthesize_exact,
    synthesize_variational,
)
from . import standard

PASS_TOL = 1e-9

FIG1_EDGES = frozenset({(0, 1), (0, 2), (2, 3)})

_REGISTRY = {
    "n2_m1": lambda qo: build_register([IonSpec(4, m1_map())], qo),
    "n2_m2": lambda qo: build_register([IonSpec(4, m2_map())], qo),
    "n2_m1+n1": lambda qo: build_register([IonSpec(4, m1_map()), IonSpec(2)], qo),
    "n2_m1+n2_m1": lambda qo: build_register([IonSpec(4, m1_map()), IonSpec(4, m1_map())], qo),
}


def _angle(spec, params) -> float:
    c, sym, k = spec
    return c * math.pi + (k * params[sym] if sym else 0.0)


def _gates(row_seq, params):
    out = []
    for g in row_seq:
        if g[0] == "R":
            _, ion, a, b, th, ph = g
            out.append(R(ion, a, b, _angle(th, params), _angle(ph, params)))
        else:
            _, i, j, pi_, pj_, J = g
            out.append(MS(i, j, tuple(pi_), tuple(pj_), _angle(J, params)))
    return out


def _target_matrix(spec, params) -> np.ndarray:
    kind = spec[0]
    if kind == "pauli":
        return standard.pauli_string(spec[1])
    if kind == "prot":
        _, s, angle, sign = spec
        return standard.pauli_rotation(s, sign * _angle(angle, params))
    if kind == "sumrot":
        _, strings, angle = spec
        return standard.pauli_sum_rotation(strings, _angle(angle, params))
    if kind == "h":
        return standard.hadamard_on(spec[2], spec[1])
    if kind == "cnot":
        return standard.cnot_on(spec[3], spec[1], spec[2])
    if kind == "matprod":
        out = None
        for sub in spec[1]:
            m = _target_matrix(sub, params)
            out = m if out is None else out @ m
        return out
    if kind == "hconj":
        h = standard.hadamard_on(spec[3], spec[2])
        return h @ _target_matrix(spec[1], params) @ h
    raise ValueError(f"unknown target spec {spec!r}")


# angle shorthands
def _a(c, sym=None, k=0):
    return (c, sym, k)


PI = _a(1)
HALF = _a(0.5)
NHALF = _a(-0.5)
ZERO = _a(0)

# fmt: off
TABLE_ROWS = [
  # ------------------------------------------------------------- Table I
  dict(table="I", row="1", desc="X (x) I", register="n2_m1", connectivity="all",
       target=("pauli", "XI"), params={},
       seq=[("R",0,2,3,HALF,NHALF), ("R",0,0,1,HALF,NHALF)],
       alt=("pauli_rot", "XI", 0.5)),
  dict(table="I", row="2", desc="I (x) X", register="n2_m1", connectivity="all",
       target=("pauli", "IX"), params={},
       seq=[("R",0,1,2,HALF,NHALF), ("R",0,0,3,HALF,NHALF)],
       alt=("pauli_rot", "IX", 0.5)),
  dict(table="I", row="3", desc="H (x) I", register="n2_m1", connectivity="all",
       target=("h", 0, 2), params={},
       seq=[("R",0,2,3,_a(1.25),HALF), ("R",0,1,2,_a(1.25),HALF), ("R",0,0,3,PI,ZERO)],
       alt=("template", [(0,1),(0,2),(1,3)],
            [math.pi, 0.0, math.pi/4, math.pi/2, 7*math.pi/4, 3*math.pi/2])),
  dict(table="I", row="4", desc="I (x) H", register="n2_m1", connectivity="all",
       target=("h", 1, 2), params={},
       seq=[("R",0,1,2,_a(1.25),HALF), ("R",0,0,3,_a(1.25),HALF), ("R",0,0,1,PI,ZERO)],
       alt=("template", [(0,1),(0,2),(2,3)],
            [7*math.pi/4, math.pi/2, math.pi, 0.0, 7*math.pi/4, 3*math.pi/2])),
  dict(table="I", row="5", desc="exp(-i th X(x)I)", register="n2_m1", connectivity="all",
       target=("prot", "XI", _a(0,"theta",1), 1), params={"theta": [0.613, 2.217]},
       seq=[("R",0,2,3,_a(0,"theta",1),ZERO), ("R",0,0,1,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "XI", "theta")),
  dict(table="I", row="6", desc="exp(-i th I(x)X)", register="n2_m1", connectivity="all",
       target=("prot", "IX", _a(0,"theta",1), 1), params={"theta": [0.613, 2.217]},
       seq=[("R",0,1,2,_a(0,"theta",1),ZERO), ("R",0,0,3,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "IX", "theta")),
  dict(table="I", row="7", desc="exp(-i th Y(x)I)", register="n2_m1", connectivity="all",
       target=("prot", "YI", _a(0,"theta",1), 1), params={"theta": [0.613, 2.217]},
       seq=[("R",0,2,3,_a(0,"theta",1),HALF), ("R",0,0,1,_a(0,"theta",1),HALF)],
       alt=("pauli_rot", "YI", "theta")),
  dict(table="I", row="8", desc="exp(-i th I(x)Y)", register="n2_m1", connectivity="all",
       target=("prot", "IY", _a(0,"theta",1), 1), params={"theta": [0.613, 2.217]},
       seq=[("R",0,1,2,_a(0,"theta",1),HALF), ("R",0,0,3,_a(0,"theta",1),HALF)],
       alt=("pauli_rot", "IY", "theta")),
  dict(table="I", row="9", desc="exp(+i h Z(x)I)", register="n2_m1", connectivity="all",
       target=("prot", "ZI", _a(0,"h",1), -1), params={"h": [0.557, 1.9]},
       seq=[("R",0,0,1,HALF,_a(0.5,"h",-1)), ("R",0,0,1,HALF,NHALF),
            ("R",0,2,3,HALF,_a(0.5,"h",-1)), ("R",0,2,3,HALF,NHALF)],
       alt=("exact",)),
  dict(table="I", row="10", desc="exp(+i h I(x)Z)", register="n2_m1", connectivity="all",
       target=("prot", "IZ", _a(0,"h",1), -1), params={"h": [0.557, 1.9]},
       seq=[("R",0,0,1,HALF,_a(0.5,"h",-1)), ("R",0,0,1,HALF,NHALF),
            ("R",0,2,3,NHALF,_a(0.5,"h",1)), ("R",0,2,3,HALF,HALF)],
       alt=("exact",)),
  dict(table="I", row="11a", desc="CNOT (6 pulses)", register="n2_m1", connectivity="all",
       target=("cnot", 0, 1, 2), params={},
       seq=[("R",0,2,3,HALF,_a(1.25)), ("R",0,0,2,HALF,PI), ("R",0,0,1,HALF,_a(1.5)),
            ("R",0,0,2,HALF,_a(0.25)), ("R",0,2,3,HALF,HALF), ("R",0,0,2,HALF,_a(0.25))],
       alt=("template", [(2,3),(1,2),(0,3),(1,2),(0,3)],
            [3*math.pi/2, math.pi, -math.pi/2, 0.0, 3*math.pi/2, 3*math.pi/4,
             3*math.pi/2, 5*math.pi/4, 3*math.pi/2, 0.0])),
  dict(table="I", row="11b", desc="CNOT (5 pulses)", register="n2_m1", connectivity="all",
       target=("cnot", 0, 1, 2), params={},
       seq=[("R",0,0,3,_a(1.5),ZERO), ("R",0,1,2,_a(1.5),_a(1.25)), ("R",0,0,3,_a(1.5),_a(0.75)),
            ("R",0,1,2,NHALF,ZERO), ("R",0,2,3,_a(1.5),PI)],
       alt=None),
  dict(table="I", row="12", desc="exp(-i J Z(x)Z)", register="n2_m1", connectivity="all",
       target=("prot", "ZZ", _a(0,"J",1), 1), params={"J": [0.700, 1.3]},
       seq=[("R",0,0,2,HALF,_a(0,"J",2)), ("R",0,0,2,NHALF,ZERO),
            ("R",0,0,1,HALF,_a(0.5,"J",-1)), ("R",0,0,1,HALF,NHALF),
            ("R",0,2,3,NHALF,_a(-0.5,"J",1)), ("R",0,2,3,HALF,HALF)],
       alt=("exact",)),
  dict(table="I", row="13", desc="exp(-i J X(x)X)", register="n2_m1", connectivity="all",
       target=("prot", "XX", _a(0,"J",1), 1), params={"J": [0.700, 1.3]},
       seq=[("R",0,0,2,_a(0,"J",1),ZERO), ("R",0,1,3,_a(0,"J",1),ZERO)],
       alt=("pauli_rot", "XX", "J")),

  # ------------------------------------------------------------- Table II
  dict(table="II", row="1", desc="M1: exp(-i th X(x)I), limited", register="n2_m1",
       connectivity="fig1", target=("prot", "XI", _a(0,"theta",1), 1),
       params={"theta": [0.613, 2.217]},
       seq=[("R",0,0,1,NHALF,NHALF), ("R",0,0,2,NHALF,PI), ("R",0,2,3,_a(0,"theta",1),ZERO),
            ("R",0,0,1,_a(0,"theta",1),ZERO), ("R",0,0,2,HALF,HALF), ("R",0,0,1,HALF,HALF)],
       companion=[("R",0,1,2,_a(0,"theta",1),ZERO), ("R",0,0,3,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "XI", "theta")),
  dict(table="II", row="2", desc="M1: exp(-i th I(x)X), limited", register="n2_m1",
       connectivity="fig1", target=("prot", "IX", _a(0,"theta",1), 1),
       params={"theta": [0.613, 2.217]},
       seq=[("R",0,2,3,_a(0,"theta",1),ZERO), ("R",0,0,1,_a(0,"theta",1),ZERO)],
       companion=[("R",0,2,3,_a(0,"theta",1),ZERO), ("R",0,0,1,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "IX", "theta")),
  dict(table="II", row="3", desc="M2: exp(-i th X(x)I), limited", register="n2_m2",
       connectivity="fig1", target=("prot", "XI", _a(0,"theta",1), 1),
       params={"theta": [0.613, 2.217]},
       seq=[("R",0,0,2,NHALF,NHALF), ("R",0,0,1,_a(0,"theta",1),ZERO),
            ("R",0,2,3,_a(0,"theta",1),PI), ("R",0,0,2,HALF,NHALF)],
       companion=[("R",0,2,3,_a(0,"theta",1),ZERO), ("R",0,0,1,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "XI", "theta")),
  dict(table="II", row="4", desc="M2: exp(-i th I(x)X), limited", register="n2_m2",
       connectivity="fig1", target=("prot", "IX", _a(0,"theta",1), 1),
       params={"theta": [0.613, 2.217]},
       seq=[("R",0,2,3,HALF,HALF), ("R",0,0,2,NHALF,NHALF), ("R",0,0,1,_a(0,"theta",1),ZERO),
            ("R",0,0,2,HALF,NHALF), ("R",0,2,3,HALF,NHALF), ("R",0,0,2,_a(0,"theta",1),ZERO)],
       companion=[("R",0,1,3,_a(0,"theta",1),ZERO), ("R",0,0,2,_a(0,"theta",1),ZERO)],
       alt=("pauli_rot", "IX", "theta")),

  # ------------------------------------------------------------- Table III
  dict(table="III", row="1", desc="CNOT (ion1 q1 -> ion2)", register="n2_m1+n1",
       connectivity="all", target=("cnot", 0, 2, 3), params={},
       seq=[("R",0,2,3,HALF,ZERO), ("MS",0,1,(2,3),(0,1),NHALF)], alt=None),
  dict(table="III", row="2", desc="CNOT (ion1 q2 -> ion2)", register="n2_m1+n1",
       connectivity="all", target=("cnot", 1, 2, 3), params={},
       seq=[("R",0,1,3,HALF,ZERO), ("MS",0,1,(1,3),(0,1),NHALF)], alt=None),
  dict(table="III", row="3", desc="CNOT(q2->aux) CNOT(q1->aux)", register="n2_m1+n1",
       connectivity="all",
       target=("matprod", [("cnot", 1, 2, 3), ("cnot", 0, 2, 3)]), params={},
       seq=[("R",0,1,2,HALF,ZERO), ("MS",0,1,(1,2),(0,1),NHALF)], alt=None),
  dict(table="III", row="4a", desc="(IxH) CNOT(aux -> ion1 q1) (IxH)", register="n2_m1+n1",
       connectivity="all",
       target=("hconj", ("cnot", 2, 0, 3), 2, 3), params={},
       seq=[("R",0,0,1,_a(1.5),PI), ("R",0,0,3,_a(1.75),PI), ("R",0,1,2,_a(1.25),ZERO),
            ("R",1,0,1,HALF,PI), ("MS",0,1,(0,1),(0,1),HALF), ("R",0,1,3,_a(0.75),_a(1.5)),
            ("R",0,2,3,PI,ZERO), ("R",0,0,2,_a(0.25),_a(1.5))],
       alt=("xbasis_cnot", 2, [0])),
  dict(table="III", row="4b", desc="(IxH) CNOT(aux -> ion1 q2) (IxH)", register="n2_m1+n1",
       connectivity="all",
       target=("hconj", ("cnot", 2, 1, 3), 2, 3), params={},
       seq=[("R",0,2,3,_a(0.25),HALF), ("R",0,1,3,HALF,ZERO), ("R",0,0,3,_a(0.25),ZERO),
            ("R",1,0,1,_a(1.5),_a(1.5)), ("MS",0,1,(1,3),(0,1),HALF), ("R",0,0,1,_a(0.75),HALF),
            ("R",0,2,3,_a(1.25),_a(1.5)), ("R",1,0,1,_a(1.5),HALF)],
       note="first pulse printed as R_{1,34}; encoded with the (2,3) reading",
       alt=("xbasis_cnot", 2, [1])),
  dict(table="III", row="5", desc="(IxH) CNOT(aux->q1) CNOT(aux->q2) (IxH)",
       register="n2_m1+n1", connectivity="all",
       target=("hconj", ("matprod", [("cnot", 2, 0, 3), ("cnot", 2, 1, 3)]), 2, 3), params={},
       seq=[("R",0,0,1,PI,ZERO), ("R",0,0,3,_a(0.25),HALF), ("R",0,1,2,_a(0.75),_a(1.5)),
            ("MS",0,1,(0,1),(0,1),HALF), ("R",0,0,1,HALF,ZERO), ("R",0,0,3,_a(0.25),HALF),
            ("R",0,1,2,_a(1.25),HALF)],
       alt=("xbasis_cnot", 2, [0, 1])),
  dict(table="III", row="6", desc="exp(-iJ X_11 X_21)", register="n2_m1+n1",
       connectivity="all", target=("prot", "XIX", _a(0,"J",1), 1), params={"J": [0.700, 1.3]},
       seq=[("MS",0,1,(0,2),(0,1),_a(0,"J",1)), ("MS",0,1,(1,3),(0,1),_a(0,"J",1))],
       alt=("pauli_rot", "XIX", "J")),
  dict(table="III", row="7", desc="exp(-iJ X_12 X_21)", register="n2_m1+n1",
       connectivity="all", target=("prot", "IXX", _a(0,"J",1), 1), params={"J": [0.700, 1.3]},
       seq=[("MS",0,1,(0,1),(0,1),_a(0,"J",1)), ("MS",0,1,(2,3),(0,1),_a(0,"J",1))],
       alt=("pauli_rot", "IXX", "J")),
  dict(table="III", row="8", desc="exp(-i pi/4 (X11X21 + X12X21))", register="n2_m1+n1",
       connectivity="all", target=("sumrot", ["XIX", "IXX"], _a(0.25)), params={},
       seq=[("R",0,0,1,PI,ZERO), ("R",0,0,3,_a(1.25),_a(1.5)), ("R",0,1,2,_a(0.25),_a(1.5)),
            ("MS",0,1,(0,1),(0,1),HALF), ("R",0,1,2,_a(1.75),HALF), ("R",0,0,3,_a(0.75),HALF)],
       alt=("commuting_sum", ["XIX", "IXX"], _a(0.25))),
  dict(table="III", row="9", desc="exp(-iJ X11 X12 X21)", register="n2_m1+n1",
       connectivity="all", target=("prot", "XXX", _a(0,"J",1), 1), params={"J": [0.700, 1.3]},
       seq=[("R",0,2,3,_a(1.5),HALF), ("MS",0,1,(1,2),(0,1),_a(0,"J",1)),
            ("R",0,2,3,HALF,HALF), ("MS",0,1,(0,2),(0,1),_a(0,"J",1))],
       alt=("pauli_rot", "XXX", "J")),

  # ------------------------------------------------------------- Table IV
  dict(table="IV", row="1", desc="CNOT (ion1 q2 -> ion2 q1)", register="n2_m1+n2_m1",
       connectivity="all", target=("cnot", 1, 2, 4), params={},
       seq=[("R",0,0,1,PI,ZERO), ("R",1,0,1,PI,ZERO), ("R",1,0,1,_a(1.5),HALF),
            ("R",1,1,2,_a(2/3),ZERO), ("MS",0,1,(0,2),(0,3),_a(1.5)), ("R",0,1,2,_a(1.5),_a(1/6)),
            ("R",0,0,1,_a(1.5),HALF), ("R",1,2,3,PI,ZERO), ("R",1,0,3,_a(1.5),ZERO),
            ("R",0,1,2,HALF,_a(1/6)), ("R",0,2,3,PI,ZERO), ("R",1,1,2,_a(5/6),PI),
            ("MS",0,1,(0,2),(1,2),HALF), ("R",1,0,1,_a(1.5),_a(1.5)), ("R",0,0,1,_a(1.5),HALF),
            ("R",1,2,3,PI,ZERO), ("R",1,0,3,_a(1.5),ZERO)],
       alt=("zx_cnot", 1, 2)),
  dict(table="IV", row="2", desc="CNOT (ion1 q2 -> ion2 q2)", register="n2_m1+n2_m1",
       connectivity="all", target=("cnot", 1, 3, 4), params={},
       seq=[("R",0,0,1,PI,ZERO), ("R",0,0,3,HALF,ZERO), ("R",0,1,2,PI,ZERO),
            ("R",1,0,1,PI,ZERO), ("R",1,0,3,_a(1.5),ZERO), ("R",1,1,2,_a(1.5),ZERO),
            ("MS",0,1,(0,1),(0,1),_a(1.5)), ("R",0,0,1,_a(1.5),PI), ("R",1,0,3,NHALF,HALF),
            ("R",1,1,2,HALF,HALF), ("MS",0,1,(0,1),(0,1),HALF), ("R",0,0,1,PI,ZERO),
            ("R",0,0,3,HALF,ZERO), ("R",0,1,2,PI,ZERO), ("R",1,1,2,PI,ZERO)],
       alt=("zx_cnot", 1, 3)),
  dict(table="IV", row="3", desc="exp(-i pi/4 X_12 X_22)", register="n2_m1+n2_m1",
       connectivity="all", target=("prot", "IXIX", _a(0.25), 1), params={},
       seq=[("MS",0,1,(0,1),(0,1),_a(1.25)), ("R",0,0,3,_a(1.5),PI), ("R",0,1,2,_a(1.5),ZERO),
            ("MS",0,1,(2,3),(2,3),_a(0.75)), ("R",1,0,1,PI,ZERO), ("R",1,1,2,PI,PI),
            ("MS",0,1,(0,1),(0,1),_a(0.25)), ("R",0,0,1,PI,ZERO), ("R",0,0,3,HALF,PI),
            ("R",0,1,2,HALF,ZERO), ("R",1,0,1,PI,ZERO), ("R",1,1,2,PI,ZERO),
            ("MS",0,1,(2,3),(2,3),_a(0.25))],
       note="eighth pulse printed with a missing level index (R_{1,0 }); the (0,1) completion verifies",
       alt=("pauli_rot", "IXIX", 0.25)),
  dict(table="IV", row="4", desc="exp(-i pi/4 X_11 X_12 X_21)", register="n2_m1+n2_m1",
       connectivity="all", target=("prot", "XXXI", _a(0.25), 1), params={},
       seq=[("MS",0,1,(0,1),(0,1),PI), ("R",0,0,1,PI,ZERO), ("R",0,0,3,_a(0.75),PI),
            ("R",0,1,2,_a(1.25),ZERO), ("MS",0,1,(2,3),(2,3),PI), ("R",1,0,1,HALF,ZERO),
            ("R",1,0,3,_a(0.75),PI), ("R",1,1,2,_a(1.75),PI), ("MS",0,1,(2,3),(2,3),PI),
            ("R",0,0,3,_a(1.25),PI), ("R",0,1,2,_a(1.25),PI), ("R",1,0,1,_a(1.5),ZERO),
            ("R",1,1,2,PI,ZERO), ("MS",0,1,(2,3),(2,3),PI)],
       alt=("pauli_rot", "XXXI", 0.25)),
  dict(table="IV", row="5", desc="exp(-i pi/4 X11X12X21X22)", register="n2_m1+n2_m1",
       connectivity="all", target=("prot", "XXXX", _a(0.25), 1), params={},
       seq=[("MS",0,1,(0,1),(0,1),PI), ("R",1,0,1,PI,ZERO), ("R",1,0,3,_a(0.75),_a(1.5)),
            ("R",1,1,2,_a(1.75),PI), ("MS",0,1,(0,1),(0,1),PI), ("R",0,0,3,_a(0.25),_a(1.5)),
            ("R",0,1,2,_a(1.75),HALF), ("MS",0,1,(2,3),(2,3),PI), ("R",1,0,1,PI,ZERO),
            ("R",1,0,3,_a(-0.25),ZERO), ("R",1,1,2,_a(1.25),PI), ("MS",0,1,(2,3),(2,3),PI)],
       alt=("pauli_rot", "XXXX", 0.25)),
  dict(table="IV", row="6", desc="exp(-i(J1 X11X12 + J2 X21X22))", register="n2_m1+n2_m1",
       connectivity="all",
       target=("matprod", [("prot", "XXII", _a(0,"J1",1), 1), ("prot", "IIXX", _a(0,"J2",1), 1)]),
       params={"J1": [0.700], "J2": [0.450]},
       seq=[("R",0,0,2,_a(0,"J1",1),ZERO), ("R",0,1,3,_a(0,"J1",1),ZERO),
            ("R",1,0,2,_a(0,"J2",1),ZERO), ("R",1,1,3,_a(0,"J2",1),ZERO)],
       alt=("two_prot", ("XXII", "J1"), ("IIXX", "J2"))),
  dict(table="IV", row="7", desc="exp(-i pi/4 (X12X22 + X11X21))", register="n2_m1+n2_m1",
       connectivity="all", target=("sumrot", ["IXIX", "XIXI"], _a(0.25)), params={},
       seq=[("R",0,0,1,PI,ZERO), ("R",0,0,3,_a(1.75),_a(1.5)), ("R",0,1,2,_a(0.75),_a(1.5)),
            ("R",1,0,3,_a(0.75),HALF), ("R",1,1,2,_a(1.25),_a(1.5)),
            ("MS",0,1,(2,3),(2,3),HALF), ("MS",0,1,(0,1),(0,1),HALF),
            ("R",0,0,3,_a(0.75),_a(1.5)), ("R",0,1,2,_a(0.52),HALF),
            ("R",1,0,1,PI,ZERO), ("R",1,0,3,_a(-0.25),_a(1.5)), ("R",1,1,2,_a(-0.25),NHALF)],
       note="ninth pulse angle garbled in the source ('0.5 2pi'); encoded as 0.52 pi",
       alt=("commuting_sum", ["IXIX", "XIXI"], _a(0.25))),
]
# fmt: on

CONVENTIONS = [
    (LEFT_FIRST, "msb_first"),
    (LEFT_FIRST, "lsb_first"),
    (LEFT_LAST, "msb_first"),
    (LEFT_LAST, "lsb_first"),
]


@dataclass
class TableAuditEntry:
    table: str
    row: str
    desc: str
    sequence_len: int
    statuses: dict
    best_distance: float
    best_convention: str | None
    passed: bool
    legal: bool
    note: str | None = None
    alternative: dict | None = None

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "row": self.row,
            "gate": self.desc,
            "sequence_len": self.sequence_len,
            "statuses": self.statuses,
            "best_distance": self.best_distance,
            "best_convention": self.best_convention,
            "passed": self.passed,
            "legal_under_connectivity": self.legal,
            "note": self.note,
            "alternative": self.alternative,
        }


def _param_points(params: dict) -> list[dict]:
    if not params:
        return [{}]
    keys = sorted(params)
    n = max(len(v) for v in params.values())
    return [{k: params[k][min(i, len(params[k]) - 1)] for k in keys} for i in range(n)]


def _legal(row, gates) -> bool:
    if row["connectivity"] == "all":
        return True
    return all(
        not isinstance(g, R) or (min(g.a, g.b), max(g.a, g.b)) in FIG1_EDGES for g in gates
    )


def _edges_per_ion(row) -> dict | None:
    if row["connectivity"] == "all":
        return None
    return {0: set(FIG1_EDGES)}


def _synthesize_alternative(row, max_len: int, targets):
    """Independently construct and verify a replacement sequence; ``targets``
    holds the row's msb_first target at each parameter point."""
    spec = row.get("alt")
    if spec is None:
        return None
    reg = _REGISTRY[row["register"]]("msb_first")
    edges = _edges_per_ion(row)
    points = _param_points(row["params"])

    def gates_for(point, T):
        kind = spec[0]
        if kind == "pauli_rot":
            _, s, ang = spec
            theta = point[ang] if isinstance(ang, str) else ang * math.pi
            return standard.pauli_rotation_gates(reg, s, theta, edges)
        if kind == "two_prot":
            out = []
            for s, sym in spec[1:]:
                out.extend(standard.pauli_rotation_gates(reg, s, point[sym], edges))
            return out
        if kind == "commuting_sum":
            _, strings, ang = spec
            return standard.commuting_sum_rotation_gates(reg, strings, _angle(ang, point))
        if kind == "zx_cnot":
            return standard.zx_cnot_gates(reg, spec[1], spec[2])
        if kind == "xbasis_cnot":
            return standard.xbasis_cnot_gates(reg, spec[1], spec[2])
        if kind == "exact":
            return synthesize_exact(T).gates
        if kind == "template":
            _, shape, init = spec
            tmpl = Template(tuple(RSlot(0, tuple(p)) for p in shape))
            return synthesize_variational(
                T, tmpl, reg, VariationalBudget(1, 1, 30), seed=0, cost_floor=1e-22,
                init=np.asarray(init, dtype=float),
            ).gates
        raise ValueError(f"unknown alternative spec {spec!r}")

    worst = 0.0
    gates_repr = None
    for point, T in zip(points, targets):
        gates = gates_for(point, T)
        if len(gates) > max_len:
            return {"verified": False, "reason": f"length {len(gates)} exceeds row ({max_len})"}
        d = distance(T, sequence_matrix(gates, reg, True))
        worst = max(worst, d)
        gates_repr = gates
    return {
        "verified": worst <= PASS_TOL,
        "distance": worst,
        "length": len(gates_repr),
        "method": spec[0],
        "convention": "leftmost_applied_first/msb_first",
        "gates": [format_gate(g) for g in gates_repr],
    }


def audit_row(row) -> TableAuditEntry:
    points = _param_points(row["params"])
    regs = {qo: _REGISTRY[row["register"]](qo) for qo in ("msb_first", "lsb_first")}
    reg = regs["msb_first"]
    eye = np.eye(reg.dim, dtype=np.complex128)
    statuses = {f"{comp}/{qo}": 0.0 for comp, qo in CONVENTIONS}
    targets = []  # msb_first, for the alternative
    for point in points:
        # gate_matrix never reads the qubit order, so one target, one embedding per
        # qubit order and one matrix per gate serve all four conventions
        U = _target_matrix(row["target"], point)
        T = {qo: embed_standard(U, list(range(reg.num_qubits)), r) for qo, r in regs.items()}
        targets.append(T["msb_first"])
        mats = [gate_matrix(g, reg) for g in _gates(row["seq"], point)]
        V = {comp: functools.reduce(lambda out, m: m @ out, ms, eye)  # as sequence_matrix
             for comp, ms in ((LEFT_FIRST, mats), (LEFT_LAST, mats[::-1]))}
        for comp, qo in CONVENTIONS:
            key = f"{comp}/{qo}"
            statuses[key] = max(statuses[key], distance(T[qo], V[comp]))
    best_key = min(statuses, key=statuses.get)
    best = statuses[best_key]
    passed = best <= PASS_TOL
    gates0 = _gates(row["seq"], points[0])
    entry = TableAuditEntry(
        table=row["table"],
        row=row["row"],
        desc=row["desc"],
        sequence_len=len(row["seq"]),
        statuses=statuses,
        best_distance=best,
        best_convention=best_key if passed else None,
        passed=passed,
        legal=_legal(row, gates0),
        note=row.get("note"),
    )
    if not passed:
        entry.alternative = _synthesize_alternative(row, len(row["seq"]), targets)
    return entry


def run_table_suite(tables: Sequence[str] = ("I", "II", "III", "IV")) -> list[TableAuditEntry]:
    """Verify every stored decomposition row; returns one entry per row."""
    return [audit_row(row) for row in TABLE_ROWS if row["table"] in tables]


def audit_summary(entries: Sequence[TableAuditEntry]) -> dict:
    n = len(entries)
    passed = sum(1 for e in entries if e.passed)
    missing_alt = [
        f"{e.table}.{e.row}"
        for e in entries
        if not e.passed and not (e.alternative and e.alternative.get("verified"))
    ]
    return {
        "rows": n,
        "passed": passed,
        "pass_fraction": passed / n if n else 0.0,
        "failed_rows": [f"{e.table}.{e.row}" for e in entries if not e.passed],
        "fails_missing_alternative": missing_alt,
    }
