"""Standard-gate targets in qubit space and structured native constructions.

Qubit-space matrices index qubit 0 as the most significant bit.  The
structured builders emit native-gate lists in applied order; they exploit the
fact that any tensor product of X/Y factors pairs each level of an ion with
exactly one partner, so its exponential splits into two-level rotations
(same ion) or commuting MS products (two ions).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Sequence

import numpy as np

from .compiler import _adjacency, _bfs, _phase_pair
from .core import MS, IonSpec, R, Register, build_register, embed_standard, gate_matrix

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _pauli_on(n: int, factors: dict[int, str]) -> str:
    """Pauli string on ``n`` qubits with ``factors[q]`` on qubit q and I elsewhere."""
    return "".join(factors.get(q, "I") for q in range(n))


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


@functools.lru_cache(maxsize=32)
def pauli_string(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string; cached, so the array is read-only."""
    out = kron_all([PAULI[c] for c in s])
    out.flags.writeable = False
    return out


def pauli_rotation(s: str, angle: float) -> np.ndarray:
    """exp(-i angle P) for a Pauli string P."""
    P = pauli_string(s)
    return math.cos(angle) * np.eye(P.shape[0]) - 1j * math.sin(angle) * P


def _require_commuting(strings: Sequence[str]) -> None:
    """Raise ValueError unless every pair anticommutes on an even number of sites."""
    for i, a in enumerate(strings):
        for b in strings[i + 1:]:
            if sum(x != y and "I" not in (x, y) for x, y in zip(a, b)) % 2:
                raise ValueError(f"terms {a} and {b} do not commute")


def pauli_sum_rotation(strings: Sequence[str], angle: float) -> np.ndarray:
    """exp(-i angle sum(P)) for pairwise commuting Pauli strings.

    Commuting terms exponentiate one by one, so the product of their closed
    forms is exact.  A dense matrix exponential (scipy's ``expm``) would wake
    its BLAS thread pool even for 8x8 inputs and stall the caller for
    milliseconds per call on a busy machine.
    """
    _require_commuting(strings)
    out = np.eye(2 ** len(strings[0]), dtype=complex)
    for s in strings:
        out = pauli_rotation(s, angle) @ out
    return out


def hadamard_on(n: int, q: int) -> np.ndarray:
    mats = [PAULI["I"]] * n
    mats[q] = HAD
    return kron_all(mats)


def cnot_on(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    U = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        out = 0
        for v in bits:
            out = (out << 1) | v
        U[out, b] = 1.0
    return U


# ---------------------------------------------------------------------------
# level-space pairing of X/Y tensor factors


@functools.lru_cache(maxsize=64)
def _ion_pairing(spec: IonSpec, qubit_order: str, local_string: str) -> tuple:
    """Pairs (a, b, chi) with K = sum e^{i chi}|a><b| + h.c. for the X/Y factor
    local to an ion ``spec``; ``local_string`` has one char per virtual qubit of
    the ion.  Cached, as an audit meets the same few factors many times."""
    sub = build_register([IonSpec(spec.d, spec.encoding)], qubit_order)
    K = embed_standard(pauli_string(local_string), list(range(spec.n)), sub)
    pairs = []
    seen = set()
    for a in range(spec.d):
        nz = [b for b in range(spec.d) if abs(K[a, b]) > 1e-12]
        if len(nz) != 1 or nz[0] == a:
            raise ValueError("factor does not pair levels one-to-one")
        b = nz[0]
        if (b, a) in seen:
            continue
        seen.add((a, b))
        lo, hi = (a, b) if a < b else (b, a)
        pairs.append((lo, hi, cmath.phase(K[lo, hi])))
    return tuple(pairs)


def _r_for_pair(ion: int, a: int, b: int, chi: float, theta: float) -> R:
    # exp(-i theta (e^{i chi}|a><b| + h.c.)) = R_ab(theta, -chi)
    return R(ion, a, b, theta, -chi)


def _route_pair(reg: Register, ion: int, a: int, b: int, chi: float, theta: float,
                edges: set[tuple[int, int]]) -> list[R]:
    """Realize exp(-i theta K_ab) when (a, b) is not drivable: conjugate the
    phase-decorated pair operator through pi-pulses along a graph path."""
    d = reg.ions[ion].d
    prev, _ = _bfs(_adjacency(range(d), edges), a)
    if b not in prev:
        raise ValueError("levels not connected by the coupling graph")
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()  # a .. b
    conj = [R(ion, path[i], path[i + 1], math.pi / 2, 0.0) for i in range(len(path) - 2)]
    sub = build_register([IonSpec(reg.ions[ion].d, reg.ions[ion].encoding)], reg.qubit_order)
    K = np.zeros((d, d), dtype=complex)
    K[a, b] = cmath.exp(1j * chi)
    K[b, a] = cmath.exp(-1j * chi)
    C = np.eye(d, dtype=complex)
    for g in conj:
        C = gate_matrix(R(0, g.a, g.b, g.theta, g.phi), sub) @ C
    Kc = C @ K @ C.conj().T
    x, y = path[-2], path[-1]
    lo, hi = (x, y) if x < y else (y, x)
    if abs(abs(Kc[lo, hi]) - 1.0) > 1e-9:
        raise AssertionError("routing produced an unexpected operator")
    core = _r_for_pair(ion, lo, hi, cmath.phase(Kc[lo, hi]), theta)
    inv = [R(ion, g.a, g.b, -g.theta, g.phi) for g in reversed(conj)]
    return conj + [core] + inv


def pauli_rotation_gates(
    reg: Register, s: str, theta: float, edges_per_ion: dict[int, set] | None = None
) -> list:
    """Native gates for exp(-i theta P), P a tensor of X/Y factors touching at
    most two ions.  Same-ion factors become disjoint-pair rotations (routed
    through the coupling graph when a pair is not directly drivable);
    two-ion factors become commuting MS products (X factors only).
    """
    if len(s) != reg.num_qubits:
        raise ValueError("pauli string length must match qubit count")
    active = {}
    for ion in range(reg.num_ions):
        off = reg.qubit_offsets[ion]
        loc = s[off : off + reg.ions[ion].n]
        if any(c not in "IXY" for c in loc):
            raise ValueError("only X/Y factors are supported here")
        if any(c != "I" for c in loc):
            active[ion] = loc
    if not active:
        return []
    if len(active) == 1:
        ion, loc = next(iter(active.items()))
        pairs = _ion_pairing(reg.ions[ion], reg.qubit_order, loc)
        edges = None if edges_per_ion is None else edges_per_ion.get(ion)
        out = []
        for a, b, chi in pairs:
            if edges is None or (a, b) in edges:
                out.append(_r_for_pair(ion, a, b, chi, theta))
            else:
                out.extend(_route_pair(reg, ion, a, b, chi, theta, edges))
        return out
    if len(active) == 2:
        (i, li), (j, lj) = sorted(active.items())
        pi_ = _ion_pairing(reg.ions[i], reg.qubit_order, li)
        pj_ = _ion_pairing(reg.ions[j], reg.qubit_order, lj)
        if any(abs(chi) > 1e-12 for *_, chi in pi_ + pj_):
            raise ValueError("MS products require plain X factors")
        return [MS(i, j, (a, b), (c, d), theta) for a, b, _ in pi_ for c, d, _ in pj_]
    raise ValueError("pauli rotations across >2 ions are not native-expressible here")


def commuting_sum_rotation_gates(reg: Register, strings: Sequence[str], theta: float) -> list:
    """exp(-i theta sum P_k) as a product, valid when the P_k commute."""
    _require_commuting(strings)
    out = []
    for s in strings:
        out.extend(pauli_rotation_gates(reg, s, theta))
    return out


def zx_cnot_gates(reg: Register, control: int, target: int) -> list:
    """Cross-ion CNOT from its ZX normal form:
    CNOT = e^{i pi/4} exp(-i pi/4 Z_c) exp(-i pi/4 X_t) exp(+i pi/4 Z_c X_t).

    The Z_c factor is a pair of two-pulse phase pairs, the coupling factor is
    conjugated to X_c X_t by a Y_c quarter rotation.
    """
    n = reg.num_qubits
    ion_c = max(i for i in range(reg.num_ions) if reg.qubit_offsets[i] <= control)
    ion_t = max(i for i in range(reg.num_ions) if reg.qubit_offsets[i] <= target)
    if ion_c == ion_t:
        raise ValueError("zx_cnot_gates is for cross-ion control/target")
    x_t = _pauli_on(n, {target: "X"})
    x_cx_t = _pauli_on(n, {control: "X", target: "X"})
    y_c = _pauli_on(n, {control: "Y"})

    # exp(-i pi/4 Z_c): +pi/4 phase on control-bit-1 levels of ion_c
    sub = build_register([IonSpec(reg.ions[ion_c].d, reg.ions[ion_c].encoding)], reg.qubit_order)
    z_c = _pauli_on(reg.ions[ion_c].n, {control - reg.qubit_offsets[ion_c]: "Z"})
    Zmat = embed_standard(pauli_string(z_c), list(range(reg.ions[ion_c].n)), sub)
    diag = np.real(np.diag(Zmat))
    zg = []
    done = set()
    for a in range(reg.ions[ion_c].d):
        if a in done:
            continue
        for b in range(a + 1, reg.ions[ion_c].d):
            if b not in done and diag[a] * diag[b] < 0:
                t = math.pi / 4 if diag[a] > 0 else -math.pi / 4
                zg.extend(R(ion_c, g.a, g.b, g.theta, g.phi) for g in _phase_pair(a, b, t))
                done.update((a, b))
                break
    w = pauli_rotation_gates(reg, y_c, -math.pi / 4)       # exp(+i pi/4 Y_c)
    wd = pauli_rotation_gates(reg, y_c, math.pi / 4)
    xx = pauli_rotation_gates(reg, x_cx_t, -math.pi / 4)   # exp(+i pi/4 X_c X_t)
    bt = pauli_rotation_gates(reg, x_t, math.pi / 4)
    # commuting factors; conjugation W (XX) W^dag applies W^dag first
    return wd + xx + w + bt + zg


def xbasis_cnot_gates(reg: Register, control: int, targets: Sequence[int]) -> list:
    """H_c (prod_t CNOT_{c->t}) H_c, i.e. CNOTs controlled in the X basis:
    e^{i k pi/4} exp(-i k pi/4 X_c) prod_t exp(-i pi/4 X_t) exp(+i pi/4 X_c X_t).
    """
    n = reg.num_qubits
    gates = pauli_rotation_gates(reg, _pauli_on(n, {control: "X"}), len(targets) * math.pi / 4)
    for t in targets:
        gates += pauli_rotation_gates(reg, _pauli_on(n, {t: "X"}), math.pi / 4)
        gates += pauli_rotation_gates(reg, _pauli_on(n, {control: "X", t: "X"}), -math.pi / 4)
    return gates
