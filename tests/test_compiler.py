import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import unitary_group

import ionvq.compiler as compiler
from ionvq.core import IonSpec, MS, R, build_register, embed_standard, m1_map, m2_map, sequence_matrix
from ionvq.compiler import (
    RSlot,
    MSSlot,
    Template,
    VariationalBudget,
    _coordinate_descent,
    _objective,
    _slice_coefficients,
    _slice_maximum,
    _slice_value,
    distance,
    overlap,
    overlap_cost,
    synthesize_exact,
    synthesize_variational,
)
from ionvq.standard import pauli_rotation

FIG1 = [(0, 1), (0, 2), (2, 3)]


def test_identity_synthesis():
    rep = synthesize_exact(np.eye(4))
    assert len(rep.gates) == 0 and rep.distance == 0.0


def test_random_su4_within_bound(rng):
    for _ in range(25):
        U = unitary_group.rvs(4, random_state=rng)
        rep = synthesize_exact(U)
        assert rep.distance <= 1e-9
        assert len(rep.gates) <= 12


def test_random_su8_within_bound(rng):
    for _ in range(5):
        U = unitary_group.rvs(8, random_state=rng)
        rep = synthesize_exact(U)
        assert rep.distance <= 1e-9
        assert len(rep.gates) <= 42


def test_limited_connectivity_synthesis(rng):
    for _ in range(10):
        U = unitary_group.rvs(4, random_state=rng)
        rep = synthesize_exact(U, IonSpec(4, allowed_r=FIG1))
        assert rep.distance <= 1e-9
        for g in rep.gates:
            assert (g.a, g.b) in FIG1


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        synthesize_exact(np.eye(4), IonSpec(4, allowed_r=[(0, 1), (2, 3)]))


@pytest.mark.parametrize("dim,d", [(8, 4), (4, 8)])
def test_ion_of_another_dimension_rejected(dim, d):
    with pytest.raises(ValueError, match="does not match"):
        synthesize_exact(np.eye(dim), IonSpec(d))


def test_fast_path_two_pulses():
    t = 0.61
    U = pauli_rotation("XI", t)
    reg = build_register([IonSpec(4, m1_map())])
    rep = synthesize_exact(embed_standard(U, [0, 1], reg))
    assert rep.fast_path and len(rep.gates) == 2
    pairs = {(g.a, g.b) for g in rep.gates}
    assert pairs == {(0, 2), (1, 3)}


def test_verify_sequence_phase_invariance(rng, reg_n2):
    U = unitary_group.rvs(4, random_state=rng)
    gates = synthesize_exact(U).gates
    assert distance(np.exp(1j * math.pi / 4) * U, sequence_matrix(gates, reg_n2)) <= 1e-9
    assert distance(np.eye(4), sequence_matrix([], reg_n2)) == 0.0


def test_verify_xx_pairing(reg_n2):
    # the X(x)X rotation lives on the (0,3) and (1,2) couplings under the
    # binary map, and the two pulses commute so either order verifies
    J = 0.7
    T = embed_standard(pauli_rotation("XX", J), [0, 1], reg_n2)
    seq = [R(0, 0, 3, J, 0.0), R(0, 1, 2, J, 0.0)]
    for leftmost_applied_first in (True, False):
        assert distance(T, sequence_matrix(seq, reg_n2, leftmost_applied_first)) <= 1e-12


def test_map_relabeling_equivalence():
    # a sequence for one encoding map transfers to another by relabeling
    # each coupled pair through the map composition
    m1, m2 = m1_map(), m2_map()
    reg1 = build_register([IonSpec(4, m1)])
    reg2 = build_register([IonSpec(4, m2)])
    t = 0.873
    target = pauli_rotation("IX", t)
    seq1 = synthesize_exact(embed_standard(target, [0, 1], reg1)).gates

    def relabel(level):
        return m2.level(m1.label(level))

    seq2 = [R(0, *sorted((relabel(g.a), relabel(g.b))), g.theta, g.phi) for g in seq1]
    assert distance(embed_standard(target, [0, 1], reg2), sequence_matrix(seq2, reg2)) <= 1e-9


def test_variational_recovers_realizable_target(reg_mixed):
    tmpl = Template((RSlot(0, (2, 3)), MSSlot(0, 1, (2, 3), (0, 1))))
    known = tmpl.gates(np.array([1.1, 0.4, -0.9]), 1)
    T = sequence_matrix(known, reg_mixed)
    rep = synthesize_variational(T, tmpl, reg_mixed, VariationalBudget(1, 6, 40), seed=7,
                                 cost_floor=1e-12)
    assert rep.cost < 1e-10
    assert rep.distance <= 1e-6


def test_template_without_angles_scores_the_empty_sequence(reg_mixed):
    rep = synthesize_variational(np.eye(reg_mixed.dim), Template(()), reg_mixed,
                                 VariationalBudget(1, 2))
    assert rep.converged and rep.cost == 0.0 and len(rep.gates) == 0
    rep = synthesize_variational(np.diag([1, -1] * (reg_mixed.dim // 2)), Template(()),
                                 reg_mixed, VariationalBudget(2, 2))
    assert not rep.converged and rep.cost == 1.0 and rep.restarts_used == 4


def test_variational_finds_two_gate_cnot(reg_mixed):
    from ionvq.standard import cnot_on

    T = embed_standard(cnot_on(3, 0, 2), [0, 1, 2], reg_mixed)
    tmpl = Template((RSlot(0, (2, 3)), MSSlot(0, 1, (2, 3), (0, 1))))
    rep = synthesize_variational(T, tmpl, reg_mixed, VariationalBudget(1, 8, 50), seed=3,
                                 cost_floor=1e-20)
    assert rep.distance <= 1e-9
    assert len(rep.gates) == 2


def test_cross_ion_xx_needs_two_ms_gates():
    # between two paired-qubit ions, one dressed MS cannot realize an XX
    # rotation on specific virtual qubits, but two MS gates suffice
    reg = build_register([IonSpec(4, m1_map()), IonSpec(4, m1_map())])
    T = embed_standard(pauli_rotation("IXIX", math.pi / 4), [0, 1, 2, 3], reg)
    layer = (
        MSSlot(0, 1, (0, 1), (0, 1)),
        RSlot(0, (0, 1)), RSlot(0, (0, 3)), RSlot(0, (1, 2)),
        RSlot(1, (0, 1)), RSlot(1, (0, 3)), RSlot(1, (1, 2)),
    )
    one = synthesize_variational(T, Template(layer), reg,
                                 VariationalBudget(1, 6, 30), seed=11, cost_floor=1e-16)
    assert one.cost > 1e-8, "one MS layer should not suffice"

    # explicit two-MS realization: XX(pi/4) is locally equivalent to the
    # two-MS CNOT row, XX = W_c (exp(-i pi/4 Z_c) exp(-i pi/4 X_t) CNOT) W_c^dag
    from ionvq.tables import TABLE_ROWS, _gates
    from ionvq.compiler import _phase_pair
    from ionvq.standard import pauli_rotation_gates

    row = next(r for r in TABLE_ROWS if r["table"] == "IV" and r["row"] == "2")
    cnot = _gates(row["seq"], {})
    w = pauli_rotation_gates(reg, "IYII", math.pi / 4)        # W = exp(-i pi/4 Y_c)
    w_dag = pauli_rotation_gates(reg, "IYII", -math.pi / 4)
    xt = pauli_rotation_gates(reg, "IIIX", math.pi / 4)
    zc = [R(0, g.a, g.b, g.theta, g.phi) for pp in ((0, 1), (2, 3))
          for g in _phase_pair(*pp, math.pi / 4)]
    # applied order W^dag, (CNOT, X_t, Z_c in any order: they commute), W
    seq = w_dag + cnot + xt + zc + w
    assert sum(not isinstance(g, R) for g in seq) == 2
    assert distance(T, sequence_matrix(seq, reg)) <= 1e-9


def test_limited_graph_asymmetry_between_virtual_qubits():
    # under the {01,02,23} graph the second virtual qubit costs 2 pulses but
    # the first cannot be done in 2 (the published counts are 6 vs 2)
    th = 0.613
    reg = build_register([IonSpec(4, m1_map())])
    t_q2 = embed_standard(pauli_rotation("IX", th), [0, 1], reg)
    seq = [R(0, 2, 3, th, 0.0), R(0, 0, 1, th, 0.0)]
    assert distance(t_q2, sequence_matrix(seq, reg)) <= 1e-12
    t_q1 = embed_standard(pauli_rotation("XI", th), [0, 1], reg)
    best = 1.0
    for shape in itertools.chain(
        itertools.product(FIG1, repeat=1), itertools.product(FIG1, repeat=2)
    ):
        tmpl = Template(tuple(RSlot(0, p) for p in shape))
        rep = synthesize_variational(t_q1, tmpl, reg, VariationalBudget(1, 5, 25), seed=5,
                                     cost_floor=1e-19)
        best = min(best, rep.distance)
    assert best > 1e-6, "no two-pulse realization of the first virtual qubit"
    # the six-pulse routed construction closes the gap
    from ionvq.standard import pauli_rotation_gates

    gates = pauli_rotation_gates(reg, "XI", th, {0: set(FIG1)})
    assert len(gates) == 6
    assert distance(t_q1, sequence_matrix(gates, reg)) <= 1e-12


# ---------------------------------------------------------------------------
# closed-form coordinate slices against the dense sequence_matrix overlap

# the CLI's default one-layer slot set for a d=4 + d=2 register; parameter 0 is
# the MS J, 1 and 2 are theta and phi of the first R
DEFAULT_LAYER = Template((MSSlot(0, 1, (0, 1), (0, 1)), RSlot(0, (0, 1)), RSlot(0, (0, 3)),
                          RSlot(0, (1, 2)), RSlot(1, (0, 1))))
GRID = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
REG_MIXED = build_register([IonSpec(4, m1_map()), IonSpec(2)])


def _random_problem(reg, seed):
    """The kept-matrix overlaps of a Haar target, the dense overlap z and cost
    they must reproduce, and random angles."""
    rng = np.random.default_rng(seed)
    U = unitary_group.rvs(reg.dim, random_state=rng)

    def z(x):
        return overlap(U, sequence_matrix(DEFAULT_LAYER.gates(x, 1), reg))

    def cost(x):
        return overlap_cost(U, sequence_matrix(DEFAULT_LAYER.gates(x, 1), reg))

    overlaps = _objective(U, DEFAULT_LAYER, reg, 1)
    return overlaps, z, cost, rng.uniform(0.0, 2 * math.pi, DEFAULT_LAYER.n_params)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["ms_J", "r_theta", "r_phi"])
@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-2 * math.pi, 2 * math.pi))
def test_slice_closed_form_matches_dense_overlap(k, seed, t):
    overlaps, z, cost, x = _random_problem(REG_MIXED, seed)
    x0 = x.copy()
    coef = _slice_coefficients(*overlaps(x, k))
    assert np.array_equal(x, x0)
    x[k] = t
    assert abs(_slice_value(*coef, t) - z(x)) <= 1e-12
    # the chosen angle is at least as good as a fine scan of the full cost
    x[k] = _slice_maximum(*coef, x0[k])
    best = cost(x)
    scan = []
    for g in GRID:
        x[k] = g
        scan.append(cost(x))
    assert best <= min(scan) + 1e-12
    assert best <= cost(x0) + 1e-15


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), t0=st.floats(-10.0, 10.0))
def test_degenerate_slice_keeps_current_angle(seed, t0):
    # with theta = 0 the first R is the identity whatever its phi
    overlaps, _, _, x = _random_problem(REG_MIXED, seed)
    x[1] = 0.0
    alpha, beta, gamma = _slice_coefficients(*overlaps(x, 2))
    assert beta == 0 and gamma == 0
    assert _slice_maximum(alpha, beta, gamma, t0) == t0


def test_coordinate_descent_spends_three_overlaps_per_coordinate(reg_mixed, monkeypatch):
    # per coordinate visited: one probe stack, three overlaps, at most one kept-matrix
    # rebuild (plus each gate's first build) and at most one multiplication into the
    # product of the gates before the probe
    calls = {"overlap": 0, "gate_matrix": 0, "gate_matrices": 0, "prefix": 0}

    class Kept(np.ndarray):  # a kept gate matrix: counts its products with one matrix
        def __matmul__(self, other):
            calls["prefix"] += np.ndim(other) == 2
            return np.asarray(self) @ other

    for name in ("overlap", "gate_matrix", "gate_matrices"):
        def counted(*args, _name=name, _fn=getattr(compiler, name)):
            calls[_name] += 1
            out = _fn(*args)
            return out.view(Kept) if _name == "gate_matrix" else out

        monkeypatch.setattr(compiler, name, counted)
    n, gates = DEFAULT_LAYER.n_params, len(DEFAULT_LAYER.slots)
    visited = {}
    for sweeps in (1, 4):
        overlaps, _, cost, x0 = _random_problem(reg_mixed, 102)
        calls.update(dict.fromkeys(calls, 0))
        seen = []

        def probed(x, k):
            seen.append(k)
            return overlaps(x, k)

        x, f = _coordinate_descent(probed, x0, sweeps, reg_mixed.dim)
        visited[sweeps] = len(seen)
        assert seen == list(range(n)) * (len(seen) // n)
        assert calls["overlap"] == 3 * len(seen)
        assert calls["gate_matrices"] == len(seen)
        assert 0 < calls["gate_matrix"] <= len(seen) + gates
        assert 0 < calls["prefix"] <= len(seen)
        assert abs(f - cost(x)) <= 1e-15  # the cost it reports is the cost where it stopped
        assert cost(x) < cost(x0)
    assert visited[1] == n < visited[4] <= 4 * n


def _np_roots_slice_maximum(alpha, beta, gamma, t0):
    """``_slice_maximum`` with every quartic solved by ``np.roots``."""
    def quartic(alpha, beta, gamma):
        p, m = (beta - 1j * gamma) / 2, (beta + 1j * gamma) / 2
        c1 = alpha * m.conjugate() + p * alpha.conjugate()
        c2 = p * m.conjugate()
        return np.array([2 * c2, c1, 0.0, -c1.conjugate(), -2 * c2.conjugate()])

    coeffs = quartic(alpha, beta, gamma)
    scale = np.abs(coeffs).max()
    if scale < np.finfo(float).tiny and (beta or gamma):  # scaled to modulus 1
        top = max(abs(alpha), abs(beta), abs(gamma))
        coeffs = quartic(alpha / top, beta / top, gamma / top)
        scale = np.abs(coeffs).max()
    if scale == 0.0:
        return t0
    cands = np.angle(np.roots(coeffs / scale))
    return float(cands[np.argmax(np.abs(_slice_value(alpha, beta, gamma, cands)))])


UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=200)
@given(z=st.lists(st.tuples(UNIT, UNIT), min_size=3, max_size=3),
       scale=st.sampled_from([1e-150, 1e-20, 1.0, 1e20, 1e150]),
       case=st.sampled_from(["generic", "beta=i*gamma", "beta=-i*gamma", "alpha=0", "flat"]),
       t0=st.floats(-10.0, 10.0))
def test_slice_maximum_returns_np_roots_angles_bit_for_bit(z, scale, case, t0):
    # c2 is zero when beta = +-i gamma (np.roots trims the quartic), c1 when alpha = 0
    # (the companion matrix keeps its zeros), and a flat slice returns t0
    alpha, beta, gamma = (complex(re, im) * scale for re, im in z)
    if case == "beta=i*gamma":
        beta = 1j * gamma
    elif case == "beta=-i*gamma":
        beta = -1j * gamma
    elif case == "alpha=0":
        alpha = 0j
    elif case == "flat":
        beta = gamma = 0j
    with np.errstate(all="ignore"):
        try:
            want = _np_roots_slice_maximum(alpha, beta, gamma, t0)
        except np.linalg.LinAlgError:  # if coefficients still scale to NaN: fail alike
            with pytest.raises(np.linalg.LinAlgError):
                _slice_maximum(alpha, beta, gamma, t0)
            return
        got = _slice_maximum(alpha, beta, gamma, t0)
    assert got.hex() == want.hex()
    if case == "flat":
        assert got == t0


FINE = np.linspace(0.0, 2 * math.pi, 20_000, endpoint=False)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-300.0, 0.0),
       case=st.sampled_from(["generic", "alpha=beta=0", "alpha=0,beta=i*gamma", "flat"]))
@example(seed=0, exponent=-157.2, case="alpha=beta=0")
@example(seed=0, exponent=-160.0, case="alpha=beta=0")
def test_slice_maximum_holds_at_every_scale(seed, exponent, case):
    # subnormal c1 and c2 (slice coefficients below about 1e-154) raised LinAlgError,
    # and c1 = c2 = 0 by underflow returned the starting angle.  The slice is drawn
    # generic: with |c2| below about 1e-9 |c1| the roots lose accuracy at any scale
    z = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 2)) @ [1.0, 1j] * 10.0**exponent
    alpha, beta, gamma = map(complex, z)
    if case == "alpha=beta=0":
        alpha = beta = 0j
    elif case == "alpha=0,beta=i*gamma":  # |slice| is |gamma| at every angle
        alpha, beta = 0j, 1j * gamma
    elif case == "flat":
        beta = gamma = 0j
    t = _slice_maximum(alpha, beta, gamma, 0.5)
    assert math.isfinite(t)
    scan = np.abs(_slice_value(alpha, beta, gamma, FINE)).max()
    assert abs(_slice_value(alpha, beta, gamma, t)) >= scan * (1 - 1e-12)


# a d=2 + d=4 (map M2) + d=2 chain with an MS on each neighbouring pair
REG_THREE = build_register([IonSpec(2), IonSpec(4, m2_map()), IonSpec(2)])
THREE_ION_LAYER = Template((MSSlot(0, 1, (0, 1), (1, 3)), RSlot(1, (0, 2)), RSlot(0, (0, 1)),
                            MSSlot(1, 2, (2, 3), (0, 1)), RSlot(1, (1, 3)), RSlot(2, (0, 1))))


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("reg,layer", [(REG_MIXED, DEFAULT_LAYER), (REG_THREE, THREE_ION_LAYER)],
                         ids=["mixed", "three_ion"])
@settings(max_examples=8)
@given(layers=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 2**16),
                                st.lists(st.tuples(st.integers(0, 2**16),
                                                   st.floats(-10.0, 10.0)), max_size=3)),
                      min_size=1, max_size=8))
def test_kept_matrix_overlaps_equal_dense_overlaps_bit_for_bit(reg, layer, layers, seed, steps):
    # each step moves some coordinates (none, one of the probed gate's, or
    # others; -0.0 included) and probes one; the three overlaps must equal
    # the dense sequence_matrix overlaps exactly, signed zeros included
    rng = np.random.default_rng(seed)
    U = unitary_group.rvs(reg.dim, random_state=rng)
    n = layer.n_params * layers
    overlaps = _objective(U, layer, reg, layers)
    x = rng.uniform(0.0, 2 * math.pi, n)
    for k, moves in steps:
        for j, value in moves:
            x[j % n] = value
        got = overlaps(x, k % n)
        for t, z in zip((0.0, math.pi / 2, math.pi), got):
            y = x.copy()
            y[k % n] = t
            V = sequence_matrix(layer.gates(y, layers), reg)
            assert _bits(z) == _bits(overlap(U, V))


def test_budget_rejects_counts_below_one():
    for kw in ({"layers_max": 0}, {"restarts": 0}, {"iters": -1}):
        with pytest.raises(ValueError):
            VariationalBudget(**kw)


# verdicts of the parent's scan-and-golden-search descent on one-layer instances
# of the default slots (generator seed k, compiler seed 1000 + k): all converge,
# with these restart counts
ONE_LAYER_RESTARTS = {100: 1, 101: 1, 102: 4, 103: 1, 104: 1, 105: 3}


@pytest.mark.parametrize("k", sorted(ONE_LAYER_RESTARTS))
def test_one_layer_instances_keep_verdict_and_restarts(reg_mixed, k):
    x = np.random.default_rng(k).uniform(0.0, 2 * math.pi, DEFAULT_LAYER.n_params)
    T = sequence_matrix(DEFAULT_LAYER.gates(x, 1), reg_mixed)
    rep = synthesize_variational(T, DEFAULT_LAYER, reg_mixed, VariationalBudget(1, 8),
                                 seed=1000 + k)
    assert rep.converged and rep.restarts_used == ONE_LAYER_RESTARTS[k]
    assert rep.distance <= 1e-8


def test_seeded_init_draws_no_generator(reg_mixed, monkeypatch):
    # the tables audit starts its templates from init: no numpy.random import, no draw
    tmpl = Template((RSlot(0, (2, 3)), MSSlot(0, 1, (2, 3), (0, 1))))
    x = np.array([1.1, 0.4, -0.9])
    T = sequence_matrix(tmpl.gates(x, 1), reg_mixed)

    def refuse(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    rep = synthesize_variational(T, tmpl, reg_mixed, VariationalBudget(1, 1, 40), seed=7,
                                 init=x + 0.01)
    assert rep.restarts_used == 1 and rep.distance <= 1e-6
