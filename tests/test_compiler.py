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
        return m2.perm.index(m1.label(level))

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
    """The environment objective of a Haar target, the dense overlap z and cost
    its slices must reproduce, and random angles."""
    rng = np.random.default_rng(seed)
    U = unitary_group.rvs(reg.dim, random_state=rng)

    def z(x):
        return overlap(U, sequence_matrix(DEFAULT_LAYER.gates(x, 1), reg))

    def cost(x):
        return overlap_cost(U, sequence_matrix(DEFAULT_LAYER.gates(x, 1), reg))

    objective = _objective(U, DEFAULT_LAYER, reg, 1)
    return objective, z, cost, rng.uniform(0.0, 2 * math.pi, DEFAULT_LAYER.n_params)


def _slice(objective, x, k):
    """Coordinate k's slice in the first sweep over x, with no angle moved."""
    return next(coef for j, coef in objective(x)() if j == k)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["ms_J", "r_theta", "r_phi"])
@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-2 * math.pi, 2 * math.pi))
def test_slice_closed_form_matches_dense_overlap(k, seed, t):
    objective, z, cost, x = _random_problem(REG_MIXED, seed)
    x0 = x.copy()
    coef = _slice(objective, x, k)
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
    objective, _, _, x = _random_problem(REG_MIXED, seed)
    x[1] = 0.0
    alpha, beta, gamma = _slice(objective, x, 2)
    assert beta == 0 and gamma == 0
    assert _slice_maximum(alpha, beta, gamma, t0) == t0


def test_coordinate_descent_work_per_sweep(reg_mixed, monkeypatch):
    # per sweep of n gates: n - 1 products for the environments after each gate, at most one
    # environment product per gate and n - 1 products growing the one before it; each gate's
    # matrix is built once, then at most once per sweep; no sequence_matrix in the descent
    calls = {"matmul": 0, "gate_matrix": 0, "sequence_matrix": 0}

    class Counted(np.ndarray):  # a kept gate matrix, or a product with one: counts products
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
            if ufunc is not np.matmul:
                return out
            calls["matmul"] += 1
            return out.view(Counted)

    for name in ("gate_matrix", "sequence_matrix"):
        def counted(*args, _name=name, _fn=getattr(compiler, name)):
            calls[_name] += 1
            return _fn(*args).view(Counted)

        monkeypatch.setattr(compiler, name, counted)
    n, gates = DEFAULT_LAYER.n_params, len(DEFAULT_LAYER.slots)
    visited = {}
    for sweeps in (1, 4):
        objective, _, cost, x0 = _random_problem(reg_mixed, 102)
        calls.update(dict.fromkeys(calls, 0))
        seen = []

        def visiting(x):
            sweep = objective(x)

            def counted():
                for k, coef in sweep():
                    seen.append(k)
                    yield k, coef

            return counted

        x, f = _coordinate_descent(visiting, x0, sweeps, reg_mixed.dim)
        visited[sweeps] = len(seen)
        assert seen == list(range(n)) * (len(seen) // n)
        ran = len(seen) // n
        assert calls["sequence_matrix"] == 0
        assert 0 < calls["matmul"] <= ran * (3 * gates - 2)
        assert gates <= calls["gate_matrix"] <= gates * (1 + ran)
        assert abs(f - cost(x)) <= 1e-15  # the cost it reports is the cost where it stopped
        assert cost(x) < cost(x0)
    assert visited[1] == n < visited[4] <= 4 * n


def _np_roots_slice_maximum(alpha, beta, gamma, t0):
    """The best of the unit-circle angles of ``np.roots`` on the stationary quartic."""
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
def test_slice_maximum_is_no_worse_than_np_roots(z, scale, case, t0):
    # c2 is zero when beta = +-i gamma (np.roots trims the quartic), c1 when alpha = 0,
    # and a flat slice returns t0
    alpha, beta, gamma = (complex(re, im) * scale for re, im in z)
    if case == "beta=i*gamma":
        beta = 1j * gamma
    elif case == "beta=-i*gamma":
        beta = -1j * gamma
    elif case == "alpha=0":
        alpha = 0j
    elif case == "flat":
        beta = gamma = 0j
    got = _slice_maximum(alpha, beta, gamma, t0)
    assert math.isfinite(got)
    if case == "flat":
        assert got == t0
    with np.errstate(all="ignore"):
        try:
            want = _np_roots_slice_maximum(alpha, beta, gamma, t0)
        except np.linalg.LinAlgError:  # coefficients that still scale to NaN: no reference
            return
    assert (abs(_slice_value(alpha, beta, gamma, got))
            >= abs(_slice_value(alpha, beta, gamma, want)) * (1 - 1e-12))


FINE = np.linspace(0.0, 2 * math.pi, 20_000, endpoint=False)


@settings(max_examples=300)
@given(z=st.lists(st.tuples(UNIT, UNIT), min_size=3, max_size=3),
       exponent=st.floats(-300.0, 0.0), gap=st.floats(-300.0, 0.0),
       case=st.sampled_from(["generic", "alpha=beta=0", "alpha=0,beta=i*gamma", "flat",
                             "beta=i*gamma+gap", "beta=-i*gamma+gap"]))
@example(z=[(0.27, -0.46), (-0.92, -0.97), (0.63, 0.83)], exponent=-157.2, gap=0.0,
         case="alpha=beta=0")
@example(z=[(0.27, -0.46), (-0.92, -0.97), (0.63, 0.83)], exponent=-160.0, gap=0.0,
         case="alpha=beta=0")
@example(z=[(1.0, 0.0), (1.19e-77, 1.0), (1.0, 0.0)], exponent=0.0, gap=0.0, case="generic")
def test_slice_maximum_holds_at_every_scale(z, exponent, gap, case):
    # subnormal c1 and c2 (slice coefficients below about 1e-154) raised LinAlgError,
    # and c1 = c2 = 0 by underflow returned the starting angle.  Near beta = +-i gamma,
    # |c2| is 10^gap of |c1| or less: np.roots' companion matrix lost the unit-circle
    # roots below about 1e-8, as at alpha = 1, beta = 1.19e-77 + i, gamma = 1, where
    # it returned t = 0 (|slice| 1.414) and t = pi/2 gives 2
    alpha, beta, gamma = (complex(re, im) * 10.0**exponent for re, im in z)
    if case == "alpha=beta=0":
        alpha = beta = 0j
    elif case == "alpha=0,beta=i*gamma":  # |slice| is |gamma| at every angle
        alpha, beta = 0j, 1j * gamma
    elif case == "flat":
        beta = gamma = 0j
    elif case.endswith("+gap"):
        beta = (-1j if case.startswith("beta=-") else 1j) * gamma + beta * 10.0**gap
    t = _slice_maximum(alpha, beta, gamma, 0.5)
    assert math.isfinite(t)
    # the angle is scored on the slice scaled to modulus 1: subnormal values of the slice
    # itself keep too few bits for a 1e-12 comparison
    top = max(abs(alpha), abs(beta), abs(gamma)) or 1.0
    unit = [v / top for v in (alpha, beta, gamma)]
    scan = np.abs(_slice_value(*unit, FINE)).max()
    assert abs(_slice_value(*unit, t)) >= scan * (1 - 1e-12)
    if z[1] == (1.19e-77, 1.0) and exponent == 0.0:
        assert t == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(_slice_value(alpha, beta, gamma, t)) == pytest.approx(2.0, rel=1e-15)


# a d=2 + d=4 (map M2) + d=2 chain with an MS on each neighbouring pair
REG_THREE = build_register([IonSpec(2), IonSpec(4, m2_map()), IonSpec(2)])
THREE_ION_LAYER = Template((MSSlot(0, 1, (0, 1), (1, 3)), RSlot(1, (0, 2)), RSlot(0, (0, 1)),
                            MSSlot(1, 2, (2, 3), (0, 1)), RSlot(1, (1, 3)), RSlot(2, (0, 1))))


@pytest.mark.parametrize("reg,layer", [(REG_MIXED, DEFAULT_LAYER), (REG_THREE, THREE_ION_LAYER)],
                         ids=["mixed", "three_ion"])
@settings(max_examples=8)
@given(layers=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), t=st.floats(-10.0, 10.0),
       moves=st.lists(st.none() | st.floats(-10.0, 10.0) | st.just(-0.0), min_size=1,
                      max_size=40))
def test_environment_slices_equal_dense_overlaps(reg, layer, layers, seed, t, moves):
    # two sweeps over every coordinate (MS J, R theta and R phi, each gate's environment
    # traced over the other ions); after its slice each angle takes the next move (None keeps
    # it, -0.0 included), and every slice must equal the dense overlap at t, 0 and pi/2
    rng = np.random.default_rng(seed)
    U = unitary_group.rvs(reg.dim, random_state=rng)
    n = layer.n_params * layers
    x = rng.uniform(0.0, 2 * math.pi, n)
    sweep = _objective(U, layer, reg, layers)(x)
    move = itertools.cycle(moves)
    for _ in range(2):
        for k, coef in sweep():
            for s in (t, 0.0, math.pi / 2):
                y = x.copy()
                y[k] = s
                z = overlap(U, sequence_matrix(layer.gates(y, layers), reg))
                assert abs(_slice_value(*coef, s) - z) <= 1e-12
            value = next(move)
            if value is not None:
                x[k] = value


def test_budget_rejects_counts_below_one():
    for kw in ({"layers_max": 0}, {"restarts": 0}, {"iters": -1}):
        with pytest.raises(ValueError):
            VariationalBudget(**kw)


# verdicts of the descent on one-layer instances of the default slots (generator
# seed k, compiler seed 1000 + k): all converge, with these restart counts
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
