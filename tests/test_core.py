import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionvq import core
from ionvq.core import (
    MS,
    EncodingMap,
    IonSpec,
    R,
    StateVector,
    apply_native,
    build_register,
    embed_standard,
    format_circuit,
    gate_matrix,
    identity_map,
    is_unitary,
    m1_map,
    m2_map,
    parse_circuit,
    sample_measurement,
    sequence_matrix,
    Circuit,
)
from ionvq.sampling import build_bv
from ionvq.standard import cnot_on, pauli_string
from oracles import index_of_levels, level_of_bits, register_config, zero_state


def test_register_dims():
    reg = build_register([IonSpec(4), IonSpec(2)])
    assert reg.dim == 8 and reg.num_qubits == 3
    assert build_register([IonSpec(2)]).num_qubits == 1
    reg16 = build_register([IonSpec(4) for _ in range(8)])
    assert reg16.dim == 65536 and reg16.num_qubits == 16


def test_register_rejects_bad_specs():
    with pytest.raises(ValueError):
        IonSpec(3)
    with pytest.raises(ValueError):
        IonSpec(4, allowed_r=frozenset({(0, 4)}))
    with pytest.raises(ValueError):
        IonSpec(4, allowed_r=frozenset({(2, 2)}))


def test_encoding_maps():
    m1 = m1_map()
    assert m1.bits(2) == "10"
    m2 = m2_map()
    assert m2.bits(1) == "11"
    assert m2.bits(2) == "01" and m2.bits(3) == "10"
    assert identity_map(1).bits(1) == "1"
    # lsb_first flips the read-out order of the same label
    assert m1.bits(2, "lsb_first") == "01"


@given(st.integers(1, 3), st.integers(0, 200))
def test_encoding_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    perm = tuple(int(v) for v in rng.permutation(2**n))
    enc = EncodingMap(perm)
    for level in range(2**n):
        for order in ("msb_first", "lsb_first"):
            assert level_of_bits(enc, enc.bits(level, order), order) == level


def test_r_gate_matches_gate_law(reg_n2):
    th, ph = 0.3, 0.7
    m = gate_matrix(R(0, 0, 1, th, ph), reg_n2)
    assert abs(m[0, 0] - math.cos(th)) < 1e-15
    assert abs(m[0, 1] - (-1j * np.exp(-1j * ph) * math.sin(th))) < 1e-15
    assert abs(m[1, 0] - (-1j * np.exp(1j * ph) * math.sin(th))) < 1e-15
    assert m[2, 2] == 1 and m[3, 3] == 1 and m[2, 3] == 0


def test_r_gate_law_holds_for_either_pair_order(reg_n2):
    # the first-named level's row carries e^{-i phi}, whichever level is lower
    th, ph = 0.3, 0.7
    for a, b in ((0, 1), (1, 0), (3, 1)):
        m = gate_matrix(R(0, a, b, th, ph), reg_n2)
        assert abs(m[a, b] - (-1j * np.exp(-1j * ph) * math.sin(th))) < 1e-15
        assert abs(m[b, a] - (-1j * np.exp(1j * ph) * math.sin(th))) < 1e-15


def test_r_identity_at_zero_theta(reg_n2, rng):
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    st_ = StateVector(reg_n2, amps.copy())
    apply_native(st_, R(0, 0, 1, 0.0, 1.234))
    assert np.allclose(st_.amps, amps)


def test_r_ghz_on_paired_encoding():
    # R01(pi/4, -pi/2) on |00> under the 0->00, 1->11 map entangles both qubits
    reg = build_register([IonSpec(4, m2_map())])
    st_ = zero_state(reg)
    apply_native(st_, R(0, 0, 1, math.pi / 4, -math.pi / 2))
    expect = np.zeros(4, dtype=complex)
    expect[0] = 1 / math.sqrt(2)
    expect[1] = -1 / math.sqrt(2)  # level 1 carries label 11
    assert np.allclose(st_.amps, expect)
    assert {reg.bitstring(0), reg.bitstring(1)} == {"00", "11"}


def test_ms_identity_outside_coupled_span(reg_mixed, rng):
    basis = np.eye(reg_mixed.dim, dtype=np.complex128)[index_of_levels(reg_mixed, [2, 0])]
    st_ = StateVector(reg_mixed, basis)
    before = st_.amps.copy()
    apply_native(st_, MS(0, 1, (0, 1), (0, 1), 0.9))
    assert np.allclose(st_.amps, before)


def test_ms_explicit_form(reg_mixed):
    J = 0.9
    st_ = zero_state(reg_mixed)
    apply_native(st_, MS(0, 1, (0, 1), (0, 1), J))
    assert abs(st_.amps[index_of_levels(reg_mixed, [0, 0])] - math.cos(J)) < 1e-14
    assert abs(st_.amps[index_of_levels(reg_mixed, [1, 1])] + 1j * math.sin(J)) < 1e-14


def test_ms_dense_agreement_small(rng):
    # strided kernel equals the explicit matrix exponential on dim <= 64
    from scipy.linalg import expm

    reg = build_register([IonSpec(4), IonSpec(4), IonSpec(2)])
    pair_i, pair_j, J = (1, 3), (0, 2), 0.77
    H = np.zeros((reg.dim, reg.dim))
    for g in range(reg.dim):
        lv = list(reg.levels_of_index(g))
        if lv[0] in pair_i and lv[1] in pair_j:
            lv2 = list(lv)
            lv2[0] = pair_i[0] if lv[0] == pair_i[1] else pair_i[1]
            lv2[1] = pair_j[0] if lv[1] == pair_j[1] else pair_j[1]
            H[index_of_levels(reg, lv2), g] = 1.0
    U = expm(-1j * J * H)
    assert np.max(np.abs(U - gate_matrix(MS(0, 1, pair_i, pair_j, J), reg))) < 1e-12


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_norm_preserved_random_gates(seed):
    rng = np.random.default_rng(seed)
    reg = build_register([IonSpec(4), IonSpec(2), IonSpec(4)])
    amps = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    amps /= np.linalg.norm(amps)
    st_ = StateVector(reg, amps)
    for _ in range(6):
        if rng.random() < 0.5:
            ion = int(rng.integers(3))
            d = reg.ions[ion].d
            a, b = sorted(rng.choice(d, size=2, replace=False))
            apply_native(st_, R(ion, int(a), int(b), rng.uniform(0, 7), rng.uniform(0, 7)))
        else:
            i, j = sorted(rng.choice(3, size=2, replace=False))
            di, dj = reg.ions[i].d, reg.ions[j].d
            pi_ = tuple(sorted(rng.choice(di, size=2, replace=False)))
            pj_ = tuple(sorted(rng.choice(dj, size=2, replace=False)))
            apply_native(st_, MS(int(i), int(j), pi_, pj_, rng.uniform(0, 7)))
    assert abs(np.linalg.norm(st_.amps) - 1) < 1e-12


def test_ms_generators_commute_for_disjoint_ion_pairs():
    reg = build_register([IonSpec(4) for _ in range(4)])
    Ha = np.eye(reg.dim) - gate_matrix(MS(0, 1, (0, 1), (2, 3), 1e-6), reg)
    Hb = np.eye(reg.dim) - gate_matrix(MS(2, 3, (1, 2), (0, 1), 1e-6), reg)
    comm = Ha @ Hb - Hb @ Ha
    assert np.max(np.abs(comm)) < 1e-12


def test_embed_standard_x_and_cnot(reg_n2):
    X = pauli_string("X")
    V = embed_standard(X, [0], reg_n2)
    P = np.zeros((4, 4))
    P[2, 0] = P[0, 2] = P[3, 1] = P[1, 3] = 1
    assert np.allclose(V, P)
    # CNOT on two one-qubit ions: the embedded matrix acts on the bit labels
    # exactly like the standard gate (the level basis keeps ion 0 fastest)
    reg2 = build_register([IonSpec(2), IonSpec(2)])
    V = embed_standard(cnot_on(2, 0, 1), [0, 1], reg2)
    labels = [reg2.bitstring(g) for g in range(4)]
    for g, bits in enumerate(labels):
        out = bits if bits[0] == "0" else bits[0] + str(1 - int(bits[1]))
        assert V[labels.index(out), g] == 1
    assert np.allclose(V @ V, np.eye(4))
    assert np.allclose(embed_standard(np.eye(4), [0, 1], reg_n2), np.eye(4))


def test_embed_rejects_nonunitary(reg_n2):
    with pytest.raises(ValueError):
        embed_standard(np.ones((2, 2)), [0], reg_n2)


def test_sampling_basis_state(reg_mixed):
    st_ = zero_state(reg_mixed)
    counts = sample_measurement(st_, 500, seed=3)
    assert counts == {"000": 500}


def test_sampling_ghz_binomial():
    reg = build_register([IonSpec(4, m2_map())])
    st_ = zero_state(reg)
    apply_native(st_, R(0, 0, 1, math.pi / 4, -math.pi / 2))
    shots = 10**4
    counts = sample_measurement(st_, shots, seed=11)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == shots
    sigma = 0.5 * math.sqrt(shots)
    assert abs(counts.get("00", 0) - shots / 2) < 4 * sigma


def test_sampling_rejects_zero_shots(reg_n2):
    with pytest.raises(ValueError):
        sample_measurement(zero_state(reg_n2), 0, seed=1)


def test_circuit_text_round_trip(reg_mixed):
    circ = Circuit(reg_mixed)
    circ.append(R(0, 0, 3, 0.25, -1.5))
    circ.append(MS(0, 1, (2, 3), (0, 1), -math.pi / 2))
    text = format_circuit(circ)
    back = parse_circuit(text, reg_mixed)
    assert back.gates == circ.gates
    assert np.allclose(
        sequence_matrix(back.gates, reg_mixed), sequence_matrix(circ.gates, reg_mixed)
    )


def test_register_config_round_trip(reg_mixed):
    from ionvq.core import Register

    cfg = register_config(reg_mixed)
    back = Register.from_config(cfg)
    assert back.dim == reg_mixed.dim
    assert [ion.encoding.perm for ion in back.ions] == [
        ion.encoding.perm for ion in reg_mixed.ions
    ]


# ---------------------------------------------------------------------------
# the R and MS kernels as they were before blocking: one pass over whole level
# slices with slice-sized temporaries.  The blocked kernels evaluate the same
# expressions element by element, so they must match these bit for bit.


def _reference_index_base(view, last_axis, *levels):
    idx = [slice(None)] * (last_axis + 1)
    if any(isinstance(lv, np.ndarray) for lv in levels):
        idx[0] = np.arange(len(view))
    return idx


def _reference_columns(ndim, *coefficients):
    shape = (-1,) + (1,) * (ndim - 1)
    return [x.reshape(shape) if isinstance(x, np.ndarray) else x for x in coefficients]


def _reference_r(view, axis, a, b, theta, phi):
    head = tuple(_reference_index_base(view, axis, a)[:axis])
    ia, ib = head + (a,), head + (b,)
    va, vb = view[ia], view[ib]
    xp = np if isinstance(theta, np.ndarray) else math
    s = xp.sin(theta)
    re, im = xp.sin(phi) * s, xp.cos(phi) * s
    c, off_ab, off_ba = _reference_columns(va.ndim, xp.cos(theta), -re - 1j * im, re - 1j * im)
    new_a = c * va + off_ab * vb
    view[ib] = off_ba * va + c * vb
    view[ia] = new_a


def _reference_ms(view, axis_i, axis_j, pair_i, pair_j, J):
    (ai, bi), (aj, bj) = pair_i, pair_j
    idx = _reference_index_base(view, max(axis_i, axis_j), ai, aj)
    xp = np if isinstance(J, np.ndarray) else math
    c, s = _reference_columns(view.ndim - 2, xp.cos(J), -1j * xp.sin(J))
    for p, q in (((ai, aj), (bi, bj)), ((ai, bj), (bi, aj))):
        idx[axis_i], idx[axis_j] = p
        ip = tuple(idx)
        idx[axis_i], idx[axis_j] = q
        iq = tuple(idx)
        vp, vq = view[ip], view[iq]
        new_p = c * vp + s * vq
        view[iq] = s * vp + c * vq
        view[ip] = new_p


@st.composite
def _kernel_case(draw):
    """An R or MS kernel call on a random array: a single state (possibly
    with trailing matrix columns) with float angles and int levels, or a
    batch of C circuits with (C,) angles and int or (C,) levels."""
    d = draw(st.sampled_from([2, 4, 8]))
    ions = draw(st.integers(2, 4 if d < 8 else 3))
    circuits = draw(st.none() | st.integers(1, 4))
    batch = circuits is not None
    cols = () if batch else draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = ((circuits,) if batch else ()) + (d,) * ions + cols
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def angle():
        return rng.uniform(-7, 7, circuits) if batch else float(rng.uniform(-7, 7))

    def pair():
        if batch and draw(st.booleans()):
            levels = np.sort([rng.choice(d, 2, replace=False) for _ in range(circuits)], axis=1)
            return levels[:, 0], levels[:, 1]
        a, b = sorted(draw(st.permutations(range(d)))[:2])
        return a, b

    axes = [int(batch) + k for k in draw(st.permutations(range(ions)))[:2]]
    if draw(st.booleans()):
        return amps, _reference_r, (axes[0], *pair(), angle(), angle())
    return amps, _reference_ms, (*axes, pair(), pair(), angle())


@settings(max_examples=300)
@given(_kernel_case(), st.integers(1, 64))
def test_blocked_kernels_equal_reference_bit_for_bit(case, block):
    # blocks of 1-64 amplitudes, so that small registers take many blocks
    amps, reference, args = case
    kernel = core._apply_r_nd if reference is _reference_r else core._apply_ms_nd
    expect, got = amps.copy(), amps.copy()
    reference(expect, *args)
    with mock.patch.object(core, "BLOCK_AMPLITUDES", block):
        kernel(got, *args)
    assert np.array_equal(got.view(np.float64), expect.view(np.float64))


def test_kernels_allocate_no_state_sized_temporaries():
    # 2^18 amplitudes (4 MiB); one slice-sized temporary alone would be 1 MiB
    # on every level (box None) and on levels 0-2 of each ion, which both gates leave
    reg = build_register([IonSpec(4) for _ in range(9)])
    for box in (None, [3] * 9):
        amps = np.zeros(reg.shape_view(), dtype=np.complex128)
        amps[(slice(3),) * 9 if box else ...] = 1.0
        st_ = StateVector(reg, amps.reshape(-1) / np.linalg.norm(amps), box)
        for gate in (R(4, 1, 2, 0.3, 0.7), MS(2, 6, (0, 1), (1, 3), 0.4)):
            before = st_.amps.copy()
            tracemalloc.start()
            try:
                apply_native(st_, gate)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < st_.amps.nbytes / 4, (gate, box)
            assert not np.array_equal(st_.amps, before), (gate, box)


@st.composite
def _tracked_case(draw):
    """A state with its ``box`` and R and MS gates to run on it: |0...0>
    or a random state that is zero outside a random box, on 2-3 ions of 2, 4 or 8 levels, or a
    Bernstein-Vazirani input state on its own register."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from(["zero", "random", "bv"]))
    if start == "bv":
        layout = draw(st.sampled_from(["n1", "n2"]))
        bits = draw(st.lists(st.sampled_from("01"), min_size=2, max_size=6))
        s = "".join(bits[:4 if layout == "n1" else 2 * (len(bits) // 2)])
        state = build_bv(s, layout).prep_state()
        reg = state.register
    else:
        reg = build_register([IonSpec(draw(st.sampled_from([2, 4, 8])))
                              for _ in range(draw(st.integers(2, 3)))])
        state = zero_state(reg)
        if start == "random":
            box = [draw(st.integers(1, d)) for d in reg.shape_view()]
            amps = np.zeros(reg.shape_view(), dtype=np.complex128)
            inside = tuple(map(slice, box))
            amps[inside] = rng.standard_normal(box) + 1j * rng.standard_normal(box)
            state = StateVector(reg, amps.reshape(-1) / np.linalg.norm(amps), box)

    def pair(ion):  # two levels of one ion, either end first
        return tuple(draw(st.permutations(range(reg.ions[ion].d)))[:2])

    def gate():
        i, j = draw(st.permutations(range(reg.num_ions)))[:2]
        angle = float(rng.uniform(-7, 7))
        if draw(st.booleans()):
            return R(i, *pair(i), angle, float(rng.uniform(-7, 7)))
        return MS(i, j, pair(i), pair(j), angle)

    return state, [gate() for _ in range(draw(st.integers(1, 10)))]


@settings(max_examples=200)
@given(_tracked_case(), st.integers(1, 64))
def test_tracked_box_equals_untracked_run(case, block):
    # blocks of 1-64 amplitudes, so that the box's sliced axes take many
    state, gates = case
    full = StateVector(state.register, state.amps.copy())  # no box: every level is walked
    shape = state.register.shape_view()
    with mock.patch.object(core, "BLOCK_AMPLITUDES", block):
        for gate in gates:
            apply_native(state, gate)
            apply_native(full, gate)
            assert np.array_equal(state.amps.view(np.float64), full.amps.view(np.float64)), gate
            outside = np.ones(shape, dtype=bool)
            outside[tuple(map(slice, state.box))] = False
            assert not state.amps.reshape(shape)[outside].any(), (gate, state.box)


def _reference_sample_counts(state, shots, seed):
    """sample_counts on full arrays: one search of the whole running sum of probabilities()."""
    c = np.cumsum(state.probabilities())
    u = np.sort(np.random.default_rng(seed).random(shots)) * c[-1]
    idx = np.searchsorted(c, u, side="right")
    idx[idx == c.size] = np.flatnonzero(np.diff(c, prepend=0.0))[-1]  # c's last step
    return np.unique(idx, return_counts=True)


def _reference_sample_measurement(state, shots, seed):
    """sample_measurement as it was: every basis index labelled in Python."""
    idx, counts = _reference_sample_counts(state, shots, seed)
    total = np.zeros(state.register.dim, dtype=np.int64)
    total[idx] = counts
    return {state.register.bitstring(g): int(c) for g, c in enumerate(total) if c}


@pytest.mark.parametrize("ions,support,shots", [(3, 5, 1000), (3, 64, 70_000), (8, 2**16, 5000)])
def test_sample_measurement_equals_all_basis_labelling(ions, support, shots):
    # m2 maps make the labels differ from the level order; zero
    # probabilities outside ``support`` random basis states
    reg = build_register([IonSpec(4, m2_map() if k % 2 else m1_map()) for k in range(ions)])
    rng = np.random.default_rng(support)
    amps = np.zeros(reg.dim, dtype=np.complex128)
    where = rng.choice(reg.dim, support, replace=False)
    amps[where] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    st_ = StateVector(reg, amps / np.linalg.norm(amps))
    got = sample_measurement(st_, shots, seed=support)
    expect = _reference_sample_measurement(st_, shots, seed=support)
    assert list(got.items()) == list(expect.items())
    assert sum(got.values()) == shots


@st.composite
def _sampled_state(draw, max_ions, levels=(2, 4)):
    """A normalised state on 1..max_ions ions of ``levels`` levels: magnitudes in [1, 2] on a
    random support, zero off it and on a run of outcomes at the end."""
    reg = build_register([IonSpec(draw(st.sampled_from(levels)))
                          for _ in range(draw(st.integers(1, max_ions)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tail = draw(st.integers(0, reg.dim - 1))
    keep = rng.random(reg.dim) < draw(st.floats(0.05, 1.0))
    keep[rng.integers(reg.dim - tail)] = True
    keep[reg.dim - tail:] = False
    amps = rng.uniform(1, 2, reg.dim) * np.exp(2j * np.pi * rng.random(reg.dim)) * keep
    return StateVector(reg, amps / np.linalg.norm(amps))


def _check_drawn(state, shots, idx, counts):
    """Ascending distinct indices, every shot counted, no outcome of probability 0."""
    assert np.all(np.diff(idx) > 0) and counts.sum() == shots and np.all(counts > 0)
    assert np.all(state.probabilities()[idx] > 0)


@settings(max_examples=300)
@given(_sampled_state(4), st.integers(1, 3000), st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_streamed_sample_counts_equal_full_array_oracle(state, shots, seed, block):
    # blocks of 1-64 amplitudes, so that small registers take many blocks
    with mock.patch.object(core, "BLOCK_AMPLITUDES", block):
        idx, counts = core.sample_counts(state, shots, seed)
    expect_idx, expect_counts = _reference_sample_counts(state, shots, seed)
    assert np.array_equal(idx, expect_idx) and np.array_equal(counts, expect_counts)
    _check_drawn(state, shots, idx, counts)


@given(_sampled_state(4), st.integers(1, 64))
def test_sample_counts_put_edge_uniforms_where_the_oracle_does(state, block):
    # uniforms 0, those landing exactly on a value of the running sum c (so one ulp of c moves
    # the outcome), and 1, which random() never returns (u = c[-1])
    c = np.cumsum(state.probabilities())
    r = c / c[-1]
    r = np.concatenate([[0.0], r[(r * c[-1] == c) & (r < 1)], [1.0]])
    rng = SimpleNamespace(random=lambda shots: r)
    with mock.patch.object(np.random, "default_rng", lambda seed: rng):
        with mock.patch.object(core, "BLOCK_AMPLITUDES", block):
            idx, counts = core.sample_counts(state, r.size, 0)
        expect_idx, expect_counts = _reference_sample_counts(state, r.size, 0)
    assert np.array_equal(idx, expect_idx) and np.array_equal(counts, expect_counts)
    drawable = np.flatnonzero(state.probabilities())
    assert idx[0] == drawable[0] and idx[-1] == drawable[-1]


# fixed examples: a 5-sigma bound checked on up to 256 outcomes would fail now and then
@settings(max_examples=60, derandomize=True)
@given(_sampled_state(8, (2,)), st.integers(0, 2**32 - 1))
def test_sample_counts_follow_the_born_rule(state, seed):
    shots = 20_000
    idx, counts = core.sample_counts(state, shots, seed)
    _check_drawn(state, shots, idx, counts)
    total = np.zeros(state.register.dim)
    total[idx] = counts
    p = state.probabilities()  # a certain outcome's p can round past 1
    assert np.all(np.abs(total - shots * p) <= 5 * np.sqrt(shots * p * np.maximum(1 - p, 0)) + 1e-6)


def test_sample_counts_allocate_no_state_sized_temporaries():
    # 2^18 amplitudes (4 MiB), as for the kernels
    reg = build_register([IonSpec(4) for _ in range(9)])
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    st_ = StateVector(reg, amps / np.linalg.norm(amps))
    tracemalloc.start()
    try:
        core.sample_counts(st_, 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < st_.amps.nbytes / 4


def _reference_embed(U, targets, reg):
    """embed_standard as it was: bit_table and the lift looped over every basis
    state and every output in Python."""
    bits = np.array([[int(c) for c in reg.bitstring(g)] for g in range(reg.dim)], dtype=np.uint8)
    k = len(targets)
    index_of = {tuple(bits[g]): g for g in range(reg.dim)}
    V = np.zeros((reg.dim, reg.dim), dtype=np.complex128)
    for g in range(reg.dim):
        row = bits[g].copy()
        t_in = 0
        for q in targets:
            t_in = (t_in << 1) | int(row[q])
        for t_out in range(2**k):
            new = row.copy()
            for pos, q in enumerate(targets):
                new[q] = (t_out >> (k - 1 - pos)) & 1
            V[index_of[tuple(new)], g] += U[t_out, t_in]
    return bits, V


@settings(max_examples=30)
@given(maps=st.lists(st.sampled_from(["d2", "m1", "m2", "d8"]), min_size=1, max_size=3),
       order=st.sampled_from(["msb_first", "lsb_first"]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_vectorised_embedding_equals_basis_loop_bit_for_bit(maps, order, seed, data):
    # signed zeros included: -I has -0.0 off its diagonal, and the lift adds onto zeros
    specs = {"d2": IonSpec(2), "m1": IonSpec(4, m1_map()), "m2": IonSpec(4, m2_map()),
             "d8": IonSpec(8)}
    reg = core.Register(tuple(specs[m] for m in maps), order)
    targets = data.draw(st.lists(st.integers(0, reg.num_qubits - 1), min_size=1,
                                 max_size=min(3, reg.num_qubits), unique=True))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 ** len(targets),) * 2) + 1j * rng.standard_normal(
        (2 ** len(targets),) * 2)
    U = data.draw(st.sampled_from([np.linalg.qr(z)[0], -np.eye(2 ** len(targets)),
                                   np.linalg.qr(z.real)[0] + 0j]))
    bits, V = _reference_embed(U, targets, reg)
    assert reg.bit_table().dtype == np.uint8
    assert reg.bit_table().tobytes() == bits.tobytes()
    assert embed_standard(U, targets, reg).tobytes() == V.tobytes()


@settings(max_examples=80)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["diagonal", "off-diagonal", "non-finite", "non-square"]),
       inside=st.booleans(), margin=st.floats(1e-4, 1e-3),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, np.nan)]))
def test_is_unitary_decides_as_allclose(n, seed, kind, inside, margin, bad):
    # U^dag U is pushed just inside or outside allclose's bound on a diagonal entry
    # (atol + rtol) or an off-diagonal one (atol), or U gets a NaN/inf entry
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    tol, edge = core.UNITARY_TOL, 1 - margin if inside else 1 + margin
    U, expected = Q, inside
    if kind == "diagonal":
        U = Q * math.sqrt(1 + (tol + 1e-5) * edge)
    elif kind == "off-diagonal" and n > 1:
        M = np.eye(n, dtype=np.complex128)
        M[0, 1] = tol * edge * np.exp(1j * rng.uniform(0, 2 * math.pi))
        U = Q @ M
    elif kind == "non-finite":
        U = Q.copy()
        U[rng.integers(n), rng.integers(n)] = bad
        expected = False
    elif kind == "non-square":
        U = np.vstack([Q, np.zeros((1, n))])  # orthonormal columns, one row too many
        assert not is_unitary(U) and not is_unitary(U.T) and not is_unitary(Q[0])
        return
    else:
        expected = True
    with np.errstate(invalid="ignore"):  # a NaN/inf entry spreads through U^dag U
        assert is_unitary(U) == np.allclose(U.conj().T @ U, np.eye(n), atol=tol) == expected
