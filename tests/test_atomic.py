import math

import numpy as np
import pytest

from ionvq.atomic import (
    LevelModel,
    clebsch_gordan,
    diagonalize_level,
    hamiltonian,
    load_level_model,
    matrix_elements,
    transition_table,
    wigner_3j,
    zeeman_derivative,
)

BA = load_level_model()
POL = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)

TABLE_ROWS = [
    ((1.0, 0.0), (1.0, -1.0), 56.8e6, 2.468e10, 94.99e3),
    ((1.0, 0.0), (2.0, -2.0), 137.1e6, 3.263e10, 48.80e3),
    ((1.0, -1.0), (2.0, -2.0), 80.3e6, 0.795e10, 88.35e3),
    ((2.0, -2.0), (3.0, -3.0), 63.1e6, 0.618e10, 71.36e3),
    ((1.0, -1.0), (3.0, -3.0), 143.4e6, 1.413e10, 29.72e3),
]


def test_angular_momentum_identities():
    assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3))
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)


def test_zero_field_degeneracies():
    st = diagonalize_level(BA, 0.0)
    for F in (1.0, 2.0, 3.0, 4.0):
        es = [e for e, lab in zip(st.energies, st.labels) if lab[0] == F]
        assert len(es) == int(2 * F + 1)
        assert np.ptp(es) < 1e-3  # rotationally degenerate manifolds


def test_f3_f4_splitting_small():
    st = diagonalize_level(BA, 0.0)
    e3 = np.mean([e for e, l in zip(st.energies, st.labels) if l[0] == 3.0])
    e4 = np.mean([e for e, l in zip(st.energies, st.labels) if l[0] == 4.0])
    assert 0.3e6 < e3 - e4 < 0.7e6  # ~0.5 MHz


def test_spin_zero_linear_zeeman():
    model = LevelModel("J-only", 0.0, 2.5, 0.0, 0.0, 1.2, 0.0, 1.5)
    B = 5e-4
    st = diagonalize_level(model, B)
    gaps = np.diff(st.energies)
    assert np.allclose(gaps, 1.2 * 13.996244936e9 * B, rtol=1e-9)


def test_trace_invariant_under_field():
    t0 = np.trace(hamiltonian(BA, 0.0))
    t1 = np.trace(hamiltonian(BA, 5e-3))
    assert abs(t1 - t0) < 1e-3  # the Zeeman part is traceless


def test_f3_f4_mixing_onset():
    # states mix once the Zeeman scale reaches the 0.5 MHz splitting (~0.35 G)
    def mixing(B):
        st = diagonalize_level(BA, B)
        ref = diagonalize_level(BA, 0.0)
        k = st.labels.index((3.0, -1.0))
        v = st.states[:, k]
        overlaps = ref.states.T @ v
        p_other_f = sum(
            o**2 for o, lab in zip(overlaps, ref.labels) if lab[0] != 3.0
        )
        return p_other_f

    assert mixing(0.05e-4) < 0.02
    assert mixing(0.35e-4) > 0.05
    assert mixing(2e-4) > 0.3


def test_table_frequencies_and_sensitivities():
    tt = transition_table(BA, 2.0e-3)
    bylab = {frozenset((t.label_i, t.label_j)): t for t in tt}
    for la, lb, f_ref, s_ref, _ in TABLE_ROWS:
        t = bylab[frozenset((la, lb))]
        assert t.freq_Hz == pytest.approx(f_ref, rel=0.01)
        assert abs(t.sens_Hz_per_T) == pytest.approx(s_ref, rel=0.01)


def test_sensitivity_antisymmetry_and_hellmann_feynman():
    B = 2.0e-3
    st = diagonalize_level(BA, B)
    dHdB = zeeman_derivative(BA)
    tt = transition_table(BA, B)
    expect = {
        k: float(st.states[:, k] @ dHdB @ st.states[:, k]) for k in range(BA.dim)
    }
    checked = 0
    for t in tt:
        hf = expect[t.j] - expect[t.i]
        if abs(hf) > 1e8:  # skip near-insensitive pairs where 0.1% is meaningless
            assert t.sens_Hz_per_T == pytest.approx(hf, rel=1e-3)
            checked += 1
    assert checked > 100


def test_raman_rabi_ratios():
    st = diagonalize_level(BA, 2.0e-3)
    M = matrix_elements(BA, st, "raman", POL, POL)
    idx = {lab: k for k, lab in enumerate(st.labels)}
    m0 = abs(M[idx[TABLE_ROWS[0][1]], idx[TABLE_ROWS[0][0]]])
    for la, lb, _, _, rabi in TABLE_ROWS[1:]:
        ratio = abs(M[idx[lb], idx[la]]) / m0
        assert ratio == pytest.approx(rabi / TABLE_ROWS[0][4], rel=0.02)


def test_element_magnitude_symmetry():
    st = diagonalize_level(BA, 2.0e-3)
    for mech in ("raman", "m1"):
        M = matrix_elements(BA, st, mech, POL, POL)
        assert np.max(np.abs(np.abs(M) - np.abs(M.T))) < 1e-12


def test_m1_pi_selection_rule():
    st = diagonalize_level(BA, 2.0e-3)
    M = matrix_elements(BA, st, "m1", np.array([0.0, 1.0, 0.0]))
    idx = {lab: k for k, lab in enumerate(st.labels)}
    a, b = idx[(1.0, 0.0)], idx[(2.0, -2.0)]
    assert abs(M[b, a]) < 1e-12


def test_unknown_mechanism_rejected():
    st = diagonalize_level(BA, 2.0e-3)
    with pytest.raises(ValueError):
        matrix_elements(BA, st, "quadrupole", POL)
