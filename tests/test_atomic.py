import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionvq.atomic import (
    MU_B_HZ_PER_T,
    MU_N_HZ_PER_T,
    LevelModel,
    LevelStates,
    _operators,
    _transitions,
    _zero_field_energies,
    clebsch_gordan,
    diagonalize_level,
    hamiltonian,
    load_level_model,
    matrix_elements,
    wigner_3j,
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


def _reference_diagonalize(model, B):
    """One ``eigh`` per m_F block, columns filled one at a time."""
    H = hamiltonian(model, B)
    Iz, Jz, _ = _operators(model.I, model.J)
    mf_basis = np.round(2 * (np.diag(Iz) + np.diag(Jz))) / 2
    dim = H.shape[0]
    energies, states, labels = np.zeros(dim), np.zeros((dim, dim)), [None] * dim
    e0 = _zero_field_energies(model)
    col = 0
    for mf in sorted(set(mf_basis.tolist())):
        idx = np.where(np.abs(mf_basis - mf) < 1e-9)[0]
        vals, vecs = np.linalg.eigh(H[np.ix_(idx, idx)])
        f_here = sorted((F for F in model.f_values() if F >= abs(mf) - 1e-9), key=lambda F: e0[F])
        for k in range(len(idx)):
            energies[col], states[idx, col], labels[col] = vals[k], vecs[:, k], (f_here[k], mf)
            col += 1
    order = np.argsort(energies, kind="stable")
    return LevelStates(model, B, energies[order], states[:, order], [labels[k] for k in order],
                       np.array([labels[k][1] for k in order]))


def _reference_transition_table(model, B, dB=1e-7):
    """Each eigenstate matched by a loop over the same-m_F states."""
    base = _reference_diagonalize(model, B)
    lo = _reference_diagonalize(model, max(B - dB, 0.0))
    hi = _reference_diagonalize(model, B + dB)
    step = (B + dB) - max(B - dB, 0.0)

    def matched_energy(other, k):
        mf = base.labels[k][1]
        cand = [c for c in range(other.energies.size) if other.labels[c][1] == mf]
        ov = [abs(np.dot(other.states[:, c], base.states[:, k])) for c in cand]
        return other.energies[cand[int(np.argmax(ov))]]

    dim = base.energies.size
    dEdB = np.array([(matched_energy(hi, k) - matched_energy(lo, k)) / step for k in range(dim)])
    return [(a, b, float(base.energies[b] - base.energies[a]), float(dEdB[b] - dEdB[a]))
            for a in range(dim) for b in range(a + 1, dim)]


def _transition_rows(model, B):
    """(i, j, label_i, label_j, freq_Hz, sens_Hz_per_T) of every transition at B."""
    base = diagonalize_level(model, B)
    return [(i, j, base.labels[i], base.labels[j], f, s)
            for i, j, f, s in zip(*(v.tolist() for v in _transitions(model, B, base)))]


def zeeman_derivative(model: LevelModel) -> np.ndarray:
    """dH/dB in Hz/T (field-independent)."""
    Iz, Jz, _ = _operators(model.I, model.J)
    return MU_B_HZ_PER_T * model.g_J * Jz - MU_N_HZ_PER_T * model.g_I * Iz


MODELS = [
    BA,
    LevelModel("J-only", 0.0, 2.5, 0.0, 0.0, 1.2, 0.0, 1.5),
    LevelModel("I=1/2 J=1/2", 0.5, 0.5, 12.6e9, 0.0, 2.0, -0.5, 0.5),
]


@settings(max_examples=40)
@given(model=st.sampled_from(MODELS), field_G=st.one_of(st.just(0.0), st.floats(0.0, 70.0)))
def test_eigensystem_and_transitions_equal_per_block_references(model, field_G):
    # stacked eigh per block size and masked-overlap matching, bit for bit
    B = field_G * 1e-4
    got, ref = diagonalize_level(model, B), _reference_diagonalize(model, B)
    assert np.array_equal(got.energies, ref.energies)
    assert np.array_equal(got.states, ref.states)
    assert got.labels == ref.labels and np.array_equal(got.m_f, ref.m_f)
    table = _reference_transition_table(model, B)
    assert list(zip(*(v.tolist() for v in _transitions(model, B, got)))) == table


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
    bylab = {frozenset((la, lb)): (f, s) for _, _, la, lb, f, s in _transition_rows(BA, 2.0e-3)}
    for la, lb, f_ref, s_ref, _ in TABLE_ROWS:
        freq, sens = bylab[frozenset((la, lb))]
        assert freq == pytest.approx(f_ref, rel=0.01)
        assert abs(sens) == pytest.approx(s_ref, rel=0.01)


def test_sensitivity_antisymmetry_and_hellmann_feynman():
    B = 2.0e-3
    st = diagonalize_level(BA, B)
    dHdB = zeeman_derivative(BA)
    expect = {
        k: float(st.states[:, k] @ dHdB @ st.states[:, k]) for k in range(len(st.states))
    }
    checked = 0
    for i, j, _, _, _, sens in _transition_rows(BA, B):
        hf = expect[j] - expect[i]
        if abs(hf) > 1e8:  # skip near-insensitive pairs where 0.1% is meaningless
            assert sens == pytest.approx(hf, rel=1e-3)
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
