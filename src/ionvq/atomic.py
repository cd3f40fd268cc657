"""Hyperfine-Zeeman structure of a single fine-structure level and the
matrix elements used to drive transitions inside it.

The Hamiltonian in the |m_I, m_J> product basis (energies in Hz):

    H = A_hfs (I.J) + B_hfs Q(I.J) + (mu_B/h) g_J B J_z - (mu_N/h) g_I B I_z

with the standard electric-quadrupole form
Q = [3(I.J)^2 + 3/2 (I.J) - I(I+1)J(J+1)] / [2I(2I-1)J(2J-1)].
H commutes with F_z, so it is diagonalized block by block in m_F = m_I + m_J
and eigenstates are labeled by the zero-field |F, m_F> they adiabatically
connect to (no crossings occur inside an m_F block).

Magnetic-dipole drive:  mu = -mu_B g_J J + mu_N g_I I, matrix elements in
units of mu_B.  Raman drive via a single excited level of angular momentum
J_exc: M = <j| (r.e1) P_exc (r.e2) |i> with the reduced dipole element set
to one; the absolute Rabi scale lives in the drive constant D.
Polarization vectors are given in spherical components (sigma-, pi, sigma+),
so component q of the polarization drives Delta m_F = q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

MU_B_HZ_PER_T = 13.996244936e9  # Bohr magneton over h
MU_N_HZ_PER_T = 7.622593285e6   # nuclear magneton over h


@dataclass(frozen=True)
class LevelModel:
    name: str
    I: float
    J: float
    A_hfs_Hz: float
    B_hfs_Hz: float
    g_J: float
    g_I: float
    raman_excited_J: float

    def __post_init__(self):
        for key in ("I", "J", "raman_excited_J"):
            spin = getattr(self, key)
            if not (spin >= 0 and (2 * spin).is_integer()):
                raise ValueError(f"{key} = {spin} is not a nonnegative half-integer")

    @property
    def dim(self) -> int:
        return int((2 * self.I + 1) * (2 * self.J + 1))

    def f_values(self):
        fmin = abs(self.I - self.J)
        return [fmin + k for k in range(int(self.I + self.J - fmin) + 1)]


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def load_level_model(name: str = "ba137_d52") -> LevelModel:
    path = Path(name)
    if not path.suffix:
        path = data_dir() / f"{name}.json"
    with open(path) as fh:
        raw = json.load(fh)
    return LevelModel(
        name=raw["name"],
        I=float(raw["I"]),
        J=float(raw["J"]),
        A_hfs_Hz=float(raw["A_hfs_Hz"]),
        B_hfs_Hz=float(raw["B_hfs_Hz"]),
        g_J=float(raw["g_J"]),
        g_I=float(raw["g_I"]),
        raman_excited_J=float(raw["raman_excited_J"]),
    )


# ---------------------------------------------------------------------------
# angular momentum algebra


def jz_jp_jm(j: float):
    dim = int(round(2 * j)) + 1
    m = np.array([-j + k for k in range(dim)])
    jz = np.diag(m)
    jp = np.zeros((dim, dim))
    for k in range(dim - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return jz, jp, jp.T


def _fact(n: float) -> float:
    return math.factorial(int(round(n)))


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Racah closed form; arguments may be half-integral."""
    if abs(m1 + m2 + m3) > 1e-9:
        return 0.0
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if abs(m) > j + 1e-9 or abs((j - m) - round(j - m)) > 1e-9:
            return 0.0
    t1 = j2 - m1 - j3
    t2 = j1 + m2 - j3
    t3 = j1 + j2 - j3
    t4 = j1 - m1
    t5 = j2 + m2
    tmin = int(round(max(0, t1, t2)))
    tmax = int(round(min(t3, t4, t5)))
    total = 0.0
    for t in range(tmin, tmax + 1):
        denom = (
            _fact(t) * _fact(t - t1) * _fact(t - t2)
            * _fact(t3 - t) * _fact(t4 - t) * _fact(t5 - t)
        )
        total += (-1) ** t / denom
    tri = (
        _fact(j1 + j2 - j3) * _fact(j1 - j2 + j3) * _fact(-j1 + j2 + j3)
        / _fact(j1 + j2 + j3 + 1)
    )
    norm = (
        _fact(j1 + m1) * _fact(j1 - m1) * _fact(j2 + m2) * _fact(j2 - m2)
        * _fact(j3 + m3) * _fact(j3 - m3)
    )
    return ((-1) ** int(round(j1 - j2 - m3))) * math.sqrt(tri * norm) * total


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    return ((-1) ** int(round(j1 - j2 + M))) * math.sqrt(2 * J + 1) * wigner_3j(
        j1, j2, J, m1, m2, -M
    )


# ---------------------------------------------------------------------------
# level Hamiltonian and adiabatic labels


@dataclass
class LevelStates:
    """Eigensystem at one field value with adiabatic |F, m_F> labels."""

    model: LevelModel
    B: float
    energies: np.ndarray          # Hz, ascending
    states: np.ndarray            # columns in the |m_I, m_J> basis
    labels: list                  # (F, m_F) per column
    m_f: np.ndarray


@lru_cache(maxsize=32)
def _operators(I: float, J: float):
    iz, ip, im = jz_jp_jm(I)
    jz, jp, jm = jz_jp_jm(J)
    di, dj = iz.shape[0], jz.shape[0]
    Iz = np.kron(iz, np.eye(dj))
    Jz = np.kron(np.eye(di), jz)
    IdotJ = (
        np.kron(iz, jz)
        + 0.5 * (np.kron(ip, jm) + np.kron(im, jp))
    )
    return Iz, Jz, IdotJ


def hamiltonian(model: LevelModel, B: float) -> np.ndarray:
    """Level Hamiltonian in Hz at field B (tesla)."""
    Iz, Jz, IdotJ = _operators(model.I, model.J)
    I, J = model.I, model.J
    H = model.A_hfs_Hz * IdotJ
    if I > 0.5 and J > 0.5:
        denom = 2 * I * (2 * I - 1) * J * (2 * J - 1)
        H = H + model.B_hfs_Hz * (
            3 * IdotJ @ IdotJ + 1.5 * IdotJ - I * (I + 1) * J * (J + 1) * np.eye(Iz.shape[0])
        ) / denom
    H = H + MU_B_HZ_PER_T * model.g_J * B * Jz - MU_N_HZ_PER_T * model.g_I * B * Iz
    assert np.allclose(H, H.T, atol=1e-6), "level Hamiltonian must be symmetric"
    return H


def _zero_field_energies(model: LevelModel) -> dict:
    I, J = model.I, model.J
    out = {}
    for F in model.f_values():
        K = F * (F + 1) - I * (I + 1) - J * (J + 1)
        e = model.A_hfs_Hz * K / 2
        if I > 0.5 and J > 0.5:
            denom = 2 * I * (2 * I - 1) * J * (2 * J - 1)
            e += model.B_hfs_Hz * (0.75 * K * (K + 1) - I * (I + 1) * J * (J + 1)) / denom
        out[F] = e
    return out


@lru_cache(maxsize=8)
def _mf_blocks(model: LevelModel):
    """Per block size, the basis indices and eigenstate columns of its m_F
    blocks (one row per block), and the adiabatic label of every column."""
    Iz, Jz, _ = _operators(model.I, model.J)
    mf_basis = np.round(2 * (np.diag(Iz) + np.diag(Jz))) / 2
    e0 = _zero_field_energies(model)
    groups: dict = {}
    labels = []
    for mf in sorted(set(mf_basis.tolist())):
        idx = np.flatnonzero(np.abs(mf_basis - mf) < 1e-9)
        f_here = sorted((F for F in model.f_values() if F >= abs(mf) - 1e-9), key=lambda F: e0[F])
        groups.setdefault(len(idx), []).append((idx, len(labels) + np.arange(len(idx))))
        labels += [(F, mf) for F in f_here[: len(idx)]]
    return [tuple(np.array(part) for part in zip(*blocks)) for blocks in groups.values()], labels


def diagonalize_level(model: LevelModel, B: float) -> LevelStates:
    """Eigensystem at field B; adiabatic labels via the m_F block structure,
    whose blocks of one size are diagonalized by one stacked ``eigh``."""
    if B < 0:
        raise ValueError("field must be nonnegative")
    H = hamiltonian(model, B)
    groups, labels = _mf_blocks(model)
    energies = np.zeros(H.shape[0])
    states = np.zeros(H.shape)
    for idx, cols in groups:
        vals, vecs = np.linalg.eigh(H[idx[:, :, None], idx[:, None, :]])
        energies[cols] = vals
        states[idx[:, :, None], cols[:, None, :]] = vecs
    order = np.argsort(energies, kind="stable")
    return LevelStates(
        model,
        B,
        energies[order],
        states[:, order],
        [labels[k] for k in order],
        np.array([labels[k][1] for k in order]),
    )


def _transitions(model: LevelModel, B: float, base: LevelStates, dB: float = 1e-7):
    """All pairwise transitions of ``base``, the eigensystem at B, as arrays
    (i, j, freq_Hz, sens_Hz_per_T) with i < j in ``np.triu_indices`` order,
    freq = E_j - E_i and sens = d(E_j - E_i)/dB by central difference.
    Eigenstates at B +/- dB are matched to those at B by maximal overlap among
    those of the same m_F (one masked overlap matrix per side) before
    differencing."""
    lo = diagonalize_level(model, max(B - dB, 0.0))
    hi = diagonalize_level(model, B + dB)
    step = (B + dB) - max(B - dB, 0.0)

    def matched_energies(other: LevelStates) -> np.ndarray:
        ov = np.abs(other.states.T @ base.states)
        ov[other.m_f[:, None] != base.m_f[None, :]] = -1.0
        return other.energies[np.argmax(ov, axis=0)]

    dEdB = (matched_energies(hi) - matched_energies(lo)) / step
    a, b = np.triu_indices(base.energies.size, 1)
    return a, b, base.energies[b] - base.energies[a], dEdB[b] - dEdB[a]


# ---------------------------------------------------------------------------
# drive matrix elements


def _spherical_components(jz, jp, jm):
    return {-1: jm / math.sqrt(2), 0: jz, 1: -jp / math.sqrt(2)}


def m1_operator(model: LevelModel, pol) -> np.ndarray:
    """mu.e in units of mu_B; pol = (sigma-, pi, sigma+) amplitudes."""
    iz, ip, im = jz_jp_jm(model.I)
    jz, jp, jm = jz_jp_jm(model.J)
    di, dj = iz.shape[0], jz.shape[0]
    Jq = _spherical_components(jz, jp, jm)
    Iq = _spherical_components(iz, ip, im)
    out = np.zeros((di * dj, di * dj), dtype=complex)
    for qi, q in enumerate((-1, 0, 1)):
        mu_q = -model.g_J * np.kron(np.eye(di), Jq[q]) + (
            MU_N_HZ_PER_T / MU_B_HZ_PER_T
        ) * model.g_I * np.kron(Iq[q], np.eye(dj))
        out = out + pol[qi] * mu_q
    return out


@lru_cache(maxsize=8)
def _raman_up_blocks(I: float, J: float, J_exc: float):
    """<(m_I), J_exc m_e| r_q |(m_I), J m> with unit reduced element."""
    di = int(round(2 * I)) + 1
    dj = int(round(2 * J)) + 1
    de = int(round(2 * J_exc)) + 1
    ms_g = [-J + k for k in range(dj)]
    ms_e = [-J_exc + k for k in range(de)]
    blocks = {}
    for q in (-1, 0, 1):
        T = np.zeros((de, dj))
        for a, me in enumerate(ms_e):
            for b, mg in enumerate(ms_g):
                if abs(mg + q - me) < 1e-9:
                    T[a, b] = clebsch_gordan(J, mg, 1, q, J_exc, me)
        blocks[q] = np.kron(np.eye(di), T)
    return blocks


def raman_operator(model: LevelModel, pol1, pol2) -> np.ndarray:
    """(r.e1) P_exc (r.e2) on the level, reduced dipole element = 1.

    Emission elements are the component-wise conjugates of the absorption
    elements (<g|r_q|e> = <e|r_{-q}|g>*); the overall scale and phase of the
    reduced element are absorbed into the drive constant.
    """
    up = _raman_up_blocks(model.I, model.J, model.raman_excited_J)
    down = {q: up[-q].T.conj() for q in (-1, 0, 1)}
    A = sum(pol1[qi] * down[q] for qi, q in enumerate((-1, 0, 1)))
    Bm = sum(pol2[qi] * up[q] for qi, q in enumerate((-1, 0, 1)))
    return A @ Bm


def matrix_elements(
    model: LevelModel, states: LevelStates, mechanism: str, pol1, pol2=None
) -> np.ndarray:
    """Matrix of drive elements between eigenstates: M[j, i] = <j| Op |i>."""
    if mechanism == "m1":
        op = m1_operator(model, pol1)
    elif mechanism == "raman":
        op = raman_operator(model, pol1, pol2 if pol2 is not None else pol1)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    V = states.states
    return V.T.conj() @ op @ V
