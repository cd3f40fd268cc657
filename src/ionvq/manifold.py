"""Computational-manifold selection: allowed-transition graphs, the heuristic
cost and exhaustive ranking.

Cost model for a candidate set of d = 2^n states with A allowed internal
transitions (x = (A_max - A)/(A_max - A_min), A_max = d(d-1)/2,
A_min = d - 1 for a connected graph):

    eps_Int/Spect = d^(2-x) (D^2/N_T) sum_T sum_T' [ M'^2/(w_T - w_T')^2
                     + eta^2 M'^2 / ((|w_T - w_T'| - w_M)^2) ]
    eps_M  = d^(4-2x) t_R^2 <dB^2> sum_T (dw_T/dB)^2 / (4 d (d+2))
    C      = eps_M + eps_Int + kappa * eps_Spect,      t_G = d^(2-x) t_R

with angular frequencies throughout and crosstalk denominators floored at
delta_min^2.  The rotation time t_R is the pi time at the mean Rabi frequency
of the candidate's edges, the reading that reproduces the published per-gate
numbers.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atomic import LevelModel, LevelStates, _transitions, diagonalize_level, matrix_elements

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class CostParams:
    """Drive and noise parameters for the manifold cost.

    The default drive constant is calibrated so the (F=1,m=0)-(F=1,m=-1)
    transition at 20 G with both beams polarized (1,1,1)/sqrt(3) runs at
    94.99 kHz; only this one overall scale is fitted, every other Rabi
    frequency follows from the matrix-element ratios.
    """

    D_Hz: float = 548870.578          # Rabi frequency per unit matrix element
    pol1: tuple = (0.57735026918962584, 0.57735026918962584, 0.57735026918962584)
    pol2: tuple | None = None         # defaults to pol1
    B_T: float = 2.0e-3               # quantisation field (20 G)
    dB_rms_T: float = 5.0e-9          # 50 uG RMS field noise
    kappa: float = 0.5
    eta: float = 0.1                  # Lamb-Dicke parameter (documented default)
    omega_M_Hz: float = 1.0e6         # motional frequency (documented default)
    mechanism: str = "raman"
    rabi_threshold_Hz: float = 10.0e3
    resolution: float = 0.05
    delta_min_Hz: float = 1.0e3       # detuning floor (angular inside)
    resolution_scope: str = "all"      # which transitions can veto an edge

    def pols(self):
        p2 = self.pol1 if self.pol2 is None else self.pol2
        return np.asarray(self.pol1, dtype=complex), np.asarray(p2, dtype=complex)


@dataclass
class LevelData:
    """Precomputed pairwise data for one (model, field, params) point."""

    states: LevelStates
    pairs: np.ndarray                # [T, 2] eigenstate indices i < j
    pair_index: np.ndarray           # [i, j] -> row of pairs, for i < j
    omega: np.ndarray                # angular transition frequencies
    sens: np.ndarray                 # angular sensitivities d w / dB
    m_abs: np.ndarray                # |matrix element| per pair
    drivable: np.ndarray             # above Rabi threshold
    admitted: np.ndarray             # drivable and passes the off-resonant admission rule
    crosstalk: np.ndarray            # [T, T'] kernel over drivable T, T' (unscaled by D^2)


def precompute_level_data(model: LevelModel, params: CostParams) -> LevelData:
    states = diagonalize_level(model, params.B_T)
    i, j, freq, sens = _transitions(model, params.B_T, states)
    M = matrix_elements(model, states, params.mechanism, *params.pols())
    pairs = np.stack([i, j], axis=1)
    pair_index = np.zeros((len(states.labels),) * 2, dtype=np.intp)
    pair_index[i, j] = np.arange(len(pairs))
    omega, sens = TWO_PI * freq, TWO_PI * sens
    m_abs = np.abs(M[j, i])
    drivable = params.D_Hz * m_abs >= params.rabi_threshold_Hz
    drv = np.flatnonzero(drivable)

    # admission, over drivable rows T: driving T must not excite any other
    # level transition beyond the resolution bound ("all"); the "endpoint"
    # scope restricts the veto to transitions sharing one of T's endpoints
    dmin = TWO_PI * params.delta_min_Hz
    delta = np.abs(omega[drv, None] - omega[None, :])
    main = np.maximum(delta, dmin) ** 2
    if params.resolution_scope == "all":
        veto = np.ones(main.shape, dtype=bool)
    elif params.resolution_scope == "endpoint":
        veto = (pairs[drv, None, :, None] == pairs[None, :, None, :]).any(axis=(2, 3))
    else:
        raise ValueError("resolution_scope must be 'all' or 'endpoint'")
    veto &= m_abs >= 1e-12
    veto[np.arange(len(drv)), drv] = False
    rabi = TWO_PI * params.D_Hz * m_abs
    admitted = np.zeros_like(drivable)
    admitted[drv] = ~(veto & (rabi**2 / main > params.resolution)).any(axis=1)

    side = np.maximum(np.abs(delta[:, drv] - TWO_PI * params.omega_M_Hz), dmin) ** 2
    m2 = m_abs[drv] ** 2
    crosstalk = m2 / main[:, drv] + (params.eta**2) * m2 / side
    return LevelData(states, pairs, pair_index, omega, sens, m_abs, drivable, admitted, crosstalk)


def allowed_graph(state_set, data: LevelData):
    """Admitted internal transitions of a candidate state set."""
    pairs = itertools.combinations(sorted(state_set), 2)
    return [p for p in pairs if data.admitted[data.pair_index[p]]]


@dataclass
class CostBreakdown:
    states: tuple
    labels: tuple
    edge_count: int
    x: float
    eps_memory: float
    eps_internal: float
    eps_spectator: float
    cost: float
    t_rotation: float
    t_gate: float
    mean_element: float


# candidates per scoring pass: all of n=2's at the default settings, while n=3's
# temporaries stay at a few MB.  BLAS rounds a row of onehot @ ct according to
# the rows beside it, so a cost's last bits depend on the slice that scores it
_CHUNK_ROWS = 4096


def _connected_subsets(size: int, edges, k: int) -> np.ndarray:
    """Connected k-subsets of a graph on ``size`` vertices, one sorted row of
    vertices each, in lexicographic order (that of ``itertools.combinations``).

    ESU (Wernicke 2006) one level at a time: a set grows by each vertex w of
    its extension, whose child keeps the extension's vertices after w and adds
    w's neighbours after the set's least vertex that are neither in nor next
    to the set, so each connected set is made once.  A set is a bitmask with
    vertex v at bit size - 1 - v, so descending masks are lexicographic rows.
    """
    bit = np.array([1 << (size - 1 - v) for v in range(size)],
                   dtype=np.uint64 if size <= 64 else object)
    nb = np.zeros_like(bit)
    for i, j in edges:
        nb[i] |= bit[j]
        nb[j] |= bit[i]
    # per set: its members, its extension, its members and their neighbours,
    # and the vertices after its least member (bit - 1: those after each vertex)
    sub, ext, near, low = bit, nb & (bit - 1), bit | nb, bit - 1
    for _ in range(k - 1):
        # every (set, vertex of its extension) pair at once, one child each
        i, v = np.nonzero(ext[:, None] & bit != 0)
        sub, ext, near, low = (sub[i] | bit[v], ext[i] & (bit[v] - 1) | nb[v] & ~near[i] & low[i],
                               near[i] | nb[v], low[i])
    sets = np.sort(sub)[::-1]
    return (np.flatnonzero(np.stack([sets & b != 0 for b in bit], axis=1)) % size).reshape(-1, k)


def _scorer(data: LevelData, params: CostParams):
    """Array scorer of one field point, its invariants built once: ``_score``
    takes one sorted row of level indices per connected candidate and returns
    a dict of arrays over the rows: states, edge_count, x, eps_memory,
    eps_internal, eps_spectator, cost, t_rotation, t_gate and mean_element.
    """
    L = len(data.states.labels)
    ends, pair_of, admitted = data.pairs, data.pair_index.ravel(), data.admitted
    # per transition, what an edge adds to its row's sums, zero for non-edges
    m_adm = np.where(admitted, data.m_abs, 0.0)
    rabi = TWO_PI * params.D_Hz * m_adm
    sens2_adm = np.where(admitted, data.sens**2, 0.0)
    # one product over drivable transitions gives both crosstalk sums: g[r, k]
    # sums ct[e, k] over the internal edges e of row r, with the self term
    # ct[e, e] zeroed; internal partners are the other edges, spectators the
    # drivable transitions with exactly one endpoint in the set
    drv = np.flatnonzero(data.drivable)
    ct = data.crosstalk.copy()
    np.fill_diagonal(ct, 0.0)
    column = np.cumsum(data.drivable) - 1
    d2 = (TWO_PI * params.D_Hz) ** 2

    def _score(combos):
        n_rows, d = combos.shape
        a, b = np.triu_indices(d, 1)
        # every array reduced along its rows is row-major: numpy sums each row
        # of it pairwise, but would sum a column-major one column by column
        kp = pair_of[combos.take(a, axis=1) * L + combos.take(b, axis=1)]
        edge = admitted[kp]
        A = edge.sum(axis=1)
        a_max, a_min = d * (d - 1) // 2, d - 1
        x = (a_max - A) / (a_max - a_min) if a_max > a_min else np.zeros(len(A))

        base = np.arange(n_rows)[:, None]
        onehot = np.zeros((n_rows, len(drv)))
        onehot.ravel()[(base * len(drv) + column[kp])[edge]] = 1.0
        g = onehot @ ct
        in_set = np.zeros((n_rows, L), dtype=bool)
        in_set.ravel()[base * L + combos] = True
        spect = in_set.take(ends[drv, 0], axis=1) ^ in_set.take(ends[drv, 1], axis=1)
        geom = d ** (2 - x)
        eps_int = geom * d2 * ((g * onehot).sum(axis=1) / A)
        eps_spect = geom * d2 * ((g * spect).sum(axis=1) / A)

        t_r = math.pi / (rabi[kp].sum(axis=1) / A)
        sens2 = sens2_adm[kp].sum(axis=1)
        eps_mem = (d ** (4 - 2 * x)) * t_r**2 * (params.dB_rms_T**2) * sens2 / (4 * d * (d + 2))
        return dict(
            states=combos,
            edge_count=A,
            x=x,
            eps_memory=eps_mem,
            eps_internal=eps_int,
            eps_spectator=eps_spect,
            cost=eps_mem + eps_int + params.kappa * eps_spect,
            t_rotation=t_r,
            t_gate=geom * t_r,
            mean_element=m_adm[kp].sum(axis=1) / A,
        )

    return _score


def _breakdown(scores: dict, row: int, data: LevelData) -> CostBreakdown:
    s = tuple(int(k) for k in scores["states"][row])
    values = {key: float(val[row]) for key, val in scores.items() if key != "states"}
    values["edge_count"] = int(scores["edge_count"][row])
    return CostBreakdown(states=s, labels=tuple(data.states.labels[k] for k in s), **values)


def manifold_cost(state_set, data: LevelData, params: CostParams) -> CostBreakdown:
    """Evaluate the heuristic cost of one connected candidate.  Scored alone, its
    cost can differ in the last bits from the one ``search_top_k`` reports,
    which shares ``onehot @ ct`` with the rest of its slice."""
    s = sorted(state_set)
    if not len(_connected_subsets(len(data.states.labels), allowed_graph(s, data), len(s))):
        raise ValueError("candidate graph is not connected")
    return _breakdown(_scorer(data, params)(np.array([s], dtype=np.intp)), 0, data)


def search_top_k(
    model: LevelModel, n: int, params: CostParams, k: int = 10
) -> list[CostBreakdown]:
    """Rank all connected 2^n-state subsets of the level by cost.

    They are scored in slices of ``_CHUNK_ROWS``; a stable sort on cost over
    the running winners followed by each slice keeps ties in subset order.
    """
    if n not in (2, 3):
        raise ValueError("manifold search supports n in {2, 3}")
    data = precompute_level_data(model, params)
    score = _scorer(data, params)
    combos = _connected_subsets(len(data.states.labels), data.pairs[data.admitted], 2**n)
    best = {}
    with _one_blas_thread():
        for lo in range(0, max(len(combos), 1), _CHUNK_ROWS):  # one empty slice if none
            scores = score(combos[lo:lo + _CHUNK_ROWS])
            if best:
                scores = {key: np.concatenate([best[key], val]) for key, val in scores.items()}
            order = np.argsort(scores["cost"], kind="stable")[:k]
            best = {key: val[order] for key, val in scores.items()}
    return [_breakdown(best, r, data) for r in range(len(best["cost"]))]


@lru_cache(maxsize=1)
def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count: a second
    thread slows the scorer's thin products on a small host, and the count
    does not change a product's bits.  Without that library, do nothing."""
    get, put = _blas_threads() or (lambda: None, lambda count: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass
class SweepPoint:
    B_T: float
    median_cost: float
    min_cost: float
    max_cost: float
    median_gate_time: float
    min_gate_time: float
    max_gate_time: float
    candidates: int


def _median(v: np.ndarray) -> float:
    """``np.median`` of a 1-D array, same arithmetic (mean of the middle one
    or two values) without its masked-array check, whose first call imports
    ``numpy.ma`` (about 13 ms per process)."""
    s = np.sort(v)
    return float(s[(len(s) - 1) // 2 : len(s) // 2 + 1].mean())


def field_sweep(
    model: LevelModel, n: int, params: CostParams, fields_T, k: int = 10
) -> list[SweepPoint]:
    """Top-k cost statistics across a quantisation-field grid."""
    out = []
    for B in fields_T:
        top = search_top_k(model, n, replace(params, B_T=float(B)), k)
        if not top:  # no connected manifold resolves at this field
            out.append(SweepPoint(float(B), *[math.nan] * 6, 0))
            continue
        costs = np.array([t.cost for t in top])
        tg = np.array([t.t_gate for t in top])
        out.append(
            SweepPoint(
                float(B),
                _median(costs),
                float(costs.min()),
                float(costs.max()),
                _median(tg),
                float(tg.min()),
                float(tg.max()),
                len(top),
            )
        )
    return out
