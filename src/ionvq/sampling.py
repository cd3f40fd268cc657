"""Random-circuit benchmarking and the Bernstein-Vazirani construction.

Random circuits use a brick of one MS gate plus one fresh rotation on each of
the two ions touched.  The linear cross-entropy statistic
F = 2^N <p(x_i)> - 1 starts at 2^N - 1 for a computational basis state and
settles to 1 once the output distribution reaches Porter-Thomas form; its
exact-mode evaluation (2^N sum_x p(x)^2 - 1) drives the gates-to-threshold
measurements so the comparison between encodings carries no shot noise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_AMPLITUDES,
    MS,
    Circuit,
    IonSpec,
    R,
    Register,
    StateVector,
    _apply_ms_nd,
    _apply_r_nd,
    apply_circuit,
    build_register,
    m1_map,
    sample_measurement,
)

ALL_TO_ALL = "all_to_all"
MINIMAL = "minimal"       # R on consecutive level pairs only, MS fixed to {01}{01}
MS_LIMITED = "ms_limited"  # all R pairs, MS fixed to {01}{01}

BRICKWORK = "brickwork"
LONGRANGE = "longrange"

MAX_QUBITS = 22  # 2^22 complex128 amplitudes, 64 MiB; bv and sampled xeb peak near one state
CHUNK_AMPLITUDES = 2**16  # circuits stepped as one batch: larger batches fall out of cache


class ResourceLimitError(ValueError):
    """A register too large to hold as a dense statevector."""


def check_qubits(num_qubits: int):
    """Refuse registers above MAX_QUBITS before anything is allocated."""
    if num_qubits > MAX_QUBITS:
        raise ResourceLimitError(
            f"{num_qubits} qubits exceed the {MAX_QUBITS}-qubit statevector limit"
        )


@dataclass(frozen=True)
class CircuitPolicy:
    """Connectivity and architecture for the random-circuit ensembles."""

    n: int = 1
    connectivity: str = ALL_TO_ALL
    architecture: str = BRICKWORK

    def __post_init__(self):
        if self.connectivity not in (ALL_TO_ALL, MINIMAL, MS_LIMITED):
            raise ValueError(f"unknown connectivity {self.connectivity!r}")
        if self.architecture not in (BRICKWORK, LONGRANGE):
            raise ValueError(f"unknown architecture {self.architecture!r}")

    @property
    def d(self) -> int:
        return 2**self.n

    def r_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.connectivity == MINIMAL:
            return tuple((k, k + 1) for k in range(self.d - 1))
        return tuple((a, b) for a in range(self.d) for b in range(a + 1, self.d))

    def ms_fixed(self) -> bool:
        return self.connectivity in (MINIMAL, MS_LIMITED)

    @functools.cached_property
    def pairs(self) -> tuple[tuple, tuple]:
        """(MS pairs, R pairs) that a brick chooses from."""
        return ((0, 1),) if self.ms_fixed() else self.r_pairs(), self.r_pairs()

    def depth_cap(self, num_ions: int) -> int:
        """Steps after which ``gates_to_threshold`` gives up: max(400, 16 d^2) brickwork
        layers, a longrange step (one brick) counting 1/L of a layer on L ions."""
        return max(400, 16 * self.d**2) * (num_ions if self.architecture == LONGRANGE else 1)

    def register(self, num_qubits: int) -> Register:
        if num_qubits % self.n:
            raise ValueError(f"{num_qubits} qubits do not fill ions of n={self.n}")
        L = num_qubits // self.n
        if L < 2:
            raise ValueError("need at least two ions")
        allowed = None if self.connectivity != MINIMAL else frozenset(self.r_pairs())
        return build_register([IonSpec(self.d, m1_map(self.n), allowed) for _ in range(L)])


def _draw_brick(rng, ms_pairs, r_pairs):
    """Raw draws of one brick in stream order: indices into the MS pairs of
    ions i, j and the R pairs of ions i, j, and the uniforms behind J,
    theta_i, phi_i, theta_j, phi_j (angle = 2 pi uniform).  integers(1)
    draws nothing.  This defines the stream ``_draw_layer`` decodes."""
    mi, mj, J = rng.integers(len(ms_pairs)), rng.integers(len(ms_pairs)), rng.random()
    ki, ti, pi = rng.integers(len(r_pairs)), rng.random(), rng.random()
    kj, tj, pj = rng.integers(len(r_pairs)), rng.random(), rng.random()
    return (mi, mj, ki, kj), (J, ti, pi, tj, pj)


def _rejected(m: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Lemire's test on m = half * k: the draws numpy rejects and makes again."""
    return (m & 0xFFFFFFFF) < (2**32 - bound) % bound


def _draw_layer(rngs, bricks: int, policy: CircuitPolicy):
    """The (k, u) arrays, (G, bricks, 4) and (G, bricks, 5), that ``bricks``
    consecutive ``_draw_brick`` calls give for each of G PCG64-backed generators
    (``np.random.default_rng``).  One ``random_raw`` block per generator, decoded
    as numpy does: a double is (word >> 11) * 2^-53; ``integers(k)``, k > 1, is
    Lemire's (half * k) >> 32 on a fresh word's low half, then its buffered high
    half.  A generator that starts with a buffered half, or whose block holds a
    half Lemire rejects, is rewound and drawn through ``_draw_brick``."""
    (ms, r), G = (len(p) for p in policy.pairs), len(rngs)
    ints = [0, 2] if ms > 1 else [1] if r > 1 else []  # words giving two integers each
    raw = np.stack([rng.bit_generator.random_raw((bricks, 5 + len(ints))) for rng in rngs])
    states = [rng.bit_generator.state for rng in rngs] if ints else []  # buffer as it began
    u = (raw[:, :, [w for w in range(5 + len(ints)) if w not in ints]] >> 11) * 2.0**-53
    bound = np.array([ms, ms, r, r][4 - 2 * len(ints):], dtype=np.uint64)
    m = (raw[:, :, ints, None] >> np.uint64([0, 32]) & 0xFFFFFFFF).reshape(G, bricks, -1) * bound
    k = np.zeros((G, bricks, 4), np.int64)  # integers(1) draws nothing and gives 0
    k[:, :, 4 - len(bound):] = m >> 32
    for g, (rng, st, rejected) in enumerate(zip(rngs, states, _rejected(m, bound).any((1, 2)))):
        redraw = st["has_uint32"] or rejected
        if redraw:  # rewind: advance() drops the buffered half, which st keeps
            st["state"] = rng.bit_generator.advance(-raw[g].size).state["state"]
        else:  # as numpy leaves it: the high half last handed out, already used
            st["uinteger"] = int(raw[g, -1, ints[-1]] >> 32)
        rng.bit_generator.state = st
        for b in range(bricks if redraw else 0):
            k[g, b], u[g, b] = _draw_brick(rng, *policy.pairs)
    return k, u


def _bricks(policy: CircuitPolicy, ion_pairs: list, rng) -> list:
    """One MS on each ion pair (i, j) then a rotation on each ion, drawn as ``_draw_layer``."""
    (ms_pairs, r_pairs), (k, u) = policy.pairs, _draw_layer([rng], len(ion_pairs), policy)
    return [g for (i, j), (mi, mj, ki, kj), (J, ti, pi, tj, pj)
            in zip(ion_pairs, k[0].tolist(), (2 * math.pi * u[0]).tolist())
            for g in (MS(i, j, ms_pairs[mi], ms_pairs[mj], J),
                      R(i, *r_pairs[ki], ti, pi), R(j, *r_pairs[kj], tj, pj))]


def _layer_pairs(L: int) -> list[tuple[int, int]]:
    """Ion pairs (1,2),(3,4),... then (2,3),(4,5),...,(L,1) [1-based]."""
    if L < 2 or L % 2:
        raise ValueError("brickwork pairing needs an even ion count >= 2")
    return [(i, i + 1) for i in range(0, L - 1, 2)] + [(i, (i + 1) % L) for i in range(1, L, 2)]


def brickwork_layer(policy: CircuitPolicy, L: int, rng) -> list:
    """One brick on each ion pair of ``_layer_pairs(L)``; ``rng`` must be PCG64-backed."""
    return _bricks(policy, _layer_pairs(L), rng)


def _row_sums(x: np.ndarray, *powers):
    """Sums over the last axis of p^k, k in ``powers`` (1, 2 or both), p = x or, for amplitudes,
    |x|^2 made a BLOCK_AMPLITUDES block at a time; block sums added in adjacent pairs follow
    np.sum's pairwise order on a power-of-two row, so they are np.sum's sums bit for bit."""
    if not np.iscomplexobj(x):
        return [np.sum(x**k, axis=-1) for k in powers]

    def block(lo):  # one block's sums; its p is freed before the next block's is made
        p, row = np.abs(x[..., lo:lo + BLOCK_AMPLITUDES]), []
        for k in (1, 2)[:powers[-1]]:  # |x|^2, then its square
            np.square(p, out=p)
            row += [np.sum(p, axis=-1)] if k in powers else []
        return row

    sums = np.array([block(lo) for lo in range(0, x.shape[-1], BLOCK_AMPLITUDES)])
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return list(sums[0])


def xeb_exact(probs: np.ndarray):
    """2^N sum_x p(x)^2 - 1 from the full output distribution, or from the
    complex amplitudes (the last axis: one value per row of a batch)."""
    dim = probs.shape[-1]
    return dim * _row_sums(probs, 2)[0] - 1.0


def second_moment(probs: np.ndarray):
    """2^{2N} var(p) over all bit strings (the last axis), from p or from the
    complex amplitudes; 2^N - 1 at depth 0, 1 in the Porter-Thomas limit."""
    dim = probs.shape[-1]
    total, squares = _row_sums(probs, 1, 2)
    return dim**2 * (squares / dim - (total / dim) ** 2)


STATISTICS = {"xeb": xeb_exact, "moment": second_moment}
DEFAULT_THRESHOLDS = {"xeb": 2.0, "moment": 4.0}


def check_threshold(threshold: float, num_qubits: int):
    """Refuse a threshold no circuit crosses: both statistics fall from 2^N - 1 to 1."""
    if not 1.0 < threshold < 2**num_qubits - 1:
        raise ValueError(f"must be above 1 and below the depth-0 value {2**num_qubits - 1}")


@dataclass
class ThresholdResult:
    mean_gates: float
    stderr: float
    counts: list
    statistic: str
    threshold: float


def gates_to_threshold(
    policy: CircuitPolicy,
    num_qubits: int,
    threshold: float,
    statistic: str = "xeb",
    circuits: int = 20,
    seed: int = 0,
) -> ThresholdResult:
    """Grow circuits layer by layer (longrange: brick by brick); record the
    first total gate count at which the exact-mode statistic drops to the
    threshold; average over the circuit ensemble (per-circuit seeds derive
    from ``seed``).  Up to CHUNK_AMPLITUDES / 2^N live circuits step as one
    batch; one that crosses leaves it and the next circuit joins.  The only other stop,
    the depth cap, bounds each circuit at max(400, 16 d^2) layers of 3L gates on 2^N
    amplitudes (L ions of d = 2^n levels): ``minimal``'s R pairs form a path on an ion's
    levels, and a walk on a path mixes in O(d^2) steps.  README gives its margin."""
    check_threshold(threshold, num_qubits)
    check_qubits(num_qubits)
    stat_fn, reg = STATISTICS[statistic], policy.register(num_qubits)
    pending, counts = iter(enumerate(np.random.SeedSequence(seed).spawn(circuits))), [0] * circuits
    size, cap = max(1, CHUNK_AMPLITUDES // reg.dim), policy.depth_cap(reg.num_ions)
    step, live, psi = 0, [], None  # live: (circuit, generator, step it joined at) per row of psi
    while True:
        new = [(k, np.random.default_rng(ss), step)
               for k, ss in itertools.islice(pending, size - len(live))]
        if new:
            fresh = np.zeros((len(new), reg.dim), dtype=np.complex128)
            fresh[:, 0] = 1.0
            if not live:  # a fresh batch: every circuit at |0...0>
                box = [None] + [1] * reg.num_ions
            psi, live = np.concatenate([psi, fresh]) if live else fresh, live + new
        if not live:
            break
        gates = _step(psi.reshape((len(live),) + reg.shape_view()), reg, policy,
                      [c[1] for c in live], box)
        step, vals = step + 1, stat_fn(psi)
        for (k, _, start), val in zip(live, vals):
            if val <= threshold:
                counts[k] = gates * (step - start)
            elif step - start == cap:
                raise RuntimeError(f"no crossing of {threshold} within the {cap}-step depth cap")
        keep = np.flatnonzero(~(vals <= threshold))
        if len(keep) < len(live):
            psi, live = psi[keep], [live[row] for row in keep]
    arr = np.asarray(counts, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return ThresholdResult(float(arr.mean()), stderr, counts, statistic, threshold)


def fixed_depth_amplitudes(policy: CircuitPolicy, num_qubits: int, layers: int, circuits: int,
                           seed: int):
    """Amplitudes of circuits k = 0, 1, ... after ``layers`` steps of ``_step``,
    circuit k drawing from ``default_rng(seed + k)``; yielded in order as each
    chunk of up to CHUNK_AMPLITUDES / 2^N circuits is stepped."""
    check_qubits(num_qubits)
    reg = policy.register(num_qubits)
    size = max(1, CHUNK_AMPLITUDES // reg.dim)
    for start in range(0, circuits, size):
        rngs = [np.random.default_rng(seed + k) for k in range(start, min(start + size, circuits))]
        psi = np.zeros((len(rngs), reg.dim), dtype=np.complex128)
        psi[:, 0] = 1.0
        box = [None] + [1] * reg.num_ions
        for _ in range(layers):
            _step(psi.reshape((len(rngs),) + reg.shape_view()), reg, policy, rngs, box)
        yield from psi
        del psi  # freed before the next chunk is allocated


def _step(view: np.ndarray, reg: Register, policy: CircuitPolicy, rngs, box=None) -> int:
    """One brickwork layer, or one brick on a drawn ion pair, on every circuit
    of ``view`` (C, *reg.shape_view()), each drawing from its own generator;
    returns the gates added to each circuit.  ``box``, grown in place, is the union
    of the circuits' ``StateVector.box`` after an unread circuit-axis entry."""
    if box is not None and box[1:] == list(view.shape[1:]):
        box = None  # every level is in use, so no gate need check it
    ions = ([_layer_pairs(reg.num_ions)] * len(rngs) if policy.architecture == BRICKWORK else
            [[tuple(rng.choice(reg.num_ions, size=2, replace=False).tolist())] for rng in rngs])
    k, u = _draw_layer(rngs, len(ions[0]), policy)
    ms_pairs, r_pairs = (np.array(p) for p in policy.pairs)
    groups: dict[tuple, list] = {}  # circuits that drew the same ion pairs
    for c, row in enumerate(ions):
        groups.setdefault(tuple(row), []).append(c)
    for group, rows in groups.items():
        sub = view if len(groups) == 1 else view[rows]
        for b, (i, j) in enumerate(group):
            kb, ub = k[rows, b], 2 * math.pi * u[rows, b]
            ax_i, ax_j = 1 + reg.axis(i), 1 + reg.axis(j)
            _apply_ms_nd(sub, ax_i, ax_j, _chosen(ms_pairs, kb[:, 0]), _chosen(ms_pairs, kb[:, 1]),
                         ub[:, 0], box)
            _apply_r_nd(sub, ax_i, *_chosen(r_pairs, kb[:, 2]), ub[:, 1], ub[:, 2], box)
            _apply_r_nd(sub, ax_j, *_chosen(r_pairs, kb[:, 3]), ub[:, 3], ub[:, 4], box)
        if len(groups) > 1:
            view[rows] = sub
    return 3 * len(ions[0])


def _chosen(pairs: np.ndarray, k: np.ndarray):
    """Levels (a, b) of pair k per circuit: ints when all circuits agree."""
    if (k == k[0]).all():
        return int(pairs[k[0], 0]), int(pairs[k[0], 1])
    return pairs[k, 0], pairs[k, 1]


def nlogn_fit(num_qubits: list[int], mean_counts: list[float]) -> float:
    """Least-squares coefficient c in count ~ c * N log2(N)."""
    x = np.array([n * math.log2(n) for n in num_qubits])
    y = np.asarray(mean_counts, dtype=float)
    return float(np.dot(x, y) / np.dot(x, x))


# ---------------------------------------------------------------------------
# Bernstein-Vazirani


# closing Hadamard on one virtual qubit of an n=2 ion (exact up to phase)
_H_PULSES_N2 = {
    0: [(0, 1, math.pi, 0.0), (0, 2, math.pi / 4, math.pi / 2), (1, 3, 7 * math.pi / 4, 3 * math.pi / 2)],
    1: [(0, 1, 7 * math.pi / 4, math.pi / 2), (0, 2, math.pi, 0.0), (2, 3, 7 * math.pi / 4, 3 * math.pi / 2)],
}

# oracle rotations paired with the shared-analyzer MS per data ion; the
# two-control unit splits its pi/2 rotation into one quarter turn per control
_ORACLE_UNIT_N2 = {
    (0,): ([(2, 3, math.pi / 2, 0.0)], (2, 3)),
    (1,): ([(1, 3, math.pi / 2, 0.0)], (1, 3)),
    (0, 1): ([(1, 2, math.pi / 4, 0.0), (1, 2, math.pi / 4, 0.0)], (1, 2)),
}


@dataclass
class BvCircuit:
    circuit: Circuit
    s: str
    layout: str
    intra_count: int
    ms_count: int

    def prep_state(self) -> StateVector:
        return _bv_prep(self.circuit.register, self.s, self.layout)


def _bv_prep(reg: Register, s: str, layout: str) -> StateVector:
    """|+> on oracle qubits, |0> elsewhere, |-> on the auxiliary ion.

    State preparation (optical pumping plus one global rotation) is not part
    of the oracle+algorithm gate count; the idle-qubit Hadamards it replaces
    cancel pairwise in the standard circuit.
    """
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    zero = np.array([1.0, 0.0])
    amps, size, box = np.empty(reg.dim, dtype=np.complex128), 1, []
    amps[0] = 1.0
    for ion_idx, ion in enumerate(reg.ions):
        off = reg.qubit_offsets[ion_idx]
        qubits = ([minus] if ion_idx == reg.num_ions - 1 else
                  [plus if s[off + q] == "1" else zero for q in range(ion.n)])
        lvl = functools.reduce(np.kron, qubits)[list(ion.encoding.perm)].astype(np.complex128)
        box.insert(0, int(np.flatnonzero(lvl)[-1]) + 1)  # ion 0's axis is the last
        # np.kron(lvl, amps[:size]) in place; block 0, which the others read, goes last
        for k in range(ion.d - 1, -1, -1):
            np.multiply(lvl[k], amps[:size], out=amps[k * size:(k + 1) * size])
        size *= ion.d
    return StateVector(reg, amps, box)


def build_bv(s: str, layout: str = "n2") -> BvCircuit:
    """Oracle + algorithm circuit for hidden string ``s``.

    ``layout="n2"`` packs the data qubits two per ion with a one-qubit
    auxiliary ion; adjacent oracle controls sharing an ion merge onto a
    single MS gate.  ``layout="n1"`` is the one-qubit-per-ion baseline.
    Emitted intra-ion count for the n2 layout is exactly 4 * popcount(s).
    """
    if any(c not in "01" for c in s) or not s:
        raise ValueError("s must be a nonempty bit string")
    if layout == "n2":
        return _build_bv_n2(s)
    if layout == "n1":
        return _build_bv_n1(s)
    raise ValueError(f"unknown layout {layout!r}")


def _build_bv_n2(s: str) -> BvCircuit:
    if len(s) % 2:
        raise ValueError("the n2 layout packs qubit pairs, so |s| must be even")
    n_ions = len(s) // 2
    reg = build_register([IonSpec(4, m1_map()) for _ in range(n_ions)] + [IonSpec(2)])
    aux = n_ions
    circ = Circuit(reg, meta={"s": s, "layout": "n2"})
    for k in range(n_ions):
        controls = tuple(q for q in (0, 1) if s[2 * k + q] == "1")
        if not controls:
            continue
        pulses, ms_pair = _ORACLE_UNIT_N2[controls]
        for a, b, th, ph in pulses:
            circ.append(R(k, a, b, th, ph))
        circ.append(MS(k, aux, ms_pair, (0, 1), -math.pi / 2))
    for k in range(n_ions):
        for q in (0, 1):
            if s[2 * k + q] == "1":
                for a, b, th, ph in _H_PULSES_N2[q]:
                    circ.append(R(k, a, b, th, ph))
    counts = circ.counts()
    return BvCircuit(circ, s, "n2", counts["R"], counts["MS"])


def _build_bv_n1(s: str) -> BvCircuit:
    N = len(s)
    reg = build_register([IonSpec(2) for _ in range(N + 1)])
    aux = N
    circ = Circuit(reg, meta={"s": s, "layout": "n1"})
    for k in range(N):
        if s[k] != "1":
            continue
        # CNOT(k -> aux), then the closing analysis pulse; the trailing
        # software Z of the Hadamard drops against the Z-basis readout
        circ.append(R(k, 0, 1, math.pi / 4, math.pi / 2))
        circ.append(MS(k, aux, (0, 1), (0, 1), math.pi / 4))
        circ.append(R(k, 0, 1, -math.pi / 4, 0.0))
        circ.append(R(k, 0, 1, -math.pi / 4, math.pi / 2))
        circ.append(R(aux, 0, 1, -math.pi / 4, 0.0))
        circ.append(R(k, 0, 1, -math.pi / 4, math.pi / 2))
    counts = circ.counts()
    return BvCircuit(circ, s, "n1", counts["R"], counts["MS"])


def run_bv(s: str, layout: str = "n2", shots: int = 200, seed: int = 0):
    """Simulate the BV circuit; decode s from the data-qubit marginal counts
    (the auxiliary qubit ends in |-> and reads out randomly)."""
    check_qubits(len(s) + 1)  # both layouts add one auxiliary qubit
    bv = build_bv(s, layout)
    state = bv.prep_state()
    apply_circuit(state, bv.circuit.gates)
    counts = sample_measurement(state, shots, seed)
    data_counts: dict[str, int] = {}
    for bits, c in counts.items():
        key = bits[: len(s)]
        data_counts[key] = data_counts.get(key, 0) + c
    recovered = max(data_counts, key=data_counts.get)
    return bv, recovered, data_counts
