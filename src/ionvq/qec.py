"""Bit-flip repetition-code memory experiment under the two encodings.

The simulation is a Pauli frame restricted to X components: Z errors neither
flip ZZ syndromes nor the Z-basis logical readout, so only the X part of each
depolarizing outcome is tracked.  Each channel site draws only the shots it
hits (a binomial count, then that many distinct shots), so the sampling work
grows with the hits, not the shots.  ``simulate_defects`` records the defects
of perfect parity measurements, differenced round to round, and ``decode``
corrects each differenced round by the lighter of its two consistent
corrections, the exact minimum-weight matching on the 1D chain for odd d.
``sample_logical_error`` gets the same failures from the same draws without
that record: a round fails when its flips, bit-packed per shot, hit more than
half the data qubits.  ``sample_curve`` runs a curve's points in grid order,
each on its own seed.

Channel rates follow the independent-error estimate with eps2 = 10 eps1:
a data-ion/ancilla unit costs one intra plus one MS gate in the paired
encoding (lambda = 11 eps1 on three qubits) while the plain CNOT costs four
intra plus one MS (lambda = 14 eps1 on two qubits).  The reported physical
rate is p = 14 eps1 in both cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Depolarizing rates derived from the intra-ion gate error eps1."""

    eps1: float

    @property
    def eps2(self) -> float:
        return 10.0 * self.eps1

    @property
    def lam_paired(self) -> float:  # three-qubit site, either layer (n=2)
        return 11.0 * self.eps1

    @property
    def lam_cnot(self) -> float:  # two-qubit site after each CNOT (n=1)
        return 14.0 * self.eps1

    @property
    def p(self) -> float:
        """Reporting axis: approximate error of the plain two-ion CNOT."""
        return 14.0 * self.eps1


@dataclass
class NoisyCircuit:
    """One syndrome-extraction round template.

    ops is a list of ("cnot", data_q, stab) | ("channel", qubits, rate_key) |
    ("measure", stab); the same template repeats every round.  Qubit d is the
    spare slot of the last data ion when d is odd and n=2.
    """

    d: int
    encoding_n: int
    rounds: int
    num_frame_qubits: int
    ops: list

    def channel_sites(self) -> list:
        return [op for op in self.ops if op[0] == "channel"]


def build_repcode_circuit(d: int, encoding_n: int, rounds: int) -> NoisyCircuit:
    """Distance-d chain (data qubits 0..d-1, ZZ stabilizers 0..d-2).

    n=1: each stabilizer runs two CNOTs, each followed by a two-qubit
    depolarizing site on {data, ancilla}.
    n=2: data qubits sit in pairs inside data ions; the co-located stabilizer
    layer needs a single MS so it carries one three-qubit site, while each
    CNOT of an ion-crossing stabilizer carries its own three-qubit site on
    {both virtual qubits of that data ion, ancilla}.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("code distance must be odd")
    if encoding_n not in (1, 2):
        raise ValueError("encoding_n must be 1 or 2")
    ops: list = []
    if encoding_n == 1:
        nq = d
        for s in range(d - 1):
            for q in (s, s + 1):
                ops.append(("cnot", q, s))
                ops.append(("channel", (q, "anc"), "lam_cnot"))
            ops.append(("measure", s))
    else:
        nq = d + (d % 2)  # spare virtual qubit on the last ion when d is odd
        for s in range(d - 1):
            ion_a, ion_b = s // 2, (s + 1) // 2
            if ion_a == ion_b:  # both data qubits inside one ion: one MS unit
                ops.append(("cnot", s, s))
                ops.append(("cnot", s + 1, s))
                ops.append(("channel", (2 * ion_a, 2 * ion_a + 1, "anc"), "lam_paired"))
            else:
                ops.append(("cnot", s, s))
                ops.append(("channel", (2 * ion_a, 2 * ion_a + 1, "anc"), "lam_paired"))
                ops.append(("cnot", s + 1, s))
                ops.append(("channel", (2 * ion_b, 2 * ion_b + 1, "anc"), "lam_paired"))
            ops.append(("measure", s))
    return NoisyCircuit(
        d=d,
        encoding_n=encoding_n,
        rounds=rounds,
        num_frame_qubits=nq,
        ops=ops,
    )


def _draw_hits(shots, k, lam, rng, convention):
    """One depolarizing site's draws for ``shots`` frames: a Binomial(shots, rate)
    count, that many distinct shots (sorted) and a Pauli product on k qubits for
    each (bits 2*pos, 2*pos+1 code the Pauli at pos); both empty if none is hit.
    "uniform_nonidentity" (canonical): rate lam, non-identity products; "quarter_rate":
    rate lam/4, any product (the source model's other reading).  Rate >= 1 hits all."""
    if convention == "uniform_nonidentity":
        rate, lo = lam, 1
    elif convention == "quarter_rate":
        rate, lo = lam / 4.0, 0
    else:
        raise ValueError(f"unknown pauli convention {convention!r}")
    hits = rng.binomial(shots, min(rate, 1.0))
    if hits == 0:  # nothing more is drawn
        return np.empty(0, np.intp), np.empty(0, np.int64)
    # distinct shots, since a fancy ``^=`` flips a repeated index only once
    idx = np.sort(rng.choice(shots, hits, replace=False)) if hits < shots else np.arange(shots)
    return idx, rng.integers(lo, 4**k, size=hits)


def _apply_channel(frames, anc, qubits, lam, rng, convention="uniform_nonidentity"):
    """Depolarizing site on the X frame: the X parts of ``_draw_hits``'s Paulis.
    ``anc`` may be None to drop ancilla hits; the draws do not depend on it."""
    idx, draw = _draw_hits(frames.shape[0], len(qubits), lam, rng, convention)
    xbits = draw ^ (draw >> 1)  # bit 2*pos set where the Pauli at pos is X or Y
    for pos, q in enumerate(qubits):
        target = anc if q == "anc" else frames[:, q]
        if target is not None:
            target[idx[xbits & (1 << 2 * pos) != 0]] ^= True


def _defect_rounds(circ, model, shots, seed, pauli_convention):
    """Yield (differenced defects [shots, d-1], frames [shots, nq]) after each
    of ``rounds`` template repetitions and once more for a perfect final data
    readout; ``frames`` is one array updated in place."""
    rng = np.random.default_rng(seed)
    # shot-last memory layout behind the [shots, ...] views, so per-qubit
    # columns and the stabiliser-major rows ``decode`` walks are contiguous
    frames = np.zeros((circ.num_frame_qubits, shots), dtype=bool).T
    last = np.zeros((circ.d - 1, shots), dtype=bool)
    for r in range(circ.rounds + 1):
        if r < circ.rounds:  # the last slice reads the data out without noise
            for _, qubits, key in circ.channel_sites():
                # ancilla hits are lost at reset, so none is recorded
                _apply_channel(frames, None, qubits, getattr(model, key), rng, pauli_convention)
        syndrome = frames.T[: circ.d - 1] ^ frames.T[1 : circ.d]
        yield (syndrome ^ last).T, frames
        last = syndrome


def simulate_defects(circ: NoisyCircuit, model: ChannelModel, shots: int, seed: int,
                     pauli_convention: str = "uniform_nonidentity"):
    """Propagate X frames through ``rounds`` template repetitions.

    The syndrome record follows the error-free-measurement convention: the
    round-r syndrome equals the true ZZ parity of the data frame at the end
    of round r.  Channel X components falling on the ancilla perturb a qubit
    that is immediately measured and reset, so they leave no trace in this
    record, and the per-round matching in ``decode`` is then an exact
    minimum-weight decoder.

    Returns (defects[shots, rounds+1, d-1], final_frames[shots, nq]); the
    last defect slice differences a perfect final data readout against the
    last measured syndrome.
    """
    defects = np.zeros((circ.d - 1, circ.rounds + 1, shots), dtype=bool).transpose(2, 1, 0)
    for r, (step, frames) in enumerate(_defect_rounds(circ, model, shots, seed, pauli_convention)):
        defects[:, r, :] = step
    return defects, frames


def _logical_failures(circ: NoisyCircuit, model: ChannelModel, shots: int, seed: int,
                      pauli_convention: str = "uniform_nonidentity") -> np.ndarray:
    """Per-shot logical failures, ``(frames[:, :d] ^ decode(defects, d))[:, 0]``
    for ``simulate_defects``'s record of the same draws, without the record.

    Frames are linear, so a round's differenced defects are the adjacent parities
    of the data flips f drawn in it, and ``decode`` corrects it by the lighter of
    f and its complement: with perfect parities, minimum-weight decoding of a
    repetition-code round is a majority vote (Dennis et al., J. Math. Phys. 43,
    4452 (2002)), and the round fails when f flips more than d // 2 data qubits.
    A shot fails when an odd number of its rounds fail (the readout adds no flips).
    Flips are packed in a uint64 word per shot per 64 data qubits; a site's data
    qubits (q, or 2a and 2a + 1) share a word, which takes a lookup of each hit's
    X part on them."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((-(-circ.d // 64), shots), dtype=np.uint64)
    sites = []
    for _, qubits, key in circ.channel_sites():
        xbits = np.arange(4 ** len(qubits), dtype=np.uint64)
        xbits ^= xbits >> 1  # bit 2*pos set where the Pauli at pos is X or Y
        data = [(pos, q) for pos, q in enumerate(qubits) if q != "anc" and q < circ.d]
        lut = sum(((xbits >> 2 * pos) & 1) << (q % 64) for pos, q in data)
        sites.append((len(qubits), getattr(model, key), masks[data[0][1] // 64], lut))
    fail = np.zeros(shots, dtype=bool)
    for _ in range(circ.rounds):
        for k, lam, word, lut in sites:
            idx, draw = _draw_hits(shots, k, lam, rng, pauli_convention)
            word[idx] ^= lut[draw]
        # only data bits are set, so a round's count fits the type that holds d
        fail ^= np.bitwise_count(masks).sum(axis=0, dtype=np.min_scalar_type(circ.d)) > circ.d // 2
        masks[:] = 0
    return fail


# ---------------------------------------------------------------------------
# decoding: exact minimum-weight matching on a 1D chain, per differenced round


def _boundary_costs(pos: int, d: int) -> tuple[int, int]:
    """Weights of correction chains from stabilizer ``pos`` to either end."""
    return pos + 1, d - 1 - pos


def match_round(defects: tuple[int, ...], d: int):
    """Interval DP over sorted defect positions; an oracle for the tests,
    since ``decode`` reaches the same matching in closed form.

    Each defect either pairs with its left unmatched neighbour or terminates
    on the cheaper boundary; for collinear weights this covers an optimal
    (non-crossing) perfect matching exactly.  Returns (cost, correction) with
    the correction as a bit tuple over the d data qubits.
    """
    m = len(defects)
    if m == 0:
        return 0, (0,) * d
    INF = float("inf")
    best = [INF] * (m + 1)
    choice = [None] * (m + 1)
    best[0] = 0.0
    for i in range(1, m + 1):
        p = defects[i - 1]
        bl, br = _boundary_costs(p, d)
        cand = best[i - 1] + min(bl, br)
        choice[i] = ("boundary", "L" if bl <= br else "R")
        best[i] = cand
        if i >= 2:
            pair_cost = best[i - 2] + (p - defects[i - 2])
            if pair_cost < best[i]:
                best[i] = pair_cost
                choice[i] = ("pair",)
    corr = [0] * d
    i = m
    while i > 0:
        if choice[i][0] == "pair":
            a, b = defects[i - 2], defects[i - 1]
            for q in range(a + 1, b + 1):
                corr[q] ^= 1
            i -= 2
        else:
            p = defects[i - 1]
            if choice[i][1] == "L":
                for q in range(0, p + 1):
                    corr[q] ^= 1
            else:
                for q in range(p + 1, d):
                    corr[q] ^= 1
            i -= 1
    return best[m], tuple(corr)


def brute_force_match(defects: tuple[int, ...], d: int):
    """Exhaustive minimum over all pairings/boundary assignments (oracle)."""
    defects = tuple(sorted(defects))

    def rec(remaining):
        if not remaining:
            return 0, ()
        first, rest = remaining[0], remaining[1:]
        bl, br = _boundary_costs(first, d)
        best_cost, best_ops = min(bl, br), (("b", first, "L" if bl <= br else "R"),)
        cost_rec, ops_rec = rec(rest)
        best_cost, best_ops = best_cost + cost_rec, best_ops + ops_rec
        out = (best_cost, best_ops)
        for j, other in enumerate(rest):
            sub = rest[:j] + rest[j + 1 :]
            c, ops = rec(sub)
            cand = abs(other - first) + c
            if cand < out[0]:
                out = (cand, (("p", first, other),) + ops)
        return out

    cost, ops = rec(defects)
    corr = [0] * d
    for op in ops:
        if op[0] == "p":
            for q in range(min(op[1], op[2]) + 1, max(op[1], op[2]) + 1):
                corr[q] ^= 1
        elif op[2] == "L":
            for q in range(0, op[1] + 1):
                corr[q] ^= 1
        else:
            for q in range(op[1] + 1, d):
                corr[q] ^= 1
    return cost, tuple(corr)


def decode(defects: np.ndarray, d: int) -> np.ndarray:
    """Minimum-weight correction bits [shots, d] from defects
    [shots, rounds, d-1] (or one shot's [rounds, d-1]).

    Each differenced round is decoded on its own.  With perfect parities the
    only corrections consistent with a round's defects are its prefix XOR e
    (qubit 0 untouched) and the complement of e; for odd d exactly one of
    them is lighter, which is the minimum-weight matching of ``match_round``.
    The round corrections are XORed together (the reference for ``_logical_failures``).
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("code distance must be odd")
    if defects.ndim == 2:
        defects = defects[None]
    # [d-1, rounds, shots], so every step below is an op on contiguous rows;
    # no copy for the memory layout ``simulate_defects`` returns
    per_stab = np.ascontiguousarray(defects.transpose(2, 1, 0))
    parity = np.zeros(per_stab.shape[1:], dtype=bool)
    weight = np.zeros(per_stab.shape[1:], dtype=np.min_scalar_type(d))
    corr = np.zeros((d, per_stab.shape[2]), dtype=bool)
    for q in range(d - 1):
        parity ^= per_stab[q]
        weight += parity
        corr[q + 1] = np.logical_xor.reduce(parity, axis=0)
    # a round takes the complement where the prefix XOR is the heavier one
    corr ^= np.logical_xor.reduce(weight > d // 2, axis=0)
    return corr.T


@dataclass
class LogicalErrorResult:
    d: int
    encoding_n: int
    rounds: int
    p: float
    p_logical: float
    ci_low: float
    ci_high: float
    shots: int
    seed: int


def _wilson_ci(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    ph = k / n
    denom = 1 + z**2 / n
    center = (ph + z**2 / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z**2 / (4 * n**2)) / denom
    # the ends are exact: at k = 0 or n the subtraction leaves rounding residue
    return (max(0.0, center - half) if k else 0.0), (min(1.0, center + half) if k < n else 1.0)


def sample_logical_error(
    d: int,
    encoding_n: int,
    eps1: float,
    rounds: int,
    shots: int,
    seed: int,
    pauli_convention: str = "uniform_nonidentity",
) -> LogicalErrorResult:
    """Monte Carlo logical X error rate of the memory experiment."""
    if not 0.0 <= eps1 <= 0.1:
        raise ValueError("eps1 outside the modeled range [0, 0.1]")
    if shots < 1:
        raise ValueError("shots must be positive")
    model = ChannelModel(eps1)
    circ = build_repcode_circuit(d, encoding_n, rounds)
    k = int(np.count_nonzero(_logical_failures(circ, model, shots, seed, pauli_convention)))
    lo, hi = _wilson_ci(k, shots)
    return LogicalErrorResult(
        d, encoding_n, rounds, model.p, k / shots, lo, hi, shots, seed
    )


def sample_curve(d: int, encoding_n: int, eps1s, rounds: int, shots: int, seed: int,
                 pauli_convention: str = "uniform_nonidentity") -> list[LogicalErrorResult]:
    """``sample_logical_error`` at each eps1 of a grid, point k seeded with ``seed + k``,
    in grid order; the first failing point raises."""
    return [sample_logical_error(d, encoding_n, eps1, rounds, shots, seed + k, pauli_convention)
            for k, eps1 in enumerate(eps1s)]


def matched_distances(L: int) -> tuple[int, int]:
    """Code distances giving equal ion counts for the two encodings:
    d1 = L - 2 and d2 = 2 d1 + 1."""
    if L < 3:
        raise ValueError("need at least three ions")
    d1 = L - 2
    if d1 % 2 == 0:
        raise ValueError("L - 2 must be odd for a valid matched pair")
    return d1, 2 * d1 + 1


def exhaustive_logical_error(d: int, encoding_n: int, eps1: float, rounds: int = 1) -> float:
    """Exact p_L by enumerating the joint channel outcomes (small d only)."""
    model = ChannelModel(eps1)
    circ = build_repcode_circuit(d, encoding_n, rounds)
    sites = circ.channel_sites()
    n_stab = d - 1
    total = 0.0

    def site_outcomes(op):
        qubits, lam = op[1], min(getattr(model, op[2]), 1.0)  # a rate >= 1 hits every shot
        k = len(qubits)
        outs = [(1.0 - lam, ())]
        per = lam / (4**k - 1)
        flips: dict[tuple, float] = {}
        for draw in range(1, 4**k):
            fl = tuple(
                q
                for pos, q in enumerate(qubits)
                if ((draw >> (2 * pos)) & 3) in (1, 2)
            )
            flips[fl] = flips.get(fl, 0.0) + per
        outs.extend((w, fl) for fl, w in flips.items())
        return outs

    options = [site_outcomes(op) for op in sites] * rounds

    def run(assignments):
        frames = np.zeros(circ.num_frame_qubits, dtype=bool)
        syn = np.zeros((rounds + 1, n_stab), dtype=bool)
        it = iter(assignments)
        for r in range(rounds):
            for op in circ.ops:
                if op[0] == "channel":
                    for q in next(it):
                        if q != "anc":
                            frames[q] ^= True
            data = frames[:d]
            syn[r] = data[:-1] ^ data[1:]
        final = frames[:d]
        syn[rounds] = final[:-1] ^ final[1:]
        defects = syn.copy()
        defects[1:] ^= syn[:-1]
        corr = decode(defects[None], d)[0]
        return bool((final ^ corr)[0])

    for combo in itertools.product(*options):
        w = math.prod(c[0] for c in combo)
        if w == 0.0:
            continue
        if run([c[1] for c in combo]):
            total += w
    return total
