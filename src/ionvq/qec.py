"""Bit-flip repetition-code memory experiment under the two encodings.

The simulation is a Pauli frame restricted to X components: Z errors neither
flip ZZ syndromes nor the Z-basis logical readout, so only the X part of each
depolarizing outcome is tracked.  Each channel site draws only the shots it
hits (a binomial count, then that many distinct shots), so the sampling work
grows with the hits, not the shots.  Parities are measured perfectly, so
minimum-weight decoding of each differenced round is a majority vote on that
round's data flips: ``sample_logical_error`` fails a round when its flips,
bit-packed per shot, hit more than half the data qubits.  ``sample_curve`` runs
a curve's points in grid order, each on its own seed.  ``exact_logical_error``
is the closed form of the same law (a popcount DP over the data units), the
reference the sampler is tested against.

Channel rates follow the independent-error estimate with eps2 = 10 eps1:
a data-ion/ancilla unit costs one intra plus one MS gate in the paired
encoding (lambda = 11 eps1 on three qubits) while the plain CNOT costs four
intra plus one MS (lambda = 14 eps1 on two qubits).  The reported physical
rate is p = 14 eps1 in both cases.
"""

from __future__ import annotations

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
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
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


def _checked_model(eps1: float, pauli_convention: str) -> ChannelModel:
    """The model of eps1, once eps1 (nan too) lies in [0, 0.1] and the convention is known."""
    if not 0.0 <= eps1 <= 0.1:
        raise ValueError("eps1 outside the modeled range [0, 0.1]")
    if pauli_convention not in ("uniform_nonidentity", "quarter_rate"):
        raise ValueError(f"unknown pauli convention {pauli_convention!r}")
    return ChannelModel(eps1)


def _draw_hits(shots, k, lam, rng, convention):
    """One depolarizing site's draws for ``shots`` frames: a Binomial(shots, rate)
    count, that many distinct shots (sorted) and a Pauli product on k qubits for
    each (bits 2*pos, 2*pos+1 code the Pauli at pos); both empty if none is hit.
    "uniform_nonidentity" (canonical): rate lam, non-identity products; "quarter_rate":
    rate lam/4, any product (the source model's other reading).  Rate >= 1 hits all."""
    rate, lo = (lam, 1) if convention == "uniform_nonidentity" else (lam / 4.0, 0)
    hits = rng.binomial(shots, min(rate, 1.0))
    if hits == 0:  # nothing more is drawn
        return np.empty(0, np.intp), np.empty(0, np.int64)
    # distinct shots, since a fancy ``^=`` flips a repeated index only once
    idx = np.sort(rng.choice(shots, hits, replace=False)) if hits < shots else np.arange(shots)
    return idx, rng.integers(lo, 4**k, size=hits)


def _logical_failures(circ: NoisyCircuit, model: ChannelModel, shots: int, seed: int,
                      pauli_convention: str = "uniform_nonidentity") -> np.ndarray:
    """Per-shot logical failures of the memory experiment, decoded round by round.

    Frames are linear, so a round's differenced defects are the adjacent parities
    of the data flips f drawn in it, and the only corrections consistent with them
    are f and its complement.  With perfect parities, minimum-weight decoding of a
    repetition-code round (the tests' ``match_round``) takes the lighter of the two, a
    majority vote (Dennis et al., J. Math. Phys. 43, 4452 (2002)), and the round
    fails when f flips more than d // 2 data qubits.  A shot fails when an odd
    number of its rounds fail (the readout adds no flips).  Flips are packed in a
    uint64 word per shot per 64 data qubits; a site's data qubits (q, or 2a and
    2a + 1) share a word, which takes a lookup of each hit's X part on them."""
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


def exact_logical_error(d: int, encoding_n: int, eps1: float, rounds: int,
                        pauli_convention: str = "uniform_nonidentity") -> float:
    """Exact p_L of ``_logical_failures``' law, from the sites of the same circuit.

    A site flips the data of one unit only (qubit q for n=1, ion (2a, 2a + 1) for
    n=2; the spare qubit d of an odd-d n=2 chain does not count), so units flip
    independently.  On its m counted qubits a site with hit rate r (capped at 1, as
    ``_draw_hits`` caps it) leaves the pattern alone with weight 1 - s and draws it
    uniformly with weight s, where s = r 4^k / (4^k - 1) for non-identity products
    on k qubits and s = r for "quarter_rate"; so the XOR-convolution of a unit's
    site laws keeps that form with 1 - s = prod(1 - s_i).  A DP over the units gives
    a round's popcount law, a round fails with q = P(popcount > d // 2), and the
    rounds are independent, so p_L = (1 - (1 - 2q)^rounds) / 2, the chance of an
    odd number of failed rounds; it is summed round by round, p += q (1 - 2p), so
    that a tiny p_L keeps its relative precision."""
    model = _checked_model(eps1, pauli_convention)
    circ = build_repcode_circuit(d, encoding_n, rounds)
    keep: dict[int, float] = {}  # unit -> weight of leaving its pattern alone
    for _, qubits, key in circ.channel_sites():
        lam, k = getattr(model, key), len(qubits)
        s = (min(lam, 1.0) * 4**k / (4**k - 1) if pauli_convention == "uniform_nonidentity"
             else min(lam / 4.0, 1.0))
        unit = qubits[0] // encoding_n
        keep[unit] = keep.get(unit, 1.0) * (1.0 - s)
    popcount = np.ones(1)
    for unit, c in keep.items():
        m = min(encoding_n, d - encoding_n * unit)
        law = (1.0 - c) * np.array([math.comb(m, j) for j in range(m + 1)]) / 2**m
        law[0] += c
        popcount = np.convolve(popcount, law)
    q = float(popcount[d // 2 + 1:].sum())
    p_logical = 0.0
    for _ in range(rounds):
        p_logical += q * (1.0 - 2.0 * p_logical)
    return p_logical


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
    model = _checked_model(eps1, pauli_convention)
    if shots < 1:
        raise ValueError("shots must be positive")
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
