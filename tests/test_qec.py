import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ionvq.qec import (
    ChannelModel,
    _draw_hits,
    _logical_failures,
    _wilson_ci,
    build_repcode_circuit,
    exact_logical_error,
    matched_distances,
    sample_curve,
    sample_logical_error,
)
from oracles import brute_force_match, match_round


def test_channel_model_relations():
    m = ChannelModel(0.001)
    assert m.lam_paired == pytest.approx(0.011)
    assert m.lam_cnot == pytest.approx(0.014)
    assert m.p == pytest.approx(0.014)


def test_matched_distances():
    assert matched_distances(9) == (7, 15)
    assert matched_distances(5) == (3, 7)
    assert matched_distances(3) == (1, 3)
    with pytest.raises(ValueError):
        matched_distances(4)
    with pytest.raises(ValueError):
        matched_distances(2)


def test_circuit_shapes():
    c = build_repcode_circuit(3, 1, 1)
    assert sum(1 for op in c.ops if op[0] == "cnot") == 4
    assert len(c.channel_sites()) == 4
    assert all(len(op[1]) == 2 for op in c.channel_sites())
    c2 = build_repcode_circuit(3, 2, 1)
    assert len(c2.channel_sites()) == 3  # one paired layer + two crossing layers
    assert all(len(op[1]) == 3 for op in c2.channel_sites())
    assert c2.num_frame_qubits == 4  # spare slot on the second data ion
    with pytest.raises(ValueError):
        build_repcode_circuit(4, 1, 1)


def test_negative_rounds_are_refused():
    # the sampler and the exact law both build their circuit, so both refuse
    with pytest.raises(ValueError, match="rounds"):
        build_repcode_circuit(3, 1, -1)
    with pytest.raises(ValueError, match="rounds"):
        sample_logical_error(3, 1, 0.05, -2, 1000, 1)
    for n in (1, 2):
        with pytest.raises(ValueError, match="rounds"):
            exact_logical_error(3, n, 0.05, -2)


def test_zero_rounds_and_zero_noise():
    c = build_repcode_circuit(3, 1, 0)
    fails, defects, frames, _ = _replay(c, ChannelModel(0.01), 100, seed=1)
    assert not fails.any() and not defects.any() and not frames.any()
    assert exact_logical_error(3, 1, 0.01, 0) == 0.0
    assert exact_logical_error(5, 2, 0.0, 5) == 0.0
    r = sample_logical_error(5, 2, 0.0, 5, 2000, seed=2)
    assert r.p_logical == 0.0


def test_decoder_trivial_and_adjacent_pair():
    cost, corr = match_round((), 5)
    assert cost == 0 and corr == (0,) * 5
    cost, corr = match_round((1, 2), 5)
    assert cost == 1 and corr == (0, 0, 1, 0, 0)
    cost, corr = match_round((0,), 5)
    assert cost == 1 and corr == (1, 0, 0, 0, 0)


def test_decoder_matches_brute_force_exhaustive():
    for d in range(2, 10):
        n_stab = d - 1
        for size in range(0, min(6, n_stab) + 1):
            for defects in itertools.combinations(range(n_stab), size):
                c_dp, corr_dp = match_round(defects, d)
                c_bf, _ = brute_force_match(defects, d)
                assert c_dp == c_bf, (d, defects)
                syn = tuple(corr_dp[i] ^ corr_dp[i + 1] for i in range(d - 1))
                assert syn == tuple(1 if i in defects else 0 for i in range(d - 1))


@settings(max_examples=40)
@given(st.integers(2, 9), st.integers(0, 10**6))
def test_decoder_hypothesis(d, seed):
    rng = np.random.default_rng(seed)
    n_stab = d - 1
    size = int(rng.integers(0, min(6, n_stab) + 1))
    defects = tuple(sorted(rng.choice(n_stab, size=size, replace=False).tolist()))
    c_dp, _ = match_round(defects, d)
    c_bf, _ = brute_force_match(defects, d)
    assert c_dp == c_bf


@pytest.mark.parametrize("d", range(1, 14, 2))
def test_decode_equals_match_round_on_every_single_round_pattern(d):
    # the majority vote ``_logical_failures`` decodes a round by: on every data flip
    # pattern f of one round, match_round's correction of f's defects leaves a
    # logical flip exactly when f flips more than d // 2 data qubits
    for f in range(2**d):
        defects = tuple(i for i in range(d - 1) if (f ^ f >> 1) >> i & 1)
        residual = f ^ sum(bit << q for q, bit in enumerate(match_round(defects, d)[1]))
        assert residual == (2**d - 1 if f.bit_count() > d // 2 else 0), (d, f)


@settings(max_examples=40)
@given(
    st.integers(0, 7).map(lambda k: 2 * k + 1),
    st.integers(0, 5),
    st.integers(1, 30),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_decode_hypothesis_against_per_round_matching(d, rounds, shots, density, seed):
    # random multi-round data flip records: the XOR of the per-round majority
    # votes equals the logical residual left by ``match_round``'s correction of
    # each differenced round of the cumulative frame's syndromes, as ``_replay``
    # decodes them
    rng = np.random.default_rng(seed)
    flips = rng.random((shots, rounds, d)) < density
    frames = np.logical_xor.accumulate(flips, axis=1)
    syndromes = np.zeros((shots, rounds + 1, d - 1), dtype=bool)
    syndromes[:, 1:] = frames[:, :, :-1] ^ frames[:, :, 1:]
    defects = syndromes[:, 1:] ^ syndromes[:, :-1]
    expected = frames[:, -1, 0].copy() if rounds else np.zeros(shots, dtype=bool)
    for s in range(shots):
        for r in range(rounds):
            expected[s] ^= bool(match_round(tuple(np.flatnonzero(defects[s, r]).tolist()), d)[1][0])
    majority = np.logical_xor.reduce(np.count_nonzero(flips, axis=2) > d // 2, axis=1)
    assert np.array_equal(majority, expected)


def test_large_distance_needs_no_table():
    start = time.perf_counter()
    r = sample_logical_error(41, 1, 1e-3, 3, 1000, seed=1)
    assert time.perf_counter() - start < 1.0
    assert r.d == 41 and 0.0 <= r.p_logical <= r.ci_high


def _apply_channel(frames, anc, qubits, lam, rng, convention="uniform_nonidentity"):
    """A depolarizing site on dense X frames [shots, qubits]: the X parts of
    ``_draw_hits``'s Paulis.  ``anc`` may be None to drop ancilla hits; the draws
    do not depend on it."""
    idx, draw = _draw_hits(frames.shape[0], len(qubits), lam, rng, convention)
    xbits = draw ^ (draw >> 1)  # bit 2*pos set where the Pauli at pos is X or Y
    for pos, q in enumerate(qubits):
        target = anc if q == "anc" else frames[:, q]
        if target is not None:
            target[idx[xbits & (1 << 2 * pos) != 0]] ^= True


def _replay(circ, model, shots, seed, convention="uniform_nonidentity"):
    """``_logical_failures`` by the full frame record: the same ``_draw_hits``
    stream on dense X frames, perfect parities after each round and a perfect
    final readout, each differenced round corrected by ``match_round``.  Returns
    (failures [shots], defects [shots, rounds + 1, d - 1], frames, generator)."""
    rng, d = np.random.default_rng(seed), circ.d
    frames = np.zeros((shots, circ.num_frame_qubits), dtype=bool)
    syndromes = np.zeros((shots, circ.rounds + 1, d - 1), dtype=bool)
    for r in range(circ.rounds + 1):
        if r < circ.rounds:  # the last slice reads the data out without noise
            for _, qubits, key in circ.channel_sites():
                _apply_channel(frames, None, qubits, getattr(model, key), rng, convention)
        syndromes[:, r] = frames[:, : d - 1] ^ frames[:, 1:d]
    defects = syndromes.copy()
    defects[:, 1:] ^= syndromes[:, :-1]
    fails = frames[:, 0].copy()
    for s, r in zip(*np.nonzero(defects.any(axis=2))):
        fails[s] ^= bool(match_round(tuple(np.flatnonzero(defects[s, r]).tolist()), d)[1][0])
    return fails, defects, frames, rng


def _reference_apply_channel(frames, anc, qubits, lam, rng, convention):
    """The dense sampler ``_draw_hits`` replaced: a uniform and a Pauli draw
    for every shot.  Same channel law, different random stream."""
    shots = frames.shape[0]
    k = len(qubits)
    if convention == "uniform_nonidentity":
        hit = rng.random(shots) < lam
        if not hit.any():
            return
        draw = rng.integers(1, 4**k, size=shots)
    else:
        hit = rng.random(shots) < lam / 4.0
        if not hit.any():
            return
        draw = rng.integers(0, 4**k, size=shots)
    for pos, q in enumerate(qubits):
        pauli = (draw >> (2 * pos)) & 3
        flip = hit & ((pauli == 1) | (pauli == 2))
        if q != "anc":
            frames[:, q] ^= flip
        elif anc is not None:
            anc ^= flip


def _flip_law(qubits, lam, convention):
    """Exact probability of each joint X-flip pattern of a site (bit pos set:
    qubit pos flipped), enumerating the 4^k Pauli products; the site law of
    ``_law_z`` and of ``_enumerated_logical_error``."""
    k = len(qubits)
    if convention == "uniform_nonidentity":
        rate, draws = min(lam, 1.0), range(1, 4**k)
    else:
        rate, draws = min(lam / 4.0, 1.0), range(4**k)
    law = np.zeros(2**k)
    law[0] = 1.0 - rate
    for draw in draws:
        law[sum(1 << pos for pos in range(k) if (draw >> 2 * pos) & 3 in (1, 2))] += rate / len(draws)
    return law


def _law_z(apply, qubits, lam, convention, shots=200_000, seed=0):
    """Largest |count - expected| / sigma over a site's flip patterns after one
    application to clear frames; pattern 0 counts the shots left unflipped, and a
    pattern of probability 0 or 1 must match exactly (inf otherwise)."""
    frames, anc = np.zeros((4, shots), dtype=bool).T, np.zeros(shots, dtype=bool)
    apply(frames, anc, qubits, lam, np.random.default_rng(seed), convention)
    pattern = sum((anc if q == "anc" else frames[:, q]).astype(np.int64) << pos
                  for pos, q in enumerate(qubits))
    law = _flip_law(qubits, lam, convention)
    dev = np.abs(np.bincount(pattern, minlength=law.size) - shots * law)
    sigma = np.sqrt(shots * law * (1.0 - law))
    z = np.divide(dev, sigma, out=np.zeros_like(dev), where=sigma > 0)
    z[(sigma == 0) & (dev > 1e-6)] = np.inf
    return z.max()


CONVENTIONS = ["uniform_nonidentity", "quarter_rate"]
LAMS = [0.0, 1e-3, 0.08, 0.5, 1.0, 1.4]


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("qubits", [(0, 2), (1, "anc"), (0, 1, 3), (2, 3, "anc")])
@pytest.mark.parametrize("lam", LAMS)
def test_apply_channel_matches_dense_reference(convention, qubits, lam):
    # the sparse draw and the dense reference both follow the exact site law;
    # at rate 0 nothing flips, and a canonical rate >= 1 leaves no shot unhit
    assert _law_z(_apply_channel, qubits, lam, convention) < 5
    assert _law_z(_reference_apply_channel, qubits, lam, convention) < 5


@pytest.mark.parametrize("qubits", [(1, "anc"), (0, 1, 3)])
def test_channel_law_check_rejects_wrong_samplers(qubits):
    def half_rate(frames, anc, qubits, lam, rng, convention):
        _apply_channel(frames, anc, qubits, lam / 2, rng, convention)

    def with_identity(frames, anc, qubits, lam, rng, convention):
        # hits at rate lam, but drawn over all 4^k products
        _apply_channel(frames, anc, qubits, 4 * lam, rng, "quarter_rate")

    # each wrong sampler fails the law check at some rate of the grid above
    for convention in CONVENTIONS:
        assert max(_law_z(half_rate, qubits, lam, convention) for lam in LAMS) > 5
    assert max(_law_z(with_identity, qubits, lam, "uniform_nonidentity") for lam in LAMS) > 5


@pytest.mark.parametrize("lam", [1e-300, 5e-324])
def test_apply_channel_tiny_rates_allocate_nothing(lam):
    shots = 10**7
    frames, anc = np.zeros((2, shots), dtype=bool).T, np.zeros(shots, dtype=bool)
    tracemalloc.start()
    try:
        for convention in CONVENTIONS:
            _apply_channel(frames, anc, (0, 1, "anc"), lam, np.random.default_rng(2), convention)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert not frames.any() and not anc.any()


def test_residual_is_logical_class_only():
    r = sample_logical_error(5, 1, 0.004, 5, 4000, seed=17)
    assert 0.0 <= r.p_logical <= 1.0
    assert r.ci_low <= r.p_logical <= r.ci_high


def _enumerated_logical_error(d, encoding_n, eps1, rounds, convention):
    """Exact p_L by enumerating every joint outcome of the circuit's channel sites
    over all rounds, the record decoded as ``_replay`` decodes it.  A site's
    outcomes are merged by their data-qubit flip pattern and a round's by the
    pattern they XOR to; ancilla X parts are lost at reset, so no two merged
    outcomes give different records."""
    circ, model = build_repcode_circuit(d, encoding_n, rounds), ChannelModel(eps1)
    round_law = {0: 1.0}  # data flips of one round (bit q: qubit q) -> probability
    for _, qubits, key in circ.channel_sites():
        site = {}
        for pattern, w in enumerate(_flip_law(qubits, getattr(model, key), convention)):
            flips = sum(1 << q for pos, q in enumerate(qubits)
                        if pattern >> pos & 1 and q != "anc" and q < d)
            site[flips] = site.get(flips, 0.0) + w
        law = {}
        for (f, u), (g, v) in itertools.product(round_law.items(), site.items()):
            law[f ^ g] = law.get(f ^ g, 0.0) + u * v
        round_law = law
    total = 0.0
    for combo in itertools.product(round_law.items(), repeat=rounds):
        frame = 0
        for flips, _ in combo:  # a round's differenced defects: its flips' parities
            frame ^= flips
            defects = tuple(i for i in range(d - 1) if (flips ^ flips >> 1) >> i & 1)
            frame ^= sum(bit << q for q, bit in enumerate(match_round(defects, d)[1]))
        total += math.prod(w for _, w in combo) * (frame & 1)
    return total


def _saturation(n, convention):
    """The eps1 at which every site of an n encoding is hit at rate 1, or 0.1, the top of
    the modeled range, where quarter_rate's sites stay below it."""
    return min((1.0 if convention == "uniform_nonidentity" else 4.0) / (14 if n == 1 else 11), 0.1)


@settings(max_examples=80)
@given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.sampled_from(CONVENTIONS),
       st.integers(0, 2), st.floats(0.0, 1.0))
@example(5, 2, "uniform_nonidentity", 2, 1.0)
@example(5, 1, "quarter_rate", 2, 1.0)
@example(3, 2, "uniform_nonidentity", 2, 1.1)  # eps1 = 0.1: the site rate is capped
@example(5, 2, "quarter_rate", 1, 0.011)
def test_exact_logical_error_equals_enumeration(d, n, convention, rounds, rate):
    # rate * saturation is the eps1: for uniform_nonidentity, rate is the site hit rate
    eps1 = rate * _saturation(n, convention)
    exact = exact_logical_error(d, n, eps1, rounds, convention)
    assert exact == pytest.approx(_enumerated_logical_error(d, n, eps1, rounds, convention),
                                  rel=0, abs=1e-12)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 67).map(lambda k: 2 * k + 1), st.sampled_from([1, 2]),
       st.sampled_from(CONVENTIONS), st.integers(0, 9), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
# more than 64 data qubits
@example(65, 1, "uniform_nonidentity", 4, 1.0, 3)
@example(67, 2, "quarter_rate", 9, 0.3, 4)
@example(135, 2, "uniform_nonidentity", 3, 0.02, 5)
# the repcode benchmark's matched L=11 curves at their highest p = 0.1
@example(9, 1, "uniform_nonidentity", 9, 0.1, 6)
@example(19, 2, "uniform_nonidentity", 9, 0.1 * 11 / 14, 7)
def test_sampler_matches_exact_logical_error(d, n, convention, rounds, rate, seed):
    # the failure count is Binomial(shots, p_L): within 5 sigma, and exact when
    # p_L is 0 (no rounds, no noise, or d = 1)
    shots, eps1 = 10_000, rate * _saturation(n, convention)
    circ = build_repcode_circuit(d, n, rounds)
    count = np.count_nonzero(_logical_failures(circ, ChannelModel(eps1), shots, seed, convention))
    p = exact_logical_error(d, n, eps1, rounds, convention)
    assert abs(count - shots * p) <= 5 * math.sqrt(shots * p * (1 - p))


def test_exhaustive_matches_monte_carlo():
    shots = 10**5
    for enc in (1, 2):
        exact = _enumerated_logical_error(3, enc, 0.004, 1, "uniform_nonidentity")
        mc = sample_logical_error(3, enc, 0.004, 1, shots, seed=23)
        sigma = math.sqrt(max(exact * (1 - exact) / shots, 1e-12))
        assert abs(mc.p_logical - exact) < 3 * sigma


@settings(max_examples=12, derandomize=True)
@given(st.sampled_from([1, 2]), st.sampled_from(CONVENTIONS), st.floats(1e-3, 0.08),
       st.integers(0, 2**32 - 1))
@example(1, "uniform_nonidentity", 1e-3, 1)
@example(2, "quarter_rate", 0.08, 2)
def test_sampler_matches_exhaustive_oracle(n, convention, eps1, seed):
    shots = 200_000
    exact = _enumerated_logical_error(3, n, eps1, 1, convention)
    r = sample_logical_error(3, n, eps1, 1, shots, seed, convention)
    assert abs(r.p_logical - exact) <= 5 * math.sqrt(exact * (1 - exact) / shots)


@pytest.mark.parametrize("n, d", [(1, 9), (2, 19)])
def test_curve_point_agrees_with_dense_sampler(n, d):
    # the repcode benchmark's matched L=11 curves at their highest p; the dense
    # sampler draws every shot at every site (``_reference_apply_channel``) and
    # fails a round by majority vote on the data flips it drew
    eps1, rounds, shots, seeds = 0.1 / 14, 9, 20_000, range(5)
    circ, model = build_repcode_circuit(d, n, rounds), ChannelModel(eps1)
    sparse = np.mean([sample_logical_error(d, n, eps1, rounds, shots, s).p_logical
                      for s in seeds])

    def dense_p_logical(seed):
        rng = np.random.default_rng(seed)
        frames = np.zeros((shots, circ.num_frame_qubits), dtype=bool)
        fails = np.zeros(shots, dtype=bool)
        for _ in range(rounds):
            before = frames[:, :d].copy()
            for _, qubits, key in circ.channel_sites():
                _reference_apply_channel(frames, None, qubits, getattr(model, key), rng,
                                         "uniform_nonidentity")
            fails ^= np.count_nonzero(frames[:, :d] ^ before, axis=1) > d // 2
        return fails.mean()

    dense = np.mean([dense_p_logical(s) for s in seeds])
    se = [math.sqrt(m * (1 - m) / (shots * len(seeds))) for m in (sparse, dense)]
    assert 0 < sparse and abs(sparse - dense) < 4 * math.hypot(*se)


def test_distance_scaling_subthreshold():
    eps1 = 3e-3 / 14
    r3 = sample_logical_error(3, 1, eps1, 3, 200000, seed=5)
    r5 = sample_logical_error(5, 1, eps1, 5, 200000, seed=6)
    assert r5.p_logical <= r3.p_logical


def test_monotone_in_physical_rate():
    prev_hi = None
    for p in np.logspace(-2.2, -1, 4):
        r = sample_logical_error(3, 1, p / 14, 3, 60000, seed=31)
        if prev_hi is not None:
            assert r.ci_high >= prev_hi * 0.9
        prev_hi = r.ci_high


def _reference_circuit_record(circ, model, shots, seed):
    """``_replay``'s record with the syndrome copied at the CNOT positions and
    ancilla flips kept in the measured bits.  Its space-time-diagonal defect
    pairs are beyond any per-round decoder and visibly degrade the distance
    scaling, so the package uses the parity record; this stays as a reference."""
    rng = np.random.default_rng(seed)
    d = circ.d
    frames = np.zeros((shots, circ.num_frame_qubits), dtype=bool)
    syndromes = np.zeros((shots, circ.rounds + 1, d - 1), dtype=bool)
    rates = {"lam_cnot": model.lam_cnot, "lam_paired": model.lam_paired}
    for r in range(circ.rounds):
        anc = np.zeros(shots, dtype=bool)
        for op in circ.ops:
            if op[0] == "cnot":
                anc ^= frames[:, op[1]]
            elif op[0] == "channel":
                _apply_channel(frames, anc, op[1], rates[op[2]], rng)
            else:  # measure + reset
                syndromes[:, r, op[1]] = anc
                anc[:] = False
    final = frames[:, :d]
    syndromes[:, circ.rounds, :] = final[:, :-1] ^ final[:, 1:]
    defects = syndromes.copy()
    defects[:, 1:, :] ^= syndromes[:, :-1, :]
    return defects, frames


@pytest.mark.parametrize("enc", [1, 2])
def test_circuit_record_reference_shares_frames(enc):
    # both records see the same channel hits, so the data frames agree and each
    # shot's defects XOR to the parity of the same perfect final readout; the
    # circuit record also holds hits between a stabiliser's CNOTs and on the
    # ancilla, so the records themselves differ
    c = build_repcode_circuit(3, enc, 2)
    _, defects, frames, _ = _replay(c, ChannelModel(0.01), 500, seed=3)
    ref_defects, ref_frames = _reference_circuit_record(c, ChannelModel(0.01), 500, seed=3)
    assert ref_defects.shape == defects.shape == (500, 3, 2)
    assert np.array_equal(frames, ref_frames)
    assert np.array_equal(np.logical_xor.reduce(ref_defects, axis=1),
                          np.logical_xor.reduce(defects, axis=1))
    assert not np.array_equal(ref_defects, defects)


def test_eps1_validation():
    with pytest.raises(ValueError):
        sample_logical_error(3, 1, 0.2, 1, 10, seed=1)
    with pytest.raises(ValueError):
        sample_logical_error(3, 1, 0.01, 1, 0, seed=1)


@pytest.mark.parametrize("eps1", [-0.01, 0.5, math.nan, math.inf])
def test_eps1_outside_the_model_is_refused_by_both(eps1):
    with pytest.raises(ValueError, match="eps1 outside the modeled range"):
        exact_logical_error(3, 1, eps1, 3)
    with pytest.raises(ValueError, match="eps1 outside the modeled range"):
        sample_logical_error(3, 1, eps1, 3, 10, seed=1)


@pytest.mark.parametrize("d,rounds", [(1, 3), (3, 0), (3, 2)])
def test_unknown_convention_is_refused_when_no_site_draws(d, rounds):
    # d = 1 has no sites and rounds = 0 runs none, so the check cannot wait for a draw
    with pytest.raises(ValueError, match="unknown pauli convention 'bogus'"):
        exact_logical_error(d, 1, 0.01, rounds, "bogus")
    with pytest.raises(ValueError, match="unknown pauli convention 'bogus'"):
        sample_logical_error(d, 1, 0.01, rounds, 10, 1, "bogus")


def test_quarter_rate_convention_runs_and_differs():
    r1 = sample_logical_error(3, 1, 0.05, 3, 30000, seed=9)
    r2 = sample_logical_error(3, 1, 0.05, 3, 30000, seed=9, pauli_convention="quarter_rate")
    assert 0 < r2.p_logical < r1.p_logical  # quarter-rate spreads less error
    with pytest.raises(ValueError):
        sample_logical_error(3, 1, 0.01, 1, 10, seed=1, pauli_convention="bogus")


@settings(max_examples=60)
@given(
    st.integers(0, 67).map(lambda k: 2 * k + 1),
    st.sampled_from([1, 2]),
    st.integers(0, 6),
    st.integers(1, 300),
    st.floats(0.0, 0.1),
    st.sampled_from(CONVENTIONS),
    st.integers(0, 2**32 - 1),
)
@example(11, 2, 5, 299, 0.1, "quarter_rate", 7)
@example(1, 1, 3, 1, 0.05, "uniform_nonidentity", 0)
# more than 64 frame qubits, at the eps1 where the n=1 rate reaches 1 and at 0.1,
# where the n=2 rate 11 eps1 is above 1 too
@example(65, 1, 4, 300, 1 / 14, "uniform_nonidentity", 3)
@example(67, 1, 6, 257, 0.1, "uniform_nonidentity", 4)
@example(63, 2, 5, 300, 0.1, "uniform_nonidentity", 5)
@example(65, 2, 6, 211, 1 / 14, "uniform_nonidentity", 6)
@example(65, 2, 3, 300, 0.1, "quarter_rate", 8)
def test_streamed_decoding_equals_decode_of_simulated_record(d, n, rounds, shots, eps1,
                                                             convention, seed):
    # the per-round majority vote against match_round's decoding of the full
    # record, shot for shot, from the same draws
    circ, model = build_repcode_circuit(d, n, rounds), ChannelModel(eps1)
    default_rng, generators = np.random.default_rng, []

    def recorded_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recorded_rng)
        fails = _logical_failures(circ, model, shots, seed, convention)
    expected, _, _, reference = _replay(circ, model, shots, seed, convention)
    assert fails.dtype == bool and np.array_equal(fails, expected)
    assert generators[0].bit_generator.state == reference.bit_generator.state
    r = sample_logical_error(d, n, eps1, rounds, shots, seed, pauli_convention=convention)
    assert r.p_logical == int(expected.sum()) / shots


def test_curve_points_equal_serial_points():
    eps1s = [1e-3, 4e-3, 0.02, 0.07, 0.01, 0.05]
    curve = sample_curve(5, 2, eps1s, 4, 2001, 30, "quarter_rate")
    assert curve == [sample_logical_error(5, 2, e, 4, 2001, 30 + k, "quarter_rate")
                     for k, e in enumerate(eps1s)]
    assert sample_curve(5, 2, [], 4, 2001, 30) == []
    with pytest.raises(ValueError, match="eps1"):  # the first failing point's error
        sample_curve(3, 1, [0.01, 0.2, 0.3], 1, 10, 1)


def test_wilson_interval_ends_are_exact():
    for n in range(1, 20_001):
        assert _wilson_ci(0, n)[0] == 0.0 and _wilson_ci(n, n)[1] == 1.0


@given(st.integers(1, 10**7).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((0, 3000))
@example((6, 6))
def test_wilson_interval_holds_the_estimate(kn):
    k, n = kn
    lo, hi = _wilson_ci(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
