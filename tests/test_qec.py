import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ionvq import qec
from ionvq.qec import (
    ChannelModel,
    _apply_channel,
    _logical_failures,
    _wilson_ci,
    brute_force_match,
    build_repcode_circuit,
    decode,
    exhaustive_logical_error,
    match_round,
    matched_distances,
    sample_curve,
    sample_logical_error,
    simulate_defects,
)


def test_channel_model_relations():
    m = ChannelModel(0.001)
    assert m.eps2 == 0.01
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


def test_zero_rounds_and_zero_noise():
    c = build_repcode_circuit(3, 1, 0)
    defects, frames = simulate_defects(c, ChannelModel(0.01), 100, seed=1)
    assert not defects.any() and not frames.any()
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


def _match_round_bits(round_defects, d):
    return np.array(match_round(tuple(np.flatnonzero(round_defects).tolist()), d)[1], dtype=bool)


@pytest.mark.parametrize("d", range(1, 14, 2))
def test_decode_equals_match_round_on_every_single_round_pattern(d):
    n_stab = d - 1
    patterns = np.arange(2**n_stab)
    defects = ((patterns[:, None] >> np.arange(n_stab)) & 1).astype(bool)[:, None, :]
    expected = np.array([_match_round_bits(row, d) for row in defects[:, 0]]).reshape(-1, d)
    assert np.array_equal(decode(defects, d), expected)


@settings(max_examples=40)
@given(
    st.integers(0, 7).map(lambda k: 2 * k + 1),
    st.integers(0, 5),
    st.integers(1, 30),
    st.floats(0.0, 1.0),
    st.sampled_from(["2d", "3d", "3d_shot_last"]),
    st.integers(0, 2**32 - 1),
)
def test_decode_hypothesis_against_per_round_matching(d, rounds, shots, density, form, seed):
    rng = np.random.default_rng(seed)
    defects = rng.random((shots, rounds, d - 1)) < density
    if form == "3d_shot_last":  # the memory layout simulate_defects returns
        defects = np.ascontiguousarray(defects.transpose(2, 1, 0)).transpose(2, 1, 0)
    expected = np.zeros((shots, d), dtype=bool)
    for s in range(shots):
        for r in range(rounds):
            expected[s] ^= _match_round_bits(defects[s, r], d)
    if form == "2d":
        assert np.array_equal(decode(defects[0], d), expected[:1])
    else:
        assert np.array_equal(decode(defects, d), expected)


def test_decode_refuses_even_distance():
    with pytest.raises(ValueError, match="odd"):
        decode(np.zeros((2, 1, 3), dtype=bool), 4)


def test_large_distance_needs_no_table():
    start = time.perf_counter()
    r = sample_logical_error(41, 1, 1e-3, 3, 1000, seed=1)
    assert time.perf_counter() - start < 1.0
    assert r.d == 41 and 0.0 <= r.p_logical <= r.ci_high


def _reference_apply_channel(frames, anc, qubits, lam, rng, convention):
    """The dense sampler ``_apply_channel`` replaced: a uniform and a Pauli draw
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
    qubit pos flipped), enumerating the 4^k Pauli products as
    ``exhaustive_logical_error``'s ``site_outcomes`` does."""
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
    # layout: the shot-last frames simulate_defects uses (F) draw and flip as C-order ones
    init = np.random.default_rng(5).random((3000, 5)) < 0.3

    def run(order):
        frames, anc = np.array(init[:, :4], order=order), init[:, 4].copy()
        rng = np.random.default_rng(99)
        for _ in range(3):
            _apply_channel(frames, anc, qubits, lam, rng, convention)
        return frames, anc, rng.bit_generator.state

    c_frames, c_anc, c_state = run("C")
    f_frames, f_anc, f_state = run("F")
    assert np.array_equal(f_frames, c_frames) and np.array_equal(f_anc, c_anc)
    assert f_state == c_state
    # law: the sparse draw and the dense reference both follow the exact site law;
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


def test_exhaustive_matches_monte_carlo():
    shots = 10**5
    for enc in (1, 2):
        exact = exhaustive_logical_error(3, enc, 0.004, rounds=1)
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
    oracle_eps1 = eps1
    if convention == "quarter_rate":
        # every site of a d=3 circuit has k = n + 1 qubits; quarter_rate puts lam/4
        # uniformly on all 4^k products, the canonical channel at the rate of the
        # non-identity ones
        oracle_eps1 = eps1 / 4 * (1 - 4.0 ** -(n + 1))
    exact = exhaustive_logical_error(3, n, oracle_eps1, rounds=1)
    r = sample_logical_error(3, n, eps1, 1, shots, seed, convention)
    assert abs(r.p_logical - exact) <= 5 * math.sqrt(exact * (1 - exact) / shots)


@pytest.mark.parametrize("n, d", [(1, 9), (2, 19)])
def test_curve_point_agrees_with_dense_sampler(monkeypatch, n, d):
    # the repcode benchmark's matched L=11 curves at their highest p; the dense
    # sampler runs under the reference record and decoder, which call _apply_channel
    eps1, shots, seeds = 0.1 / 14, 20_000, range(5)
    circ, model = build_repcode_circuit(d, n, 9), ChannelModel(eps1)
    sparse = np.mean([sample_logical_error(d, n, eps1, 9, shots, s).p_logical for s in seeds])
    monkeypatch.setattr(qec, "_apply_channel", _reference_apply_channel)

    def dense_p_logical(seed):
        defects, frames = simulate_defects(circ, model, shots, seed)
        return np.mean((frames[:, :d] ^ decode(defects, d))[:, 0])

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
    """``simulate_defects`` with the syndrome copied at the CNOT positions and
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
    defects, frames = simulate_defects(c, ChannelModel(0.01), 500, seed=3)
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
    # the per-round majority vote against decode of the full record, from the same draws
    circ, model = build_repcode_circuit(d, n, rounds), ChannelModel(eps1)
    default_rng, generators = np.random.default_rng, []

    def recorded_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recorded_rng)
        defects, frames = simulate_defects(circ, model, shots, seed, convention)
        fails = _logical_failures(circ, model, shots, seed, convention)
    expected = (frames[:, :d] ^ decode(defects, d))[:, 0]
    assert fails.dtype == bool and np.array_equal(fails, expected)
    reference, fast = generators
    assert fast.bit_generator.state == reference.bit_generator.state
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
