import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionvq import core, sampling
from ionvq.cli import main
from ionvq.core import MS, Circuit, R, StateVector, apply_circuit, sample_measurement
from ionvq.sampling import (
    ALL_TO_ALL,
    BRICKWORK,
    LONGRANGE,
    MINIMAL,
    MS_LIMITED,
    MAX_QUBITS,
    CircuitPolicy,
    ResourceLimitError,
    brickwork_layer,
    build_bv,
    check_qubits,
    fixed_depth_amplitudes,
    gates_to_threshold,
    run_bv,
    second_moment,
    xeb_exact,
)


def _layers(policy, L, layers, seed):
    """``layers`` brickwork layers on L ions, all drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [g for _ in range(layers) for g in brickwork_layer(policy, L, rng)]


def _fixed_depth_probs(policy, num_qubits, layers, circuits, seed):
    return [np.abs(amps) ** 2 for amps in
            fixed_depth_amplitudes(policy, num_qubits, layers, circuits, seed)]


def _index_of_bits(reg, bits):
    """Basis index of a measurement label, read ion by ion."""
    return reg.index_of_levels([ion.encoding.level_of_bits(bits[off:off + ion.n], reg.qubit_order)
                                for ion, off in zip(reg.ions, reg.qubit_offsets)])


def _sampled_xeb(state, shots, seed):
    """2^N <p(x)> - 1 over ``shots`` outcomes x drawn from ``state``, looked
    up by their labels."""
    reg, probs = state.register, state.probabilities()
    counts = sample_measurement(state, shots, seed)
    mean_p = sum(c * probs[_index_of_bits(reg, bits)] for bits, c in counts.items()) / shots
    return float(reg.dim * mean_p - 1.0)


def test_brickwork_counts_per_layer():
    for L, n in ((8, 1), (4, 2)):
        gates = _layers(CircuitPolicy(n=n), L, 1, seed=5)
        c = Circuit(CircuitPolicy(n=n).register(L * n), gates).counts()
        assert c["MS"] == L and c["R"] == 2 * L


def test_brickwork_deterministic_per_seed():
    a = _layers(CircuitPolicy(n=2), 4, 3, seed=9)
    b = _layers(CircuitPolicy(n=2), 4, 3, seed=9)
    assert a == b
    c = _layers(CircuitPolicy(n=2), 4, 3, seed=10)
    assert a != c


def test_minimal_policy_gate_set():
    for g in _layers(CircuitPolicy(n=2, connectivity=MINIMAL), 4, 3, seed=2):
        if isinstance(g, R):
            assert (g.a, g.b) in {(0, 1), (1, 2), (2, 3)}
        else:
            assert g.pair_i == (0, 1) and g.pair_j == (0, 1)


def test_ms_limited_policy():
    gates = _layers(CircuitPolicy(n=2, connectivity=MS_LIMITED), 4, 2, seed=2)
    rs = {(g.a, g.b) for g in gates if isinstance(g, R)}
    assert all(isinstance(g, R) or g.pair_i == (0, 1) for g in gates)
    assert len(rs) > 3, "rotations range over all pairs"


def test_xeb_depth0_and_uniform():
    [probs] = _fixed_depth_probs(CircuitPolicy(n=1), 8, 0, 1, seed=1)
    assert xeb_exact(probs) == 2**8 - 1
    assert second_moment(np.full(256, 1 / 256)) == pytest.approx(0.0, abs=1e-9)
    assert xeb_exact(np.full(256, 1 / 256)) == pytest.approx(0.0, abs=1e-12)


def test_xeb_porter_thomas_limit():
    [probs] = _fixed_depth_probs(CircuitPolicy(n=2), 8, 14, 1, seed=21)
    val = xeb_exact(probs)
    assert 0.8 < val < 1.2


@settings(max_examples=60)
@given(st.integers(7, 14), st.sampled_from([None, 1, 3]), st.sampled_from([2**7, 2**9, 2**13]),
       st.integers(0, 2**32 - 1))
def test_statistics_of_amplitudes_equal_whole_row_sums(log_dim, rows, block, seed):
    # np.sum adds a power-of-two row pairwise down to 128-element runs, so block sums of 2^7 or
    # more, added in adjacent pairs, are its sums bit for bit
    rng = np.random.default_rng(seed)
    shape = (2**log_dim,) if rows is None else (rows, 2**log_dim)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    with mock.patch.object(sampling, "BLOCK_AMPLITUDES", block):
        for statistic in (xeb_exact, second_moment):
            got, expect = statistic(amps), statistic(np.abs(amps) ** 2)
            assert np.array_equal(got, expect) and np.shape(got) == np.shape(expect)


def test_second_moment_depth0_closed_form():
    for N in (4, 8):
        [probs] = _fixed_depth_probs(CircuitPolicy(n=1), N, 0, 1, seed=1)
        assert second_moment(probs) == pytest.approx(2**N - 1, rel=1e-12)


def test_exact_vs_sampled_xeb():
    shots = 10**4
    diffs = []
    reg = CircuitPolicy(n=1).register(8)
    for seed in range(4):
        [amps] = fixed_depth_amplitudes(CircuitPolicy(n=1), 8, 6, 1, seed)
        state = StateVector(reg, amps)
        exact = xeb_exact(state.probabilities())
        sampled = _sampled_xeb(state, shots, seed + 50)
        # stderr of the sampled estimator ~ 2^N std(p)/sqrt(shots)
        p = state.probabilities()
        se = 256 * p.std() * math.sqrt(256 / shots)
        diffs.append(abs(exact - sampled) / max(se, 1e-9))
    assert max(diffs) < 5


def test_running_minimum_reaches_porter_thomas_in_nlogn_gates():
    for n, N in ((1, 8), (2, 8), (2, 12)):
        res = gates_to_threshold(CircuitPolicy(n=n), N, 1.1, circuits=3, seed=33)
        assert res.mean_gates <= 60 * N * math.log2(N)


def test_threshold_ordering_lower_bar_later():
    r2 = gates_to_threshold(CircuitPolicy(n=2), 8, 2.0, circuits=6, seed=4)
    r15 = gates_to_threshold(CircuitPolicy(n=2), 8, 1.5, circuits=6, seed=4)
    assert r15.mean_gates >= r2.mean_gates


# ---------------------------------------------------------------------------
# the batched stepper against the per-circuit loop it replaced


def _reference_brick(policy, i, j, rng):
    """The scalar-draw brick that ``_bricks`` reproduces from raw generator words."""
    if policy.ms_fixed():
        pair_i = pair_j = (0, 1)
    else:
        pairs = policy.r_pairs() if policy.connectivity == ALL_TO_ALL else None
        pair_i = pairs[rng.integers(len(pairs))]
        pair_j = pairs[rng.integers(len(pairs))]
    gates = [MS(i, j, tuple(pair_i), tuple(pair_j), rng.uniform(0, 2 * math.pi))]
    rp = policy.r_pairs()
    for ion in (i, j):
        a, b = rp[rng.integers(len(rp))]
        gates.append(R(ion, a, b, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
    return gates


def _reference_gates_to_threshold(policy, num_qubits, threshold, statistic, circuits, seed):
    """One circuit at a time through apply_native, walking every level (box None): counts,
    mean and stderr.  A circuit stops only at max(400, 16 d^2) layers, L steps a layer
    for longrange."""
    stat_fn = sampling.STATISTICS[statistic]
    reg = policy.register(num_qubits)
    L = reg.num_ions
    cap = max(400, 16 * policy.d**2) * (L if policy.architecture == LONGRANGE else 1)
    counts = []
    for child in np.random.SeedSequence(seed).spawn(circuits):
        rng = np.random.default_rng(child)
        state = StateVector(reg, StateVector.zero(reg).amps)
        gates = 0
        crossed = None
        for _ in range(cap):
            if policy.architecture == BRICKWORK:
                pairs = [(i, i + 1) for i in range(0, L - 1, 2)] + [(i, (i + 1) % L)
                                                                   for i in range(1, L, 2)]
            else:
                i, j = rng.choice(L, size=2, replace=False)
                pairs = [(int(i), int(j))]
            layer = [g for i, j in pairs for g in _reference_brick(policy, i, j, rng)]
            apply_circuit(state, layer)
            gates += len(layer)
            val = stat_fn(state.probabilities())
            if val <= threshold:
                crossed = gates
                break
        if crossed is None:
            raise RuntimeError(f"no crossing within {cap} steps")
        counts.append(crossed)
    arr = np.asarray(counts, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return counts, float(arr.mean()), stderr


def build_longrange(policy, num_qubits, bricks, seed):
    """Bricks on uniformly random ion pairs instead of the brickwork pattern."""
    reg = policy.register(num_qubits)
    rng = np.random.default_rng(seed)
    circ = Circuit(reg, meta={"policy": policy.connectivity, "n": policy.n,
                              "architecture": LONGRANGE, "seed": seed, "bricks": bricks})
    for _ in range(bricks):
        i, j = rng.choice(reg.num_ions, size=2, replace=False)
        circ.extend(_reference_brick(policy, int(i), int(j), rng))
    return circ


def test_longrange_empty_and_pair_histogram():
    assert build_longrange(CircuitPolicy(n=1, architecture="longrange"), 4, 0, seed=1).gates == []
    pol = CircuitPolicy(n=1, architecture="longrange")
    circ = build_longrange(pol, 4, 10**4, seed=3)
    pairs = {}
    for g in circ.gates:
        if isinstance(g, MS):
            key = tuple(sorted((g.ion_i, g.ion_j)))
            pairs[key] = pairs.get(key, 0) + 1
    n_pairs = 6
    expect = 10**4 / n_pairs
    sigma = math.sqrt(10**4 * (1 / n_pairs) * (1 - 1 / n_pairs))
    assert len(pairs) == n_pairs
    for count in pairs.values():
        assert abs(count - expect) < 5 * sigma


# (n, qubits) with an even ion count, so both architectures apply
REGISTERS = [(1, 4), (1, 6), (2, 4), (2, 8), (3, 6)]


@settings(max_examples=40)
@given(
    reg=st.sampled_from(REGISTERS),
    connectivity=st.sampled_from([ALL_TO_ALL, MINIMAL, MS_LIMITED]),
    architecture=st.sampled_from([BRICKWORK, LONGRANGE]),
    statistic=st.sampled_from(["xeb", "moment"]),
    threshold=st.floats(1.1, 4.0),
    circuits=st.integers(1, 9),
    per_chunk=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_threshold_equals_per_circuit_loop(reg, connectivity, architecture, statistic,
                                                   threshold, circuits, per_chunk, seed):
    n, N = reg
    policy = CircuitPolicy(n=n, connectivity=connectivity, architecture=architecture)
    try:
        expect = _reference_gates_to_threshold(policy, N, threshold, statistic, circuits, seed)
    except RuntimeError:
        expect = RuntimeError
    # chunks of 1-4 circuits, so that nine circuits span several chunks
    with mock.patch.object(sampling, "CHUNK_AMPLITUDES", per_chunk * 2**N):
        if expect is RuntimeError:
            with pytest.raises(RuntimeError):
                gates_to_threshold(policy, N, threshold, statistic, circuits, seed)
            return
        res = gates_to_threshold(policy, N, threshold, statistic, circuits, seed)
    assert (res.counts, res.mean_gates, res.stderr) == expect


def test_batched_threshold_equals_per_circuit_loop_in_full_chunks():
    # 12 qubits: 16 circuits per chunk at the shipped CHUNK_AMPLITUDES, so 40 span three
    for n in (1, 3):
        policy = CircuitPolicy(n=n)
        res = gates_to_threshold(policy, 12, 2.0, "xeb", 40, seed=8)
        expect = _reference_gates_to_threshold(policy, 12, 2.0, "xeb", 40, seed=8)
        assert (res.counts, res.mean_gates, res.stderr) == expect


def test_slow_mixing_cli_counts_equal_per_circuit_loop(tmp_path, monkeypatch):
    # the smoke config (8 qubits, 3 circuits, seed 7) at n = 4 minimal: one circuit
    # crosses at 490 layers, past the 400-layer cap that used to stop it
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = tmp_path / "x.csv"
    assert main(["xeb", "--config", "configs/smoke_xeb.json", "--n", "4", "--policy", "minimal",
                 "--out", str(out)]) == 0
    counts = [int(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
    expect = _reference_gates_to_threshold(CircuitPolicy(4, MINIMAL), 8, 2.0, "xeb", 3, 7)[0]
    assert counts == expect and max(counts) > 400 * 6


def test_threshold_runtime_errors_still_raised():
    with mock.patch.object(CircuitPolicy, "depth_cap", lambda policy, num_ions: 3):
        with pytest.raises(RuntimeError, match="no crossing of 1.1 within the 3-step depth cap"):
            gates_to_threshold(CircuitPolicy(n=2), 8, 1.1, circuits=5, seed=1)
    # a statistic that never falls runs to the cap, 400 steps here, and no further
    flat = {"xeb": mock.Mock(side_effect=lambda amps: np.full(amps.shape[:-1], 9.0))}
    with mock.patch.dict(sampling.STATISTICS, flat):
        with pytest.raises(RuntimeError, match="no crossing of 2.0 within the 400-step depth cap"):
            gates_to_threshold(CircuitPolicy(n=1), 4, 2.0, circuits=3, seed=1)
    assert flat["xeb"].call_count == 400


def test_depth_cap_counts_each_circuits_own_steps():
    # one circuit a batch, so each joins after the last has crossed: a cap at the deepest
    # circuit's layers passes and one layer less raises, however many steps ran before
    # (seed 8: 9, 4, 10, 5, 5 and 5 layers, so the global step passes 10 mid-circuit)
    policy, seed = CircuitPolicy(n=2), 8
    counts = gates_to_threshold(policy, 8, 2.0, circuits=6, seed=seed).counts
    deepest = max(counts) // 12  # 12 gates a layer on 4 ions
    assert sum(counts) // 12 > deepest
    with mock.patch.object(sampling, "CHUNK_AMPLITUDES", 2**8):
        with mock.patch.object(CircuitPolicy, "depth_cap", lambda policy, num_ions: deepest):
            assert gates_to_threshold(policy, 8, 2.0, circuits=6, seed=seed).counts == counts
        with mock.patch.object(CircuitPolicy, "depth_cap", lambda policy, num_ions: deepest - 1):
            with pytest.raises(RuntimeError, match=f"within the {deepest - 1}-step depth cap"):
                gates_to_threshold(policy, 8, 2.0, circuits=6, seed=seed)


@pytest.mark.parametrize("n,architecture,ions,cap", [
    (1, BRICKWORK, 8, 400), (2, BRICKWORK, 4, 400), (3, BRICKWORK, 4, 1024),
    (4, BRICKWORK, 2, 4096), (1, LONGRANGE, 3, 1200), (4, LONGRANGE, 2, 8192)])
def test_depth_cap_counts_brickwork_layers(n, architecture, ions, cap):
    # never below 400 steps, the cap every run that crosses met before; a longrange
    # step is one brick, 1/L of a brickwork layer
    assert CircuitPolicy(n, MINIMAL, architecture).depth_cap(ions) == cap


@settings(max_examples=60)
@given(
    n=st.sampled_from([1, 2, 3]),
    connectivity=st.sampled_from([ALL_TO_ALL, MINIMAL, MS_LIMITED]),
    seed=st.integers(0, 2**32 - 1),
    bricks=st.integers(1, 12),
)
def test_grouped_brick_draws_equal_scalar_draws(n, connectivity, seed, bricks):
    # integers(k, size=2) == two integers(k), integers(1) draws nothing and
    # uniform(0, 2 pi) == 2 pi * random(): a numpy that breaks one fails here
    policy = CircuitPolicy(n=n, connectivity=connectivity)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(bricks):
        i, j = k % 3, (k + 1) % 3
        assert sampling._bricks(policy, [(i, j)], new) == _reference_brick(policy, i, j, old)
        assert new.bit_generator.state == old.bit_generator.state


def _scalar_layer(policy, rngs, bricks):
    """What ``_draw_layer`` decodes: ``bricks`` scalar draws per generator."""
    draws = [[sampling._draw_brick(rng, *policy.pairs) for _ in range(bricks)] for rng in rngs]
    return (np.array([[d[0] for d in row] for row in draws]),
            np.array([[d[1] for d in row] for row in draws]))


def _assert_layer_equals_scalar_draws(policy, seeds, buffered, bricks):
    new = [np.random.default_rng(s) for s in seeds]
    old = [np.random.default_rng(s) for s in seeds]
    for a, b, pre in zip(new, old, buffered):
        if pre:  # leaves numpy's PCG64 holding the high half of a word
            a.integers(3), b.integers(3)
    k, u = sampling._draw_layer(new, bricks, policy)
    ref_k, ref_u = _scalar_layer(policy, old, bricks)
    assert k.dtype == np.int64 and np.array_equal(k, ref_k)
    assert u.dtype == np.float64 and np.array_equal(u, ref_u)
    for a, b in zip(new, old):
        assert a.bit_generator.state == b.bit_generator.state  # has_uint32 and uinteger too
        assert a.random() == b.random() and a.integers(5) == b.integers(5)


@settings(max_examples=80)
@given(
    n=st.sampled_from([1, 2, 3, 4]),
    connectivity=st.sampled_from([ALL_TO_ALL, MINIMAL, MS_LIMITED]),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    buffered=st.lists(st.booleans(), min_size=6, max_size=6),
    bricks=st.integers(1, 12),
)
def test_draw_layer_equals_scalar_draws(n, connectivity, seeds, buffered, bricks):
    policy = CircuitPolicy(n=n, connectivity=connectivity)
    _assert_layer_equals_scalar_draws(policy, seeds, buffered, bricks)


@pytest.mark.parametrize("n,connectivity", [(1, ALL_TO_ALL), (2, ALL_TO_ALL), (2, MINIMAL),
                                            (3, MS_LIMITED)])
def test_draw_layer_falls_back_on_a_buffered_half(n, connectivity):
    # one integers(3) before the layer leaves numpy's PCG64 holding a high half,
    # which the layer's first integer draw would take: drawn through _draw_brick
    policy, bricks = CircuitPolicy(n=n, connectivity=connectivity), 5
    with mock.patch.object(sampling, "_draw_brick", wraps=sampling._draw_brick) as scalar:
        _assert_layer_equals_scalar_draws(policy, [17, 18, 19], [True, False, True], bricks)
    # with a single pair a brick draws doubles only, which leave the buffer alone
    fallback = 0 if len(policy.pairs[1]) == 1 else 2 * bricks
    assert scalar.call_count == fallback + 3 * bricks  # the reference draws all three


def test_draw_layer_falls_back_on_a_lemire_rejection():
    # a half that Lemire rejects (probability 4 / 2^32 for k = 6) makes numpy draw
    # again; force one for the second generator only
    policy, bricks = CircuitPolicy(n=2), 4
    rejected = sampling._rejected

    def reject_in_generator_1(m, bound):
        out = rejected(m, bound)
        out[1, 2] = True
        return out

    with mock.patch.object(sampling, "_rejected", reject_in_generator_1), \
            mock.patch.object(sampling, "_draw_brick", wraps=sampling._draw_brick) as scalar:
        _assert_layer_equals_scalar_draws(policy, [5, 6, 7], [False] * 3, bricks)
    # the fallback drew generator 1's bricks, and the reference drew all three generators'
    assert scalar.call_count == bricks + 3 * bricks


def test_rejected_is_lemires_test():
    # numpy keeps (half * k) >> 32 unless its low 32 bits fall below (2^32 - k) % k
    bound = np.array([6, 6, 6, 120], dtype=np.uint64)
    threshold = (2**32 - bound) % bound
    assert threshold.tolist() == [4, 4, 4, 16]
    m = np.array([3, 4, 2**32 + 3, 2**33 + 16], dtype=np.uint64)
    assert sampling._rejected(m, bound).tolist() == [True, False, True, False]


def test_brickwork_threshold_runs_make_no_scalar_brick_draws():
    # brickwork layers never end holding a buffered half; a longrange step starts
    # with the one rng.choice leaves, so its bricks are drawn through the fallback
    for policy in (CircuitPolicy(n=2), CircuitPolicy(n=3, connectivity=MINIMAL),
                   CircuitPolicy(n=2, connectivity=MS_LIMITED)):
        with mock.patch.object(sampling, "_draw_brick", side_effect=AssertionError):
            res = gates_to_threshold(policy, 8 if policy.n == 2 else 12, 2.0, circuits=6, seed=3)
        assert res.counts == _reference_gates_to_threshold(policy, 8 if policy.n == 2 else 12,
                                                           2.0, "xeb", 6, 3)[0]


def test_threshold_validates_asymptote():
    with pytest.raises(ValueError):
        gates_to_threshold(CircuitPolicy(n=1), 4, 0.9, circuits=1, seed=0)


@pytest.mark.parametrize("statistic", ["xeb", "moment"])
def test_threshold_at_or_above_the_depth_0_value_is_refused(statistic):
    # both statistics start at 2^N - 1 = 15, so no layer can cross these
    for threshold in (15.0, 16.0, math.inf):
        with pytest.raises(ValueError, match="below the depth-0 value 15"):
            gates_to_threshold(CircuitPolicy(n=1), 4, threshold, statistic, circuits=1, seed=0)
    res = gates_to_threshold(CircuitPolicy(n=1), 4, 14.5, statistic, circuits=1, seed=0)
    assert res.counts[0] > 0


# ---------------------------------------------------------------------------
# fixed depth on the ensemble stepper against one gate list per circuit


def _reference_fixed_depth(policy, num_qubits, layers, circuits, seed):
    """Circuit k as ``layers`` brickwork_layer gate lists drawn from
    default_rng(seed + k), applied one gate at a time from |0...0> on every level (box None)."""
    reg = policy.register(num_qubits)
    states = []
    for k in range(circuits):
        rng = np.random.default_rng(seed + k)
        states.append(StateVector(reg, StateVector.zero(reg).amps))
        for _ in range(layers):
            apply_circuit(states[-1], brickwork_layer(policy, reg.num_ions, rng))
    return states


# (n, qubits) of 4-12 qubits with an even ion count, as brickwork needs
FIXED_DEPTH_REGISTERS = [(1, 4), (1, 6), (1, 8), (1, 10), (1, 12), (2, 4), (2, 8), (2, 12),
                         (3, 6), (3, 12)]


@settings(max_examples=60, deadline=None)
@given(
    reg=st.sampled_from(FIXED_DEPTH_REGISTERS),
    connectivity=st.sampled_from([ALL_TO_ALL, MINIMAL, MS_LIMITED]),
    layers=st.integers(0, 6),
    circuits=st.integers(1, 9),
    per_chunk=st.integers(1, 4),
    mode=st.sampled_from(["exact", "sampled"]),
    seed=st.integers(0, 2**31),
)
def test_fixed_depth_equals_gate_list_reference(tmp_path_factory, reg, connectivity, layers,
                                                circuits, per_chunk, mode, seed):
    n, N = reg
    policy = CircuitPolicy(n=n, connectivity=connectivity)
    states = _reference_fixed_depth(policy, N, layers, circuits, seed)
    shots = 300
    vals = [xeb_exact(s.probabilities()) if mode == "exact"
            else _sampled_xeb(s, shots, seed + 10_000 + k) for k, s in enumerate(states)]
    rows = [f"{N},{n},{connectivity},{3 * (N // n) * layers},{v:.8g},,{seed + k}"
            for k, v in enumerate(vals)]
    summary = {"circuits": circuits, "layers": layers, "mean_statistic": float(np.mean(vals)),
               "mode": mode, "stderr": float(np.std(vals, ddof=1) / math.sqrt(circuits))
               if circuits > 1 else 0.0}
    out = tmp_path_factory.mktemp("xeb")
    argv = ["xeb", "--qubits", str(N), "--n", str(n), "--policy", connectivity, "--layers",
            str(layers), "--mode", mode, "--circuits", str(circuits), "--seed", str(seed)]
    argv += ["--shots", str(shots)] if mode == "sampled" else []
    # chunks of 1-4 circuits, so that nine circuits span several chunks
    with mock.patch.object(sampling, "CHUNK_AMPLITUDES", per_chunk * 2**N):
        amps = list(fixed_depth_amplitudes(policy, N, layers, circuits, seed))
        assert main([*argv, "--out", str(out / "x.csv")]) == 0
        assert main([*argv, "--format", "json", "--out", str(out / "x.json")]) == 0
    assert len(amps) == circuits
    assert all(np.array_equal(a, s.amps) for a, s in zip(amps, states))
    header = "N,n,policy,gate_count,statistic,stderr,seed"
    assert (out / "x.csv").read_text().splitlines() == [header, *rows]
    assert (out / "x.json").read_text() == json.dumps(summary, indent=1, sort_keys=True) + "\n"


@settings(max_examples=40)
@given(
    reg=st.sampled_from(REGISTERS),
    connectivity=st.sampled_from([ALL_TO_ALL, MINIMAL, MS_LIMITED]),
    architecture=st.sampled_from([BRICKWORK, LONGRANGE]),
    circuits=st.integers(1, 4),
    layers=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    block=st.integers(1, 64),
)
def test_stepper_box_equals_untracked_steps(reg, connectivity, architecture, circuits, layers,
                                            seed, block):
    # a batch's box is the union over its circuits; blocks of 1-64 amplitudes slice it often
    n, N = reg
    policy = CircuitPolicy(n=n, connectivity=connectivity, architecture=architecture)
    register = policy.register(N)
    shape = (circuits, *register.shape_view())
    tracked, full = (np.zeros(shape, dtype=np.complex128) for _ in range(2))
    tracked.reshape(circuits, -1)[:, 0] = full.reshape(circuits, -1)[:, 0] = 1.0
    box = [None] + [1] * register.num_ions
    rngs = [[np.random.default_rng(seed + k) for k in range(circuits)] for _ in range(2)]
    with mock.patch.object(core, "BLOCK_AMPLITUDES", block):
        for _ in range(layers):
            sampling._step(tracked, register, policy, rngs[0], box)
            sampling._step(full, register, policy, rngs[1])
            assert np.array_equal(tracked.view(np.float64), full.view(np.float64))
            outside = np.ones(shape, dtype=bool)
            outside[(slice(None), *map(slice, box[1:]))] = False
            assert not tracked[outside].any(), box


@settings(max_examples=30)
@given(st.sampled_from(["n1", "n2"]), st.lists(st.sampled_from("01"), min_size=2, max_size=12))
def test_bv_kernel_calls_stay_inside_the_box(layout, bits):
    # what each R/MS call reads, counted from the blocks it walks, is at most the box it is given
    s = "".join(bits[:2 * (len(bits) // 2)])
    rotate, calls = core._rotate_pairs, []

    def spy(view, axes, pairs, c, u, w, box=None):
        shape, order, blocks = core._layout(view.shape, axes, False, core.BLOCK_AMPLITUDES,
                                            tuple(box))
        walked = view.reshape(shape).transpose(order)
        calls.append((sum(walked[lv + blk].size for blk in blocks for pair in pairs
                          for lv in pair), math.prod(box)))
        rotate(view, axes, pairs, c, u, w, box)

    with mock.patch.object(core, "_rotate_pairs", spy):
        _, recovered, _ = run_bv(s, layout, shots=50, seed=1)
    assert recovered == s
    assert all(seen <= volume for seen, volume in calls), calls


def test_exact_xeb_peaks_near_one_statevector(tmp_path):
    # 16 qubits, 1 MiB of amplitudes: |amp|^2 and its square over a whole row took as much again;
    # at n=4 no kernel block exceeds 2^12 amplitudes, so the statistic sets the peak
    argv = ["xeb", "--qubits", "16", "--n", "4", "--layers", "1", "--circuits", "2", "--seed",
            "3", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0  # caches filled on a first run are not the path's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state_bytes = 16 * 2**16
    assert peak - state_bytes < state_bytes / 4


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_fixed_depth_peak_memory_does_not_grow_with_circuits(tmp_path, mode):
    # at 16 qubits each chunk is one circuit: a row is used and dropped before
    # the next is stepped, so eight circuits peak where one does
    def peak(circuits):
        argv = ["xeb", "--qubits", "16", "--n", "2", "--layers", "1", "--mode", mode,
                "--circuits", str(circuits), "--seed", "1", "--out", str(tmp_path / "x.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # caches filled on a first run are not the path's
    state_bytes = 16 * 2**16
    assert peak(8) - peak(1) < state_bytes / 4


# ---------------------------------------------------------------------------
# Bernstein-Vazirani


def test_bv_counts_match_formulas():
    for s in ("10", "1100", "1010", "111100", "11111111"):
        bv = build_bv(s, "n2")
        ones = s.count("1")
        L = len(s) // 2 + 1
        assert bv.intra_count == 4 * ones
        assert bv.ms_count <= min(ones, L)


def test_bv_merge_rule():
    assert build_bv("1100", "n2").ms_count == 1
    b = build_bv("1010", "n2")
    assert b.ms_count == 2 and b.intra_count == 8
    assert build_bv("0000", "n2").circuit.gates == []


def test_bv_recovers_every_string_up_to_8():
    import itertools

    for k in (2, 4, 6, 8):
        for bits in itertools.product("01", repeat=k):
            s = "".join(bits)
            bv = build_bv(s, "n2")
            state = bv.prep_state()
            from ionvq.core import apply_circuit

            apply_circuit(state, bv.circuit.gates)
            probs = state.probabilities()
            marg = {}
            for g in np.flatnonzero(probs > 1e-12):
                key = state.register.bitstring(int(g))[:k]
                marg[key] = marg.get(key, 0.0) + probs[g]
            assert marg.get(s, 0.0) > 1 - 1e-9, (s, marg)


def test_bv_n1_layout_recovery():
    for s in ("101", "0", "1", "110011"):
        _, recovered, _ = run_bv(s, "n1", shots=64, seed=6)
        assert recovered == s


def test_bv_layout_validation():
    with pytest.raises(ValueError):
        build_bv("101", "n2")
    with pytest.raises(ValueError):
        build_bv("", "n2")
    with pytest.raises(ValueError):
        build_bv("10", "n5")


def _reference_bv_prep(reg, s):
    """The BV input state as it was built: one np.kron per ion, ion 0 fastest-varying."""
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    zero = np.array([1.0, 0.0])
    amps = np.ones(1, dtype=np.complex128)
    for ion_idx, ion in enumerate(reg.ions):
        off = reg.qubit_offsets[ion_idx]
        qubits = ([minus] if ion_idx == reg.num_ions - 1 else
                  [plus if s[off + q] == "1" else zero for q in range(ion.n)])
        label_amps = qubits[0]
        for q in qubits[1:]:
            label_amps = np.kron(label_amps, q)
        lvl = np.zeros(ion.d, dtype=np.complex128)
        for label in range(ion.d):
            lvl[ion.encoding.level(label)] = label_amps[label]
        amps = np.kron(lvl, amps)
    return amps


@given(st.sampled_from(["n1", "n2"]), st.lists(st.sampled_from("01"), min_size=1, max_size=12))
def test_bv_prep_in_place_equals_kron_chain(layout, bits):
    s = "".join(bits) + "0" * (layout == "n2" and len(bits) % 2)  # n2 packs qubit pairs
    reg = build_bv(s, layout).circuit.register
    got = sampling._bv_prep(reg, s, layout).amps
    assert np.array_equal(got.view(np.float64), _reference_bv_prep(reg, s).view(np.float64))


@pytest.mark.parametrize("s,layout", [("1" * 17, "n1"), ("01" * 9, "n2")])
def test_bv_prep_allocates_only_its_state(s, layout):
    # 2^18 and 2^19 amplitudes; the last np.kron alone held a state and a half
    reg = build_bv(s, layout).circuit.register
    tracemalloc.start()
    try:
        state = sampling._bv_prep(reg, s, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - state.amps.nbytes < state.amps.nbytes / 4


def test_statevector_cap_refuses_before_allocating():
    big = MAX_QUBITS + 2
    with pytest.raises(ResourceLimitError):
        gates_to_threshold(CircuitPolicy(n=1), big, 2.0, circuits=1)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(ResourceLimitError):
            next(fixed_depth_amplitudes(CircuitPolicy(n=2), big, 1, 1, seed=1))
    with pytest.raises(ResourceLimitError):
        run_bv("1" * big, "n2")
    check_qubits(MAX_QUBITS)  # the cap itself is allowed
    with pytest.raises(ResourceLimitError):
        check_qubits(MAX_QUBITS + 1)
