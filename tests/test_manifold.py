import itertools
import math
from contextlib import nullcontext
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ionvq import manifold
from ionvq.atomic import (
    _transitions,
    diagonalize_level,
    load_level_model,
    matrix_elements,
)
from ionvq.manifold import (
    TWO_PI,
    CostBreakdown,
    _breakdown,
    _connected_subsets,
    _median,
    _scorer,
    CostParams,
    allowed_graph,
    field_sweep,
    manifold_cost,
    precompute_level_data,
    search_top_k,
)
from oracles import sphere_moment_oracle

BA = load_level_model()
PARAMS = CostParams()


# ---------------------------------------------------------------------------
# per-candidate loop references for the vectorised admission rule and scorer


def _reference_resolved(data, params):
    omega, m_abs = data.omega, data.m_abs
    rabi = TWO_PI * params.D_Hz * m_abs
    dmin = TWO_PI * params.delta_min_Hz
    resolved = np.ones(len(data.pairs), dtype=bool)
    if params.resolution_scope == "endpoint":
        endpoint_pairs: dict[int, list[int]] = {}
        for k, (i, j) in enumerate(data.pairs):
            endpoint_pairs.setdefault(i, []).append(k)
            endpoint_pairs.setdefault(j, []).append(k)
        for k, (i, j) in enumerate(data.pairs):
            others = set(endpoint_pairs[i]) | set(endpoint_pairs[j])
            others.discard(k)
            for o in others:
                if m_abs[o] < 1e-12:
                    continue
                det = max(abs(omega[k] - omega[o]), dmin)
                if (rabi[o] ** 2) / det**2 > params.resolution:
                    resolved[k] = False
                    break
    else:
        for k in range(len(data.pairs)):
            det = np.maximum(np.abs(omega[k] - omega), dmin)
            ratio = rabi**2 / det**2
            ratio[k] = 0.0
            ratio[m_abs < 1e-12] = 0.0
            if float(ratio.max()) > params.resolution:
                resolved[k] = False
    return resolved


def _connected(nodes, edges) -> bool:
    nodes = list(nodes)
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def _reference_cost(state_set, data, params) -> CostBreakdown:
    s = tuple(sorted(state_set))
    d = len(s)
    edges = allowed_graph(s, data)
    if not _connected(s, edges):
        raise ValueError("candidate graph is not connected")
    int_idx = np.array([data.pair_index[e] for e in edges], dtype=int)
    in_set = np.zeros(len(data.states.labels), dtype=bool)
    in_set[list(s)] = True
    spect_idx = np.array(
        [k for k, (i, j) in enumerate(data.pairs) if (in_set[i] ^ in_set[j]) and data.drivable[k]],
        dtype=int,
    )
    A = len(int_idx)
    a_max = d * (d - 1) // 2
    a_min = d - 1
    x = (a_max - A) / (a_max - a_min) if a_max > a_min else 0.0
    d2 = (TWO_PI * params.D_Hz) ** 2
    ct = data.crosstalk
    column = np.cumsum(data.drivable) - 1  # crosstalk rows and columns are drivable transitions
    raw_int = 0.0
    if A > 1:
        block = ct[np.ix_(column[int_idx], column[int_idx])].copy()
        np.fill_diagonal(block, 0.0)
        raw_int = float(block.sum()) / A
    raw_spect = (float(ct[np.ix_(column[int_idx], column[spect_idx])].sum()) / A
                 if spect_idx.size else 0.0)
    geom = d ** (2 - x)
    eps_int = geom * d2 * raw_int
    eps_spect = geom * d2 * raw_spect
    m_int = data.m_abs[int_idx]
    t_r = math.pi / float((TWO_PI * params.D_Hz * m_int).mean())
    sens2 = float((data.sens[int_idx] ** 2).sum())
    eps_mem = (d ** (4 - 2 * x)) * t_r**2 * (params.dB_rms_T**2) * sens2 / (4 * d * (d + 2))
    return CostBreakdown(
        states=s,
        labels=tuple(data.states.labels[k] for k in s),
        edge_count=A,
        x=x,
        eps_memory=eps_mem,
        eps_internal=eps_int,
        eps_spectator=eps_spect,
        cost=eps_mem + eps_int + params.kappa * eps_spect,
        t_rotation=t_r,
        t_gate=geom * t_r,
        mean_element=float(m_int.mean()),
    )


def _reference_top_k(data, params, d, k):
    results = []
    for combo in itertools.combinations(range(len(data.states.labels)), d):
        try:
            results.append(_reference_cost(combo, data, params))
        except ValueError:
            continue
    results.sort(key=lambda r: (r.cost, r.states))
    return results[:k]


def _reference_search(model, n, params, k):
    """The search with one merge: every ``_CHUNK_ROWS`` slice scored as the
    search scores it, then one stable sort on cost over all of them."""
    data = precompute_level_data(model, params)
    score = _scorer(data, params)
    combos = _connected_subsets(len(data.states.labels), data.pairs[data.admitted], 2**n)
    rows = manifold._CHUNK_ROWS
    with manifold._one_blas_thread():  # as in the search: two threads can stall here
        parts = [score(combos[:0])] + [score(combos[lo:lo + rows])
                                       for lo in range(0, len(combos), rows)]
    scores = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    order = np.argsort(scores["cost"], kind="stable")[:k]
    return [_breakdown(scores, r, data) for r in order]


def _assert_same_breakdown(got, ref):
    for f in fields(CostBreakdown):
        g, r = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(r, float):
            assert math.isclose(g, r, rel_tol=1e-12, abs_tol=0.0), (f.name, g, r)
        else:
            assert g == r, (f.name, g, r)


@pytest.fixture(scope="module")
def data20():
    return precompute_level_data(BA, PARAMS)


@pytest.fixture(scope="module")
def chosen_manifold(data20):
    idx = {lab: k for k, lab in enumerate(data20.states.labels)}
    return tuple(sorted(idx[l] for l in [(1.0, 0.0), (1.0, -1.0), (2.0, -2.0), (3.0, -3.0)]))


def test_allowed_graph_rejects_weak_and_unresolved(data20):
    weak = replace(PARAMS, rabi_threshold_Hz=1e9)
    d2 = precompute_level_data(BA, weak)
    assert not d2.drivable.any()
    tight = replace(PARAMS, resolution=1e-12)
    d3 = precompute_level_data(BA, tight)
    # admission is decided for drivable transitions only
    assert d3.admitted[d3.drivable].sum() < data20.admitted[data20.drivable].sum()


@pytest.mark.parametrize("scope", ["all", "endpoint"])
def test_admission_matches_loop_reference(scope):
    for field_G in (1.0, 20.0, 70.0):
        for resolution in (1e-3, 0.05, 1.0):
            params = replace(PARAMS, B_T=field_G * 1e-4, resolution=resolution,
                             resolution_scope=scope)
            data = precompute_level_data(BA, params)
            # every transition: a non-drivable one reads as not admitted
            assert np.array_equal(data.admitted, data.drivable & _reference_resolved(data, params))


def _full_matrix_level_data(model, params):
    """The level data from arrays over every pair of transitions (276 x 276
    for the D5/2 level), as the search built them before it kept only the
    drivable rows: (pairs, omega, sens, m_abs, drivable, resolved, crosstalk)."""
    states = diagonalize_level(model, params.B_T)
    lower, upper, freq, sens = _transitions(model, params.B_T, states)
    M = matrix_elements(model, states, params.mechanism, *params.pols())
    pairs = list(zip(lower.tolist(), upper.tolist()))
    omega, sens = TWO_PI * freq, TWO_PI * sens
    m_abs = np.array([abs(M[j, i]) for i, j in pairs])
    rabi = TWO_PI * params.D_Hz * m_abs
    drivable = params.D_Hz * m_abs >= params.rabi_threshold_Hz
    dmin = TWO_PI * params.delta_min_Hz
    delta = np.abs(omega[:, None] - omega[None, :])
    main = np.maximum(delta, dmin) ** 2
    if params.resolution_scope == "all":
        veto = np.ones(main.shape, dtype=bool)
    else:
        ends = np.array(pairs)
        veto = (ends[:, None, :, None] == ends[None, :, None, :]).any(axis=(2, 3))
    veto &= m_abs >= 1e-12
    np.fill_diagonal(veto, False)
    resolved = ~(veto & (rabi**2 / main > params.resolution)).any(axis=1)
    side = np.maximum(np.abs(delta - TWO_PI * params.omega_M_Hz), dmin) ** 2
    m2 = m_abs[None, :] ** 2
    crosstalk = m2 / main + (params.eta**2) * m2 / side
    return pairs, omega, sens, m_abs, drivable, resolved, crosstalk


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40)
@given(
    field_G=st.floats(0.5, 70.0),
    scope=st.sampled_from(["all", "endpoint"]),
    resolution=st.floats(1e-3, 1.0),
    mechanism=st.sampled_from(["raman", "m1"]),
)
@example(field_G=0.01, scope="all", resolution=0.05, mechanism="raman")
@example(field_G=0.01, scope="endpoint", resolution=0.05, mechanism="m1")
def test_level_data_equals_full_matrix_reference(field_G, scope, resolution, mechanism):
    # drivable rows only, bit for bit; at 0.01 G (1e-6 T) nothing is admitted
    params = replace(PARAMS, B_T=field_G * 1e-4, resolution_scope=scope, resolution=resolution,
                     mechanism=mechanism)
    data = precompute_level_data(BA, params)
    pairs, omega, sens, m_abs, drivable, resolved, crosstalk = _full_matrix_level_data(BA, params)
    assert data.pairs.tolist() == [list(p) for p in pairs]
    assert all(data.pair_index[p] == k for k, p in enumerate(pairs))
    for got, want in ((data.omega, omega), (data.sens, sens), (data.m_abs, m_abs),
                      (data.drivable, drivable), (data.admitted, drivable & resolved)):
        assert _same_bits(got, want)
    drv = np.flatnonzero(drivable)
    assert _same_bits(data.crosstalk, crosstalk[np.ix_(drv, drv)])


@settings(max_examples=40)
@given(
    field_G=st.floats(0.5, 70.0),
    scope=st.sampled_from(["all", "endpoint"]),
    kappa=st.floats(0.0, 1.0),
    subsets=st.lists(st.sets(st.integers(0, 23), min_size=4, max_size=4),
                     min_size=10, max_size=20),
)
def test_vectorised_cost_matches_reference(field_G, scope, kappa, subsets):
    params = replace(PARAMS, B_T=field_G * 1e-4, resolution_scope=scope, kappa=kappa)
    data = precompute_level_data(BA, params)
    for subset in subsets:
        try:
            ref = _reference_cost(subset, data, params)
        except ValueError:
            with pytest.raises(ValueError):
                manifold_cost(subset, data, params)
            continue
        _assert_same_breakdown(manifold_cost(subset, data, params), ref)


@settings(max_examples=5)
@given(field_G=st.floats(0.5, 70.0))
@example(field_G=1.0)
@example(field_G=6.6)
@example(field_G=20.0)
@example(field_G=42.1)
@example(field_G=70.0)
def test_search_matches_reference_loop(field_G):
    params = replace(PARAMS, B_T=field_G * 1e-4)
    top = search_top_k(BA, 2, params, 10)
    ref = _reference_top_k(precompute_level_data(BA, params), params, 4, 10)
    assert [cb.states for cb in top] == [cb.states for cb in ref]
    for got, want in zip(top, ref):
        _assert_same_breakdown(got, want)


@settings(max_examples=30)
@given(field_G=st.floats(0.5, 70.0), k=st.sampled_from([1, 10, 3000]),
       chunk=st.sampled_from([1, 300, manifold._CHUNK_ROWS]))
def test_chunked_search_equals_one_merge(field_G, k, chunk):
    # every cost bit and the tie order, whatever the slices' size
    params = replace(PARAMS, B_T=field_G * 1e-4)
    with mock.patch.object(manifold, "_CHUNK_ROWS", chunk):
        assert search_top_k(BA, 2, params, k) == _reference_search(BA, 2, params, k)


def test_chunked_search_keeps_ties_in_subset_order(monkeypatch):
    # every cost tied: the winners are the first k subsets, across slices too
    real = manifold._scorer

    def tied(data, params):
        score = real(data, params)
        return lambda combos: {**score(combos), "cost": np.zeros(len(combos))}

    monkeypatch.setattr(manifold, "_scorer", tied)
    monkeypatch.setattr(manifold, "_CHUNK_ROWS", 300)
    params = replace(PARAMS, B_T=20e-4)
    data = precompute_level_data(BA, params)
    combos = _connected_subsets(len(data.states.labels), data.pairs[data.admitted], 4)
    assert [cb.states for cb in search_top_k(BA, 2, params, 1000)] == [
        tuple(c) for c in combos[:1000].tolist()]


@pytest.mark.parametrize("field_G", [5.0, 20.0, 60.0])
def test_chunked_n3_search_equals_block_by_block(monkeypatch, field_G):
    monkeypatch.setattr(manifold, "_CHUNK_ROWS", 1000)  # of about 10^5 candidates
    params = replace(PARAMS, B_T=field_G * 1e-4)
    assert search_top_k(BA, 3, params, 3000) == _reference_search(BA, 3, params, 3000)


def test_search_below_any_resolved_manifold_is_empty():
    # a sweep from 0 G starts here, where no transition is admitted
    params = replace(PARAMS, B_T=1e-6)
    data = precompute_level_data(BA, params)
    assert not data.admitted.any()
    assert search_top_k(BA, 2, params, 10) == []


def test_one_blas_thread_pins_and_restores():
    calls = manifold._blas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count calls")
    get, put = calls
    start = get()
    try:
        put(2)
        with manifold._one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError), manifold._one_blas_thread():
            assert get() == 1
            raise RuntimeError("scoring failed")
        assert get() == 2
        # the thread count does not change a product's bits
        params = replace(PARAMS, B_T=33.3e-4)
        pinned = search_top_k(BA, 2, params, 3000)
        with mock.patch.object(manifold, "_one_blas_thread", nullcontext):
            assert search_top_k(BA, 2, params, 3000) == pinned
    finally:
        put(start)


@st.composite
def _graphs(draw):
    """(size, edges) on 6-14 vertices: empty, complete, or a random edge set."""
    size = draw(st.integers(6, 14))
    pairs = list(itertools.combinations(range(size), 2))
    kind = draw(st.sampled_from(["empty", "complete", "random"]))
    if kind != "random":
        return size, pairs if kind == "complete" else []
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return size, [e if draw(st.booleans()) else e[::-1] for e in sorted(edges)]


@settings(max_examples=60)
@given(graph=_graphs(), k=st.integers(2, 8))
def test_connected_subsets_match_filtered_combinations(graph, k):
    size, edges = graph
    want = [list(c) for c in itertools.combinations(range(size), k)
            if _connected(c, [e for e in edges if set(e) <= set(c)])]
    got = _connected_subsets(size, edges, k)
    assert got.shape == (len(want), k)
    assert got.tolist() == want


def test_connected_subsets_past_64_vertices():
    # a path on 70 vertices, whose subset bitmasks no longer fit 64 bits
    rows = _connected_subsets(70, [(v, v + 1) for v in range(69)], 3)
    assert rows.tolist() == [[v, v + 1, v + 2] for v in range(68)]


def _connected_oracle(size, edges, k):
    """Rows of ``itertools.combinations(range(size), k)`` whose subgraph a
    breadth-first search from the least vertex covers; the search runs its
    k - 1 levels on 20,000 rows at a time."""
    adj = np.eye(size, dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    combos = itertools.combinations(range(size), k)
    rows = []
    while len(c := np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, 20_000)),
                               np.intp).reshape(-1, k)):
        sub = adj[c[:, :, None], c[:, None, :]]
        seen = sub[:, 0]  # the least vertex and its neighbours in the set
        for _ in range(k - 2):  # one level each: those next to a vertex seen (boolean or-and)
            seen = np.matmul(seen[:, None, :], sub)[:, 0]
        rows += c[seen.all(axis=1)].tolist()
    return rows


@st.composite
def _small_graphs(draw):
    """(size, edges) on 1-12 vertices, with no edges about one time in four."""
    size = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(size), 2))
    if not pairs or draw(st.integers(0, 3)) == 0:
        return size, []
    return size, sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))


@settings(max_examples=150)
@given(graph=_small_graphs(), k=st.integers(1, 5))
def test_connected_subsets_equal_bfs_oracle(graph, k):
    # same rows in the same order: a dropped or a repeated set fails
    size, edges = graph
    got = _connected_subsets(size, edges, k)
    want = _connected_oracle(size, edges, k)
    assert got.shape == (len(want), k) and got.dtype.kind == "i"
    assert got.tolist() == want


@pytest.mark.parametrize("n, field_G", [(2, 1.0), (2, 20.0), (2, 60.0), (3, 20.0)])
def test_connected_subsets_of_level_graphs_equal_bfs_oracle(n, field_G):
    data = precompute_level_data(BA, replace(PARAMS, B_T=field_G * 1e-4))
    edges = data.pairs[data.admitted].tolist()
    got = _connected_subsets(len(data.states.labels), edges, 2**n)
    assert got.tolist() == _connected_oracle(len(data.states.labels), edges, 2**n)


def test_disconnected_candidate_rejected(data20):
    # one candidate with fewer than d - 1 admitted edges, and one with enough
    # edges that is still disconnected: a triangle beside an isolated level
    L = len(data20.states.labels)
    edges = {c: allowed_graph(c, data20) for c in itertools.combinations(range(L), 4)}
    sparse = next(c for c, e in edges.items() if len(e) < 3)
    triangle = next(c for c, e in edges.items() if len(e) >= 3 and not _connected(c, e))
    found = {cb.states for cb in search_top_k(BA, 2, PARAMS, len(edges))}
    assert len(found) == sum(_connected(c, e) for c, e in edges.items())
    for combo in (sparse, triangle):
        with pytest.raises(ValueError):
            manifold_cost(combo, data20, PARAMS)
        assert combo not in found


def test_cost_recombination_and_invariance(data20, chosen_manifold):
    cb = manifold_cost(chosen_manifold, data20, PARAMS)
    assert cb.cost == pytest.approx(
        cb.eps_memory + cb.eps_internal + PARAMS.kappa * cb.eps_spectator, rel=1e-15
    )
    shuffled = tuple(reversed(chosen_manifold))
    cb2 = manifold_cost(shuffled, data20, PARAMS)
    assert cb2.cost == cb.cost


def test_memory_error_scalings(data20, chosen_manifold):
    base = manifold_cost(chosen_manifold, data20, PARAMS)
    doubled_b = manifold_cost(chosen_manifold, data20, replace(PARAMS, dB_rms_T=2 * PARAMS.dB_rms_T))
    assert doubled_b.eps_memory == pytest.approx(4 * base.eps_memory, rel=1e-12)
    # halving the drive strength doubles t_R and quadruples the memory term
    half_d = replace(PARAMS, D_Hz=PARAMS.D_Hz / 2)
    data_half = precompute_level_data(BA, half_d)
    slow = manifold_cost(chosen_manifold, data_half, half_d)
    assert slow.t_rotation == pytest.approx(2 * base.t_rotation, rel=1e-12)
    assert slow.eps_memory == pytest.approx(4 * base.eps_memory, rel=1e-12)
    none = manifold_cost(chosen_manifold, data20, replace(PARAMS, dB_rms_T=0.0))
    assert none.eps_memory == 0.0


def test_kappa_zero_drops_spectator_term(data20, chosen_manifold):
    cb = manifold_cost(chosen_manifold, data20, replace(PARAMS, kappa=0.0))
    assert cb.cost == pytest.approx(cb.eps_memory + cb.eps_internal, rel=1e-15)


def test_chosen_manifold_published_numbers(data20, chosen_manifold):
    # frequencies come out within a quarter percent; the memory component of
    # the published per-gate table reproduces within a few percent
    ep = replace(PARAMS, resolution_scope="endpoint")
    data_ep = precompute_level_data(BA, ep)
    cb = manifold_cost(chosen_manifold, data_ep, ep)
    assert cb.edge_count == 5
    assert cb.eps_memory == pytest.approx(1.168e-4, rel=0.10)
    assert cb.t_gate == pytest.approx(4 ** (2 - 1 / 3) * cb.t_rotation, rel=1e-12)


def test_search_contains_published_manifold(data20, chosen_manifold):
    top = search_top_k(BA, 2, PARAMS, 10)
    assert any(cb.states == chosen_manifold for cb in top)
    costs = [cb.cost for cb in top]
    assert costs == sorted(costs)


def test_field_sweep_trend():
    pts = field_sweep(BA, 2, PARAMS, [5e-4, 6e-3], 10)
    assert pts[1].median_cost < pts[0].median_cost


def test_sphere_moments():
    for d in (2, 4, 8):
        off, diag = sphere_moment_oracle(d, 10**6, seed=9)
        assert off == pytest.approx(1 / (d * (d + 2)), rel=0.01)
        assert diag == pytest.approx(3 / (d * (d + 2)), rel=0.01)
        assert diag / off == pytest.approx(3.0, rel=0.02)


def test_sphere_moment_d2_value():
    off, _ = sphere_moment_oracle(2, 10**6, seed=4)
    assert off == pytest.approx(1 / 8, rel=0.01)


def test_moment_sample_floor():
    with pytest.raises(ValueError):
        sphere_moment_oracle(4, 100, seed=1)


@settings(max_examples=60)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25))
def test_sweep_median_equals_numpy_median(values):
    v = np.array(values)
    assert _median(v) == float(np.median(v))
