"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers at the stated tolffances.

Criteria 3 and 10 assert published-table agreement that the stored sources
do not fully support; their tests state exactly which clause falls short
(see notes in the audit entries and the project docs).
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
from scipy.stats import unitary_group

from ionvq import atomic, manifold, qec, sampling, tables
from ionvq.compiler import distance, synthesize_exact
from ionvq.core import (
    MS,
    IonSpec,
    R,
    StateVector,
    apply_circuit,
    apply_native,
    build_register,
)
from oracles import brute_force_match, match_round, sphere_moment_oracle


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ------------------------------------------------------------------ 1
def test_criterion_1_gate_law_conformance():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    regs = [
        build_register([IonSpec(4), IonSpec(2)]),
        build_register([IonSpec(8), IonSpec(4)]),
        build_register([IonSpec(4), IonSpec(4), IonSpec(4)]),
        build_register([IonSpec(2), IonSpec(2)]),
    ]
    worst = 0.0
    for case in range(1000):
        reg = regs[case % len(regs)]
        amps = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
        amps /= np.linalg.norm(amps)
        if case % 2 == 0:
            ion = int(rng.integers(reg.num_ions))
            d = reg.ions[ion].d
            a, b = map(int, sorted(rng.choice(d, 2, replace=False)))
            th, ph = rng.uniform(0, 2 * math.pi, 2)
            gate = R(ion, a, b, th, ph)
            dense = np.eye(reg.dim, dtype=complex)
            for g in range(reg.dim):
                lv = reg.levels_of_index(g)
                if lv[ion] == a:
                    lv2 = list(lv)
                    lv2[ion] = b
                    dense[g, g] = math.cos(th)
                    dense[reg.index_of_levels(lv2), g] = -1j * np.exp(1j * ph) * math.sin(th)
                elif lv[ion] == b:
                    lv2 = list(lv)
                    lv2[ion] = a
                    dense[g, g] = math.cos(th)
                    dense[reg.index_of_levels(lv2), g] = -1j * np.exp(-1j * ph) * math.sin(th)
        else:
            i, j = map(int, sorted(rng.choice(reg.num_ions, 2, replace=False)))
            pi_ = tuple(map(int, sorted(rng.choice(reg.ions[i].d, 2, replace=False))))
            pj_ = tuple(map(int, sorted(rng.choice(reg.ions[j].d, 2, replace=False))))
            J = float(rng.uniform(0, 2 * math.pi))
            gate = MS(i, j, pi_, pj_, J)
            dense = np.eye(reg.dim, dtype=complex)
            for g in range(reg.dim):
                lv = reg.levels_of_index(g)
                if lv[i] in pi_ and lv[j] in pj_:
                    lv2 = list(lv)
                    lv2[i] = pi_[0] if lv[i] == pi_[1] else pi_[1]
                    lv2[j] = pj_[0] if lv[j] == pj_[1] else pj_[1]
                    dense[g, g] = math.cos(J)
                    dense[reg.index_of_levels(lv2), g] = -1j * math.sin(J)
        st = StateVector.from_amplitudes(reg, amps)
        apply_native(st, gate)
        worst = max(worst, float(np.max(np.abs(st.amps - dense @ amps))))
    dt = time.monotonic() - t0
    ok = worst <= 1e-12 and dt < 10
    assert _report(1, ok, f"1000 random gates vs dense law, max dev {worst:.2e}, {dt:.1f}s")


# ------------------------------------------------------------------ 2
def test_criterion_2_exact_synthesis():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    worst_d4 = worst_n4 = 0
    for _ in range(100):
        rep = synthesize_exact(unitary_group.rvs(4, random_state=rng))
        worst_d4 = max(worst_d4, rep.distance)
        worst_n4 = max(worst_n4, len(rep.gates))
    worst_d8 = worst_n8 = 0
    for _ in range(100):
        rep = synthesize_exact(unitary_group.rvs(8, random_state=rng))
        worst_d8 = max(worst_d8, rep.distance)
        worst_n8 = max(worst_n8, len(rep.gates))
    dt = time.monotonic() - t0
    ok = worst_d4 <= 1e-9 and worst_n4 <= 12 and worst_d8 <= 1e-9 and worst_n8 <= 42 and dt < 30
    assert _report(
        2,
        ok,
        f"SU(4): <= {worst_n4} pulses, dist {worst_d4:.1e}; "
        f"SU(8): <= {worst_n8} pulses, dist {worst_d8:.1e}; {dt:.1f}s",
    )


# ------------------------------------------------------------------ 3
def test_criterion_3_table_audit():
    entries = tables.run_table_suite()
    summary = tables.audit_summary(entries)
    frac = summary["pass_fraction"]
    row13 = next(e for e in entries if e.table == "I" and e.row == "13")
    alts_ok = summary["fails_missing_alternative"] == []
    clause_pass_rate = frac >= 0.80
    clause_alts = alts_ok and not row13.passed
    detail = (
        f"{summary['passed']}/{summary['rows']} rows verify ({100*frac:.0f}%, criterion wants >=80%); "
        f"row I.13 failed as expected: {not row13.passed}; "
        f"all {summary['rows'] - summary['passed']} failing rows carry verified "
        f"equal-or-shorter alternatives: {alts_ok}"
    )
    ok = clause_pass_rate and clause_alts
    _report(3, ok, detail)
    assert clause_alts, "every failing row must carry a verified alternative"
    assert clause_pass_rate, (
        "the stored sequences reproduce their targets for only "
        f"{100*frac:.0f}% of rows under every convention combination; "
        "see the audit notes for the per-row discrepancies"
    )


# ------------------------------------------------------------------ 4
def _fixed_depth_probs(n, num_qubits, layers, circuits, seed):
    """Output distributions of circuits seed, seed + 1, ... of ``layers`` brickwork layers."""
    amplitudes = sampling.fixed_depth_amplitudes(sampling.CircuitPolicy(n=n), num_qubits, layers,
                                                 circuits, seed)
    return [np.abs(amps) ** 2 for amps in amplitudes]


def test_criterion_4_xeb_endpoints():
    ok = True
    details = []
    for N in (8, 12, 16):
        [probs] = _fixed_depth_probs(2, N, 0, 1, seed=1)
        v = sampling.xeb_exact(probs)
        ok &= v == 2**N - 1
        details.append(f"N={N} depth0={v:.0f}")
    deep = [sampling.xeb_exact(probs) for probs in _fixed_depth_probs(2, 8, 14, 10, seed=0)]
    mean_deep = float(np.mean(deep))
    ok &= 0.9 <= mean_deep <= 1.1
    assert _report(4, ok, f"{'; '.join(details)}; deep N=8 mean {mean_deep:.3f} in [0.9, 1.1]")


# ------------------------------------------------------------------ 5
def test_criterion_5_xeb_ordering():
    t0 = time.monotonic()
    cases = {
        (8, 1): 1600, (8, 2): 1600,
        (12, 1): 40, (12, 2): 40, (12, 3): 40,
        (16, 1): 25, (16, 2): 25,
    }
    res = {}
    for (N, n), circuits in cases.items():
        res[(N, n)] = sampling.gates_to_threshold(
            sampling.CircuitPolicy(n=n), N, 2.0, circuits=circuits, seed=42
        )
    margins = []
    ok = True
    for N, n in ((8, 2), (12, 2), (16, 2), (12, 3)):
        a, b = res[(N, 1)], res[(N, n)]
        margin = a.mean_gates - b.mean_gates
        pooled = math.hypot(a.stderr, b.stderr)
        sig = margin / pooled
        margins.append(f"N={N} n={n}: {margin:.0f} gates ({sig:.1f} sigma)")
        ok &= margin > 0 and sig > 2
    fit = sampling.nlogn_fit([8, 12, 16], [res[(N, 1)].mean_gates for N in (8, 12, 16)])
    dt = time.monotonic() - t0
    ok &= dt < 900
    assert _report(
        5, ok, f"{'; '.join(margins)}; n=1 fit ~ {fit:.1f} N log2 N; {dt:.0f}s"
    )


# ------------------------------------------------------------------ 6
def test_criterion_6_second_moment():
    [probs0] = _fixed_depth_probs(1, 8, 0, 1, seed=2)
    v0 = sampling.second_moment(probs0)
    deep = [sampling.second_moment(probs) for probs in _fixed_depth_probs(2, 8, 14, 10, seed=0)]
    mean_deep = float(np.mean(deep))
    ok = v0 == 2**8 - 1 and abs(mean_deep - 1.0) <= 0.15
    assert _report(6, ok, f"depth0 = {v0:.0f} (= 255); Porter-Thomas mean {mean_deep:.3f} (1 +- 0.15)")


# ------------------------------------------------------------------ 7
def test_criterion_7_repetition_code():
    t0 = time.monotonic()
    eps1 = 1e-3 / 14.0
    shots = 10**5
    ratio_lines = []
    ok = True
    for L in (5, 9):
        d1, d2 = qec.matched_distances(L)
        r1 = qec.sample_logical_error(d1, 1, eps1, d1, shots, seed=11 + L)
        r2 = qec.sample_logical_error(d2, 2, eps1, d1, shots, seed=12 + L)
        ok &= r2.p_logical <= r1.p_logical / 3 or (r1.p_logical == 0 and r2.p_logical == 0)
        # the exact values show how far the sampled clause sits from its limit
        e1, e2 = (qec.exact_logical_error(d, n, eps1, d1) for d, n in ((d1, 1), (d2, 2)))
        ratio_lines.append(f"L={L}: pL(n1)={r1.p_logical:.1e} pL(n2)={r2.p_logical:.1e}, "
                           f"exact {e1:.2e}/{e2:.2e} ratio {e2 / e1:.2f}")
    mono_ok = True
    prev_hi = None
    grid = np.logspace(-3, -1, 5)
    for k, p in enumerate(grid):
        r = qec.sample_logical_error(3, 1, p / 14, 3, shots, seed=77 + k)
        if prev_hi is not None and r.ci_high < prev_hi:
            mono_ok = False
        prev_hi = r.ci_low
    dt = time.monotonic() - t0
    ok &= mono_ok and dt < 600
    assert _report(
        7, ok, f"{'; '.join(ratio_lines)}; monotone over 5-point grid: {mono_ok}; {dt:.0f}s"
    )


# ------------------------------------------------------------------ 8
def test_criterion_8_decoder_oracle():
    mismatches = 0
    checked = 0
    for d in range(2, 10):
        n_stab = d - 1
        for size in range(0, min(6, n_stab) + 1):
            for defects in itertools.combinations(range(n_stab), size):
                c1, _ = match_round(defects, d)
                c2, _ = brute_force_match(defects, d)
                checked += 1
                mismatches += c1 != c2
    ok = mismatches == 0
    assert _report(8, ok, f"{checked} defect configurations, {mismatches} mismatches")


# ------------------------------------------------------------------ 9
def test_criterion_9_hypersphere_moments():
    ok = True
    parts = []
    for d in (2, 4, 8):
        off, diag = sphere_moment_oracle(d, 10**6, seed=5)
        r1 = off * d * (d + 2)
        r2 = diag * d * (d + 2) / 3
        ok &= abs(r1 - 1) < 0.01 and abs(r2 - 1) < 0.01
        parts.append(f"d={d}: off x d(d+2) = {r1:.4f}, diag x d(d+2)/3 = {r2:.4f}")
    assert _report(9, ok, "; ".join(parts))


# ------------------------------------------------------------------ 10
def test_criterion_10_manifold_reproduction():
    model = atomic.load_level_model()
    params = manifold.CostParams()
    states = atomic.diagonalize_level(model, params.B_T)
    i, j, freq, _ = atomic._transitions(model, params.B_T, states)
    bylab = {frozenset((states.labels[a], states.labels[b])): f
             for a, b, f in zip(i.tolist(), j.tolist(), freq.tolist())}
    rows = [
        ((1.0, 0.0), (1.0, -1.0), 56.8e6),
        ((1.0, 0.0), (2.0, -2.0), 137.1e6),
        ((1.0, -1.0), (2.0, -2.0), 80.3e6),
        ((2.0, -2.0), (3.0, -3.0), 63.1e6),
        ((1.0, -1.0), (3.0, -3.0), 143.4e6),
    ]
    freq_dev = max(
        abs(bylab[frozenset((la, lb))] / ref - 1) for la, lb, ref in rows
    )
    freqs_ok = freq_dev <= 0.02

    ep = replace(params, resolution_scope="endpoint")
    data = manifold.precompute_level_data(model, ep)
    idx = {lab: k for k, lab in enumerate(data.states.labels)}
    chosen_set = tuple(sorted(idx[l] for l in [(1.0, 0.0), (1.0, -1.0), (2.0, -2.0), (3.0, -3.0)]))
    cb = manifold.manifold_cost(chosen_set, data, ep)
    ref = {"C": 2.988e-3, "M": 1.168e-4, "Int": 4.117e-4, "Spect": 4.920e-3}
    devs = {
        "M": cb.eps_memory / ref["M"] - 1,
        "Int": cb.eps_internal / ref["Int"] - 1,
        "Spect": cb.eps_spectator / ref["Spect"] - 1,
        "C": cb.cost / ref["C"] - 1,
    }
    breakdown_ok = all(abs(v) <= 0.10 for v in devs.values())

    recombine_ok = cb.cost == cb.eps_memory + cb.eps_internal + ep.kappa * cb.eps_spectator
    top = manifold.search_top_k(model, 2, params, 10)
    contains_ok = any(t.states == chosen_set for t in top)
    sweep = manifold.field_sweep(model, 2, params, [5e-4, 6e-3], 10)
    trend_ok = sweep[1].median_cost < sweep[0].median_cost

    ok = freqs_ok and breakdown_ok and recombine_ok and contains_ok and trend_ok
    detail = (
        f"frequencies within {100*freq_dev:.2f}% (<=2%); "
        f"breakdown dev vs published per-gate table: "
        + ", ".join(f"{k} {100*v:+.0f}%" for k, v in devs.items())
        + f" (<=10% wanted); recombination exact: {recombine_ok}; "
        f"published set in top-10: {contains_ok}; sweep 60G<5G: {trend_ok}"
    )
    _report(10, ok, detail)
    assert freqs_ok and recombine_ok and contains_ok and trend_ok
    assert breakdown_ok, (
        "the published error-budget table is not reproduced within 10% per "
        "component by its own printed formulas (memory term agrees to "
        f"{100*abs(devs['M']):.0f}%; crosstalk split deviates "
        f"{100*devs['Int']:+.0f}%/{100*devs['Spect']:+.0f}%)"
    )


# ------------------------------------------------------------------ 11
def test_criterion_11_bv_counting():
    ok = True
    worst = None
    for k in (2, 4, 6, 8):
        for bits in itertools.product("01", repeat=k):
            s = "".join(bits)
            bv = sampling.build_bv(s, "n2")
            ones = s.count("1")
            L = k // 2 + 1
            if bv.intra_count != 4 * ones or bv.ms_count > min(ones, L):
                ok = False
                worst = s
            state = bv.prep_state()
            apply_circuit(state, bv.circuit.gates)
            probs = state.probabilities()
            p_s = sum(
                probs[g]
                for g in np.flatnonzero(probs > 1e-12)
                if state.register.bitstring(int(g))[:k] == s
            )
            if p_s < 1 - 1e-9:
                ok = False
                worst = s
    assert _report(
        11,
        ok,
        "intra = 4*popcount(s) and MS <= min(popcount, L) with certain recovery "
        f"for all 340 strings |s| <= 8" + ("" if ok else f"; first failure at s={worst}"),
    )
