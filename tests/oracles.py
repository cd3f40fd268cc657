"""Slow references the tests hold the package to, kept beside the tests.

``match_round`` and ``brute_force_match`` decode one differenced round of the
repetition code by minimum-weight matching, which ``qec._logical_failures``
replaces by a majority vote; ``sphere_moment_oracle`` samples the hypersphere
moments whose closed form ``manifold``'s memory term uses; ``argparse_parser``
is the command-line parser that ``cli.parse_args`` replaced; ``zero_state``,
``index_of_levels``, ``level_of_bits`` and ``register_config`` build states,
indices and register files that no command needs.  The tests import
them as ``from oracles import ...``: ``tests/`` has no ``__init__.py``, so
pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from ionvq.core import MSB_FIRST, StateVector


# ---------------------------------------------------------------------------
# registers and states


def zero_state(reg) -> StateVector:
    """|0...0> on ``reg``, its box holding level 0 of each ion."""
    amps = np.zeros(reg.dim, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(reg, amps, [1] * reg.num_ions)


def index_of_levels(reg, levels) -> int:
    """Basis index of one level per ion."""
    return sum(lv * st for lv, st in zip(levels, reg.strides))


def level_of_bits(enc, bits: str, qubit_order: str = MSB_FIRST) -> int:
    """The level ``enc`` labels with ``bits``, virtual qubit 1 first under msb_first."""
    return enc.perm.index(int(bits if qubit_order == MSB_FIRST else bits[::-1], 2))


def register_config(reg) -> dict:
    """A register file's dict for ``reg``, as ``Register.from_config`` reads it."""
    return {"qubit_order": reg.qubit_order,
            "ions": [{"d": ion.d, "map": list(ion.encoding.perm),
                      "allowed_r": None if ion.allowed_r is None else [list(p) for p in ion.pairs()]}
                     for ion in reg.ions]}


# ---------------------------------------------------------------------------
# decoding: exact minimum-weight matching on a 1D chain, per differenced round


def _boundary_costs(pos: int, d: int) -> tuple[int, int]:
    """Weights of correction chains from stabilizer ``pos`` to either end."""
    return pos + 1, d - 1 - pos


def match_round(defects: tuple[int, ...], d: int):
    """Interval DP over sorted defect positions; an oracle, since
    ``qec._logical_failures`` reaches the same decision by a majority vote.

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


# ---------------------------------------------------------------------------
# hypersphere moments entering the memory-error average


def sphere_moment_oracle(d: int, samples: int = 10**6, seed: int = 0):
    """Monte Carlo moments of |c_i|^2 |c_j|^2 for amplitudes uniform on the
    positive orthant of the real unit (d-1)-sphere.

    Returns (off_diagonal, diagonal); closed forms are 1/(d(d+2)) and
    3/(d(d+2)).
    """
    if samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    rng = np.random.default_rng(seed)
    off_acc = 0.0
    diag_acc = 0.0
    chunk = 200_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        c2 = rng.standard_normal((m, d)) ** 2
        c2 /= c2.sum(axis=1, keepdims=True)
        quart = (c2**2).sum(axis=1)
        diag_acc += float(quart.sum())
        off_acc += float((1.0 - quart).sum())  # sum_{i != j} c_i^2 c_j^2 = 1 - sum c_i^4
        done += m
    n_off = samples * d * (d - 1)
    n_diag = samples * d
    return off_acc / n_off, diag_acc / n_diag


# ---------------------------------------------------------------------------
# command line: the argparse parser that cli.parse_args replaces


def argparse_parser(schema: dict):
    """An argparse parser with one subcommand per definition of ``schema`` (the
    CLI's config_schema.json) and one flag per property, plus --out, --format and
    --config, as the CLI built it before it read argv itself.  Unique-prefix
    abbreviations are off: the CLI no longer accepts them."""
    import argparse

    types = {"integer": int, "number": float, "string": str}
    p = argparse.ArgumentParser(prog="ionvq", allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)
    for command, spec in schema["definitions"].items():
        sp = sub.add_parser(command, allow_abbrev=False)
        for key, prop in spec["properties"].items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=types[prop["type"]])
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--config")
    return p
