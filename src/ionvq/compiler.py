"""Pulse-sequence synthesis for targets on multi-level ions.

Two synthesis routes are provided and deliberately kept independent of each
other so one can check the other:

* ``synthesize_exact``: Givens-style column elimination along a spanning tree
  of the ion's coupling graph (its ``allowed_r`` pairs, all of them when
  unset), followed by two-pulse phase pairs that equalize the residual
  diagonal phases.  Works for any connected coupling graph on a single ion
  and never exceeds d(d-1)/2 + 2(d-1) pulses.  Targets
  that are plain exponentials of disjoint two-level couplings take a fast
  path that emits exactly d/2 pulses.
* ``synthesize_variational``: numeric minimization of
  ((1/2^N)|Tr(U^dag U_ansatz)| - 1)^2 over the free angles of a fixed layered
  gate template, with random restarts and layer growth.  Each angle enters
  the overlap as a + b cos t + c sin t, so coordinate descent reads each
  slice in closed form from the gate's environment and jumps to its exact
  optimum (Rotosolve: Ostaszewski et al., Quantum 5, 391 (2021); Nakanishi
  et al., PRR 2, 043158 (2020)).

Both return their gates as a plain list in applied order (``LEFT_FIRST``:
the leftmost gate acts on the state first).  All reconstruction checks go
through ``distance``, which is invariant under a global phase of either
argument.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MS,
    IonSpec,
    NativeGate,
    R,
    Register,
    build_register,
    gate_matrix,
    is_unitary,
    sequence_matrix,
    validate_gate,
)

LEFT_FIRST = "leftmost_applied_first"
LEFT_LAST = "leftmost_applied_last"

COST_FLOOR = 1e-8
EXACT_TOL = 1e-9


def distance(U: np.ndarray, V: np.ndarray) -> float:
    """1 - |Tr(U^dag V)| / dim; zero iff U = V up to a global phase."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape:
        raise ValueError("dimension mismatch")
    return float(1.0 - abs(np.trace(U.conj().T @ V)) / U.shape[0])


def overlap(U_target: np.ndarray, V: np.ndarray) -> complex:
    """Tr(U^dag V), the complex overlap the variational cost is built on."""
    return complex(np.vdot(U_target, V))


def overlap_cost(U_target: np.ndarray, V: np.ndarray) -> float:
    """((1/dim)|Tr(U^dag V)| - 1)^2, the variational figure of merit."""
    return _cost(overlap(U_target, V), U_target.shape[0])


def _cost(z: complex, dim: int) -> float:
    return (abs(z) / dim - 1.0) ** 2


@dataclass
class SynthesisReport:
    gates: list  # applied first to last
    distance: float
    fast_path: bool = False
    converged: bool = True
    cost: float = 0.0
    restarts_used: int = 0


# ---------------------------------------------------------------------------
# spanning-tree utilities


def _adjacency(vertices, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _bfs(adj: dict[int, set[int]], root: int):
    """Parent pointers and visiting order of a BFS, neighbours in sorted order."""
    parent = {root: None}
    order = [root]
    for v in order:
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent, order


def _spanning_tree(d: int, edges: Sequence[tuple[int, int]]):
    """BFS spanning tree from level 0; returns parent map or None."""
    parent, _ = _bfs(_adjacency(range(d), edges), 0)
    return parent if len(parent) == d else None


def _leaf_order(d: int, tree_edges: set[tuple[int, int]]) -> list[int]:
    """Vertex order v1..vd where each v is a leaf of the remaining tree."""
    adj = _adjacency(range(d), tree_edges)
    alive = set(range(d))
    out = []
    while len(alive) > 1:
        leaf = min(v for v in alive if len(adj[v]) <= 1)
        out.append(leaf)
        for w in adj[leaf]:
            adj[w].discard(leaf)
        adj[leaf].clear()
        alive.discard(leaf)
    out.append(alive.pop())
    return out


def _tree_paths_to(root: int, tree_edges: set[tuple[int, int]], alive: set[int]):
    """Parent pointers toward ``root`` within the still-active subtree."""
    live_edges = [(a, b) for a, b in tree_edges if a in alive and b in alive]
    parent, order = _bfs(_adjacency(alive, live_edges), root)
    depth = {v: 0 for v in parent}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return parent, depth


# ---------------------------------------------------------------------------
# exact synthesis


def _solve_r(a: int, b: int, x: complex, y: complex, into: int, zero: int) -> R:
    """R_ab(theta, phi) with (R v)[zero] = 0 for v having v[into]=x, v[zero]=y.

    Row pattern of R on (a, b): row a gets (cos, -i e^{-i phi} sin),
    row b gets (-i e^{i phi} sin, cos).
    """
    if zero == b:
        # 0 = -i e^{i phi} sin * x + cos * y
        phi = cmath.phase(y) - cmath.phase(x) + math.pi / 2
        theta = -math.atan2(abs(y), abs(x))
    else:
        # zero == a: 0 = cos * x_a ... with x at row b:
        # 0 = cos * y + (-i e^{-i phi} sin) * x
        phi = -(cmath.phase(y) - cmath.phase(x) + math.pi / 2)
        theta = -math.atan2(abs(y), abs(x))
    return R(0, a, b, theta, phi)


def _phase_pair(a: int, b: int, t: float) -> list[R]:
    """Two pulses realizing diag(e^{-it} on a, e^{+it} on b), identity elsewhere.

    Applied order: R_ab(pi/2, 0) then R_ab(pi/2, t + pi).
    """
    return [R(0, a, b, math.pi / 2, 0.0), R(0, a, b, math.pi / 2, t + math.pi)]


def _diag_phase_pulses(delta: np.ndarray, edges: Sequence[tuple[int, int]], tol: float = 1e-11):
    """Pulse pairs realizing diag(exp(i delta)) up to a global phase.

    Prefers pairing levels with opposite phases (2 pulses per pair), falling
    back to a spanning-tree solve; at most d-1 pairs are emitted.
    """
    d = len(delta)
    delta = np.asarray(delta, dtype=float)
    delta = delta - delta.mean()
    edge_set = {tuple(sorted(e)) for e in edges}
    pulses: list[R] = []
    # greedy +/- pairing on available edges
    remaining = delta.copy()
    used = np.zeros(d, dtype=bool)
    for a in range(d):
        if used[a] or abs(remaining[a]) < tol:
            continue
        for b in range(a + 1, d):
            if used[b] or (a, b) not in edge_set:
                continue
            if abs(remaining[a] + remaining[b]) < tol:
                pulses.extend(_phase_pair(a, b, remaining[b]))
                used[a] = used[b] = True
                remaining[a] = remaining[b] = 0.0
                break
    if np.max(np.abs(remaining)) < tol:
        return pulses
    # spanning-tree solve for the leftover traceless vector
    parent = _spanning_tree(d, list(edge_set))
    if parent is None:
        raise ValueError("coupling graph is disconnected")
    tree_edges = {tuple(sorted((v, p))) for v, p in parent.items() if p is not None}
    order = _leaf_order(d, set(tree_edges))
    res = remaining - remaining.mean()
    adj = _adjacency(range(d), tree_edges)
    alive = set(range(d))
    for leaf in order[:-1]:
        w = next(w for w in adj[leaf] if w in alive)
        t = res[leaf]
        if abs(t) >= tol:
            a, b = (leaf, w) if leaf < w else (w, leaf)
            # pair gives e^{-it} on a, e^{+it} on b
            pulses.extend(_phase_pair(a, b, t if b == leaf else -t))
            res[w] += t
            res[leaf] = 0.0
        alive.discard(leaf)
    return pulses


def _try_disjoint_pair_path(U: np.ndarray, edges: Sequence[tuple[int, int]], tol: float = 1e-10):
    """Detect U = e^{i gamma}(cos(t) I - i sin(t) K) with K a phase-decorated
    perfect matching of the levels, and emit one pulse per matched pair."""
    d = U.shape[0]
    diag = np.diag(U)
    if np.max(np.abs(diag - diag[0])) > tol:
        return None
    c = diag[0]
    B = U - c * np.eye(d)
    edge_set = {tuple(sorted(e)) for e in edges}
    pairs = []
    seen = set()
    for a in range(d):
        nz = [b for b in range(d) if b != a and abs(B[a, b]) > tol]
        if a in seen:
            if nz and any(b not in seen for b in nz):
                return None
            continue
        if len(nz) == 0:
            continue
        if len(nz) != 1:
            return None
        b = nz[0]
        if b <= a or abs(B[b, a]) < tol:
            return None
        pairs.append((a, b))
        seen.update((a, b))
    if not pairs:
        return []  # identity up to phase
    if any(p not in edge_set for p in pairs):
        return None
    mags = [abs(B[a, b]) for a, b in pairs] + [abs(B[b, a]) for a, b in pairs]
    s = mags[0]
    if max(abs(m - s) for m in mags) > tol:
        return None
    theta = math.atan2(s, abs(c))
    gamma = cmath.phase(c) if abs(c) > tol else None
    gates = []
    for a, b in pairs:
        if gamma is None:
            gamma = cmath.phase(B[pairs[0][0], pairs[0][1]]) + math.pi / 2
        z = B[a, b] / (cmath.exp(1j * gamma) * -1j * math.sin(theta))
        if abs(abs(z) - 1.0) > 1e-8:
            return None
        phi = -cmath.phase(z)
        zz = B[b, a] / (cmath.exp(1j * gamma) * -1j * math.sin(theta))
        if abs(zz - z.conjugate()) > 1e-8:
            return None
        gates.append(R(0, a, b, theta, phi))
    return gates


def synthesize_exact(U: np.ndarray, ion: IonSpec | None = None) -> SynthesisReport:
    """Decompose a single-ion unitary into native rotations on the ion's
    allowed pairs (all-to-all when the ion leaves them unrestricted)."""
    U = np.asarray(U, dtype=np.complex128)
    d = U.shape[0]
    if not is_unitary(U):
        raise ValueError("synthesize_exact requires a unitary target")
    if ion is None:
        ion = IonSpec(d)
    if ion.d != d:
        raise ValueError(f"target dimension {d} does not match the ion's d={ion.d}")
    edges = ion.pairs()
    parent = _spanning_tree(d, edges)
    if parent is None:
        raise ValueError("coupling graph is disconnected")
    reg1 = build_register([IonSpec(d)])

    fast = _try_disjoint_pair_path(U, edges)
    if fast is not None:
        dist = distance(U, sequence_matrix(fast, reg1))
        if dist <= EXACT_TOL:
            return SynthesisReport(fast, dist, fast_path=True)

    tree_edges = {tuple(sorted((v, p))) for v, p in parent.items() if p is not None}
    order = _leaf_order(d, set(tree_edges))

    # eliminate on U itself: G_k ... G_1 U = D  =>  U = G_1^dag ... G_k^dag D
    W = U.copy()
    left_gates: list[R] = []
    alive = set(range(d))
    for v in order[:-1]:
        parents, depth = _tree_paths_to(v, tree_edges, alive)
        for u in sorted(alive - {v}, key=lambda x: -depth[x]):
            g = None
            into = parents[u]
            if abs(W[u, v]) >= 1e-14:
                g = _solve_r(min(u, into), max(u, into), W[into, v], W[u, v], into, u)
            if g is not None:
                Gm = gate_matrix(g, reg1)
                W = Gm @ W
                left_gates.append(g)
        alive.discard(v)
    # W is now diagonal up to phases
    offdiag = W - np.diag(np.diag(W))
    if np.max(np.abs(offdiag)) > 1e-9:
        raise AssertionError("Givens elimination failed to diagonalize the target")
    delta = np.angle(np.diag(W))

    inv_gates = [R(0, g.a, g.b, -g.theta, g.phi) for g in reversed(left_gates)]
    # G...G U = D  =>  U = (G^dag...) D: pulses realizing D act first
    phase_pulses = _diag_phase_pulses(delta, edges)
    gates = phase_pulses + inv_gates
    gates = [g for g in gates if abs(math.remainder(g.theta, 2 * math.pi)) > 1e-13]
    return SynthesisReport(gates, distance(U, sequence_matrix(gates, reg1)))


# ---------------------------------------------------------------------------
# variational synthesis


def _level_rows(reg: Register, levels: dict[int, int]) -> np.ndarray:
    """Basis indices, increasing, at which each ion of ``levels`` holds its level: for two
    choices of levels the i-th index of each has the same levels on every other ion."""
    g = np.arange(reg.dim)
    return np.flatnonzero(np.all([g // reg.strides[ion] % reg.ions[ion].d == level
                                  for ion, level in levels.items()], axis=0))


@dataclass(frozen=True)
class RSlot:
    ion: int
    pair: tuple[int, int]
    n_params = 2  # theta, phi

    def gate(self, p) -> R:
        return R(self.ion, self.pair[0], self.pair[1], p[0], p[1])

    def entries(self, reg: Register):
        """Rows and columns of the environment entries that ``slices`` sums, one row of
        indices per sum: (a, a), (b, b), (a, b) and (b, a) on the ion, each over every
        level of the other ions."""
        a, b = (_level_rows(reg, {self.ion: level}) for level in self.pair)
        return np.array([a, b, a, b]), np.array([a, b, b, a])

    def slices(self, sums, trace: complex, x: np.ndarray, k: int):
        """Slices of theta = x[k], then of phi = x[k + 1] at the theta x then holds.

        R is cos theta at (a, a) and (b, b), -i e^{-i phi} sin theta at (a, b) and
        -i e^{i phi} sin theta at (b, a), and the identity on the other levels."""
        aa, bb, ab, ba = sums
        rest, diag = trace - aa - bb, aa + bb
        turn = cmath.exp(1j * x[k + 1])
        yield k, (rest, diag, -1j * (ab * turn + ba * turn.conjugate()))
        c, s = math.cos(x[k]), math.sin(x[k])
        yield k + 1, (rest + diag * c, -1j * s * (ab + ba), s * (ab - ba))


@dataclass(frozen=True)
class MSSlot:
    ion_i: int
    ion_j: int
    pair_i: tuple[int, int]
    pair_j: tuple[int, int]
    n_params = 1  # J

    def gate(self, p) -> MS:
        return MS(self.ion_i, self.ion_j, self.pair_i, self.pair_j, p[0])

    def entries(self, reg: Register):
        """Rows and columns of the two environment sums of ``slices``: the diagonal at the
        four coupled level pairs (ai aj), (bi bj), (ai bj), (bi aj), then the entries between
        the first two and between the last two, each over every level of the other ions."""
        (ai, bi), (aj, bj) = self.pair_i, self.pair_j
        s1, s2, s3, s4 = (_level_rows(reg, {self.ion_i: li, self.ion_j: lj})
                          for li, lj in ((ai, aj), (bi, bj), (ai, bj), (bi, aj)))
        diag = np.concatenate([s1, s2, s3, s4])
        return np.array([diag, diag]), np.array([diag, np.concatenate([s2, s1, s4, s3])])

    def slices(self, sums, trace: complex, x: np.ndarray, k: int):
        """The slice of J = x[k]: MS is cos J on the coupled level pairs, -i sin J between
        them, and the identity on the other levels."""
        diag, off = sums
        yield k, (trace - diag, diag, -1j * off)


Slot = RSlot | MSSlot


@dataclass
class Template:
    """One layer of gate slots; layers are repeated with fresh parameters."""

    slots: tuple[Slot, ...]

    @property
    def n_params(self) -> int:
        return sum(s.n_params for s in self.slots)

    def starts(self, layer_count: int) -> list[int]:
        """Index of each gate position's first parameter, then the total."""
        return list(itertools.accumulate((s.n_params for s in self.slots * layer_count),
                                         initial=0))

    def gates(self, params: np.ndarray, layer_count: int) -> list[NativeGate]:
        k = self.starts(layer_count)
        return [s.gate(params[k[i]:k[i + 1]]) for i, s in enumerate(self.slots * layer_count)]


@dataclass
class VariationalBudget:
    layers_max: int = 3
    restarts: int = 8
    iters: int = 60

    def __post_init__(self):
        for name in ("layers_max", "restarts", "iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"VariationalBudget.{name} must be at least 1")


def _objective(U_target, template: Template, reg: Register, layers: int):
    """x -> the sweeps of a coordinate descent that moves x in place.

    A sweep yields (k, (alpha, beta, gamma)) for k = 0, 1, ...: the slice
    alpha + beta cos t + gamma sin t of the overlap Tr(U^dag V) at x_k = t, read at the
    angles x holds when it is yielded.  Between the slice of x_k and the next, only x_k may
    move.

    With B the product of the gates before slot p and A of those after, V = A G_p B, so the
    overlap is Tr(E_p G_p) for the environment E_p = B U^dag A (Evenbly & Vidal, PRB 79,
    144108 (2009)).  G_p is the identity off its slot's levels, so a slice reads only
    Tr(E_p) and a few entries of E_p's partial trace onto the slot's ion or ion pair.  A
    sweep first forms F_p = U^dag A for every slot from the gate matrices kept from the last
    sweep, then grows B by one kept matrix per slot: one environment product B F_p per slot,
    and one ``gate_matrix`` for each slot whose angles moved.
    """
    slots, start = template.slots * layers, template.starts(layers)
    entries = [s.entries(reg) for s in template.slots] * layers
    U_dag = U_target.conj().T

    def bind(x):
        mats = [gate_matrix(s.gate(x[start[p]:start[p + 1]]), reg) for p, s in enumerate(slots)]

        def sweep():
            after = [U_dag]  # F_p for p = n - 1, n - 2, ..., 0
            for G in mats[:0:-1]:
                after.append(after[-1] @ G)
            before = None  # the product of the gates before slot p, None while there is none
            for p, slot in enumerate(slots):
                env = after.pop() if before is None else before @ after.pop()
                rows, cols = entries[p]
                angles = x[start[p]:start[p + 1]].tolist()
                yield from slot.slices(env[rows, cols].sum(axis=1).tolist(), env.trace().item(),
                                       x, start[p])
                if x[start[p]:start[p + 1]].tolist() != angles:
                    mats[p] = gate_matrix(slot.gate(x[start[p]:start[p + 1]]), reg)
                if p + 1 < len(slots):
                    before = mats[p] if before is None else mats[p] @ before

        return sweep

    return bind


def synthesize_variational(
    U_target: np.ndarray,
    template: Template,
    reg: Register,
    budget: VariationalBudget | None = None,
    seed: int = 0,
    cost_floor: float = COST_FLOOR,
    init: np.ndarray | None = None,
) -> SynthesisReport:
    """Fit the template's free angles to the target, growing layers on demand.

    Each restart runs cyclic coordinate descent in which every coordinate
    jumps to the exact optimum of its trigonometric slice, read from the
    gate's environment; the restart's cost is the one the descent reached.
    Deterministic for a fixed seed: the generator is created at the first
    random start, so a run seeded by ``init`` alone draws nothing, and the
    stream of draws is the one ``default_rng(seed)`` gives.
    """
    U_target = np.asarray(U_target, dtype=np.complex128)
    if not is_unitary(U_target):
        raise ValueError("variational target must be unitary")
    budget = budget or VariationalBudget()
    rng = None
    for g in template.gates(np.zeros(template.n_params), 1):
        validate_gate(g, reg)
    dim = U_target.shape[0]

    best = None
    restarts_used = 0
    for layers in range(1, budget.layers_max + 1):
        objective = _objective(U_target, template, reg, layers)
        npar = template.n_params * layers
        for restart in range(budget.restarts):
            if init is not None and restart == 0 and npar == len(init):
                x = np.asarray(init, dtype=float).copy()
            else:
                if rng is None:
                    rng = np.random.default_rng(seed)
                x = rng.uniform(0.0, 2 * math.pi, size=npar)
            if npar:
                x, val = _coordinate_descent(objective, x, budget.iters, dim)
            else:  # no angle to fit: score the gate-free sequence
                val = overlap_cost(U_target, sequence_matrix([], reg))
            restarts_used += 1
            if best is None or val < best[0] - 1e-18:
                best = (val, layers, x)
            if val <= cost_floor:
                break
        if best[0] <= cost_floor:
            break

    val, layers, x = best
    gates = [  # drop pulses whose angle is a multiple of 2 pi
        g for g in template.gates(x, layers)
        if abs(math.remainder(g.theta if isinstance(g, R) else g.J, 2 * math.pi)) >= 1e-12
    ]
    return SynthesisReport(gates, distance(U_target, sequence_matrix(gates, reg)),
                           converged=val <= cost_floor, cost=val, restarts_used=restarts_used)


def _coordinate_descent(objective, x0: np.ndarray, sweeps: int, dim: int) -> tuple[np.ndarray, float]:
    """Cyclic single-coordinate minimization of the cost ``_cost(z(x), dim)``
    of the overlap z; returns the final angles and the cost there.

    ``objective`` is ``_objective``'s x -> sweep.  Each coordinate moves to the
    exact optimum of its slice alpha + beta cos t + gamma sin t only when that
    lowers the cost.  The cost at the final angles is the last slice's
    closed-form value, so it costs no extra overlap.  ``x0`` must hold at least
    one angle.
    """
    x = x0.copy()
    sweep = objective(x)
    for _ in range(sweeps):
        improved = False
        for k, coef in sweep():
            t = _slice_maximum(*coef, x[k])
            f_now, f_new = (_cost(_slice_value(*coef, s), dim) for s in (x[k], t))
            if f_new < f_now - 1e-16:
                x[k], f_now = t, f_new
                improved = True
        if not improved or f_now < 1e-16:
            break
    return x, f_now


def _slice_value(alpha, beta, gamma, t):
    xp = np if isinstance(t, np.ndarray) else math
    return alpha + beta * xp.cos(t) + gamma * xp.sin(t)


def _largest_cubic_root(a: float, b: float, c: float) -> float:
    """Largest real root of m^3 + a m^2 + b m + c, by Viete's trigonometric and
    hyperbolic forms of the depressed cubic y^3 + p y + q, m = y - a/3."""
    shift = a / 3
    p, q = b - a * shift, c + shift * (2 * shift * shift - b)
    if p == 0:
        return -math.copysign(abs(q) ** (1 / 3), q) - shift
    r = math.sqrt(abs(p) / 3)
    h = -q / (2 * r ** 3)
    if p > 0:
        y = 2 * r * math.sinh(math.asinh(h) / 3)
    elif h > 1:
        y = 2 * r * math.cosh(math.acosh(h) / 3)
    elif h >= -1:
        y = 2 * r * math.cos(math.acos(h) / 3)
    else:
        y = -2 * r * math.cosh(math.acosh(-h) / 3)
    return y - shift


def _largest_secular_root(g1: float, g2: float, delta: float) -> float:
    """Largest real root u of u^2 (u + delta)^2 = g1^2 (u + delta)^2 + g2^2 u^2, by
    Ferrari's method.  In v = u + delta/2 the quartic is v^4 + P v^2 + Q v + R; at a
    root m > 0 of its resolvent m^3 + P m^2 + (P^2/4 - R) m - Q^2/8, with w = sqrt(2m),
    it factors into v^2 -+ w v + P/2 + m +- Q/(2w), whose larger roots are compared."""
    G2, d2 = g1 * g1 + g2 * g2, delta * delta
    P, Q = -(d2 / 2 + G2), (g2 * g2 - g1 * g1) * delta
    m = max(_largest_cubic_root(P, G2 * (G2 + 2 * d2) / 4, -Q * Q / 8), 0.0)
    w = math.sqrt(2 * m)
    k = Q / w if w else 0.0
    roots = [(sign * w + math.sqrt(disc)) / 2
             for sign, disc in ((1, -2 * (P + m + k)), (-1, -2 * (P + m - k))) if disc >= 0]
    return max(roots, default=w / 2) - delta / 2


def _slice_maximum(alpha: complex, beta: complex, gamma: complex, t0: float) -> float:
    """Angle maximizing |alpha + beta cos t + gamma sin t|; t0 if the slice is flat.

    The slice is first scaled to modulus 1, which moves no stationary point and keeps
    subnormal and huge coefficients in range.  With w = e^{it} the squared modulus is
    c0 + 2 Re(c1 w + c2 w^2); at t = s - arg(c2)/2 it is, up to a constant,
    2 (g1 cos s + g2 sin s) + delta cos^2 s, with g1 + i g2 = conj(c1) e^{i arg(c2)/2} and
    delta = 4 |c2|.  Its maximum is the one stationary point in the quadrant of
    (g1, g2).  Reflected into the first quadrant it is (cos s, sin s) =
    (|g1| / u, |g2| / (u + delta)) at the largest root u of the secular quartic, the
    multiplier of the constrained maximum (More & Sorensen, SIAM J. Sci. Stat. Comput. 4,
    553 (1983)), solved in closed form.  The quartic is monic, so |c2| far below |c1|
    (near beta = +-i gamma) is no singular case: it tends to u^2 (u^2 - |g|^2).  Newton
    steps on the stationarity condition, kept inside the quadrant by bisection, polish the
    angle; after the closed form they take one or two steps, a few where roots nearly meet.
    """
    if not (beta or gamma):
        return t0
    top = max(abs(alpha), abs(beta), abs(gamma))
    alpha, beta, gamma = alpha / top, beta / top, gamma / top
    p, m = (beta - 1j * gamma) / 2, (beta + 1j * gamma) / 2
    c1, c2 = alpha * m.conjugate() + p * alpha.conjugate(), p * m.conjugate()
    turn = cmath.phase(c2) / 2
    g = c1.conjugate() * cmath.exp(1j * turn)
    g1, g2, delta = abs(g.real), abs(g.imag), 4 * abs(c2)
    scale = max(g1, g2, delta)
    if scale == 0.0:  # |slice| is the same at every angle
        return t0
    g1, g2, delta = g1 / scale, g2 / scale, delta / scale
    y = g2 / (max(_largest_secular_root(g1, g2, delta), 0.0) + delta)
    s = math.atan2(y, math.sqrt(max(0.0, (1 - y) * (1 + y))))
    lo, hi = 0.0, math.pi / 2
    for _ in range(60):
        cos, sin = math.cos(s), math.sin(s)
        slope = g2 * cos - g1 * sin - delta * cos * sin  # half the derivative in s
        curve = -g1 * cos - g2 * sin - delta * (cos * cos - sin * sin)
        step = -slope / curve if curve < 0 else math.copysign(math.inf, slope)
        if abs(step) <= 1e-15:
            s += step
            break
        lo, hi = (s, hi) if slope > 0 else (lo, s)
        s = s + step if lo < s + step < hi else (lo + hi) / 2
    s = math.atan2(math.copysign(math.sin(s), g.imag), math.copysign(math.cos(s), g.real))
    return math.remainder(s - turn, 2 * math.pi)
