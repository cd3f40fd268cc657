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
  the overlap as a + b cos t + c sin t, so coordinate descent fits a slice
  from three overlaps and jumps to its exact optimum (Rotosolve: Ostaszewski
  et al., Quantum 5, 391 (2021); Nakanishi et al., PRR 2, 043158 (2020)).

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
    gate_matrices,
    gate_matrix,
    is_unitary,
    sequence_matrix,
    validate_gate,
)

LEFT_FIRST = "leftmost_applied_first"
LEFT_LAST = "leftmost_applied_last"

COST_FLOOR = 1e-8
EXACT_TOL = 1e-9
_TINY = np.finfo(float).tiny  # smallest normal double


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


@dataclass(frozen=True)
class RSlot:
    ion: int
    pair: tuple[int, int]
    n_params = 2  # theta, phi

    def gate(self, p) -> R:
        return R(self.ion, self.pair[0], self.pair[1], p[0], p[1])


@dataclass(frozen=True)
class MSSlot:
    ion_i: int
    ion_j: int
    pair_i: tuple[int, int]
    pair_j: tuple[int, int]
    n_params = 1  # J

    def gate(self, p) -> MS:
        return MS(self.ion_i, self.ion_j, self.pair_i, self.pair_j, p[0])


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
    """(x, k) -> the overlaps Tr(U^dag V(x)) at x_k = 0, pi/2, pi.

    Each gate position keeps its matrix with the angles it was built at and is
    rebuilt only when they change.  The product of the gates before the probed
    one is kept with the bytes of their angles and extended from the kept
    matrices; the probe's three matrices are built as one stack and carried
    through the later gates together, in ``sequence_matrix``'s order: every
    overlap is bit-identical to ``overlap(U_target, sequence_matrix(gates, reg))``.
    """
    slots, start = template.slots * layers, template.starts(layers)
    owner = [i for i, s in enumerate(slots) for _ in range(s.n_params)]
    kept = [(None, None)] * len(slots)  # (angle bytes, matrix); bytes tell -0.0 from 0.0
    identity = np.eye(reg.dim, dtype=np.complex128)
    prefix = [0, b"", identity]  # slot p, bytes of the angles before it, their product

    def matrix(i, x):
        angles = x[start[i]:start[i + 1]]
        if kept[i][0] != angles.tobytes():
            kept[i] = angles.tobytes(), gate_matrix(slots[i].gate(angles), reg)
        return kept[i][1]

    def before(x, p):
        q, key, product = prefix
        if q > p or x[:start[q]].tobytes() != key:
            q, product = 0, identity
        for i in range(q, p):
            product = matrix(i, x) @ product
        prefix[:] = p, x[:start[p]].tobytes(), product
        return product

    def overlaps(x, k):
        p = owner[k]
        angles = np.repeat(x[start[p]:start[p + 1], None], 3, axis=1)  # (angle, probe)
        angles[k - start[p]] = 0.0, math.pi / 2, math.pi
        V = gate_matrices(slots[p].gate(angles), reg) @ before(x, p)
        for i in range(p + 1, len(slots)):
            V = matrix(i, x) @ V
        return tuple(overlap(U_target, v) for v in V)

    return overlaps


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
    jumps to the exact optimum of its trigonometric slice (three overlap
    evaluations per coordinate); the restart's cost is the one the descent
    reached.  Deterministic for a fixed seed: the generator is created at the
    first random start, so a run seeded by ``init`` alone draws nothing, and
    the stream of draws is the one ``default_rng(seed)`` gives.
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
        overlaps = _objective(U_target, template, reg, layers)
        npar = template.n_params * layers
        for restart in range(budget.restarts):
            if init is not None and restart == 0 and npar == len(init):
                x = np.asarray(init, dtype=float).copy()
            else:
                if rng is None:
                    rng = np.random.default_rng(seed)
                x = rng.uniform(0.0, 2 * math.pi, size=npar)
            if npar:
                x, val = _coordinate_descent(overlaps, x, budget.iters, dim)
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


def _coordinate_descent(overlaps, x0: np.ndarray, sweeps: int, dim: int) -> tuple[np.ndarray, float]:
    """Cyclic single-coordinate minimization of the cost ``_cost(z(x), dim)``
    of the overlap z; returns the final angles and the cost there.

    Each coordinate's slice of the overlap is alpha + beta cos t + gamma sin t;
    it is fitted from ``overlaps(x, k)``, z at x_k = 0, pi/2, pi, and the
    coordinate moves to the slice's exact optimum only when that lowers the
    cost.  The cost at the final angles is the last slice's closed-form value,
    so it costs no extra overlap.  ``x0`` must hold at least one angle.
    """
    x = x0.copy()
    for _ in range(sweeps):
        improved = False
        for k in range(len(x)):
            coef = _slice_coefficients(*overlaps(x, k))
            t = _slice_maximum(*coef, x[k])
            f_now, f_new = (_cost(_slice_value(*coef, s), dim) for s in (x[k], t))
            if f_new < f_now - 1e-16:
                x[k], f_now = t, f_new
                improved = True
        if not improved or f_now < 1e-16:
            break
    return x, f_now


def _slice_coefficients(z0: complex, zh: complex, zp: complex) -> tuple[complex, complex, complex]:
    """(alpha, beta, gamma) of the slice alpha + beta cos t + gamma sin t that
    takes the values z0, zh, zp at t = 0, pi/2, pi."""
    alpha = (z0 + zp) / 2
    return alpha, (z0 - zp) / 2, zh - alpha


def _slice_value(alpha, beta, gamma, t):
    return alpha + beta * np.cos(t) + gamma * np.sin(t)


def _stationary_quartic(alpha: complex, beta: complex, gamma: complex) -> np.ndarray:
    """Coefficients of 2 c2 w^4 + c1 w^3 - conj(c1) w - 2 conj(c2) (see _slice_maximum)."""
    p, m = (beta - 1j * gamma) / 2, (beta + 1j * gamma) / 2
    c1 = alpha * m.conjugate() + p * alpha.conjugate()
    c2 = p * m.conjugate()
    return np.array([2 * c2, c1, 0.0, -c1.conjugate(), -2 * c2.conjugate()])


def _slice_maximum(alpha: complex, beta: complex, gamma: complex, t0: float) -> float:
    """Angle maximizing |alpha + beta cos t + gamma sin t|^2; t0 if the slice
    is flat (beta = gamma = 0).

    With w = e^{it} the squared modulus is c0 + 2 Re(c1 w + c2 w^2), so its
    stationary points are the unit-circle roots of 2 c2 w^4 + c1 w^3 -
    conj(c1) w - 2 conj(c2); the arguments of all four roots are scored and
    the best kept.  Subnormal c1 and c2 keep too few bits to scale to a
    solvable quartic, or none, so then the slice is first scaled to modulus 1,
    which moves no stationary point.
    """
    coeffs = _stationary_quartic(alpha, beta, gamma)
    scale = np.abs(coeffs).max()
    if scale < _TINY and (beta or gamma):
        top = max(abs(alpha), abs(beta), abs(gamma))
        coeffs = _stationary_quartic(alpha / top, beta / top, gamma / top)
        scale = np.abs(coeffs).max()
    if scale == 0.0:
        return t0
    coeffs /= scale
    if coeffs[0] and coeffs[-1]:  # np.roots' companion matrix: it would trim no zero
        companion = np.eye(4, k=-1, dtype=np.complex128)
        companion[0] = -coeffs[1:] / coeffs[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.roots(coeffs)
    cands = np.angle(roots)
    return float(cands[np.argmax(np.abs(_slice_value(alpha, beta, gamma, cands)))])
