"""Mixed-radix registers, statevector kernels and native gates for ion chains
that encode several "virtual" qubits in the internal levels of each ion.

Conventions (fixed throughout the package):

* Levels inside an ion are indexed 0..d-1 in increasing energy, d = 2**n.
* The joint basis is mixed-radix little-endian: ion 0 is the fastest-varying
  digit, so a basis index decomposes as g = sum_i level_i * stride_i with
  stride_0 = 1 and stride_{i+1} = stride_i * d_i.
* An encoding map is a bijection from levels to n-bit labels.  In the default
  ``qubit_order="msb_first"`` virtual qubit 1 (index 0 here) is the most
  significant bit of the label; ``"lsb_first"`` reverses this.  Measurement
  strings concatenate the per-ion labels, ion 0 leftmost.
* The two-level rotation R_ab(theta, phi) acts as cos(theta) on the {a, b}
  subspace with off-diagonal elements -i e^{-i phi} sin(theta) (row a) and
  -i e^{+i phi} sin(theta) (row b), and as the identity elsewhere.
* MS_{ai bi}{aj bj}(J) = exp(-iJ (|ai aj><bi bj| + |ai bj><bi aj| + h.c.))
  on the coupled two-ion subspace and the identity on every component
  outside span{ai, bi} (x) span{aj, bj}.

All operations are pure given (inputs, seed); a statevector is mutated by a
single caller at a time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
BLOCK_AMPLITUDES = 2**13  # per R/MS kernel step: block and scratch stay in cache

MSB_FIRST = "msb_first"
LSB_FIRST = "lsb_first"


# ---------------------------------------------------------------------------
# encoding maps


@dataclass(frozen=True)
class EncodingMap:
    """Bijection level -> n-bit label, stored as a permutation of 0..d-1."""

    perm: tuple[int, ...]

    def __post_init__(self):
        d = len(self.perm)
        if d < 2 or d & (d - 1):
            raise ValueError(f"encoding size {d} is not a power of two >= 2")
        if sorted(self.perm) != list(range(d)):
            raise ValueError("encoding map is not a bijection on 0..d-1")

    @property
    def d(self) -> int:
        return len(self.perm)

    @property
    def n(self) -> int:
        return self.d.bit_length() - 1

    def label(self, level: int) -> int:
        if not 0 <= level < self.d:
            raise ValueError(f"level {level} out of range for d={self.d}")
        return self.perm[level]

    def level(self, label: int) -> int:
        if not 0 <= label < self.d:
            raise ValueError(f"label {label} out of range for d={self.d}")
        return self.perm.index(label)

    def bits(self, level: int, qubit_order: str = MSB_FIRST) -> str:
        """Label of ``level`` as a bit string, virtual qubit 1 first."""
        s = format(self.label(level), f"0{self.n}b")
        return s if qubit_order == MSB_FIRST else s[::-1]

    def level_of_bits(self, bits: str, qubit_order: str = MSB_FIRST) -> int:
        s = bits if qubit_order == MSB_FIRST else bits[::-1]
        return self.level(int(s, 2))


def identity_map(n: int) -> EncodingMap:
    """Binary encoding: level alpha -> binary digits of alpha (map M1)."""
    return EncodingMap(tuple(range(2**n)))


def m1_map(n: int = 2) -> EncodingMap:
    return identity_map(n)


def m2_map() -> EncodingMap:
    """n=2 map with 0->00, 1->11, 2->01, 3->10."""
    return EncodingMap((0, 3, 1, 2))


# ---------------------------------------------------------------------------
# register


def _norm_pair(pair: Sequence[int]) -> tuple[int, int]:
    a, b = int(pair[0]), int(pair[1])
    if a == b:
        raise ValueError(f"level pair ({a},{b}) must couple distinct levels")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class IonSpec:
    """One ion: level count d (power of two), encoding map and, optionally,
    the set of experimentally allowed two-level couplings.

    ``allowed_r=None`` means every pair may be driven (all-to-all).
    """

    d: int
    encoding: EncodingMap | None = None
    allowed_r: frozenset[tuple[int, int]] | None = None

    def __post_init__(self):
        if self.d < 2 or self.d & (self.d - 1):
            raise ValueError(f"d={self.d} is not a power of two >= 2")
        enc = self.encoding if self.encoding is not None else identity_map(self.n)
        if enc.d != self.d:
            raise ValueError("encoding dimension does not match d")
        object.__setattr__(self, "encoding", enc)
        if self.allowed_r is not None:
            pairs = frozenset(_norm_pair(p) for p in self.allowed_r)
            for a, b in pairs:
                if not (0 <= a < b < self.d):
                    raise ValueError(f"pair ({a},{b}) out of range for d={self.d}")
            if len(pairs) != len(self.allowed_r):
                raise ValueError("duplicate level pairs in allowed_r")
            object.__setattr__(self, "allowed_r", pairs)

    @property
    def n(self) -> int:
        return self.d.bit_length() - 1

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Drivable pairs, sorted; all d(d-1)/2 of them when unrestricted."""
        if self.allowed_r is None:
            return tuple((a, b) for a in range(self.d) for b in range(a + 1, self.d))
        return tuple(sorted(self.allowed_r))


def _json_int(value, what: str) -> int:
    """An integer of a register file as given: a float, string or bool is refused, not rounded."""
    if type(value) is not int:
        raise ValueError(f"{what}: {value!r} is not an integer")
    return value


@dataclass
class Register:
    """Ordered ion chain with mixed-radix indexing and qubit addressing."""

    ions: tuple[IonSpec, ...]
    qubit_order: str = MSB_FIRST

    def __post_init__(self):
        self.ions = tuple(self.ions)
        if not self.ions:
            raise ValueError("register needs at least one ion")
        if self.qubit_order not in (MSB_FIRST, LSB_FIRST):
            raise ValueError(f"unknown qubit_order {self.qubit_order!r}")
        strides = []
        s = 1
        for ion in self.ions:
            strides.append(s)
            s *= ion.d
        self.strides = tuple(strides)
        self._shape = tuple(ion.d for ion in reversed(self.ions))
        self.dim = s
        self.num_qubits = sum(ion.n for ion in self.ions)
        self.qubit_offsets = tuple(
            sum(ion.n for ion in self.ions[:i]) for i in range(len(self.ions))
        )
        assert self.dim == 2**self.num_qubits

    @property
    def num_ions(self) -> int:
        return len(self.ions)

    # -- index arithmetic ---------------------------------------------------

    def shape_view(self) -> tuple[int, ...]:
        """Shape for viewing a statevector as an ndarray (ion 0 = last axis)."""
        return self._shape

    def axis(self, ion: int) -> int:
        return self.num_ions - 1 - ion

    def levels_of_index(self, g: int) -> tuple[int, ...]:
        return tuple((g // self.strides[i]) % ion.d for i, ion in enumerate(self.ions))

    def index_of_levels(self, levels: Sequence[int]) -> int:
        return sum(lv * st for lv, st in zip(levels, self.strides))

    def bitstring(self, g: int) -> str:
        """Measurement label of basis state g: per-ion labels, ion 0 first."""
        return "".join(
            ion.encoding.bits(lv, self.qubit_order)
            for ion, lv in zip(self.ions, self.levels_of_index(g))
        )

    def bit_table(self) -> np.ndarray:
        """bit_table[g, Q] = value of global qubit Q in basis state g."""
        g = np.arange(self.dim)
        cols = []
        for ion, stride in zip(self.ions, self.strides):
            label = np.array(ion.encoding.perm)[g // stride % ion.d]
            shifts = np.arange(ion.n)[:: -1 if self.qubit_order == MSB_FIRST else 1]
            cols.append(label[:, None] >> shifts & 1)
        return np.hstack(cols).astype(np.uint8)

    # -- (de)serialization ---------------------------------------------------

    def to_config(self) -> dict:
        return {
            "qubit_order": self.qubit_order,
            "ions": [
                {
                    "d": ion.d,
                    "map": list(ion.encoding.perm),
                    "allowed_r": None if ion.allowed_r is None else [list(p) for p in ion.pairs()],
                }
                for ion in self.ions
            ],
        }

    @staticmethod
    def from_config(cfg: dict) -> "Register":
        ions = []
        for ic in cfg["ions"]:
            perm, allowed = ic.get("map"), ic.get("allowed_r")
            ions.append(
                IonSpec(
                    d=_json_int(ic["d"], "d"),
                    encoding=None if perm is None else EncodingMap(
                        tuple(_json_int(v, "map") for v in perm)),
                    allowed_r=None if allowed is None else frozenset(
                        tuple(_json_int(v, "allowed_r") for v in p) for p in allowed),
                )
            )
        return Register(tuple(ions), cfg.get("qubit_order", MSB_FIRST))


def build_register(specs: Iterable[IonSpec], qubit_order: str = MSB_FIRST) -> Register:
    return Register(tuple(specs), qubit_order)


def load_register(path) -> Register:
    with open(path) as fh:
        return Register.from_config(json.load(fh))


# ---------------------------------------------------------------------------
# native gates


@dataclass(frozen=True)
class R:
    """Two-level rotation R_ab(theta, phi) on one ion; angles in radians."""

    ion: int
    a: int
    b: int
    theta: float
    phi: float = 0.0


@dataclass(frozen=True)
class MS:
    """Molmer-Sorensen coupling of pair_i in ion_i with pair_j in ion_j."""

    ion_i: int
    ion_j: int
    pair_i: tuple[int, int]
    pair_j: tuple[int, int]
    J: float


@dataclass(frozen=True)
class MultiPairMS:
    """MS drive exciting several disjoint pairs per ion simultaneously:
    exp(-iJ Xt_i Xt_j) with Xt = sum of the pair exchange operators."""

    ion_i: int
    ion_j: int
    pairs_i: tuple[tuple[int, int], ...]
    pairs_j: tuple[tuple[int, int], ...]
    J: float


@dataclass(frozen=True)
class GlobalMS:
    """Simultaneous multi-pair MS beatnote on every ion:
    exp(-iJ Xt_0 Xt_1 ... Xt_{L-1})."""

    J: float
    pairs: tuple[tuple[tuple[int, int], ...], ...]


NativeGate = R | MS | MultiPairMS | GlobalMS


def _check_disjoint(pairs: Sequence[tuple[int, int]], d: int, what: str):
    seen: set[int] = set()
    for p in pairs:
        a, b = _norm_pair(p)
        if b >= d:
            raise ValueError(f"{what}: pair ({a},{b}) out of range for d={d}")
        if a in seen or b in seen:
            raise ValueError(f"{what}: pairs must be disjoint within an ion")
        seen.update((a, b))


def validate_gate(gate: NativeGate, reg: Register):
    if isinstance(gate, R):
        ion = reg.ions[gate.ion]
        a, b = _norm_pair((gate.a, gate.b))
        if b >= ion.d:
            raise ValueError(f"R pair ({a},{b}) out of range for ion {gate.ion}")
    elif isinstance(gate, MS):
        if gate.ion_i == gate.ion_j:
            raise ValueError("MS needs two distinct ions")
        _check_disjoint([gate.pair_i], reg.ions[gate.ion_i].d, "MS")
        _check_disjoint([gate.pair_j], reg.ions[gate.ion_j].d, "MS")
    elif isinstance(gate, MultiPairMS):
        if gate.ion_i == gate.ion_j:
            raise ValueError("MultiPairMS needs two distinct ions")
        _check_disjoint(gate.pairs_i, reg.ions[gate.ion_i].d, "MultiPairMS")
        _check_disjoint(gate.pairs_j, reg.ions[gate.ion_j].d, "MultiPairMS")
    elif isinstance(gate, GlobalMS):
        if len(gate.pairs) != reg.num_ions:
            raise ValueError("GlobalMS needs one pair list per ion")
        for i, pl in enumerate(gate.pairs):
            _check_disjoint(pl, reg.ions[i].d, "GlobalMS")
    else:
        raise TypeError(f"unknown native gate {gate!r}")


# ---------------------------------------------------------------------------
# statevector


@dataclass
class StateVector:
    """Dense amplitudes over the register's mixed-radix basis.  Ion k's levels at or above
    ``box[register.axis(k)]`` hold only zeros; gates skip them and grow the range as they fill
    levels.  ``zero`` starts it at 1 per ion; None, the default, means every level."""

    register: Register
    amps: np.ndarray
    box: list | None = None

    @staticmethod
    def zero(reg: Register) -> "StateVector":
        amps = np.zeros(reg.dim, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(reg, amps, [1] * reg.num_ions)

    @staticmethod
    def from_amplitudes(reg: Register, amps: np.ndarray) -> "StateVector":
        amps = np.asarray(amps, dtype=np.complex128).reshape(reg.dim)
        return StateVector(reg, amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple, axes: tuple, batch: bool, size: int, box: tuple | None):
    """The kernels' walk over level ``axes`` of an array of ``shape``: a merged shape, the order
    putting levels then circuits first, and blocks of <= ``size`` over the rest, largest first.
    Blocks cover [0, box[k]) of each axis k but the circuits' (all of it for box None): an axis
    the box fills in part starts a merged axis, so that the box is a range on each."""
    box = box or shape
    cuts = [k for k in range(batch, len(shape)) if box[k] < shape[k] and k not in axes]
    bounds = sorted([int(batch), *(b for ax in axes for b in (ax, ax + 1)), *cuts, len(shape)])
    groups = list(zip(bounds, bounds[1:]))
    merged, extent = ([shape[0]] * batch + [math.prod(ends[lo:hi][:1] + shape[lo + 1:hi])
                                            for lo, hi in groups] for ends in (shape, box))
    levels = [batch + k for k, (lo, hi) in enumerate(groups) if lo in axes and hi == lo + 1]
    keep = [k for k, n in enumerate(merged)  # length-1 axes only slow numpy down
            if n > 1 or k in levels or k == len(merged) - 1 or batch and k == 0]
    rest = [k for k in keep if k not in levels]
    order, dims = tuple(map(keep.index, [*levels, *rest])), [extent[k] for k in rest]
    k = next(k for k in range(len(dims)) if math.prod(dims[k + 1:]) <= size)
    step = min(dims[k], size // math.prod(dims[k + 1:]))
    blocks = tuple(tuple(slice(i, i + 1) for i in lead) + (slice(j, j + step),)
                   + tuple(slice(0, n) for n in dims[k + 1:])
                   for lead in np.ndindex(*dims[:k]) for j in range(0, dims[k], step))
    return tuple(merged[k] for k in keep), order, blocks


def _rotate_pairs(view: np.ndarray, axes: tuple, pairs, c, u, w, box=None):
    """For each (la, lb) of ``pairs``, x, y = ``view`` (C-contiguous) at levels la, lb on ``axes``
    become c x + u y, w x + c y, a block at a time within ``box`` (see ``_occupy``); a batch
    holds per-circuit (C,) arrays, and outside one index arrays at la, lb move many tuples."""
    batch = isinstance(c, np.ndarray)
    shape, order, blocks = _layout(view.shape, axes, batch, BLOCK_AMPLITUDES,
                                   None if box is None else tuple(box))
    view, scratch, t0, t1 = view.reshape(shape).transpose(order), None, None, None
    if batch:  # coefficients broadcast over each circuit's rows, complex so no block casts c
        c, u, w = (x.astype(complex).reshape((-1,) + (1,) * (len(shape) - len(axes) - 1))
                   for x in (c, u, w))
        gather = any(isinstance(lv, np.ndarray) for la, lb in pairs for lv in la + lb)
    for blk in blocks:
        bc, bu, bw, bpairs = c, u, w, pairs
        if batch:
            rows = blk[0]  # a range of whole circuits
            bc, bu, bw = c[rows], u[rows], w[rows]
            if gather:  # copies at each circuit's levels, written back below
                blk = (np.arange(shape[0])[rows],) + blk[1:]
                bpairs = [[tuple(lv[rows] if isinstance(lv, np.ndarray) else lv for lv in levels)
                           for levels in pair] for pair in pairs]
        for la, lb in bpairs:
            ia, ib = la + blk, lb + blk
            x, y = view[ia], view[ib]
            if t0 is not None and t0.shape != x.shape:  # a smaller block: a leading part of the
                # scratch, still contiguous (numpy's complex multiply may round otherwise)
                t0, t1 = (t[tuple(map(slice, x.shape))] for t in scratch)
            # out=None allocates: the first block's products, the largest, are the scratch
            t0, t1 = np.multiply(bc, x, out=t0), np.multiply(bu, y, out=t1)
            scratch = scratch or (t0, t1)
            np.add(t0, t1, out=t0)
            np.multiply(bw, x, out=t1)
            view[ia] = t0  # x is not read again: it may be a view of these amplitudes
            np.multiply(bc, y, out=t0)
            np.add(t1, t0, out=t1)
            view[ib] = t1


def _occupy(box, view: np.ndarray, ends) -> bool:
    """Whether a gate coupling levels a < b on each (axis, a, b) of ``ends`` meets an amplitude
    inside ``box``, the extent [0, box[k]) of each axis k of ``view`` outside which every
    amplitude is 0; if so, each axis's extent grows to cover its b."""
    if all(box[ax] == view.shape[ax] for ax, _, _ in ends):
        return True
    if not np.any(functools.reduce(np.logical_and, [a < box[ax] for ax, a, _ in ends])):
        return False  # every circuit's a is outside, so the gate maps zeros to zeros
    for ax, _, b in ends:
        box[ax] = max(box[ax], int(np.max(b)) + 1)
    return True


def _apply_r_nd(view: np.ndarray, axis: int, a, b, theta, phi, box=None):
    """R_ab(theta, phi) on ``axis`` of ``view``, one rotation per circuit:
    float angles for a single state, or (C,) arrays for a batch with the
    circuit axis first; levels a < b are ints or (C,) arrays."""
    if box is not None and not _occupy(box, view, [(axis, a, b)]):
        return
    xp = np if isinstance(theta, np.ndarray) else math  # a batch, or one circuit's floats
    s = xp.sin(theta)
    re, im = xp.sin(phi) * s, xp.cos(phi) * s
    _rotate_pairs(view, (axis,), [((a,), (b,))], xp.cos(theta), -re - 1j * im, re - 1j * im,
                  box)


def _apply_ms_nd(view, axis_i, axis_j, pair_i, pair_j, J, box=None):
    """MS on ``axis_i``/``axis_j`` of ``view``, one coupling per circuit:
    J is a float for a single state or a (C,) array for a batch with the
    circuit axis first; each level is an int or a (C,) array."""
    if axis_i > axis_j:  # MS is symmetric in its two ions
        axis_i, axis_j, pair_i, pair_j = axis_j, axis_i, pair_j, pair_i
    (ai, bi), (aj, bj) = pair_i, pair_j
    if box is not None and not _occupy(box, view, [(axis_i, ai, bi), (axis_j, aj, bj)]):
        return
    xp = np if isinstance(J, np.ndarray) else math
    c, s = xp.cos(J), -1j * xp.sin(J)
    _rotate_pairs(view, (axis_i, axis_j), [((ai, aj), (bi, bj)), ((ai, bj), (bi, aj))], c, s, s,
                  box)


def _apply_multipair_nd(view: np.ndarray, reg: Register, per_ion_pairs: dict, J: float,
                        box=None):
    """exp(-iJ Xt_1 Xt_2 ...) over the ions keyed in ``per_ion_pairs``: the product of pair
    exchanges swaps level tuples x, y that take one pair on each ion, x holding the lower level
    of the first ion's pair and either end of every later one; every other amplitude is kept."""
    ions = sorted(per_ion_pairs, key=reg.axis)  # axes ascending
    pairs = [np.array([_norm_pair(p) for p in per_ion_pairs[i]], np.intp).reshape(-1, 2)
             for i in ions]
    m = len(ions)
    # every choice of one pair per ion and of an orientation on each ion after the first
    grid = np.indices([len(p) for p in pairs] + [2] * (m - 1)).reshape(2 * m - 1, -1)
    ends = list(zip(pairs, grid, [0, *grid[m:]]))  # (pairs, pick, orientation) per ion
    x, y = (tuple(p[k, o ^ side] for p, k, o in ends) for side in (0, 1))
    axes, s = tuple(map(reg.axis, ions)), -1j * math.sin(J)
    for ax in axes if box is not None else ():
        box[ax] = view.shape[ax]
    _rotate_pairs(view, axes, [(x, y)], math.cos(J), s, s, box)


def _apply_two_level(view: np.ndarray, reg: Register, gate: R | MS, lead: int, box=None):
    """R or MS on ``view``, whose ion axes follow ``lead`` leading axes: none for one circuit
    (float angles), or the circuit axis for a batch (angles are (C,) arrays)."""
    if isinstance(gate, R):
        a, b = _norm_pair((gate.a, gate.b))
        # normalized pair keeps the Eq-pattern phases attached to a < b
        phi = gate.phi if (gate.a, gate.b) == (a, b) else -gate.phi
        _apply_r_nd(view, lead + reg.axis(gate.ion), a, b, gate.theta, phi, box)
    else:
        _apply_ms_nd(view, lead + reg.axis(gate.ion_i), lead + reg.axis(gate.ion_j),
                     _norm_pair(gate.pair_i), _norm_pair(gate.pair_j), gate.J, box)


def _apply_gate(amps: np.ndarray, reg: Register, gate: NativeGate, box=None):
    """Apply a validated native gate in place to ``amps`` shaped (dim, *batch): a state,
    with its ``StateVector.box``, or a matrix whose columns are transformed together."""
    view = amps.reshape(reg.shape_view() + amps.shape[1:])
    if isinstance(gate, (R, MS)):
        _apply_two_level(view, reg, gate, 0, box)
    elif isinstance(gate, MultiPairMS):
        _apply_multipair_nd(view, reg, {gate.ion_i: gate.pairs_i, gate.ion_j: gate.pairs_j},
                            gate.J, box)
    elif isinstance(gate, GlobalMS):
        _apply_multipair_nd(view, reg, dict(enumerate(gate.pairs)), gate.J, box)


def apply_native(state: StateVector, gate: NativeGate) -> StateVector:
    """Apply one native gate in place; returns the state for chaining."""
    validate_gate(gate, state.register)
    _apply_gate(state.amps, state.register, gate, state.box)
    return state


def apply_circuit(state: StateVector, gates: Iterable[NativeGate]) -> StateVector:
    for g in gates:
        apply_native(state, g)
    return state


def gate_matrix(gate: NativeGate, reg: Register) -> np.ndarray:
    """Dense matrix of a native gate (the gate applied to every basis column);
    intended for dim <= a few thousand."""
    validate_gate(gate, reg)
    mat = np.eye(reg.dim, dtype=np.complex128)
    _apply_gate(mat, reg, gate)
    return mat


def gate_matrices(gate: R | MS, reg: Register) -> np.ndarray:
    """Dense matrices of an R or MS gate whose angles are (C,) arrays, stacked (C, dim, dim) and
    built by one batched kernel call: entry j is bit for bit ``gate_matrix`` at the j-th angles."""
    validate_gate(gate, reg)
    count = len(gate.theta if isinstance(gate, R) else gate.J)
    mats = np.empty((count, reg.dim, reg.dim), dtype=np.complex128)
    mats[:] = np.eye(reg.dim)
    _apply_two_level(mats.reshape((count, *reg.shape_view(), reg.dim)), reg, gate, 1)
    return mats


def sequence_matrix(
    gates: Sequence[NativeGate], reg: Register, leftmost_applied_first: bool = True
) -> np.ndarray:
    """Product of a gate list; the flag fixes which end acts on the state first."""
    out = np.eye(reg.dim, dtype=np.complex128)
    ordered = gates if leftmost_applied_first else tuple(reversed(gates))
    for g in ordered:
        out = gate_matrix(g, reg) @ out
    return out


# ---------------------------------------------------------------------------
# embedding standard (qubit-space) unitaries through the encoding maps


def is_unitary(U: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Whether U is square with U^dag U within ``tol`` of I entrywise: the decision of
    ``np.allclose(U^dag U, I, atol=tol)``, its default rtol of 1e-5 included, at a third
    of its cost.  A NaN or inf entry fails the comparison, so U is not unitary."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    eye = np.eye(U.shape[0])
    return bool(np.all(np.abs(U.conj().T @ U - eye) <= tol + 1e-5 * eye))


@functools.lru_cache(maxsize=32)
def _qubit_codes(ions: tuple[IonSpec, ...], qubit_order: str):
    """A register's bit table, code[g] = basis state g's qubit values as an integer
    (qubit 0 highest), and code's inverse; cached by ions, as callers rebuild registers."""
    bits = Register(ions, qubit_order).bit_table().astype(np.int64)
    code = bits @ (1 << np.arange(bits.shape[1])[::-1])
    state_of = np.argsort(code)  # code is a permutation
    bits.flags.writeable = code.flags.writeable = state_of.flags.writeable = False
    return bits, code, state_of


def embed_standard(U: np.ndarray, targets: Sequence[int], reg: Register) -> np.ndarray:
    """Lift a 2^k-dim unitary on the given global qubits to the level space.

    ``targets[0]`` is the most significant bit of U's index.  The result is
    the exact matrix of the standard gate in the register's level basis and
    serves as the compiler's ground truth.
    """
    U = np.asarray(U, dtype=np.complex128)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError("target qubits must be distinct")
    if U.shape != (2**k, 2**k):
        raise ValueError("unitary dimension does not match target count")
    if not is_unitary(U):
        raise ValueError("embed_standard requires a unitary input")
    (bits, code, state_of), dim = _qubit_codes(reg.ions, reg.qubit_order), reg.dim
    place = 1 << (reg.num_qubits - 1 - np.array(targets))  # targets[0] is U's high bit
    t_bits = np.arange(2**k)[:, None] >> np.arange(k)[::-1] & 1  # (t, pos)
    out = state_of[(code & ~place.sum()) | (t_bits @ place)[:, None]]  # (t_out, g)
    V = np.zeros((dim, dim), dtype=np.complex128)
    V[out, np.arange(dim)] += U[:, bits[:, targets] @ (1 << np.arange(k)[::-1])]
    return V


# ---------------------------------------------------------------------------
# measurement sampling


def sample_counts(state: StateVector, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-basis outcomes drawn by inverse CDF: the ascending distinct basis indices and counts.

    The running sum c of |amp|^2 (bit for bit ``np.cumsum(state.probabilities())``) is walked
    ``BLOCK_AMPLITUDES`` at a time, so no array of the state's size is made. Shot u of
    ``np.sort(default_rng(seed).random(shots)) * c[-1]`` goes to the first index with c > u, or
    with c = c[-1] if u rounds up to it, so a flat step of c (probability 0) is never drawn."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    amps, size = state.amps, BLOCK_AMPLITUDES

    def running(lo, carry):  # c over the block at lo, given c just before it
        c = np.abs(amps[lo:lo + size]) ** 2
        c[0] += carry
        return np.cumsum(c, out=c)

    ends = [0.0]
    for lo in range(0, amps.size, size):
        ends.append(running(lo, ends[-1])[-1])
    if not abs(math.sqrt(ends[-1]) - 1.0) <= 1e-9:
        raise ValueError(f"state norm {math.sqrt(ends[-1])} too far from 1")
    u = np.minimum(np.sort(np.random.default_rng(seed).random(shots)) * ends[-1],
                   np.nextafter(ends[-1], 0.0))
    idx, bounds = np.empty(shots, dtype=np.int64), np.searchsorted(u, ends)
    for k in np.flatnonzero(np.diff(bounds)).tolist():  # the blocks that shots land in
        shot = slice(bounds[k], bounds[k + 1])
        idx[shot] = k * size + np.searchsorted(running(k * size, ends[k]), u[shot], side="right")
    return np.unique(idx, return_counts=True)


def sample_measurement(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """``sample_counts`` keyed by encoded bit labels, in ascending basis-index order."""
    idx, counts = sample_counts(state, shots, seed)
    return {state.register.bitstring(g): c for g, c in zip(idx.tolist(), counts.tolist())}


# ---------------------------------------------------------------------------
# circuits and the one-gate-per-line text format


@dataclass
class Circuit:
    """Ordered native-gate list (applied first-to-last) plus provenance."""

    register: Register
    gates: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, gate: NativeGate):
        validate_gate(gate, self.register)
        self.gates.append(gate)

    def extend(self, gates: Iterable[NativeGate]):
        for g in gates:
            self.append(g)

    def counts(self) -> dict[str, int]:
        c = {"R": 0, "MS": 0, "MPMS": 0, "GMS": 0}
        for g in self.gates:
            if isinstance(g, R):
                c["R"] += 1
            elif isinstance(g, MS):
                c["MS"] += 1
            elif isinstance(g, MultiPairMS):
                c["MPMS"] += 1
            else:
                c["GMS"] += 1
        return c

    def run(self, state: StateVector | None = None) -> StateVector:
        if state is None:
            state = StateVector.zero(self.register)
        return apply_circuit(state, self.gates)


def format_gate(gate: NativeGate) -> str:
    if isinstance(gate, R):
        return f"R {gate.ion} {gate.a} {gate.b} {gate.theta:.17g} {gate.phi:.17g}"
    if isinstance(gate, MS):
        return (
            f"MS {gate.ion_i} {gate.ion_j} {gate.pair_i[0]} {gate.pair_i[1]} "
            f"{gate.pair_j[0]} {gate.pair_j[1]} {gate.J:.17g}"
        )
    if isinstance(gate, MultiPairMS):
        pi = " ".join(f"{a} {b}" for a, b in gate.pairs_i)
        pj = " ".join(f"{a} {b}" for a, b in gate.pairs_j)
        return (
            f"MPMS {gate.ion_i} {gate.ion_j} {len(gate.pairs_i)} {pi} "
            f"{len(gate.pairs_j)} {pj} {gate.J:.17g}"
        )
    if isinstance(gate, GlobalMS):
        parts = [f"GMS {gate.J:.17g}"]
        for pl in gate.pairs:
            parts.append(str(len(pl)))
            parts.extend(f"{a} {b}" for a, b in pl)
        return " ".join(parts)
    raise TypeError(f"unknown gate {gate!r}")


def format_circuit(circ: Circuit) -> str:
    lines = [f"# ionvq circuit, {len(circ.gates)} gates, angles in radians"]
    for key, val in sorted(circ.meta.items()):
        lines.append(f"# {key}: {val}")
    lines.extend(format_gate(g) for g in circ.gates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, reg: Register) -> Circuit:
    circ = Circuit(reg)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            kind = tok[0].upper()
            if kind == "R":
                gate = R(int(tok[1]), int(tok[2]), int(tok[3]), float(tok[4]), float(tok[5]))
            elif kind == "MS":
                gate = MS(
                    int(tok[1]),
                    int(tok[2]),
                    (int(tok[3]), int(tok[4])),
                    (int(tok[5]), int(tok[6])),
                    float(tok[7]),
                )
            elif kind == "MPMS":
                pos = 3
                ni = int(tok[pos]); pos += 1
                pairs_i = tuple((int(tok[pos + 2 * k]), int(tok[pos + 2 * k + 1])) for k in range(ni))
                pos += 2 * ni
                nj = int(tok[pos]); pos += 1
                pairs_j = tuple((int(tok[pos + 2 * k]), int(tok[pos + 2 * k + 1])) for k in range(nj))
                pos += 2 * nj
                gate = MultiPairMS(int(tok[1]), int(tok[2]), pairs_i, pairs_j, float(tok[pos]))
            elif kind == "GMS":
                J = float(tok[1])
                pos = 2
                pls = []
                for _ in range(reg.num_ions):
                    m = int(tok[pos]); pos += 1
                    pls.append(tuple((int(tok[pos + 2 * k]), int(tok[pos + 2 * k + 1])) for k in range(m)))
                    pos += 2 * m
                gate = GlobalMS(J, tuple(pls))
            else:
                raise ValueError(f"unknown gate kind {tok[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {ln}: cannot parse {raw!r}: {exc}") from exc
        circ.append(gate)
    return circ
