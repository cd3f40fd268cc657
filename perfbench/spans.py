"""Span recording around the public functions of ionvq, for the traced run.

Wrappers are installed from outside the package, in every namespace a caller
looks the function up in (``ionvq.sampling.apply_circuit``,
``ionvq.compiler.sequence_matrix``, ``StateVector.probabilities`` and the
registry dict ``sampling.STATISTICS``).  One wrapper object serves all the
namespaces of one function, so a call is recorded once whichever name it came
through.  A target a later version removes is reported as absent.

Spans are kept in memory as (name, start, end, parent, op) and written out at
exit; self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (span name, defining module, attribute path, other caller namespaces); two
# functions may share a span name and are then counted as one
TARGETS = [
    ("cli.main", "ionvq.cli", "main", ()),
    ("core.apply_native", "ionvq.core", "apply_native", ()),
    ("core.validate_gate", "ionvq.core", "validate_gate", ()),
    ("core.probabilities", "ionvq.core", "StateVector.probabilities", ()),
    ("core.sample_measurement", "ionvq.core", "sample_measurement", ("ionvq.sampling",)),
    ("core.gate_matrix", "ionvq.core", "gate_matrix", ("ionvq.compiler", "ionvq.standard")),
    ("core.sequence_matrix", "ionvq.core", "sequence_matrix", ("ionvq.compiler", "ionvq.tables")),
    ("core.embed_standard", "ionvq.core", "embed_standard", ("ionvq.tables", "ionvq.standard")),
    ("sampling.brickwork_layer", "ionvq.sampling", "brickwork_layer", ()),
    ("sampling.gates_to_threshold", "ionvq.sampling", "gates_to_threshold", ()),
    ("sampling.estimate_xeb", "ionvq.sampling", "estimate_xeb", ()),
    ("sampling.run_bv", "ionvq.sampling", "run_bv", ()),
    ("sampling.statistic", "ionvq.sampling", "xeb_exact", ()),
    ("sampling.statistic", "ionvq.sampling", "second_moment", ()),
    ("compiler.overlap_cost", "ionvq.compiler", "overlap_cost", ()),
    ("compiler.bfgs", "ionvq.compiler", "optimize.minimize", ()),
    ("compiler.synthesize_variational", "ionvq.compiler", "synthesize_variational",
     ("ionvq.cli", "ionvq.tables")),
    ("compiler.synthesize_exact", "ionvq.compiler", "synthesize_exact", ("ionvq.cli", "ionvq.tables")),
    ("tables.run_table_suite", "ionvq.tables", "run_table_suite", ()),
    ("tables.audit_row", "ionvq.tables", "audit_row", ()),
    ("qec.sample_logical_error", "ionvq.qec", "sample_logical_error", ()),
    ("qec.simulate_defects", "ionvq.qec", "simulate_defects", ()),
    ("qec.decode", "ionvq.qec", "decode", ()),
    ("manifold.field_sweep", "ionvq.manifold", "field_sweep", ()),
    ("manifold.search_top_k", "ionvq.manifold", "search_top_k", ()),
    ("manifold.precompute_level_data", "ionvq.manifold", "precompute_level_data", ()),
    ("manifold.manifold_cost", "ionvq.manifold", "manifold_cost", ()),
    ("atomic.load_level_model", "ionvq.atomic", "load_level_model", ()),
    ("atomic.diagonalize_level", "ionvq.atomic", "diagonalize_level", ("ionvq.manifold",)),
    ("atomic.transition_table", "ionvq.atomic", "transition_table", ("ionvq.manifold",)),
    ("atomic.matrix_elements", "ionvq.atomic", "matrix_elements", ("ionvq.manifold",)),
]

AMP_BYTES = 16  # complex128


class Tracer:
    """In-memory span stack and counters for one op (one process)."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op])
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(tracer, args, kwargs, out, idx)
            return out

        return traced

    def dump(self) -> dict:
        return {"op": self.op, "spans": self.spans, "counters": self.counters,
                "absent": self.absent}


def _resolve(module, path: str):
    """(owner, attribute name, value) of a dotted attribute path, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    return None if value is None else (owner, parts[-1], value)


class _Proxy:
    """Stand-in for a third-party module seen through one attribute of ours
    (``compiler.optimize``), so only our caller's lookups are traced."""

    def __init__(self, module, name, wrapped):
        self._module = module
        setattr(self, name, wrapped)

    def __getattr__(self, item):
        return getattr(self._module, item)


def _dims_touched(gate, reg) -> float:
    """Amplitudes a native gate reads and writes, as a share of the state."""
    kind = type(gate).__name__
    if kind == "R":
        return 2.0 / reg.ions[gate.ion].d
    if kind == "MS":
        return 4.0 / (reg.ions[gate.ion_i].d * reg.ions[gate.ion_j].d)
    return 1.0


def _hook_apply_native(tr, args, kwargs, out, idx):
    state, gate = args[0], args[1]
    dim = state.register.dim
    tr.maximum("core.max_dim", dim)
    # computed traffic: every touched amplitude read once and written once
    nbytes = 2 * AMP_BYTES * dim * _dims_touched(gate, state.register)
    tr.add(f"core.gates_at_dim.{dim}")
    tr.add(f"core.bytes_at_dim.{dim}", nbytes)


def _hook_variational(tr, args, kwargs, out, idx):
    tr.add("compiler.restarts", out.restarts_used)
    tr.add("compiler.converged", 1.0 if out.converged else 0.0)


def _hook_shots(tr, args, kwargs, out, idx):
    tr.add("qec.shots", out.shots)


def _hook_decode(tr, args, kwargs, out, idx):
    if "qec.decode.first_call_s" not in tr.counters:
        start, end = tr.spans[idx][1], tr.spans[idx][2]
        tr.counters["qec.decode.first_call_s"] = end - start


def _hook_top_k(tr, args, kwargs, out, idx):
    tr.add("manifold.kept", len(out))


HOOKS = {
    "core.apply_native": _hook_apply_native,
    "compiler.synthesize_variational": _hook_variational,
    "qec.sample_logical_error": _hook_shots,
    "qec.decode": _hook_decode,
    "manifold.search_top_k": _hook_top_k,
}


def install(tracer: Tracer):
    """Wrap every TARGETS function that exists; record the others as absent."""
    for name, mod_name, path, callers in TARGETS:
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            tracer.absent.append(name)
            continue
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, original = found
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        if owner is module or not inspect.ismodule(owner):  # a function or a method
            setattr(owner, attr, wrapped)
        else:  # a third-party module reached through one of our names
            setattr(module, path.split(".")[0], _Proxy(owner, attr, wrapped))
        for caller in (mod_name,) + callers:
            for key, val in list(vars(importlib.import_module(caller)).items()):
                if val is original:
                    setattr(importlib.import_module(caller), key, wrapped)
                elif isinstance(val, dict):  # registries such as STATISTICS
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapped


# ---------------------------------------------------------------------------
# self time


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the parent; ``spans`` rows are (name, start, end, parent, ...)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end]
        out.append((end - start) - union_length(kids))
    return out
