import numpy as np
import pytest
import scipy.linalg

from ionvq import standard, tables
from ionvq.compiler import distance
from ionvq.core import embed_standard, sequence_matrix
from ionvq.tables import audit_summary, run_table_suite


@pytest.fixture(scope="module")
def entries():
    return run_table_suite()


def by_id(entries, table, row):
    return next(e for e in entries if e.table == table and e.row == row)


def test_row_count(entries):
    assert len(entries) == 35
    assert sum(1 for e in entries if e.table == "I") == 14
    assert sum(1 for e in entries if e.table == "II") == 4
    assert sum(1 for e in entries if e.table == "III") == 10
    assert sum(1 for e in entries if e.table == "IV") == 7


def test_every_row_checked_under_four_conventions(entries):
    for e in entries:
        assert len(e.statuses) == 4


def test_known_passing_rows(entries):
    for table, row in [("I", "5"), ("I", "7"), ("I", "9"), ("I", "11b"),
                       ("II", "2"), ("II", "3"), ("II", "4"),
                       ("III", "1"), ("III", "2"), ("III", "3"), ("III", "6"), ("III", "7"),
                       ("IV", "2"), ("IV", "4")]:
        e = by_id(entries, table, row)
        assert e.passed, f"{table}.{row} should verify, best={e.best_distance}"


def test_row_13_fails_with_cross_pair_alternative(entries):
    e = by_id(entries, "I", "13")
    assert not e.passed
    alt = e.alternative
    assert alt and alt["verified"] and alt["length"] <= e.sequence_len
    pairs = {g.split()[2] + g.split()[3] for g in alt["gates"]}
    assert pairs == {"03", "12"}, "the X(x)X couplings sit on (0,3) and (1,2)"


def test_every_fail_row_carries_verified_alternative(entries):
    for e in entries:
        if not e.passed:
            assert e.alternative is not None, f"{e.table}.{e.row} missing alternative"
            assert e.alternative["verified"], f"{e.table}.{e.row} alternative failed"
            assert e.alternative["length"] <= e.sequence_len
            assert e.alternative["distance"] <= 1e-9


def test_limited_rows_stay_on_the_graph(entries):
    for e in entries:
        if e.table == "II":
            assert e.legal


def test_repaired_rows_carry_source_notes(entries):
    assert by_id(entries, "III", "4b").note
    assert by_id(entries, "IV", "3").note
    assert by_id(entries, "IV", "7").note
    assert by_id(entries, "IV", "3").passed  # the missing-index completion verifies


def test_statuses_are_distances(entries):
    e = by_id(entries, "I", "5")
    ok = [v for v in e.statuses.values() if v <= 1e-9]
    assert ok, "at least one convention reconstructs row 5"
    assert max(e.statuses.values()) > 1e-3, "other conventions visibly differ"


def test_summary_counts(entries):
    s = audit_summary(entries)
    assert s["rows"] == 35
    assert s["passed"] == sum(1 for e in entries if e.passed)
    assert s["fails_missing_alternative"] == []


@pytest.mark.parametrize(
    "strings", [["XIX", "IXX"], ["IXIX", "XIXI"], ["ZZI", "XXI", "YYI"], ["ZI", "ZZ"], ["Y"]]
)
@pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 4, -2.1])
def test_sum_rotation_equals_matrix_exponential(strings, angle):
    M = sum(standard.pauli_string(s) for s in strings)
    ref = scipy.linalg.expm(-1j * angle * M)
    assert np.allclose(standard.pauli_sum_rotation(strings, angle), ref, atol=1e-12)


def test_sum_rotation_rejects_anticommuting_strings():
    with pytest.raises(ValueError):
        standard.pauli_sum_rotation(["XZ", "ZZ"], 0.3)


def test_sum_rotation_needs_no_dense_exponential(monkeypatch):
    # scipy's expm wakes its BLAS thread pool even on 8x8 inputs, which made
    # audit times swing between processes; the closed form avoids it.
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix exponential called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    entries = run_table_suite(("III",))
    assert by_id(entries, "III", "8").passed


def test_audit_builds_each_matrix_once_per_point(monkeypatch):
    # the four conventions share one target, one embedding per qubit order and
    # one matrix per native gate at each parameter point
    row = next(r for r in tables.TABLE_ROWS if (r["table"], r["row"]) == ("I", "5"))
    points = len(row["params"]["theta"])
    calls = {}
    for name in ("gate_matrix", "embed_standard", "_target_matrix"):
        def counted(*args, _f=getattr(tables, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(tables, name, counted)
    entry = tables.audit_row(row)
    assert entry.passed and points == 2
    assert calls == {"gate_matrix": len(row["seq"]) * points, "_target_matrix": points,
                     "embed_standard": 2 * points}


def test_statuses_match_per_convention_sequence_matrix(entries):
    # reference: each convention rebuilt from scratch through dense sequence_matrix
    for row, e in zip(tables.TABLE_ROWS, entries):
        ref = {}
        for comp, qo in tables.CONVENTIONS:
            reg = tables._REGISTRY[row["register"]](qo)
            worst = 0.0
            for point in tables._param_points(row["params"]):
                T = embed_standard(tables._target_matrix(row["target"], point),
                                   list(range(reg.num_qubits)), reg)
                V = sequence_matrix(tables._gates(row["seq"], point), reg,
                                    comp == tables.LEFT_FIRST)
                worst = max(worst, distance(T, V))
            ref[f"{comp}/{qo}"] = worst
        assert e.statuses == ref, f"{e.table}.{e.row}"


def test_pauli_string_is_cached_and_read_only():
    P = standard.pauli_string("XYZI")
    assert standard.pauli_string("XYZI") is P
    with pytest.raises(ValueError):
        P[0, 0] = 1.0
