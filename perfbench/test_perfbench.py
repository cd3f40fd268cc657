"""Self-test of the benchmark harness: self-time arithmetic and failure
accounting.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_union_length_merges_overlaps_and_containment():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3)]) == 3.0
    assert spans.union_length([(0, 5), (1, 2), (3, 4)]) == 5.0
    assert spans.union_length([(3, 4), (0, 1), (0.5, 3.5)]) == 4.0


def test_self_time_of_nested_spans_with_overlapping_children():
    rows = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a
        ["a.1", 2.0, 3.0, 1],
        ["c", 9.0, 12.0, 0],  # runs past its parent: clipped to 9..10
    ]
    assert spans.self_times(rows) == pytest.approx([10 - 6, 3 - 1, 3, 1, 3])


def test_tracer_records_parents_and_absent_targets(monkeypatch):
    tr = spans.Tracer(op=7)
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("outer", None, 7), ("inner", 0, 7)]
    monkeypatch.setattr(spans, "TARGETS", [("core.gone", "ionvq.core", "no_such_function", ())])
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    spans.install(tr)
    assert tr.absent == ["core.gone"]


def _runner(tmp_path):
    return run.Runner(ROOT, tmp_path, time.perf_counter() + 120)


def _op(tmp_path, argv, check):
    op = workloads.Op("t", 1, argv, check)
    return workloads._with_out(op, tmp_path, 0)


REPCODE = ["repcode", "--L", "5", "--n", "1", "--shots", "100", "--seed", "1"]


def test_op_exiting_with_code_3_is_failed(tmp_path):
    # eps1 = p/14 above the modeled range is a runtime error: exit code 3
    rec = _runner(tmp_path).run(_op(tmp_path, REPCODE + ["--p", "2.0"], lambda text: 1.0))
    assert rec["rc"] == 3
    assert not rec["ok"] and rec["error"].startswith("exit 3")
    assert rec["items"] == 0.0


def test_op_failing_its_check_is_failed(tmp_path):
    def check(text):
        workloads.require(False, "wrong output")

    rec = _runner(tmp_path).run(_op(tmp_path, REPCODE + ["--p", "0.01"], check))
    assert rec["rc"] == 0
    assert not rec["ok"] and "wrong output" in rec["error"]


def test_passing_op_counts_items_and_traces(tmp_path):
    rec = _runner(tmp_path).run(_op(tmp_path, REPCODE + ["--p", "0.01"], lambda text: 5.0),
                                trace=True)
    assert rec["ok"] and rec["items"] == 5.0 and len(rec["sha256"]) == 64
    names = {s[0] for s in rec["trace"]["spans"]}
    assert {"cli.main", "qec.sample_logical_error", "qec.decode"} <= names
    assert rec["trace"]["counters"]["qec.shots"] == 100
    assert "ionvq.cli" in rec["imports"]


def test_failed_ops_count_against_the_pass():
    ok = {"ok": True, "phase": 1, "items": 2.0, "run_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 10.0}
    bad = {"ok": False, "phase": 1, "items": 0.0, "run_s": 3.0, "setup_s": 0.7, "peak_rss_mb": 20.0}
    m = run.end_to_end([[ok, bad]])
    assert m["wall_s"] == 4.0  # the user waited for the failed op too
    assert m["phase1_per_s"] == 2.0  # but it completed no work
    assert m["peak_rss_mb"] == 20.0
