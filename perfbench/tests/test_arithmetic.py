"""The benchmark's own arithmetic: percentiles under the sample-count
rule, self time of nested spans, executor spans over a real plan, the
open-loop arrival schedule, and the serial loop's CPU attribution.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import asyncio
import random
from types import SimpleNamespace

import pytest

import calibrate
import loadgen
from loadgen import Lane, arrival_schedule, serial_loop
from stats import median, percentile, supported
from tracing import (
    SpanRecorder,
    layer_metrics,
    rebac_metrics,
    self_times,
    trace_executor,
    union_length,
    wrap,
)
from workloads import Balanced


# -- percentiles --------------------------------------------------------------


def test_sample_count_rule():
    # ten samples must lie beyond the reported percentile
    assert supported(20, 0.5)
    assert not supported(19, 0.5)
    assert supported(100, 0.9)
    assert not supported(99, 0.9)
    assert supported(1000, 0.99)
    assert not supported(999, 0.99)


def test_percentile_refuses_unsupported_quantiles():
    assert percentile(list(range(99)), 0.9) is None
    assert percentile([], 0.5) is None
    assert percentile(list(range(19)), 0.5) is None


def test_percentile_interpolates_between_closest_ranks():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.5) == pytest.approx(50.5)
    assert percentile(samples, 0.9) == pytest.approx(90.1)
    # order of the input does not matter
    shuffled = samples[:]
    random.Random(3).shuffle(shuffled)
    assert percentile(shuffled, 0.9) == percentile(samples, 0.9)


def test_percentile_stays_within_observed_range():
    samples = [5.0] * 30 + [7.0] * 30
    assert 5.0 <= percentile(samples, 0.5) <= 7.0
    assert percentile([2.0] * 100, 0.9) == 2.0


def test_median_of_setups():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- self time ----------------------------------------------------------------


def span(span_id, name, start, end, parent=None, attrs=None):
    return [span_id, name, start, end, parent, span_id if parent is None else 1, attrs]


def test_union_of_overlapping_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span(1, "request", 0.0, 10.0),
        span(2, "check", 1.0, 6.0, parent=1),
        span(3, "probe", 2.0, 4.0, parent=2),
        span(4, "probe", 3.0, 5.0, parent=2),  # overlaps the first probe
        span(5, "execute", 7.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    # the two probes cover 2..5 together: 3 units, not 4
    assert own[2] == pytest.approx(5.0 - 3.0)
    assert own[3] == pytest.approx(2.0)
    assert own[5] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "outer", 0.0, 4.0), span(2, "inner", 3.0, 6.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_recorder_nests_spans_per_thread():
    recorder = SpanRecorder()
    inner = wrap(recorder, "inner", lambda: 1)
    outer = wrap(recorder, "outer", lambda: inner() + inner())
    assert outer() == 2  # not recording: plain calls
    recorder.start()
    outer()
    spans = recorder.stop()
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    (root,) = by_name["outer"]
    assert root[4] is None
    assert [s[4] for s in by_name["inner"]] == [root[0], root[0]]
    # every span of the request carries the root's request id
    assert {s[5] for s in spans} == {root[0]}


def test_probe_spans_count_as_probes_not_execution():
    spans = [
        span(1, "nontruman.check", 0.0, 10.0),
        span(2, "engine.run_plan", 1.0, 3.0, parent=1),
        span(3, "engine.execute", 1.5, 2.5, parent=2,
             attrs={"rows_scanned": 40, "join_pairs": 0, "rows_out": 1}),
        span(4, "engine.run_plan", 11.0, 15.0),
        span(5, "engine.execute", 11.0, 14.0, parent=4,
             attrs={"rows_scanned": 30, "join_pairs": 6, "rows_out": 3}),
    ]
    metrics = layer_metrics(spans, ops=1, writes=0)
    assert metrics["nontruman.probe_ms"] == pytest.approx(2000.0)
    assert metrics["nontruman.probe_rows_scanned"] == 40
    assert metrics["nontruman.check_ms"] == pytest.approx(8000.0)
    assert metrics["engine.execute_ms"] == pytest.approx(3000.0)
    assert metrics["engine.rows_scanned_per_row"] == pytest.approx(10.0)
    assert metrics["engine.join_pairs_per_row"] == pytest.approx(2.0)


def test_executor_span_covers_the_whole_nested_plan(monkeypatch):
    # the row engine recurses through execute once per operator: a join
    # under a filter under a projection must still give one span whose
    # counts are the executor's own
    import repro.db
    from repro.engine import make_executor
    from repro.workloads.university import UniversityConfig, build_university

    db = build_university(UniversityConfig(students=30, seed=5))
    recorder = SpanRecorder()
    made = []

    def traced_make_executor(*args, **kwargs):
        made.append(make_executor(*args, **kwargs))
        return trace_executor(recorder, made[-1])

    monkeypatch.setattr(repro.db, "make_executor", traced_make_executor)
    sql = (
        "select s.name, g.grade from Students s, Grades g "
        "where s.student_id = g.student_id and g.grade > 2.0"
    )
    recorder.start()
    result = db.execute_query(sql, mode="open", engine="row", prepared=False)
    spans = recorder.stop()

    (executor,) = made
    assert [s[1] for s in spans] == ["engine.execute"]
    attrs = spans[0][6]
    assert attrs["rows_scanned"] == executor.rows_scanned
    assert attrs["join_pairs"] == executor.join_pairs_examined
    assert attrs["rows_out"] == len(result.rows)
    # both base tables were scanned once
    students = len(db.execute("select * from Students").rows)
    grades = len(db.execute("select * from Grades").rows)
    assert executor.rows_scanned == students + grades
    metrics = layer_metrics(spans, ops=1, writes=0)
    assert metrics["engine.rows_scanned_per_row"] == pytest.approx(
        (students + grades) / len(result.rows)
    )


def test_rebac_metrics_count_grant_rows_under_writes():
    spans = [
        span(1, "rebac.write", 0.0, 4.0),
        span(2, "rebac.closure", 0.5, 2.5, parent=1),
        span(3, "storage.write", 3.0, 3.5, parent=1),
        span(4, "storage.write", 3.5, 3.9, parent=1),
        span(5, "rebac.write", 5.0, 7.0),
        span(6, "rebac.closure", 5.5, 6.5, parent=5),
        span(7, "storage.write", 8.0, 9.0),  # not part of a tuple write
    ]
    metrics = rebac_metrics(spans)
    assert metrics["rebac.write_ms"] == pytest.approx(3000.0)
    assert metrics["rebac.closure_ms"] == pytest.approx(1500.0)
    assert metrics["rebac.grant_rows_changed_per_write"] == 1.0


# -- arrival schedule ---------------------------------------------------------


def test_schedule_is_evenly_paced():
    offsets = arrival_schedule(40.0, 200)
    assert len(offsets) == 200
    assert offsets[0] == 0.0
    gaps = {round(b - a, 12) for a, b in zip(offsets, offsets[1:])}
    assert gaps == {0.025}
    # the last arrival is due just before count / rate seconds
    assert offsets[-1] == pytest.approx(199 / 40.0)


def test_schedule_rejects_non_positive_rates():
    with pytest.raises(ValueError):
        arrival_schedule(0.0, 10)


def test_balanced_blocks_keep_shares():
    items = ("a", "a", "b", "c")
    draws = Balanced(items, random.Random(7))
    first = [draws.next() for _ in range(40)]
    for block in range(10):
        chunk = first[block * 4:(block + 1) * 4]
        assert sorted(chunk) == sorted(items)


# -- serial loop ----------------------------------------------------------------


class _FakeClient:
    """Answers every query at once; ``server`` plays the server's CPU
    clock, which advances by each query's cost when it is answered."""

    def __init__(self, server: dict, costs: dict):
        self.server = server
        self.costs = costs

    async def hello(self, user):
        pass

    async def submit(self, sql, mode):
        self.server["cpu"] += self.costs[sql]
        future = asyncio.get_running_loop().create_future()
        future.set_result(
            SimpleNamespace(timing={}, decision={}, rows=[], columns=[], rowcount=1)
        )
        return None, future


def _serial(costs, ops, monkeypatch, reference=None):
    """``reference`` is the server's reference time throughout (nominal
    when None); the client's is nominal."""
    server = {"cpu": 10.0}
    reference = reference or calibrate.NOMINAL_S
    monkeypatch.setattr(loadgen, "cpu_clock", lambda: 0.0)  # no client CPU
    monkeypatch.setattr(
        calibrate, "reference_cpu", lambda: (calibrate.NOMINAL_S, 0.0)
    )
    lane = Lane(_FakeClient(server, costs))
    return asyncio.run(
        serial_loop(
            lane, ops, lambda: {"cpu_s": server["cpu"], "reference_s": reference}
        )
    )


def test_serial_loop_charges_each_request_the_server_cpu_it_caused(monkeypatch):
    costs = {"a": 0.002, "b": 0.030}
    ops = [{"op": "read", "user": "u", "sql": sql, "mode": "open"} for sql in "abab"]
    outcomes = _serial(costs, ops, monkeypatch)
    assert [o.status for o in outcomes] == ["ok"] * 4
    assert [o.cpu_s for o in outcomes] == pytest.approx([0.002, 0.030] * 2)


def test_serial_loop_rescales_by_the_server_reference(monkeypatch):
    # the server ran at half speed: its reference loop took twice nominal
    ops = [{"op": "read", "user": "u", "sql": "a", "mode": "open"}] * 2
    outcomes = _serial({"a": 0.010}, ops, monkeypatch, 2 * calibrate.NOMINAL_S)
    assert [o.cpu_s for o in outcomes] == pytest.approx([0.005, 0.005])


def test_rescaled_uses_the_smoothed_reference_at_both_ends():
    nominal = calibrate.NOMINAL_S
    # one outlier reference time is smoothed away; the drift is not
    spike = [nominal] * 5 + [9 * nominal] + [nominal] * 5
    assert loadgen.rescaled([0.001] * 10, spike) == pytest.approx([0.001] * 10)
    slow = [nominal] * 6 + [3 * nominal] * 6
    out = loadgen.rescaled([0.003] * 11, slow)
    assert out[0] == pytest.approx(0.003)
    assert out[-1] == pytest.approx(0.001)


def test_smooth_is_a_centred_running_median():
    assert calibrate.smooth([1, 9, 1, 1, 1], width=3) == [1, 1, 1, 1, 1]
    assert calibrate.smooth([1, 2, 3], width=1) == [1, 2, 3]


def test_scale_is_nominal_over_the_mean_reference():
    assert calibrate.scale([calibrate.NOMINAL_S]) == pytest.approx(1.0)
    assert calibrate.scale(
        [calibrate.NOMINAL_S, 3 * calibrate.NOMINAL_S]
    ) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate.scale([0.0])
