"""Tests of the benchmark's own arithmetic; no program run needed.

    python3 -m pytest -q loadbench/test_loadbench.py
"""

import math
import statistics
import types

import pytest

import checks
import hostref
import month_demand
import run
import sharded
import spans
import summary


# -- the percentile rule ------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_the_requested_percentile():
    values = list(range(1, 201))  # 200 samples: p95 has exactly 10 beyond
    t = summary.tail(values, 0.95)
    assert t == {"value": 190, "q": 0.95, "n": 200, "beyond": 10}


def test_tail_lowers_the_percentile_when_too_few_samples_lie_beyond():
    values = [float(v) for v in range(100)]
    t = summary.tail(values, 0.95)
    assert t["beyond"] == 10
    assert t["q"] == pytest.approx(0.90)
    assert t["value"] == 89.0
    assert t["n"] == 100


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert summary.tail(values, 0.5)["value"] == 3.0


def test_tail_refuses_samples_that_cannot_leave_ten_beyond():
    with pytest.raises(ValueError):
        summary.tail([1.0] * 10, 0.5)


# -- self time ----------------------------------------------------------------


def _tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    return [
        (3, 2, "c", 2.0, 3.0),
        (2, 1, "a", 1.0, 4.0),
        (4, 1, "b", 5.0, 9.0),
        (1, 0, "root", 0.0, 10.0),
    ]


def test_self_time_subtracts_only_direct_children():
    selfs = summary.self_times(_tree())
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_aggregate_totals_self_time_and_callers():
    agg = summary.aggregate(_tree() + [(5, 0, "c", 20.0, 20.5)])
    assert agg["c"]["calls"] == 2
    assert agg["c"]["total_s"] == pytest.approx(1.5)
    assert agg["c"]["parents"]["a"] == {"calls": 1, "total_s": 1.0}
    assert agg["c"]["parents"][""]["calls"] == 1
    assert agg["root"]["self_s"] == pytest.approx(3.0)
    merged = summary.merge_aggregates([agg, agg])
    assert merged["c"]["calls"] == 4
    assert merged["c"]["parents"]["a"]["total_s"] == pytest.approx(2.0)


class _Base:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


class _Child(_Base):
    pass


def test_recorder_wraps_nests_and_restores():
    rec = spans.SpanRecorder()
    module = types.SimpleNamespace(helper=lambda v: v - 1)
    original_work = _Base.__dict__["work"]
    rec.wrap(_Base, "work", "outer")
    rec.wrap(_Base, "inner", "inner")
    rec.wrap(_Child, "inner", "child-inner")  # inherited: restore deletes it
    rec.wrap(module, "helper", "helper")
    assert _Child().work(3) == 7
    assert module.helper(3) == 2
    names = {sid: name for sid, _p, name, _a, _b in rec.spans}
    parents = {name: names.get(p, "") for _s, p, name, _a, _b in rec.spans}
    assert parents == {"inner": "child-inner", "child-inner": "outer",
                       "outer": "", "helper": ""}
    rec.restore()
    assert _Base.__dict__["work"] is original_work
    assert "inner" not in _Child.__dict__
    assert module.helper(3) == 2
    assert _Child().work(3) == 7


# -- host correction ----------------------------------------------------------


def test_slot_factor_averages_the_points_around_the_work():
    clock = hostref.HostClock()
    clock.add([1.0, 2.0, 4.0])
    assert clock.slot_factor(0) == 1.5
    assert clock.slot_factor(1) == 3.0
    assert clock.slot_factor(2) == 4.0  # no closing point yet
    assert clock.factor == 2.0
    assert clock.pairs([(0.3, 0), (0.4, 2)]) == [(0.3, 1.5), (0.4, 4.0)]


def test_sharded_plane_count_depends_on_seconds_only():
    assert sharded.planes_for(15) == 3
    assert sharded.planes_for(1) == 1
    assert sharded.planes_for(60) == 12


def test_month_count_depends_on_seconds_only():
    assert month_demand.months_for(15) == 3
    assert month_demand.months_for(1) == 1
    assert month_demand.months_for(60) == 12


def test_sharded_samples_use_each_workers_clock_slots():
    # Two workers, three barriers each: (arrive, sent, back) and factors.
    worker = {
        "rounds": [(0.0, 0.1, 0.2), (1.0, 1.1, 1.2), (2.0, 2.3, 2.4)],
        "factors": [1.0, 2.0, 4.0],
        "ticks": [(0.01, 0), (0.02, 1)],
        "decide": [],
    }
    other = dict(worker, rounds=[(0.0, 0.2, 0.2), (1.0, 1.2, 1.2),
                                 (2.0, 2.1, 2.4)], factors=[1.0, 1.0, 1.0])
    run_ = {"releases": [0.2, 1.2, 2.4], "workers": [worker, other]}
    hours = sharded._hour_samples(run_)
    # Hour k closes at release k less the closing worker's reference time.
    assert hours == [
        pytest.approx((1.0 - 0.2, (1.5 + 1.0) / 2)),
        pytest.approx((1.2 - 0.3, (3.0 + 1.0) / 2)),
    ]
    assert sharded._worker_pairs(run_, "ticks")[:2] == [(0.01, 1.5), (0.02, 3.0)]


def test_pair_means_weigh_each_sample_by_its_own_factor():
    pairs = [(2.0, 2.0), (1.0, 0.5)]  # 1 s and 2 s corrected
    assert hostref.mean_corrected(pairs) == pytest.approx(1.5)
    assert hostref.effective_factor(pairs) == pytest.approx(1.0)


def test_calibrate_records_one_positive_point():
    clock = hostref.HostClock()
    assert clock.calibrate(reps=2) == 0
    assert len(clock.samples) == 1 and clock.samples[0] > 0


def test_timing_divides_each_sample_by_its_own_factor():
    pairs = [(0.002, 2.0)] * 30 + [(0.001, 0.5)] * 30  # 1 ms and 2 ms corrected
    rate = run.timing(("rate", 60, pairs))
    assert rate["value"] == pytest.approx(60 / (30 * 0.001 + 30 * 0.002))
    assert rate["raw"] == pytest.approx(60 / 0.09)
    assert rate["factor"] == pytest.approx(1.0)  # 0.09 s raw, 0.09 s corrected
    median = run.timing(("q", pairs, 0.5))
    assert median["value"] == pytest.approx(1.5)
    assert median["raw"] == pytest.approx(1.5)
    tail = run.timing(("q", pairs, 0.9))
    assert tail["value"] == pytest.approx(2.0)
    assert tail["n"] == 60 and tail["beyond"] >= summary.MIN_BEYOND


def test_timing_correction_recovers_nominal_time_on_a_slow_host():
    nominal = [0.001 * (1 + i % 7) for i in range(100)]
    slow = [(t * 1.3, 1.3) for t in nominal]
    median = run.timing(("q", slow, 0.5))
    assert median["value"] == pytest.approx(1e3 * statistics.median(nominal))
    assert median["raw"] == pytest.approx(1.3e3 * statistics.median(nominal))
    assert median["factor"] == pytest.approx(1.3)
    assert run.timing(("rate", 100, slow))["value"] == pytest.approx(
        100 / math.fsum(nominal)
    )


# -- correctness checks ---------------------------------------------------------


def test_decision_faults_cover_each_guarantee():
    ok = checks.decision_faults("cost-min", 80.0, 80.0, 100.0, 100.0, 500.0)
    assert ok == []
    capped = checks.decision_faults("throughput-max", 50.0, 80.0, 50.0, 100.0, 50.0)
    assert capped == []  # premium owed only up to fleet capacity
    assert checks.decision_faults("cost-min", 70.0, 80.0, 100.0, 100.0, 500.0)
    assert checks.decision_faults("cost-min", 80.0, 80.0, 101.0, 100.0, 500.0)
    assert checks.decision_faults("degraded", 80.0, 80.0, 100.0, 100.0, 500.0)


def test_budget_fault_exempts_premium_only_and_degraded_hours():
    assert checks.budget_fault(10.0, 10.0, ["cost-min"]) is None
    assert checks.budget_fault(10.1, 10.0, ["cost-min", "throughput-max"])
    assert checks.budget_fault(10.1, 10.0, ["cost-min", "premium-only"]) is None
    assert checks.budget_fault(10.1, 10.0, ["degraded"]) is None


def test_demand_items_telescope_per_cycle():
    # cycle of 2 h: peaks 3 then 5 (items 3*k, 2*k), then a new cycle at 4
    k = 10.0
    hours = [(0, 3.0, 3 * k), (1, 5.0, 2 * k), (2, 4.0, 4 * k), (3, 1.0, 0.0)]
    assert checks.demand_telescopes(hours, k, 2)
    bad = hours[:-1] + [(3, 1.0, 1.0)]
    assert not checks.demand_telescopes(bad, k, 2)
