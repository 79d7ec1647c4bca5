"""``month-demand``: batch capped months under a demand-charge tariff.

Why: it is solver-bound. With a demand charge in force the enumeration
kernel only answers the energy-only solves; the throughput-max solves
that carry a peak term fall to cold branch-and-bound over the dense
simplex. Nothing in ``repro.service`` runs.

One unit of work is a full ``Engine.run("capping")`` month of
``paper_world`` (3 sites, 720 h) with a fixed monthly budget of
:data:`BUDGET_FRACTION` x the month's uncapped energy-only bill. A run
measures a number of months fixed by ``--seconds`` alone
(:func:`months_for`), never by a deadline, so ``attempted`` and
``failed`` at a seed, and the percentile each tail reports, do not
depend on host speed. Every month is identical, so the per-hour samples
pool. Hours and dispatch stages are timed through
the engine's public stage-middleware hook, which also times the host
reference at every :data:`CAL_EVERY_H`-th hour boundary, before the
hour's clock starts, when no stage is running.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass

import checks
import hostref

TARIFF = "energy+demand:rate=0.5,cycle=72"
DEMAND_RATE_PER_KW = 0.5
DEMAND_CYCLE_H = 72
BUDGET_FRACTION = 0.85
#: Every 29th hour is re-decided by HiGHS: 25 hours of a month, spread
#: over all steps and both halves of each 72 h demand cycle.
CROSS_CHECK_STRIDE = 29
CAL_EVERY_H = 6
CAL_REPS = 3
#: A run measures one month per this many of its ``--seconds``: three at
#: 15 s, 2,160 hours. A month takes ~4.4 s on the nominal host.
SECONDS_PER_MONTH = 5.0


def months_for(seconds: float) -> int:
    """Months a run of ``seconds`` measures, whatever the host's speed."""
    return max(1, round(seconds / SECONDS_PER_MONTH))


@dataclass
class World:
    world: object
    engine: object
    budget: float


def setup(seed: int, seconds: float) -> World:
    """World build plus the uncapped anchor month, which also warms up."""
    from repro.experiments import paper_world
    from repro.sim.engine import Engine

    world = paper_world(1, seed=seed)
    engine = Engine(world.sites, world.workload, world.mix)
    anchor = engine.run("capping", tariff="energy")
    budget = BUDGET_FRACTION * sum(h.realized_cost for h in anchor.hours)
    return World(world, engine, budget)


def _clock_middleware(host):
    from repro.sim.engine import StageMiddleware

    class Clock(StageMiddleware):
        """Wall time of each hour and dispatch stage, with its slot."""

        def __init__(self):
            self.hours: list[tuple[float, int]] = []
            self.dispatch: list[tuple[float, int]] = []
            self.slot = len(host.samples) - 1

        @contextlib.contextmanager
        def hour(self, ctx, state):
            if ctx.hour % CAL_EVERY_H == 0:
                self.slot = host.calibrate(CAL_REPS)
            t0 = time.perf_counter()
            yield
            self.hours.append((time.perf_counter() - t0, self.slot))

        @contextlib.contextmanager
        def stage(self, name, ctx, state):
            if name != "dispatch":
                yield
                return
            t0 = time.perf_counter()
            yield
            self.dispatch.append((time.perf_counter() - t0, self.slot))

    return Clock()


def _month(w: World, middleware):
    budgeter = w.world.budgeter(w.budget)
    result = w.engine.run(
        "capping", budgeter=budgeter, tariff=TARIFF, middleware=middleware
    )
    return result, budgeter


def _month_failures(w: World, result, budgeter):
    """``(failed hours, notes, wrong outputs)`` of one month."""
    failed = 0
    notes: list[str] = []
    wrong: list[str] = []
    for rec in result.hours:
        capacity = sum(s.hour(rec.hour).max_rate_rps for s in w.world.sites)
        faults = checks.decision_faults(
            rec.step.value,
            rec.served_premium_rps,
            rec.demand_premium_rps,
            sum(s.dispatched_rps for s in rec.sites),
            rec.demand_premium_rps + rec.demand_ordinary_rps,
            capacity,
        )
        fault = checks.budget_fault(rec.settled_cost, rec.budget, (rec.step.value,))
        if fault:
            faults.append(fault)
        if faults:
            failed += 1
            if len(notes) < 5:
                notes.append(f"hour {rec.hour}: {'; '.join(faults)}")
    if not checks.spends_match(
        [rec.settled_cost for rec in result.hours], budgeter.total_spent
    ):
        wrong.append("settled spends differ from Budgeter.total_spent")
    if not checks.demand_telescopes(
        (
            (rec.hour, rec.total_power_mw,
             sum(li.amount for li in rec.line_items if li.component == "demand"))
            for rec in result.hours
        ),
        DEMAND_RATE_PER_KW * 1000.0,
        DEMAND_CYCLE_H,
    ):
        wrong.append("demand line items do not telescope to rate x cycle peak")
    return failed, notes, wrong


def _cross_check(w: World, result) -> tuple[set[int], list[str]]:
    """Re-decide sampled hours with HiGHS; return the disagreeing hours."""
    from repro.billing import make_ledger
    from repro.core import BillCapper, CostMinimizer, ThroughputMaximizer
    from repro.core.model_cache import DispatchModelCache

    def highs_cache():
        return DispatchModelCache(use_enum_kernel=False, solver_backend="scipy")

    capper = BillCapper(
        cost_minimizer=CostMinimizer(
            solver_backend="scipy", model_cache=highs_cache()
        ),
        throughput_maximizer=ThroughputMaximizer(
            solver_backend="scipy", model_cache=highs_cache()
        ),
    )
    # Replay the settled hours through a fresh ledger to recover the
    # peak term each hour's dispatch saw (read before the hour accrues).
    ledger = make_ledger(TARIFF)
    peak_terms = []
    for rec in result.hours:
        peak_terms.append(ledger.peak_term(rec.hour))
        ledger.accrue(rec.realized_cost, rec.total_power_mw)
        ledger.settle(rec.hour)
    bad: set[int] = set()
    notes: list[str] = []
    wl, mix = w.world.workload, w.world.mix
    for t in range(0, len(result.hours), CROSS_CHECK_STRIDE):
        rec = result.hours[t]
        total = float(wl.rates_rps[t])
        kwargs = {} if peak_terms[t] is None else {"peak_term": peak_terms[t]}
        ref = capper.decide(
            [s.hour(t) for s in w.world.sites],
            mix.premium_rate(total),
            mix.ordinary_rate(total),
            rec.budget,
            **kwargs,
        )
        gap = abs(ref.predicted_cost - rec.predicted_cost) / max(
            abs(ref.predicted_cost), 1e-12
        )
        if ref.step is not rec.step or gap > 1e-6:
            bad.add(t)
            notes.append(
                f"hour {t}: HiGHS {ref.step.value} {ref.predicted_cost:.10g} vs "
                f"{rec.step.value} {rec.predicted_cost:.10g}"
            )
    return bad, notes


def measure(w: World, seconds: float, host) -> dict:
    """:func:`months_for` months; end-to-end samples and checks."""
    months = attempted = failed = 0
    notes: list[str] = []
    wrong: list[str] = []
    hour_samples: list[tuple[float, int]] = []
    dispatch_samples: list[tuple[float, int]] = []
    first = first_dicts = None
    for _ in range(months_for(seconds)):
        clock = _clock_middleware(host)
        result, budgeter = _month(w, [clock])
        host.calibrate(CAL_REPS)  # closes the month's last slot
        months += 1
        hour_samples.extend(clock.hours)
        dispatch_samples.extend(clock.dispatch)
        # Checked now and dropped, bar the first month, so memory does
        # not grow with the number of months that fit in the run.
        n_failed, month_notes, month_wrong = _month_failures(w, result, budgeter)
        attempted += len(result.hours)
        failed += n_failed
        notes.extend(month_notes)
        wrong.extend(month_wrong)
        dicts = [h.to_dict() for h in result.hours]
        if first is None:
            first, first_dicts = result, dicts
        elif dicts != first_dicts:
            wrong.append("a repeated month differs from the first")
        del result, budgeter, dicts
    # The high-water mark before the HiGHS cross-check adds its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad, cross_notes = _cross_check(w, first)
    failed += len(bad) * months
    notes.extend(cross_notes)

    hours = host.pairs(hour_samples)
    dispatch = host.pairs(dispatch_samples)
    records = first.hours
    served = sum(h.served_premium_rps + h.served_ordinary_rps for h in records)
    offered = sum(h.demand_premium_rps + h.demand_ordinary_rps for h in records)
    bill = sum(h.settled_cost for h in records)
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "wrong": wrong,
        "checks": {
            "months": months,
            "cross_checked_hours": len(range(0, len(records), CROSS_CHECK_STRIDE)),
            "cross_check_mismatches": len(bad),
        },
        "timings": {
            "hours_per_s": ("rate", len(hours), hours),
            "hour_ms_p50": ("q", hours, 0.50),
            "hour_ms_p95": ("q", hours, 0.95),
            "decisions_per_s": ("rate", len(dispatch), dispatch),
            "decision_ms_p50": ("q", dispatch, 0.50),
            "decision_ms_p90": ("q", dispatch, 0.90),
            # The batch engine's tick is the hour.
            "tick_ms_p50": ("q", hours, 0.50),
            "tick_ms_p90": ("q", hours, 0.90),
        },
        "detail_timings": {"hour_ms_p99": ("q", hours, 0.99)},
        "served_frac": served / offered,
        "usd_per_m_served": bill / (served * 3600.0 / 1e6),
        "peak_rss_mb": peak_rss_mb,
        "unit_s": hostref.mean_corrected(hours),
    }


def trace(w: World, recorder, host) -> dict:
    """One traced month: spans, program counters and per-hour cost."""
    from repro.telemetry import Telemetry

    import spans as spans_mod

    tel = Telemetry()
    w.engine.telemetry = tel
    clock = _clock_middleware(host)
    recorder.install_layers()
    try:
        result, _budgeter = _month(w, [clock, spans_mod.stage_middleware(recorder)])
    finally:
        recorder.restore()
        w.engine.telemetry = None
    host.calibrate(CAL_REPS)
    hours = host.pairs(clock.hours)
    return {
        "telemetry": tel.registry.as_dicts(),
        "hours": len(result.hours),
        "unit_s": hostref.mean_corrected(hours),
        "factor": hostref.effective_factor(hours),
        "extra": {},
    }
