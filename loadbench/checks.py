"""Correctness checks on the program's outputs, shared by the workloads.

The paper's guarantees for one decided unit (an engine hour, a control
loop decision, a shard region decision):

* premium traffic is served up to min(premium demand, fleet capacity);
* the allocations never exceed the offered load;
* the settled hour stays within its budget, except in hours with a
  premium-only or degraded step, where the paper knowingly overspends
  to keep premium QoS.

A degraded step is a failure by itself: the solver stack gave up.
Tolerances are relative and far below any modelling effect.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6
EXEMPT_BUDGET_STEPS = ("premium-only", "degraded")


def decision_faults(
    step: str,
    served_premium: float,
    demand_premium: float,
    allocated: float,
    offered: float,
    capacity: float,
) -> list[str]:
    """Guarantees broken by one decision (empty when it is sound)."""
    faults = []
    if step == "degraded":
        faults.append("degraded")
    owed = min(demand_premium, capacity)
    if served_premium < owed * (1 - REL_TOL) - 1e-9:
        faults.append(f"premium {served_premium:.6g} < owed {owed:.6g}")
    if allocated > offered * (1 + REL_TOL) + 1e-9:
        faults.append(f"allocated {allocated:.6g} > offered {offered:.6g}")
    return faults


def budget_fault(spend: float, budget: float, steps) -> str | None:
    """The budget guarantee for one settled hour, given its steps."""
    if any(s in EXEMPT_BUDGET_STEPS for s in steps):
        return None
    if spend > budget * (1 + REL_TOL) + 1e-9:
        return f"spend {spend:.8g} > budget {budget:.8g}"
    return None


def spends_match(spends, total_spent: float) -> bool:
    """Settled hour spends add up to what the budgeter recorded."""
    return math.isclose(math.fsum(spends), total_spent, rel_tol=1e-9, abs_tol=1e-9)


def demand_telescopes(hours, penalty_per_mw: float, cycle_hours: int) -> bool:
    """Per billing cycle, demand line items sum to penalty x cycle peak.

    ``hours`` yields ``(hour, power_mw, demand_amount)`` in hour order.
    """
    billed: dict[int, float] = {}
    peak: dict[int, float] = {}
    for hour, power_mw, amount in hours:
        cycle = hour // cycle_hours
        billed[cycle] = billed.get(cycle, 0.0) + amount
        peak[cycle] = max(peak.get(cycle, 0.0), power_mw)
    return all(
        math.isclose(billed[c], penalty_per_mw * peak[c], rel_tol=1e-9, abs_tol=1e-9)
        for c in billed
    )
