"""Exact segment-enumeration solver for the hourly dispatch MILPs.

Profiling a simulated capping month puts ~85% of wall time inside
branch-and-bound LP solves. Yet for the common homogeneous-fleet case
the MILP's combinatorial core is tiny: per site, exactly one price
segment binary is selected (``one_segment``), the active gate ``z``
either holds the site at zero or admits the affine power model
``p = a lam + b``, and *for a fixed selection* the continuous problem
collapses to a one- or two-constraint LP over boxed per-site rates
whose greedy solution is exact:

* **cost-min** — minimize ``sum m_i lam_i`` subject to
  ``sum lam_i = L`` and ``lam_i in [lo_i, hi_i]``, with marginal cost
  ``m_i = price_i * a_i``. Forcing every ``lam_i`` to its lower bound
  and filling the remainder in ascending-marginal order is the classic
  transportation greedy (exchange argument: moving load from a larger
  to a smaller marginal never increases cost).
* **throughput-max** — maximize ``sum lam_i - w * cost`` subject to a
  demand row and a budget row. Ascending-marginal filling is again
  exact because a smaller ``m_i`` simultaneously has the larger
  objective gain ``1 - w m_i`` *and* the smaller budget consumption
  per unit of rate — the two greedy orders coincide.
* **throughput-max under a demand charge** — the bill gains
  ``pi * max(0, sum a_i lam_i - H)`` (``pi`` the $/MW penalty, ``H`` the
  cycle peak less the active intercepts), so the budget row becomes two
  rows, energy ``<= B`` and energy ``+ pi (power - H) <= B``. With both
  multipliers at the optimum the sites rank by one effective price
  ``a_i (price_i + theta)`` for a single ``theta in [0, pi]``. The
  candidates per combination are the fill at ``theta = 0`` with power
  held at ``H``, the penalized fill at ``theta = pi``, the held fill at
  one ``theta`` inside each interval between the pairwise crossings of
  the effective prices, and a 2x2 solve for the tied pair at each
  crossing (power at ``H`` plus the budget or the demand row). The
  best admissible candidate is returned only when a Lagrangian dual
  bound on every combination certifies it.

This module enumerates every per-site choice combination (one array
axis per combination, solved simultaneously with NumPy), evaluates each
fixed-selection subproblem in closed form, and returns the best — the
exact MILP optimum — without touching the simplex. Decision equivalence
with the branch-and-bound and SciPy engines is pinned by
``tests/core/test_enum_kernel.py`` (objective and served totals; per-
site splits may legitimately differ between engines at alternate
optima).

The kernel *bails out* (returns ``None``; the caller proceeds with the
compiled MILP) whenever its assumptions don't hold, and records why in
``core.enum_kernel.bail.<reason>``: ``piecewise`` (heterogeneous sites),
``coefficients`` (non-positive slopes, negative prices or intercepts),
``weight`` (a tie-break weight large enough to make rate unprofitable),
``combos`` (more than :data:`MAX_COMBOS` combinations), ``infeasible``
(no admissible choice or combination) and ``uncertified`` (the dual
bound of the demand-charge fill does not meet its answer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solver.result import SolveResult, SolveStatus
from ..telemetry import get_telemetry
from .dispatch_model import RATE_SCALE
from .linearize import reachable_segments
from .site import SiteHour

__all__ = [
    "MAX_COMBOS",
    "SiteChoices",
    "site_choices",
    "combo_index",
    "cost_min_fill",
    "throughput_max_fill",
    "solve_cost_min",
    "peak_fill",
    "solve_throughput_max",
]

#: Enumeration ceiling: beyond this many per-site choice combinations
#: the branch-and-bound MILP (whose search is *not* exhaustive) wins.
MAX_COMBOS = 4096

#: Constraint-feasibility slack, matching MILP feasibility tolerances.
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SiteChoices:
    """One site's admissible (segment | inactive) choices.

    Arrays are aligned per choice: ``lo``/``hi`` bound the scaled rate,
    ``m`` is the marginal cost per scaled rate unit, ``f`` the fixed
    cost of being active in that segment, ``price`` the segment price.
    ``pos[j] >= 0`` indexes the entry's segment variables; a negative
    ``pos`` encodes the inactive choice, selecting segment
    ``-pos - 1`` with zero power.
    """

    a: float  # MW per scaled rate unit
    b: float  # intercept MW
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    f: np.ndarray
    price: np.ndarray
    pos: tuple[int, ...]


# Backwards-friendly private alias (the class predates the public name).
_SiteChoices = SiteChoices


def site_choices(sh: SiteHour, step_margin_frac: float) -> SiteChoices | None:
    """One site's choice set, or None on any per-site bail condition.

    Shared by the enumeration kernel and the dual-decomposition solver
    (:mod:`repro.core.decomposition`) so both price segment geometry
    identically — :func:`~repro.core.linearize.reachable_segments` is
    the single source of truth.
    """
    if sh.power_segments:
        return None
    a = sh.affine.slope_mw_per_rps * RATE_SCALE
    b = sh.affine.intercept_mw
    if not a > 0.0 or b < 0.0:
        return None
    mrs = sh.max_rate_rps / RATE_SCALE
    segs = reachable_segments(
        sh, sh.max_power_mw, step_margin_frac * sh.max_power_mw
    )
    lo, hi, m, f, price, pos = [], [], [], [], [], []
    inactive_at = None
    for j, (_, seg_price, p_lo, p_hi) in enumerate(segs):
        if seg_price < 0.0:
            return None
        if inactive_at is None and p_lo == 0.0:
            inactive_at = j
        lam_lo = max(0.0, (p_lo - b) / a)
        lam_hi = min(mrs, (p_hi - b) / a)
        if lam_hi < lam_lo:
            continue
        lo.append(lam_lo)
        hi.append(lam_hi)
        m.append(seg_price * a)
        f.append(seg_price * b)
        price.append(seg_price)
        pos.append(j)
    if inactive_at is not None:
        # z = 0: rate and power pinned at zero, the slack segment's
        # binary absorbs the one_segment equality at no cost.
        lo.append(0.0)
        hi.append(0.0)
        m.append(0.0)
        f.append(0.0)
        price.append(0.0)
        pos.append(-(inactive_at + 1))
    if not lo:
        return None
    return SiteChoices(
        a=a, b=b,
        lo=np.array(lo), hi=np.array(hi),
        m=np.array(m), f=np.array(f), price=np.array(price),
        pos=tuple(pos),
    )


def combo_index(
    sites: list[SiteChoices], max_combos: int = MAX_COMBOS
) -> np.ndarray | None:
    """The (n_combos, n_sites) choice-index matrix, or None above the cap."""
    n_combos = 1
    for sc in sites:
        n_combos *= sc.lo.size
        if n_combos > max_combos:
            return None
    grids = np.meshgrid(
        *[np.arange(sc.lo.size) for sc in sites], indexing="ij"
    )
    return np.stack([g.ravel() for g in grids], axis=1)


def _site_bail_reason(sh: SiteHour, step_margin_frac: float) -> str:
    """Why :func:`site_choices` declined ``sh`` (bail path only)."""
    if sh.power_segments:
        return "piecewise"
    if not sh.affine.slope_mw_per_rps > 0.0 or sh.affine.intercept_mw < 0.0:
        return "coefficients"
    segs = reachable_segments(
        sh, sh.max_power_mw, step_margin_frac * sh.max_power_mw
    )
    if any(price < 0.0 for _, price, _, _ in segs):
        return "coefficients"
    return "infeasible"  # no admissible choice at all


def _unprofitable(
    sites: list[SiteChoices], weight: float, penalty: float = 0.0
) -> bool:
    """True when a unit of rate can cost more objective than it earns.

    Each unit of rate gains 1 and costs ``weight * m`` on the objective,
    plus ``weight * penalty * a`` above the peak; the greedy orders hold
    only while that stays below 1.
    """
    return weight < 0.0 or weight * max(
        float(np.max(sc.m + penalty * sc.a)) for sc in sites
    ) >= 1.0


def _bail(reason: str) -> None:
    """Count one bail under ``core.enum_kernel.bail.<reason>``."""
    tel = get_telemetry()
    if tel.enabled:
        tel.counter(f"core.enum_kernel.bail.{reason}").inc()
    return None


def _prepare(
    site_hours: list[SiteHour], step_margin_frac: float
) -> tuple[list[SiteChoices], np.ndarray] | str:
    """Per-site choice sets and the combination index matrix.

    Returns the bail reason when any bail-out condition triggers,
    including a site with *no* admissible choice (the MILP then owns the
    infeasibility diagnosis).
    """
    sites: list[SiteChoices] = []
    for sh in site_hours:
        sc = site_choices(sh, step_margin_frac)
        if sc is None:
            return _site_bail_reason(sh, step_margin_frac)
        sites.append(sc)
    idx = combo_index(sites)
    if idx is None:
        return "combos"
    return sites, idx


def _gather(sites: list[_SiteChoices], idx: np.ndarray, field: str) -> np.ndarray:
    """(n_combos, n_sites) matrix of one choice attribute."""
    return np.stack(
        [getattr(sc, field)[idx[:, i]] for i, sc in enumerate(sites)], axis=1
    )


def _unsort(order_row: np.ndarray, values_row: np.ndarray) -> np.ndarray:
    out = np.empty_like(values_row)
    out[order_row] = values_row
    return out


def _result(
    entry, sites: list[_SiteChoices], idx_row: np.ndarray, lam: np.ndarray,
    objective: float, peak_excess: float | None = None,
) -> SolveResult:
    """Materialize the winning combination as a full solution vector."""
    x = np.zeros(entry.base.c.size)
    if peak_excess is not None:
        x[entry.peak_var] = peak_excess
    for i, (sc, sl) in enumerate(zip(sites, entry.slots)):
        pos = sc.pos[idx_row[i]]
        if pos < 0:
            x[sl.yseg[-pos - 1]] = 1.0
            continue
        li = float(lam[i])
        p = sc.a * li + sc.b
        x[sl.rate] = li
        x[sl.active] = 1.0
        x[sl.power] = p
        x[sl.pseg[pos]] = p
        x[sl.yseg[pos]] = 1.0
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        x=x,
        backend="enum-kernel",
    )


def _exact_cost(
    sites: list[SiteChoices], idx: np.ndarray, best: int, lam: np.ndarray
) -> float:
    """Re-derive the bill exactly as the MILP prices it:
    ``sum_i price_i * (a_i lam_i + b_i)`` over active sites."""
    cost = 0.0
    for i, sc in enumerate(sites):
        j = idx[best, i]
        if sc.pos[j] >= 0:
            cost += float(sc.price[j]) * (sc.a * float(lam[i]) + sc.b)
    return cost


def cost_min_fill(
    sites: list[SiteChoices], idx: np.ndarray, total_rate_scaled: float
) -> tuple[int, np.ndarray, float] | None:
    """Exact min-cost fill over the enumerated combinations.

    Returns ``(best_combo_row, lam_per_site, exact_cost)``; None when no
    combination can serve ``total_rate_scaled``. Entry-free so the
    decomposition solver can run it per region.
    """
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    sum_lo = LO.sum(axis=1)
    feasible = (sum_lo <= total_rate_scaled + _FEAS_TOL) & (
        HI.sum(axis=1) >= total_rate_scaled - _FEAS_TOL
    )
    if not feasible.any():
        return None
    remaining = np.maximum(total_rate_scaled - sum_lo, 0.0)
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    before = np.concatenate(
        [np.zeros((caps.shape[0], 1)), np.cumsum(caps, axis=1)[:, :-1]], axis=1
    )
    take = np.clip(remaining[:, None] - before, 0.0, caps)
    cost = F.sum(axis=1) + (M * LO).sum(axis=1) + (m_sorted * take).sum(axis=1)
    cost = np.where(feasible, cost, np.inf)
    best = int(np.argmin(cost))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, _exact_cost(sites, idx, best, lam)


def solve_cost_min(
    entry, site_hours: list[SiteHour], total_rate_scaled: float,
    step_margin_frac: float,
) -> SolveResult | None:
    """Exact minimum-cost dispatch of ``total_rate_scaled`` (Mrps)."""
    prep = _prepare(site_hours, step_margin_frac)
    if isinstance(prep, str):
        return _bail(prep)
    sites, idx = prep
    fill = cost_min_fill(sites, idx, total_rate_scaled)
    if fill is None:
        return _bail("infeasible")  # the MILP owns the diagnosis
    best, lam, objective = fill
    return _result(entry, sites, idx[best], lam, objective)


def throughput_max_fill(
    sites: list[SiteChoices], idx: np.ndarray, demand_scaled: float,
    budget: float, weight: float,
) -> tuple[int, np.ndarray, float, float] | None:
    """Exact budget-capped throughput fill over the combinations.

    Returns ``(best_combo_row, lam_per_site, served, exact_cost)``; None
    when no combination is admissible (or the tie-break weight breaks
    the greedy order). Entry-free for the decomposition solver.
    """
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    if weight < 0.0 or (weight > 0.0 and weight * M.max(initial=0.0) >= 1.0):
        return None  # rate would be unprofitable: greedy order invalid
    base_cost = F.sum(axis=1) + (M * LO).sum(axis=1)
    sum_lo = LO.sum(axis=1)
    feasible = (base_cost <= budget + _FEAS_TOL) & (
        sum_lo <= demand_scaled + _FEAS_TOL
    )
    if not feasible.any():
        return None
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    budget_left = np.maximum(budget - base_cost, 0.0)
    demand_left = np.maximum(demand_scaled - sum_lo, 0.0)
    take = np.zeros_like(caps)
    for j in range(caps.shape[1]):
        m_j = m_sorted[:, j]
        by_budget = np.divide(
            budget_left, m_j, out=np.full_like(m_j, np.inf), where=m_j > 0.0
        )
        t = np.minimum(caps[:, j], np.minimum(demand_left, by_budget))
        take[:, j] = t
        demand_left = np.maximum(demand_left - t, 0.0)
        budget_left = np.maximum(budget_left - m_j * t, 0.0)
    served = sum_lo + take.sum(axis=1)
    cost = base_cost + (m_sorted * take).sum(axis=1)
    value = np.where(feasible, served - weight * cost, -np.inf)
    best = int(np.argmax(value))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, float(lam.sum()), _exact_cost(sites, idx, best, lam)


def _path_fill(
    LO: np.ndarray, HI: np.ndarray, M: np.ndarray, a: np.ndarray,
    theta: np.ndarray, penalized: np.ndarray, bill_left: np.ndarray,
    demand_left: np.ndarray, power_left: np.ndarray, penalty: float,
) -> np.ndarray:
    """Rates of the greedy fill in effective-price order, row by row.

    Rows fill in ascending ``m_i + theta a_i`` from ``LO``. Below the
    peak a unit of rate costs ``m_i`` on the bill and ``a_i`` of the
    ``power_left`` headroom; a held row stops at the headroom, a
    ``penalized`` row goes on at ``m_i + penalty a_i`` per unit.
    """
    order = np.argsort(M + theta[:, None] * a, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    a_sorted = a[order]
    take = np.zeros_like(caps)
    for j in range(caps.shape[1]):
        m_j, a_j, cap = m_sorted[:, j], a_sorted[:, j], caps[:, j]
        by_bill = np.divide(
            bill_left, m_j, out=np.full_like(m_j, np.inf), where=m_j > 0.0
        )
        t = np.minimum(
            np.minimum(cap, demand_left), np.minimum(by_bill, power_left / a_j)
        )
        demand_left = np.maximum(demand_left - t, 0.0)
        bill_left = np.maximum(bill_left - m_j * t, 0.0)
        power_left = np.maximum(power_left - a_j * t, 0.0)
        over = np.where(
            penalized,
            np.minimum(
                np.minimum(cap - t, demand_left),
                bill_left / (m_j + penalty * a_j),
            ),
            0.0,
        )
        demand_left = np.maximum(demand_left - over, 0.0)
        bill_left = np.maximum(bill_left - (m_j + penalty * a_j) * over, 0.0)
        take[:, j] = t + over
    return LO + np.take_along_axis(take, np.argsort(order, axis=1), axis=1)


def _crossings(
    LO: np.ndarray, HI: np.ndarray, M: np.ndarray, a: np.ndarray,
    penalty: float,
) -> tuple[np.ndarray, ...]:
    """Pairwise crossings of the effective prices inside ``[0, penalty]``.

    Returns flat ``(row, i, j, theta)`` arrays, one entry per crossing
    of two fillable sites, and ``(row, theta)`` of the held fill just
    above each crossing: midway to the row's next crossing (or to
    ``penalty``), where the order differs from the one below it.
    """
    n = LO.shape[1]
    pi, pj = np.triu_indices(n, 1)
    keep = a[pi] != a[pj]
    pi, pj = pi[keep], pj[keep]
    theta = (M[:, pj] - M[:, pi]) / (a[pi] - a[pj])
    fill = HI > LO
    ok = fill[:, pi] & fill[:, pj] & (theta >= 0.0) & (theta <= penalty)
    cuts = np.sort(np.where(ok, theta, np.inf), axis=1)
    above = np.minimum(
        np.concatenate([cuts[:, 1:], np.full((LO.shape[0], 1), np.inf)], axis=1),
        penalty,
    )
    mid_row, k = np.nonzero(np.isfinite(cuts))
    row, p = np.nonzero(ok)
    return (
        row, pi[p], pj[p], theta[row, p],
        mid_row, 0.5 * (cuts[mid_row, k] + above[mid_row, k]),
    )


def _tied_pairs(
    LO: np.ndarray, HI: np.ndarray, M: np.ndarray, a: np.ndarray,
    fixed: np.ndarray, head: np.ndarray, i: np.ndarray, j: np.ndarray,
    theta: np.ndarray, demand: float, budget: float,
) -> np.ndarray:
    """The 2x2 points of tied pairs ``(i, j)`` at their crossing.

    Rows are one crossing each. Every other site sits at the bound its
    effective price puts it on; the pair takes what holds power at the
    headroom with, first, the budget row tight and, then, the demand
    row tight (the two blocks of the result, each clipped to the box).
    """
    k = np.arange(LO.shape[0])
    E = M + theta[:, None] * a
    lam = np.where(E < E[k, i][:, None], HI, LO)
    lam[k, i] = lam[k, j] = 0.0
    rest_power = head - lam @ a
    rest_bill = budget - fixed - (M * lam).sum(axis=1)
    rest_rate = demand - lam.sum(axis=1)
    a_i, a_j = a[i], a[j]
    out = []
    for r_i, r_j, rhs in ((M[k, i], M[k, j], rest_bill),
                          (1.0, 1.0, rest_rate)):
        det = a_i * r_j - a_j * r_i
        safe = np.where(det != 0.0, det, 1.0)
        point = lam.copy()
        point[k, i] = np.clip(
            (rest_power * r_j - a_j * rhs) / safe, LO[k, i], HI[k, i]
        )
        point[k, j] = np.clip(
            (a_i * rhs - r_i * rest_power) / safe, LO[k, j], HI[k, j]
        )
        # A singular pair only repeats the (admissible) lo point.
        out.append(np.where((det != 0.0)[:, None], point, LO))
    return np.concatenate(out)


def _dual_bound(
    LO: np.ndarray, HI: np.ndarray, M: np.ndarray, a: np.ndarray,
    fixed: np.ndarray, head: np.ndarray, lam: np.ndarray, theta: np.ndarray,
    demand: float, budget: float, weight: float,
) -> np.ndarray:
    """Per-row Lagrangian upper bound on the combination's LP optimum.

    With multipliers ``delta`` (demand row), ``mu`` (budget row) and
    ``nu = theta (weight + mu)`` (peak row, ``theta in [0, penalty]``),
    ``delta D + mu B - s F + nu H + sum_i max(r_i lo_i, r_i hi_i)`` with
    ``s = weight + mu`` and ``r_i = 1 - delta - s (m_i + theta a_i)``
    bounds the combination's optimum from above for any such choice.
    The multipliers are read off the row's point ``lam`` at its own
    ``theta``: a marginal site's effective price (the dearest filled
    one, the cheapest unfilled one) zeroes its reduced gain through
    ``delta`` (demand row tight) or ``mu`` (budget row tight), or no
    row is tight; the smallest of the five bounds is returned.
    """
    E = M + theta[:, None] * a
    e = np.stack([
        np.max(np.where(lam > LO + _FEAS_TOL, E, -np.inf), axis=1),
        np.min(np.where(lam < HI - _FEAS_TOL, E, np.inf), axis=1),
    ], axis=1)
    usable = np.isfinite(e) & (e > 0.0)
    e = np.where(usable, e, 1.0)
    w = np.full((e.shape[0], 1), weight)
    delta = np.concatenate([
        np.zeros_like(w),
        np.where(usable, np.maximum(1.0 - weight * e, 0.0), 0.0),
        np.zeros_like(e),
    ], axis=1)
    s = np.concatenate([
        w, np.broadcast_to(w, e.shape),
        np.where(usable, np.maximum(weight, 1.0 / e), weight),
    ], axis=1)
    r = 1.0 - delta[:, :, None] - s[:, :, None] * E[:, None, :]
    bound = (
        delta * demand + (s - weight) * budget - s * fixed[:, None]
        + (theta * head)[:, None] * s
        + np.maximum(r * LO[:, None, :], r * HI[:, None, :]).sum(axis=2)
    )
    return bound.min(axis=1)


def peak_fill(
    sites: list[SiteChoices], idx: np.ndarray, demand_scaled: float,
    budget: float, weight: float, peak_mw: float, penalty: float,
) -> tuple[int, np.ndarray, float, float, float] | str:
    """Exact budget-capped throughput fill under a demand charge.

    The hour's bill is ``energy + penalty * max(0, power - peak_mw)``.
    Returns ``(best_combo_row, lam_per_site, served, exact_energy_cost,
    peak_excess)``, or the bail reason: ``weight`` when some unit of
    rate would be unprofitable above the peak, ``infeasible`` when no
    combination is admissible, ``uncertified`` when the dual bound of
    some combination exceeds the answer by more than the tolerance.
    """
    if _unprofitable(sites, weight, penalty):
        return "weight"
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    a = np.array([sc.a for sc in sites])
    intercept = np.stack([
        np.where(np.asarray(sc.pos) >= 0, sc.b, 0.0)[idx[:, i]]
        for i, sc in enumerate(sites)
    ], axis=1).sum(axis=1)
    head = peak_mw - intercept  # room for sum(a_i lam_i) below the peak
    fixed = F.sum(axis=1)
    lo_power = LO @ a
    lo_bill = fixed + (M * LO).sum(axis=1) + penalty * np.maximum(
        lo_power - head, 0.0
    )
    feasible = (lo_bill <= budget + _FEAS_TOL) & (
        LO.sum(axis=1) <= demand_scaled + _FEAS_TOL
    )
    if not feasible.any():
        return "infeasible"
    combos = np.flatnonzero(feasible)
    LO, HI, M, fixed, head = (
        X[combos] for X in (LO, HI, M, fixed, head)
    )
    n_rows = combos.size

    # Candidate points, flat: held fill at theta = 0, penalized fill at
    # theta = penalty, held fill just above each crossing, then the two
    # 2x2 points of each tied pair.
    row, i, j, cross, mid_row, mid = _crossings(LO, HI, M, a, penalty)
    every = np.arange(n_rows)
    path_row = np.concatenate([every, every, mid_row])
    path_theta = np.concatenate(
        [np.zeros(n_rows), np.full(n_rows, penalty), mid]
    )
    penalized = np.zeros(path_row.size, dtype=bool)
    penalized[n_rows:2 * n_rows] = True
    paths = _path_fill(
        LO[path_row], HI[path_row], M[path_row], a, path_theta, penalized,
        np.maximum(budget - lo_bill[combos], 0.0)[path_row],
        np.maximum(demand_scaled - LO.sum(axis=1), 0.0)[path_row],
        np.maximum(head - lo_power[combos], 0.0)[path_row],
        penalty,
    )
    pairs = _tied_pairs(
        LO[row], HI[row], M[row], a, fixed[row], head[row], i, j, cross,
        demand_scaled, budget,
    )
    at = np.concatenate([path_row, row, row])
    lam = np.concatenate([paths, pairs])
    theta = np.concatenate([path_theta, cross, cross])

    served = lam.sum(axis=1)
    bill = fixed[at] + (M[at] * lam).sum(axis=1) + penalty * np.maximum(
        lam @ a - head[at], 0.0
    )
    admissible = (bill <= budget + _FEAS_TOL) & (
        served <= demand_scaled + _FEAS_TOL
    )
    value = np.where(admissible, served - weight * bill, -np.inf)
    best = int(np.argmax(value))
    # Each combination is bounded by the least of its points' bounds.
    bound = np.full(n_rows, np.inf)
    np.minimum.at(bound, at, _dual_bound(
        LO[at], HI[at], M[at], a, fixed[at], head[at], lam, theta,
        demand_scaled, budget, weight,
    ))
    if bound.max() > value[best] + _FEAS_TOL * max(1.0, abs(value[best])):
        return "uncertified"
    combo = int(combos[at[best]])
    lam = lam[best]
    power = sum(
        sc.a * float(lam[k]) + sc.b
        for k, sc in enumerate(sites) if sc.pos[idx[combo, k]] >= 0
    )
    return (
        combo, lam, float(lam.sum()), _exact_cost(sites, idx, combo, lam),
        max(0.0, power - peak_mw),
    )


def solve_throughput_max(
    entry, site_hours: list[SiteHour], demand_scaled: float, budget: float,
    step_margin_frac: float, weight: float, *,
    peak_mw: float | None = None, peak_penalty: float = 0.0,
) -> SolveResult | None:
    """Exact budget-capped throughput maximization (rates in Mrps).

    With ``peak_mw`` set and ``peak_penalty > 0`` the bill carries the
    demand-charge term (:func:`peak_fill`) and the solution vector the
    entry's ``peak_excess`` variable.
    """
    prep = _prepare(site_hours, step_margin_frac)
    if isinstance(prep, str):
        return _bail(prep)
    sites, idx = prep
    if peak_mw is not None and peak_penalty > 0.0:
        fill = peak_fill(
            sites, idx, demand_scaled, budget, weight, peak_mw, peak_penalty
        )
        if isinstance(fill, str):
            return _bail(fill)
        best, lam, served, exact_cost, excess = fill
        objective = float(
            served - weight * (exact_cost + peak_penalty * excess)
        )
        return _result(entry, sites, idx[best], lam, objective, excess)
    fill = throughput_max_fill(sites, idx, demand_scaled, budget, weight)
    if fill is None:
        return _bail("weight" if _unprofitable(sites, weight) else "infeasible")
    best, lam, served, exact_cost = fill
    # Objective exactly as the MILP prices it (user sense: maximize).
    objective = float(served - weight * exact_cost)
    return _result(entry, sites, idx[best], lam, objective)
