"""The segment-enumeration kernel must match branch-and-bound and SciPy.

The kernel claims *exactness* on homogeneous-fleet hours: for every
combination of per-site segment/inactive choices the continuous
remainder is a boxed transportation problem whose greedy solution is
optimal. These tests drive randomized fleets through the hot path
(kernel enabled) and the cold SciPy path and require matching
objectives and served totals — per-site splits may differ at alternate
optima. Bail-out cases (piecewise power models) must transparently
fall through to the MILP.

Under a demand charge the throughput-max bill gains ``penalty *
max(0, power - peak)``; the kernel's peak fill is pinned against HiGHS
the same way, and a capped demand-charge week must run without a single
branch-and-bound solve.
"""

import numpy as np
import pytest

from repro.core import (
    CostMinimizer,
    DispatchModelCache,
    SiteHour,
    ThroughputMaximizer,
)
from repro.core.enum_kernel import MAX_COMBOS, solve_cost_min
from repro.datacenter import AffinePower
from repro.experiments import paper_world
from repro.powermarket import SteppedPricingPolicy
from repro.sim.engine import Engine
from repro.telemetry import Telemetry, use_telemetry

MARGIN = 0.01
BAIL_REASONS = (
    "piecewise", "coefficients", "weight", "combos", "infeasible",
    "uncertified",
)


def random_hours(rng, n_sites, piecewise=False):
    hours = []
    for i in range(n_sites):
        base = float(rng.uniform(5.0, 15.0))
        policy = SteppedPricingPolicy(
            f"s{i}",
            (float(rng.uniform(60.0, 140.0)), float(rng.uniform(150.0, 260.0))),
            (base, base * 2.0, base * 4.0),
        )
        slope = float(rng.uniform(0.3e-6, 0.8e-6))
        segments = None
        if piecewise:
            segments = ((1e7, slope * 0.5), (2e7, slope * 1.5))
        hours.append(
            SiteHour(
                name=f"s{i}",
                affine=AffinePower(slope, float(rng.uniform(0.0, 3.0))),
                policy=policy,
                background_mw=float(rng.uniform(10.0, 120.0)),
                power_cap_mw=float(rng.uniform(50.0, 1e4)),
                max_rate_rps=float(rng.uniform(0.5e7, 3e7)),
                power_segments=segments,
            )
        )
    return hours


def kernel_counts(tel):
    solved = tel.registry.counter("core.enum_kernel.solved").value
    bails = tel.registry.counter("core.enum_kernel.bail").value
    return solved, bails


def bail_reasons(tel):
    """Non-zero ``core.enum_kernel.bail.<reason>`` counters."""
    counts = {
        r: tel.registry.counter(f"core.enum_kernel.bail.{r}").value
        for r in BAIL_REASONS
    }
    return {r: v for r, v in counts.items() if v}


class TestCostMinEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(5)
        tel = Telemetry()
        hot = CostMinimizer()
        cold = CostMinimizer(backend="scipy")
        with use_telemetry(tel):
            for trial in range(40):
                hours = random_hours(rng, int(rng.integers(2, 5)))
                lam = float(rng.uniform(0.2, 0.9)) * sum(
                    sh.max_rate_rps for sh in hours
                )
                d_hot = hot.solve(hours, lam)
                d_cold = cold.solve(hours, lam)
                assert d_hot.predicted_cost == pytest.approx(
                    d_cold.predicted_cost, rel=1e-8, abs=1e-9
                )
                assert sum(
                    a.rate_rps for a in d_hot.allocations
                ) == pytest.approx(lam, rel=1e-9)
        solved, bails = kernel_counts(tel)
        assert solved >= 30  # the kernel, not the MILP, answered

    def test_piecewise_sites_bail_to_milp(self):
        rng = np.random.default_rng(6)
        tel = Telemetry()
        hot = CostMinimizer()
        cold = CostMinimizer(backend="scipy")
        with use_telemetry(tel):
            for _ in range(5):
                hours = random_hours(rng, 2, piecewise=True)
                lam = 0.4 * sum(sh.max_rate_rps for sh in hours)
                d_hot = hot.solve(hours, lam)
                d_cold = cold.solve(hours, lam)
                assert d_hot.predicted_cost == pytest.approx(
                    d_cold.predicted_cost, rel=1e-8
                )
        solved, bails = kernel_counts(tel)
        assert solved == 0 and bails == 5

    def test_kernel_can_be_disabled(self):
        tel = Telemetry()
        hot = CostMinimizer(model_cache=DispatchModelCache(use_enum_kernel=False))
        rng = np.random.default_rng(7)
        hours = random_hours(rng, 3)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        with use_telemetry(tel):
            hot.solve(hours, lam)
        solved, bails = kernel_counts(tel)
        assert solved == 0 and bails == 0


class TestThroughputMaxEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(8)
        tel = Telemetry()
        hot = ThroughputMaximizer()
        cold = ThroughputMaximizer(backend="scipy")
        with use_telemetry(tel):
            for trial in range(30):
                hours = random_hours(rng, int(rng.integers(2, 4)))
                offered = float(rng.uniform(0.3, 0.95)) * sum(
                    sh.max_rate_rps for sh in hours
                )
                anchor = CostMinimizer(backend="scipy").solve(hours, offered)
                budget = float(rng.uniform(0.4, 1.1)) * anchor.predicted_cost
                d_hot = hot.solve(hours, offered, budget)
                d_cold = cold.solve(hours, offered, budget)
                assert d_hot.served_total_rps == pytest.approx(
                    d_cold.served_total_rps, rel=1e-8, abs=1e-6
                )
                assert d_hot.predicted_cost <= budget * (1 + 1e-9)
        solved, _ = kernel_counts(tel)
        assert solved >= 20

    def test_tiny_budget_still_matches(self):
        rng = np.random.default_rng(9)
        hot = ThroughputMaximizer()
        cold = ThroughputMaximizer(backend="scipy")
        hours = random_hours(rng, 3)
        offered = 0.8 * sum(sh.max_rate_rps for sh in hours)
        d_hot = hot.solve(hours, offered, 10.0)
        d_cold = cold.solve(hours, offered, 10.0)
        assert d_hot.served_total_rps == pytest.approx(
            d_cold.served_total_rps, rel=1e-8, abs=1e-6
        )


class TestBailConditions:
    def test_combo_ceiling_bails(self):
        # 13 sites x 3+ choices each overflows MAX_COMBOS = 4096 only
        # beyond 7 sites (4^7 > 4096 with the inactive choice); verify
        # via the counter that large fleets run the MILP.
        rng = np.random.default_rng(10)
        tel = Telemetry()
        hot = CostMinimizer()
        hours = random_hours(rng, 13)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        with use_telemetry(tel):
            d = hot.solve(hours, lam)
        cold = CostMinimizer(backend="scipy").solve(hours, lam)
        assert d.predicted_cost == pytest.approx(cold.predicted_cost, rel=1e-8)
        solved, bails = kernel_counts(tel)
        assert solved + bails == 1

    def test_infeasible_demand_is_milps_problem(self):
        rng = np.random.default_rng(12)
        hours = random_hours(rng, 2)
        entry_stub = None
        # Demand beyond total capacity: the kernel must decline rather
        # than fabricate an answer.
        total = sum(sh.max_rate_rps for sh in hours) / 1e6
        assert solve_cost_min(entry_stub, hours, total * 2.0, MARGIN) is None

    def test_max_combos_is_sane(self):
        assert MAX_COMBOS >= 256

    def test_energy_only_bail_counts_its_reason(self):
        rng = np.random.default_rng(27)
        tel = Telemetry()
        hours = random_hours(rng, 2, piecewise=True)
        with use_telemetry(tel):
            ThroughputMaximizer().solve(
                hours, 0.5 * sum(sh.max_rate_rps for sh in hours), 1e4
            )
        assert kernel_counts(tel) == (0, 1)
        assert bail_reasons(tel) == {"piecewise": 1}


def peak_outcome(cache, hours, offered, budget, weight, peak_mw, penalty):
    """``(objective, served rps, bill)`` of one peak-term solve."""
    dm, res = cache.solve_throughput_max(
        hours, offered, budget, MARGIN, weight,
        peak_mw=peak_mw, peak_penalty=penalty,
    )
    power = sum(res.value(sv.power) for sv in dm.sites)
    energy = sum(res.value(sv.cost_expr) for sv in dm.sites)
    served = sum(sv.rate_rps(res) for sv in dm.sites)
    return res.objective, served, energy + penalty * max(0.0, power - peak_mw)


def peak_case(rng, hours, trial):
    """Offered load, budget, peak and penalty for one randomized case.

    The peak cycles through below the fleet's fixed intercept power
    (so the headroom left for rate is negative), inside the reachable
    power range and above it; budgets run from 5 % to 3x the
    unconstrained min-cost bill.
    """
    offered = float(rng.uniform(0.3, 0.95)) * sum(
        sh.max_rate_rps for sh in hours
    )
    anchor = CostMinimizer(backend="scipy").solve(hours, offered)
    fixed_mw = sum(sh.affine.intercept_mw for sh in hours)
    top_mw = sum(sh.max_power_mw for sh in hours)
    peak_mw = (
        float(rng.uniform(0.0, fixed_mw)),
        float(rng.uniform(fixed_mw, top_mw)),
        1.5 * top_mw,
    )[trial % 3]
    penalty = float(np.exp(rng.uniform(0.0, np.log(2000.0))))
    budget = float(rng.choice([0.05, 0.3, 0.7, 1.0, 3.0])) * float(
        rng.uniform(0.8, 1.2)
    ) * anchor.predicted_cost
    return offered, budget, peak_mw, penalty


class TestPeakTermEquivalence:
    """The demand-charge fill against HiGHS on the peak-row MILP.

    HiGHS stops at its own tolerances (primal feasibility ~1e-7,
    integrality ~1e-6), which a penalty of up to 2,000 $/MW or a
    segment edge can turn into an objective off by ~1e-6. Where HiGHS
    and the kernel differ by more than 1e-9 relative, HiGHS must still
    be within 1e-6, and the exact dense-simplex branch-and-bound on the
    same structure (no kernel) becomes the 1e-9 reference.
    """

    def check(self, hot, hours, offered, budget, weight, peak_mw, penalty):
        args = (hours, offered, budget, weight, peak_mw, penalty)
        obj, served, bill = peak_outcome(hot, *args)
        ref = peak_outcome(
            DispatchModelCache(use_enum_kernel=False, solver_backend="scipy"),
            *args,
        )
        if obj != pytest.approx(ref[0], rel=1e-9, abs=1e-9):
            assert obj == pytest.approx(ref[0], rel=1e-6)
            ref = peak_outcome(DispatchModelCache(use_enum_kernel=False), *args)
        ref_obj, ref_served, ref_bill = ref
        assert obj == pytest.approx(ref_obj, rel=1e-9, abs=1e-9)
        assert served == pytest.approx(ref_served, rel=1e-8, abs=1e-3)
        assert bill <= budget * (1 + 1e-9) + 1e-9
        if weight > 0.0:
            # The tie-break prices the bill, so the cheapest of the
            # maximum-throughput points is unique in bill.
            assert bill == pytest.approx(ref_bill, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_randomized_worlds_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        tel = Telemetry()
        hot = DispatchModelCache()
        with use_telemetry(tel):
            for trial in range(60):
                hours = random_hours(rng, int(rng.integers(2, 6)))
                offered, budget, peak_mw, penalty = peak_case(rng, hours, trial)
                weight = (0.0, 1e-6)[trial % 2]
                self.check(
                    hot, hours, offered, budget, weight, peak_mw, penalty
                )
        solved, bails = kernel_counts(tel)
        assert solved == 60 and bails == 0, bail_reasons(tel)

    @pytest.mark.parametrize(
        "offered, budget",
        [(4e7, 234.0), (1.8e7, 300.0)],
        ids=["budget-tight", "demand-tight"],
    )
    def test_tied_pair_at_a_crossing(self, offered, budget):
        # Site a is cheap per unit of energy but power-hungry, site b the
        # reverse, so their effective prices cross at theta = 8 $/MW.
        # With the peak at 11.4 MW and the budget (or the demand) tight,
        # the optimum (8 + 10 Mrps) has both sites fractional: only the
        # 2x2 point at the crossing reaches it.
        def site(name, slope, price):
            return SiteHour(
                name=name,
                affine=AffinePower(slope, 1.0),
                policy=SteppedPricingPolicy(
                    name, (1e6, 2e6), (price, 2 * price, 4 * price)
                ),
                background_mw=10.0,
                power_cap_mw=1e4,
                max_rate_rps=2e7,
            )

        hours = [site("a", 0.8e-6, 10.0), site("b", 0.3e-6, 40.0)]
        tel = Telemetry()
        with use_telemetry(tel):
            self.check(
                DispatchModelCache(), hours, offered, budget, 1e-6, 11.4, 2000.0
            )
            _, served, _ = peak_outcome(
                DispatchModelCache(), hours, offered, budget, 1e-6, 11.4,
                2000.0,
            )
        assert served == pytest.approx(1.8e7, rel=1e-12)
        assert kernel_counts(tel) == (2, 0)

    def test_piecewise_site_bails_and_agrees(self):
        rng = np.random.default_rng(24)
        tel = Telemetry()
        hot = DispatchModelCache()
        with use_telemetry(tel):
            for trial in range(3):
                hours = random_hours(rng, 2, piecewise=True)
                offered, budget, peak_mw, penalty = peak_case(rng, hours, trial)
                self.check(hot, hours, offered, budget, 1e-6, peak_mw, penalty)
        assert kernel_counts(tel) == (0, 3)
        assert bail_reasons(tel) == {"piecewise": 3}

    def test_unprofitable_rate_above_peak_bails_and_agrees(self):
        # w (m + penalty a) >= 1: a unit of rate above the peak costs
        # more objective than it earns, so the greedy order is invalid.
        rng = np.random.default_rng(25)
        tel = Telemetry()
        hot = DispatchModelCache()
        hours = random_hours(rng, 3)
        offered, budget, _, _ = peak_case(rng, hours, 1)
        fixed_mw = sum(sh.affine.intercept_mw for sh in hours)
        with use_telemetry(tel):
            self.check(hot, hours, offered, budget, 1e-2, fixed_mw, 2000.0)
        assert kernel_counts(tel) == (0, 1)
        assert bail_reasons(tel) == {"weight": 1}

    def test_combo_ceiling_bails_and_agrees(self):
        rng = np.random.default_rng(26)
        tel = Telemetry()
        hot = DispatchModelCache()
        hours = random_hours(rng, 13)
        offered, budget, peak_mw, penalty = peak_case(rng, hours, 1)
        with use_telemetry(tel):
            self.check(hot, hours, offered, budget, 1e-6, peak_mw, penalty)
        assert kernel_counts(tel) == (0, 1)
        assert bail_reasons(tel) == {"combos": 1}


class TestDemandChargeWeek:
    """A capped paper-world week under a demand charge never reaches
    branch-and-bound, and decides every hour as the MILP does."""

    TARIFF = "energy+demand:rate=0.5,cycle=72"
    HOURS = 168

    def run(self, kernel: bool, monkeypatch):
        monkeypatch.setattr(
            DispatchModelCache, "default_use_enum_kernel", kernel
        )
        world = paper_world(1, seed=101)
        engine = Engine(world.sites, world.workload, world.mix)
        anchor = engine.run("capping", tariff="energy", hours=self.HOURS)
        budget = 0.85 * sum(h.realized_cost for h in anchor.hours)
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                "capping", budgeter=world.budgeter(budget),
                tariff=self.TARIFF, hours=self.HOURS,
            )
        return result, tel

    def test_kernel_answers_every_solve_and_matches_milp(self, monkeypatch):
        result, tel = self.run(True, monkeypatch)
        count = lambda name: tel.registry.counter(name).value
        cache_solves = count("core.model_cache.hit") + count(
            "core.model_cache.miss"
        )
        assert cache_solves > 0
        assert count("core.enum_kernel.solved") == cache_solves
        assert count("solver.branch-bound.solves") == 0

        reference, ref_tel = self.run(False, monkeypatch)
        assert ref_tel.registry.counter("solver.branch-bound.solves").value > 0
        assert len(result.hours) == len(reference.hours) == self.HOURS
        for got, want in zip(result.hours, reference.hours):
            assert got.step is want.step
            assert got.predicted_cost == pytest.approx(
                want.predicted_cost, rel=1e-6
            )
