"""The sparse revised simplex must agree with the dense tableau engine."""

import numpy as np
import pytest

from repro.solver import (
    Model,
    RevisedSimplexSolver,
    SimplexSolver,
    SolveStatus,
    lp_solver_for_size,
)
from repro.solver.model import StandardForm
from repro.solver.revised_simplex import RevisedWarmBasis
from repro.telemetry import Telemetry, use_telemetry


def _sf(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    return StandardForm(c, A_ub, b_ub, A_eq, b_eq, lb, ub, np.zeros(n, dtype=bool))


def _random_lp(rng, n, m):
    """A bounded random LP (finite box keeps it bounded regardless of c)."""
    return _sf(
        c=rng.normal(size=n),
        A_ub=rng.normal(size=(m, n)),
        b_ub=rng.uniform(1.0, 5.0, size=m),
        ub=rng.uniform(0.5, 4.0, size=n),
    )


class TestAgainstDense:
    def test_textbook_max(self):
        sf = _sf(c=[-3, -5], A_ub=[[1, 0], [0, 2], [3, 2]], b_ub=[4, 12, 18])
        r = RevisedSimplexSolver().solve(sf)
        assert r.ok
        assert r.objective == pytest.approx(-36.0)
        assert r.x == pytest.approx([2.0, 6.0])

    def test_randomized_lps_match(self):
        rng = np.random.default_rng(3)
        dense = SimplexSolver()
        revised = RevisedSimplexSolver()
        for trial in range(25):
            sf = _random_lp(rng, int(rng.integers(3, 20)),
                            int(rng.integers(2, 15)))
            rd = dense.solve(sf)
            rr = revised.solve(sf)
            assert rr.status is rd.status
            if rd.ok:
                assert rr.objective == pytest.approx(
                    rd.objective, rel=1e-7, abs=1e-7
                )

    def test_infeasible_and_unbounded(self):
        r = RevisedSimplexSolver().solve(
            _sf(c=[1], A_eq=[[1]], b_eq=[5], ub=[2])
        )
        assert r.status is SolveStatus.INFEASIBLE
        r = RevisedSimplexSolver().solve(_sf(c=[-1]))
        assert r.status is SolveStatus.UNBOUNDED

    def test_duals_match_dense(self):
        sf = _sf(c=[-3, -5], A_ub=[[1, 0], [0, 2], [3, 2]], b_ub=[4, 12, 18])
        rd = SimplexSolver().solve(sf)
        rr = RevisedSimplexSolver().solve(sf)
        assert rr.duals_ub == pytest.approx(rd.duals_ub, abs=1e-8)


class TestWarmStart:
    def test_warm_basis_reused_across_rhs_changes(self):
        rng = np.random.default_rng(5)
        solver = RevisedSimplexSolver()
        sf = _random_lp(rng, 12, 8)
        tel = Telemetry()
        with use_telemetry(tel):
            res, warm = solver.solve_warm(sf, warm=None)
            assert res.ok and isinstance(warm, RevisedWarmBasis)
            sf2 = StandardForm(
                sf.c, sf.A_ub, sf.b_ub * 1.05, sf.A_eq, sf.b_eq,
                sf.lb, sf.ub, sf.integrality,
            )
            res2, warm2 = solver.solve_warm(sf2, warm=warm)
        assert res2.ok
        cold = SimplexSolver().solve(sf2)
        assert res2.objective == pytest.approx(cold.objective, rel=1e-8)
        reused = tel.registry.counter(
            "solver.revised-simplex.warm.reused"
        ).value
        fallback = tel.registry.counter(
            "solver.revised-simplex.warm.fallback"
        ).value
        assert reused + fallback >= 1

    def test_telemetry_counters_recorded(self):
        rng = np.random.default_rng(9)
        sf = _random_lp(rng, 15, 10)
        tel = Telemetry()
        with use_telemetry(tel):
            # refactor_every=1 refreshes the basis inverse on every
            # pivot, so both counters must fire even on a short solve.
            RevisedSimplexSolver(refactor_every=1).solve(sf)
        reg = tel.registry
        assert reg.counter("solver.revised-simplex.refactorizations").value >= 1
        assert reg.counter("solver.revised-simplex.pricing_passes").value >= 1


class TestSizeSelection:
    def test_small_problems_stay_dense(self):
        assert isinstance(lp_solver_for_size(20, 30), SimplexSolver)
        assert not isinstance(lp_solver_for_size(20, 30), RevisedSimplexSolver)

    def test_large_problems_go_revised(self):
        assert isinstance(lp_solver_for_size(3000, 4000), RevisedSimplexSolver)

    def test_cell_limit_override(self):
        assert isinstance(
            lp_solver_for_size(5, 5, cell_limit=10), RevisedSimplexSolver
        )

    def test_in_milp_stack(self):
        # The revised engine must be usable as the B&B's LP oracle.
        m = Model("t")
        x = m.binary("x")
        y = m.var("y", ub=3.0)
        m.add(2.0 * x + y <= 4.0)
        m.maximize(3.0 * x + y)
        from repro.solver import BranchBoundSolver

        res = m.solve(
            backend=BranchBoundSolver(lp_solver=RevisedSimplexSolver()),
            raise_on_failure=True,
        )
        assert res.objective == pytest.approx(5.0)
        assert res.x[0] == pytest.approx(1.0)
