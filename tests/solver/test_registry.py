"""The solver-backend registry: round-trips, the dispatch flag, errors."""

import numpy as np
import pytest

from repro.solver import (
    Model,
    available_backends,
    backend_spec,
    get_backend,
    register_backend,
)
from repro.solver import registry
from repro.solver.registry import BackendSpec


@pytest.fixture(autouse=True)
def _restore_registry():
    """Drop the test backends each test registers, so none leaks out."""
    available_backends()  # load the builtins before taking the snapshot
    before = dict(registry._SPECS)
    yield
    registry._SPECS.clear()
    registry._SPECS.update(before)


class TestBuiltins:
    def test_builtin_names_present(self):
        assert available_backends() == (
            "branch-bound", "decomposition", "revised-simplex", "scipy",
            "simplex",
        )

    def test_capability_flags(self):
        assert backend_spec("decomposition").dispatch
        for name in ("scipy", "branch-bound", "simplex", "revised-simplex"):
            assert not backend_spec(name).dispatch, name

    def test_builtin_instances_solve(self):
        # Every model-level backend must honour integrality: the LP
        # relaxation of this knapsack peaks at 8.1667 with a = 0.833,
        # the binary optimum is a = 1, b = 0 with objective 5.
        m = Model("knapsack")
        a = m.binary("a")
        b = m.binary("b")
        m.add(6.0 * a + 4.0 * b <= 9.0)
        m.maximize(5.0 * a + 4.0 * b)
        names = [n for n in available_backends() if not backend_spec(n).dispatch]
        assert names
        for name in names:
            res = m.solve(backend=name, raise_on_failure=True)
            assert res.objective == pytest.approx(5.0), name
            assert res.value(a) == pytest.approx(1.0, abs=1e-9), name
            assert res.value(b) == pytest.approx(0.0, abs=1e-9), name


class TestRoundTrip:
    def test_register_and_resolve(self):
        calls = []

        class Dummy:
            def solve(self, sf):
                calls.append(sf)

        register_backend(
            "test-dummy-rt", lambda **kw: Dummy(),
            description="test only", replace=True,
        )
        spec = backend_spec("test-dummy-rt")
        assert isinstance(spec, BackendSpec)
        assert not spec.dispatch and spec.description == "test only"
        assert isinstance(get_backend("test-dummy-rt"), Dummy)
        # Fresh instance per get_backend call.
        assert get_backend("test-dummy-rt") is not get_backend("test-dummy-rt")
        assert "test-dummy-rt" in available_backends()

    def test_factory_kwargs_forwarded(self):
        register_backend(
            "test-dummy-kw", lambda tol=0.5, **kw: ("made", tol),
            replace=True,
        )
        assert get_backend("test-dummy-kw", tol=0.25) == ("made", 0.25)

    def test_duplicate_requires_replace(self):
        register_backend("test-dummy-dup", lambda **kw: None, replace=True)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("test-dummy-dup", lambda **kw: None)
        register_backend("test-dummy-dup", lambda **kw: 42, replace=True)
        assert get_backend("test-dummy-dup") == 42


class TestErrors:
    def test_unknown_backend_lists_names(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            backend_spec("no-such-engine")
        with pytest.raises(ValueError, match="scipy"):
            get_backend("no-such-engine")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", lambda **kw: None)
        with pytest.raises(ValueError):
            register_backend(None, lambda **kw: None)

    def test_bad_factory_rejected(self):
        with pytest.raises(TypeError):
            register_backend("test-dummy-bad", "not-callable")

    def test_dispatch_backend_rejected_by_model_solve(self):
        from repro.solver import ModelingError

        m = Model("t")
        x = m.var("x", ub=1.0)
        m.maximize(x)
        with pytest.raises(ModelingError, match="dispatch problems"):
            m.solve(backend="decomposition", raise_on_failure=True)

    def test_unknown_name_via_model_solve(self):
        from repro.solver import ModelingError

        m = Model("t")
        x = m.var("x", ub=1.0)
        m.maximize(x)
        with pytest.raises(ModelingError, match="unknown solver backend"):
            m.solve(backend="no-such-engine")
