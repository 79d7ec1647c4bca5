"""Pluggable solver-backend registry (the pyomo ``SolverFactory`` pattern).

Every MILP engine the repo runs — SciPy/HiGHS, the own
branch-and-bound over HiGHS LP nodes or either simplex, and the
dual-decomposition dispatch path — is a named factory here, exactly as
dispatch strategies are named factories in :mod:`repro.sim.registry`.
All entry points (``Model.solve``, the compiled-model caches, ``repro
run --solver-backend``, ``repro serve --solver-backend``, ``repro
solvers``) resolve backends through this module, so adding an engine is
one :func:`register_backend` call instead of an ``if/elif`` chain per
call site.

Every built-in backend solves mixed-integer programs exactly. One
flag tells callers what they can hand it:

``dispatch``
    Operates on the *dispatch problem* (site hours) rather than a
    compiled :class:`~repro.solver.model.StandardForm`; such backends
    cannot be passed to ``Model.solve`` and are resolved by the
    optimizers in :mod:`repro.core` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_spec",
    "available_backends",
]


@dataclass(frozen=True)
class BackendSpec:
    """One registered solver backend: factory plus its ``dispatch`` flag."""

    name: str
    factory: Callable[..., object]
    dispatch: bool = False
    description: str = ""

    def make(self, **kwargs) -> object:
        """A fresh backend instance (kwargs go to the factory)."""
        return self.factory(**kwargs)


_SPECS: dict[str, BackendSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Register the built-in backends exactly once, lazily.

    Lazy so that importing :mod:`repro.solver` stays cheap and so the
    decomposition entry (which lives in :mod:`repro.core`, a package
    that imports this one) can be declared without a circular import:
    its factory only touches ``repro.core`` when actually called.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True

    def scipy_factory(**kw):
        from .scipy_backend import ScipyBackend

        return ScipyBackend(**kw)

    def branch_bound_factory(**kw):
        from .branch_bound import BranchBoundSolver

        return BranchBoundSolver(**kw)

    def simplex_factory(**kw):
        from .branch_bound import BranchBoundSolver
        from .simplex import SimplexSolver

        return BranchBoundSolver(lp_solver=SimplexSolver(), **kw)

    def revised_simplex_factory(**kw):
        from .branch_bound import BranchBoundSolver
        from .revised_simplex import RevisedSimplexSolver

        return BranchBoundSolver(lp_solver=RevisedSimplexSolver(), **kw)

    def decomposition_factory(**kw):
        from ..core.decomposition import DecompositionSolver

        return DecompositionSolver(**kw)

    register_backend(
        "scipy", scipy_factory,
        description="SciPy HiGHS (milp/linprog); the external reference",
    )
    register_backend(
        "branch-bound", branch_bound_factory,
        description="own best-first B&B over HiGHS LP nodes",
    )
    register_backend(
        "simplex", simplex_factory,
        description="own B&B over the dense-tableau NumPy simplex",
    )
    register_backend(
        "revised-simplex", revised_simplex_factory,
        description="own B&B over the sparse-pricing revised simplex "
        "(factorized basis; built for 100+ site fleets)",
    )
    register_backend(
        "decomposition", decomposition_factory, dispatch=True,
        description="dual decomposition across market regions "
        "(exact region subproblems, gap-checked, monolithic fallback)",
    )


def register_backend(
    name: str,
    factory: Callable[..., object],
    *,
    dispatch: bool = False,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``factory(**kwargs)`` must return a fresh backend object — for
    standard-form backends, anything with ``solve(StandardForm) ->
    SolveResult``. Re-registering an existing name raises unless
    ``replace=True``, mirroring :func:`repro.sim.registry.
    register_strategy`.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    _ensure_builtins()
    if name in _SPECS and not replace:
        raise ValueError(
            f"solver backend {name!r} is already registered; pass "
            "replace=True to override it"
        )
    _SPECS[name] = BackendSpec(
        name=name,
        factory=factory,
        dispatch=dispatch,
        description=description,
    )


def backend_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name``.

    Raises :class:`ValueError` listing the registered names when the
    name is unknown — the message every CLI entry point surfaces.
    """
    _ensure_builtins()
    spec = _SPECS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown solver backend {name!r}; expected one of "
            f"{available_backends()}"
        )
    return spec


def get_backend(name: str, **kwargs) -> object:
    """A fresh backend instance for ``name`` (kwargs to the factory)."""
    return backend_spec(name).make(**kwargs)


def available_backends() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_SPECS))
