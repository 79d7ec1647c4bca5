"""Outside-in spans for the traced run, recorded from the benchmark's files.

The program is not edited: :class:`SpanRecorder` replaces a layer's
public function with a timing wrapper by ``setattr`` on the module or
class the program looks it up on at call time, and puts the original
back on :meth:`SpanRecorder.restore`. Engine stages are spanned through
the public ``Engine.run(middleware=...)`` hook instead
(:func:`stage_middleware`). Spans stay in memory as ``(span_id,
parent_id, name, t0, t1)`` tuples; the parent is the innermost wrapped
call open on the same thread.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

#: Layer boundaries spanned in every traced run: (module path, owner
#: attribute or None for the module itself, function names, span name).
LAYER_FUNCTIONS = (
    ("repro.core.bill_capper", "BillCapper", ("decide",), "capper.decide"),
    ("repro.core.model_cache", "DispatchModelCache",
     ("solve_cost_min", "solve_throughput_max"), "model_cache.solve"),
    ("repro.core.enum_kernel", None,
     ("solve_cost_min", "solve_throughput_max"), "enum_kernel.solve"),
    ("repro.core.enum_kernel", None,
     ("site_choices", "combo_index"), "enum_kernel.prep"),
    ("repro.solver.branch_bound", "BranchBoundSolver", ("solve",), "bb.solve"),
    # RevisedSimplexSolver inherits both entry points, so this covers it.
    ("repro.solver.simplex", "SimplexSolver", ("solve", "solve_warm"),
     "simplex.lp"),
    ("repro.billing.ledger", "SettlementLedger", ("accrue",), "ledger.accrue"),
    ("repro.billing.ledger", "SettlementLedger", ("settle",), "ledger.settle"),
    ("repro.datacenter.batched", "SiteBank",
     ("provision_arrays", "provisioning", "response_time"), "sitebank"),
    ("repro.powermarket.curves", "CurveBank", ("site_price",), "curvebank"),
    ("repro.datacenter.local_optimizer", "LocalOptimizer", ("decide",),
     "local_optimizer"),
    ("repro.service.controller", "ControlLoop", ("on_tick",), "loop.on_tick"),
    ("repro.service.controller", "DecisionEvent", ("to_json",), "event.encode"),
    ("repro.service.shard", "ShardCoordinator", ("_on_round",), "shard.round"),
    ("repro.service.shard", None, ("merge_region_logs",), "shard.merge"),
    ("repro.service.readmodel", "DecisionReadModel", ("publish",),
     "readmodel.publish"),
)


class Patches:
    """``setattr`` replacements of program functions, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        original = getattr(owner, attr)
        self._undo.append(
            (owner, attr, owner.__dict__[attr] if own else original, own)
        )
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the override to expose the base again
                delattr(owner, attr)


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = Patches()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a spanned call of the original."""
        span = self.span

        def make(original):
            def spanned(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)

            return spanned

        self._patches.patch(owner, attr, make)

    def install_layers(self) -> None:
        """Wrap every boundary in :data:`LAYER_FUNCTIONS`."""
        import importlib

        for module_name, owner_name, attrs, span_name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                self.wrap(owner, attr, span_name)

    def restore(self) -> None:
        """Put every wrapped original back, newest first."""
        self._patches.restore()


def stage_middleware(recorder: SpanRecorder):
    """Engine ``StageMiddleware`` opening one ``engine.<stage>`` span each."""
    from repro.sim.engine import StageMiddleware

    class _StageSpans(StageMiddleware):
        def stage(self, name, ctx, state):
            return recorder.span(f"engine.{name}")

    return _StageSpans()
