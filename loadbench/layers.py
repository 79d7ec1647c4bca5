"""Per-layer metrics of a traced run, named after the program's modules.

Each metric comes from the benchmark's own spans (see :mod:`spans`), the
program's telemetry counters, or a workload-specific figure passed in
``extra`` (the shard barrier and read-model numbers). Every metric is
reported on every workload; a layer a workload never enters reads 0,
which is itself the prediction (e.g. ``bb.solves`` on ``sharded``).
Times are host-corrected milliseconds: per engine hour for the engine
stages, per call elsewhere.
"""

from __future__ import annotations

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("engine.observe_ms", "ms/hour"),
    ("engine.budget_ms", "ms/hour"),
    ("engine.dispatch_ms", "ms/hour"),
    ("engine.realize_ms", "ms/hour"),
    ("engine.settle_ms", "ms/hour"),
    ("capper.decide_ms", "ms/call"),
    ("model_cache.solve_self_ms", "ms/call"),
    ("model_cache.hit_ratio", "ratio"),
    ("enum_kernel.prep_ms", "ms/call"),
    ("enum_kernel.solve_ms", "ms/call"),
    ("enum_kernel.answer_ratio", "ratio"),
    ("bb.solves", "count"),
    ("bb.nodes", "count"),
    ("bb.self_ms", "ms/call"),
    ("simplex.lps", "count"),
    ("simplex.iterations", "count"),
    ("simplex.ms", "ms/call"),
    ("simplex.warm_ratio", "ratio"),
    ("solver.fallbacks", "count"),
    ("ledger.accrue_calls", "count"),
    ("ledger.accrue_ms", "ms/call"),
    ("ledger.settle_ms", "ms/call"),
    ("sitebank.ms", "ms/call"),
    ("curvebank.ms", "ms/call"),
    ("local_optimizer.ms", "ms/call"),
    ("erlang_cache.hit_ratio", "ratio"),
    ("loop.ticks", "count"),
    ("loop.decisions", "count"),
    ("loop.trigger_ratio", "ratio"),
    ("loop.on_tick_self_ms", "ms/call"),
    ("event.encode_ms", "ms/call"),
    ("shard.rounds", "count"),
    ("shard.round_ms", "ms/call"),
    ("shard.barrier_wait_ms", "ms/call"),
    ("shard.worker_busy_frac", "ratio"),
    ("shard.region_skew", "ratio"),
    ("shard.merge_ms", "ms/call"),
    ("readmodel.publish_ms", "ms/call"),
    ("readmodel.dropped", "count"),
    ("trace.overhead_frac", "ratio"),
)

STAGES = ("observe", "budget", "dispatch", "realize", "settle")


def telemetry_counts(registry_dicts) -> dict[str, float]:
    """Counter values and histogram totals/counts from a registry dump."""
    out: dict[str, float] = {}
    for m in registry_dicts:
        if m["type"] == "counter":
            out[m["name"]] = out.get(m["name"], 0.0) + m["value"]
        elif m["type"] == "histogram":
            for key in ("total", "count"):
                name = f"{m['name']}.{key}"
                out[name] = out.get(name, 0.0) + m[key]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: dict, counts: dict, *, hours: int, factor: float,
              extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from spans, counters and ``extra``."""
    def row(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                              "parents": {}})

    def ms(seconds):
        return seconds * 1e3 / factor

    def per_call(name, key="total_s"):
        r = row(name)
        return _ratio(ms(r[key]), r["calls"])

    def c(name):
        return counts.get(name, 0.0)

    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"engine.{stage}_ms"] = _ratio(ms(row(f"engine.{stage}")["self_s"]), hours)
    cache_solves = c("core.model_cache.hit") + c("core.model_cache.miss")
    kernel = row("enum_kernel.solve")
    prep_under_kernel = row("enum_kernel.prep")["parents"].get(
        "enum_kernel.solve", {"total_s": 0.0}
    )["total_s"]
    lps = c("solver.simplex.solves") + c("solver.revised-simplex.solves")
    ticks = row("loop.on_tick")["calls"]
    decisions = c("service.dispatches")
    erlang = c("datacenter.erlang_cache.hit") + c("datacenter.erlang_cache.miss")
    out.update({
        "capper.decide_ms": per_call("capper.decide"),
        "model_cache.solve_self_ms": per_call("model_cache.solve", "self_s"),
        "model_cache.hit_ratio": _ratio(c("core.model_cache.hit"), cache_solves),
        "enum_kernel.prep_ms": _ratio(ms(prep_under_kernel), kernel["calls"]),
        "enum_kernel.solve_ms": per_call("enum_kernel.solve", "self_s"),
        "enum_kernel.answer_ratio": _ratio(c("core.enum_kernel.solved"), cache_solves),
        "bb.solves": c("solver.branch-bound.solves"),
        "bb.nodes": c("solver.branch-bound.nodes.total"),
        "bb.self_ms": per_call("bb.solve", "self_s"),
        "simplex.lps": lps,
        "simplex.iterations": (
            c("solver.simplex.iterations.total")
            + c("solver.revised-simplex.iterations.total")
        ),
        "simplex.ms": per_call("simplex.lp"),
        "simplex.warm_ratio": _ratio(
            c("solver.simplex.warm.reused") + c("solver.revised-simplex.warm.reused"),
            lps,
        ),
        "solver.fallbacks": (
            c("core.model_cache.fallback") + c("solver.fallback.failovers")
        ),
        "ledger.accrue_calls": row("ledger.accrue")["calls"],
        "ledger.accrue_ms": per_call("ledger.accrue"),
        "ledger.settle_ms": per_call("ledger.settle"),
        "sitebank.ms": per_call("sitebank"),
        "curvebank.ms": per_call("curvebank"),
        "local_optimizer.ms": per_call("local_optimizer"),
        "erlang_cache.hit_ratio": _ratio(c("datacenter.erlang_cache.hit"), erlang),
        "loop.ticks": ticks,
        "loop.decisions": decisions,
        "loop.trigger_ratio": _ratio(decisions, ticks),
        "loop.on_tick_self_ms": per_call("loop.on_tick", "self_s"),
        "event.encode_ms": per_call("event.encode"),
        "shard.rounds": row("shard.round")["calls"],
        "shard.round_ms": per_call("shard.round"),
        "shard.barrier_wait_ms": 0.0,
        "shard.worker_busy_frac": 0.0,
        "shard.region_skew": 0.0,
        "shard.merge_ms": per_call("shard.merge"),
        "readmodel.publish_ms": per_call("readmodel.publish"),
        "readmodel.dropped": 0.0,
        "trace.overhead_frac": 0.0,
    })
    out.update(extra)
    missing = {name for name, _unit in PER_LAYER} ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    return out
