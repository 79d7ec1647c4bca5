#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 loadbench/run.py --workload {month-demand,sharded} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the same untraced measurement, then a traced run that wraps each
layer's public functions from this directory and reads the program's
telemetry counters, and reports the per-layer metrics plus the tracing
overhead. Every timing is divided by the host factor measured next to
it (see ``hostref.py``); the detail block printed before the result
keeps the raw value and the effective factor beside each corrected one.
The last line of standard output is the result object.

See ``README.md`` beside this file for the workloads and the metrics,
and for why the single-loop ``storm`` workload was dropped.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``setup_s`` is the median of IMPORT_REPS program imports (this
#: process's, then fresh interpreters') plus the median of SETUP_REPS
#: workload set-ups, each corrected by the reference timed after it.
IMPORT_REPS = 3
SETUP_REPS = 3
SETUP_CAL_REPS = 10
PROGRAM_MODULES = ("repro.experiments", "repro.service", "repro.sim.engine")

END_TO_END = (
    ("setup_s", "s"),
    ("hours_per_s", "h/s"),
    ("hour_ms_p50", "ms"),
    ("hour_ms_p95", "ms"),
    ("decisions_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("served_frac", "ratio"),
    ("usd_per_m_served", "USD/Mreq"),
    ("peak_rss_mb", "MB"),
)

WORKLOADS = ("month-demand", "sharded")


def _workload(name: str):
    if name == "month-demand":
        import month_demand as mod
    else:
        import sharded as mod
    return mod


def _git_commit() -> str | None:
    """The checkout's commit from ``.git`` files, if it is a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def timing(spec) -> dict:
    """Corrected value, raw value and effective factor of a timing spec.

    ``("rate", count, pairs)`` is ``count`` per corrected second of the
    ``(raw_seconds, factor)`` pairs; ``("q", pairs, q)`` is the median
    (``q == 0.5``) or the tail percentile of the corrected samples, in ms.
    """
    import summary

    kind = spec[0]
    if kind == "rate":
        count, pairs = spec[1], spec[2]
        raw_s = sum(raw for raw, _f in pairs)
        cor_s = sum(raw / f for raw, f in pairs)
        return {"value": count / cor_s, "raw": count / raw_s,
                "factor": raw_s / cor_s, "n": count}
    pairs, q = spec[1], spec[2]
    raw = [r for r, _f in pairs]
    cor = [r / f for r, f in pairs]
    if q == 0.5:
        value, raw_v, q_used, beyond = (
            statistics.median(cor), statistics.median(raw), 0.5, None
        )
    else:
        t = summary.tail(cor, q)
        value, q_used, beyond = t["value"], t["q"], t["beyond"]
        raw_v = summary.tail(raw, q)["value"]
    return {"value": value * 1e3, "raw": raw_v * 1e3, "factor": raw_v / value,
            "n": len(pairs), "q": q_used, "beyond": beyond}


def _environment(host) -> dict:
    import numpy

    return {
        **host.describe(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def _child_import(src: pathlib.Path) -> float:
    """Corrected import seconds measured in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "t0 = time.perf_counter()\n"
        f"import {', '.join(PROGRAM_MODULES)}\n"
        "raw = time.perf_counter() - t0\n"
        "import hostref\n"
        "print(raw / hostref.factor_from(hostref.time_reference(10)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def _per_layer(wl, world, host, measured) -> tuple[dict, dict]:
    """The traced run: per-layer metrics and the span/counter detail."""
    import layers
    import spans
    import summary

    recorder = spans.SpanRecorder()
    traced = wl.trace(world, recorder, host)
    agg = summary.merge_aggregates(
        [summary.aggregate(recorder.spans), *traced.get("worker_aggs", [])]
    )
    counts = layers.telemetry_counts(traced["telemetry"])
    extra = dict(traced["extra"])
    extra["trace.overhead_frac"] = traced["unit_s"] / measured["unit_s"] - 1.0
    values = layers.per_layer(
        agg, counts, hours=traced["hours"], factor=traced["factor"], extra=extra
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in layers.PER_LAYER
    }
    detail = {
        "spans": {
            name: {k: row[k] for k in ("calls", "total_s", "self_s")}
            for name, row in sorted(agg.items())
        },
        "telemetry": counts,
    }
    return metrics, detail


def run(args) -> tuple[dict, dict]:
    """Measure one workload; return ``(result, detail)``."""
    from hostref import HostClock

    host = HostClock()
    t0 = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - t0
    wl = _workload(args.workload)

    host.calibrate(SETUP_CAL_REPS)
    imports = [import_s / host.samples[0]]
    if not args.trace:
        imports += [_child_import(ROOT / "src") for _ in range(IMPORT_REPS - 1)]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPS):
        world = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        t0 = time.perf_counter()
        world = wl.setup(args.seed, args.seconds)
        raw = time.perf_counter() - t0
        point = host.calibrate(SETUP_CAL_REPS)
        setups.append(raw / host.slot_factor(point - 1))

    measured = wl.measure(world, args.seconds, host)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "checks": measured["checks"],
        "notes": measured["notes"],
        "wrong": measured["wrong"],
    }
    result = {
        "correct": not measured["wrong"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {},
    }
    if args.trace:
        result["metrics"], traced_detail = _per_layer(wl, world, host, measured)
        detail.update(traced_detail)
    else:
        metrics = {
            name: timing(spec) for name, spec in measured["timings"].items()
        }
        metrics["setup_s"] = {
            "value": statistics.median(imports) + statistics.median(setups),
            "raw_import_s": import_s,
            "import_reps_s": imports,
            "setup_reps_s": setups,
        }
        for name in ("served_frac", "usd_per_m_served"):
            metrics[name] = {"value": measured[name]}
        metrics["peak_rss_mb"] = {"value": measured["peak_rss_mb"]}
        detail["metrics"] = {name: metrics[name] for name, _u in END_TO_END}
        detail["detail_metrics"] = {
            name: timing(spec)
            for name, spec in measured.get("detail_timings", {}).items()
        }
        result["metrics"] = {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in END_TO_END
        }
    detail["environment"] = _environment(host)
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"loadbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, detail = run(args)
    print(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
