"""``sharded``: the multi-process control plane behind its hour barrier.

Why: it drives ``service.controller`` as many one-site loops behind
an hourly two-phase budget barrier, with decision events sent over
pipes, a read model in the front process and a merge of the region
logs. ``served_frac`` and ``usd_per_m_served``
carry the capacity-share penalty of splitting the fleet into regions.

The real ``ShardedControlPlane`` runs with :data:`WORKERS` worker
processes and HTTP off over ``scaled_paper_world(12)`` (12 one-site
regions), bursty ticks at 60 per simulated hour, the ``energy`` tariff
and a fixed $500k per site per month. Workers run free and the
coordinator writes its checkpoint at every barrier, as ``repro serve
--workers N --checkpoint`` does. One plane covers :data:`PLANE_HOURS`
simulated hours. A run measures a number of planes fixed by
``--seconds`` alone (:func:`planes_for`), not by a deadline, so every
run on any host holds the same barrier hours and reports the same
tail percentile.

Each worker times the host reference at every barrier, before it
reports to the coordinator, while none of its own work is in flight.
A barrier-to-barrier hour is the time between two round releases in the
front, less the reference time of the worker whose report closed the
round. A worker's calibration points are a :class:`hostref.HostClock`
of their own: work after the worker's ``k``-th barrier lies in slot
``k - 1``. Worker-side figures reach the front as one JSON file per worker,
written when the worker's entry function returns.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import os
import pathlib
import resource
import shutil
import time
from dataclasses import dataclass

import checks
import hostref
import summary
from spans import Patches

SITES = 12
WORKERS = 2
PLANE_HOURS = 24
TICKS_PER_HOUR = 60
BUDGET_PER_SITE = 500_000.0
CAL_REPS = 3
#: A run measures one plane per this many of its ``--seconds``: three
#: at 15 s, 72 barrier hours. With two planes the timing spread between
#: seeds reached 0.10, with three at most 0.08. A plane takes about 7 s
#: on the nominal host, so a run takes ~1.4x its seconds.
SECONDS_PER_PLANE = 5.0
#: Scratch space for decision logs and worker reports, inside the
#: checkout and removed when the run ends.
RUN_ROOT = pathlib.Path(__file__).resolve().parent.parent / ".loadbench-run"


def spec_for(seed: int) -> dict:
    names = [f"DC{i + 1}" for i in range(SITES)]
    return {
        "world": {"kind": "scaled", "sites": SITES, "policy": 1, "seed": seed},
        "source": {
            "kind": "bursty", "ticks_per_hour": TICKS_PER_HOUR,
            "hours": PLANE_HOURS, "seed": seed, "ca2": 6.0,
            "price_jitter": 0.04, "sites": names,
        },
        "strategy": "capping",
        "tariff": "energy",
        "trigger": {
            "lambda_delta": 0.02, "price_delta": 0.02,
            "debounce_s": 60.0, "max_staleness_s": 900.0,
        },
        "degradation": None,
        "horizon": PLANE_HOURS,
        "monthly_budget": BUDGET_PER_SITE * SITES,
    }


def planes_for(seconds: float) -> int:
    """Planes a run of ``seconds`` measures, whatever the host's speed."""
    return max(1, round(seconds / SECONDS_PER_PLANE))


@dataclass
class World:
    spec: dict
    plane: object  # the first plane to run, built during set-up
    run_dir: pathlib.Path


def _new_plane(spec: dict, plane_dir: pathlib.Path):
    from repro.service import ShardedControlPlane

    return ShardedControlPlane(
        spec, workers=WORKERS, decision_log=plane_dir / "merged.jsonl",
        checkpoint_path=plane_dir / "checkpoint.json",
        http=False, handle_signals=False,
    )


def setup(seed: int, seconds: float) -> World:
    """The front's world build and region plan (what a plane launch costs)."""
    run_dir = RUN_ROOT / f"run-{os.getpid()}"
    spec = spec_for(seed)
    return World(spec, _new_plane(spec, run_dir / "plane0"), run_dir)


def _remove_run_dir(w: World) -> None:
    shutil.rmtree(w.run_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        RUN_ROOT.rmdir()  # only succeeds once no other run uses it


class _WorkerProbe:
    """Worker-side timings; a forked worker fills its own copy."""

    def __init__(self, out_dir: pathlib.Path, recorder=None):
        self.out_dir = out_dir
        self.recorder = recorder
        self.reset()

    def reset(self):
        self.rounds: list[tuple[float, float, float]] = []
        self.factors: list[float] = []
        # (raw seconds, host clock slot) per routed tick and per decision.
        self.ticks: list[tuple[float, int]] = []
        self.decide: list[tuple[float, int]] = []
        self.region_s: dict[str, float] = {}
        self.tel = None
        if self.recorder is not None:
            self.recorder.spans = []

    def dump(self, wid: int) -> None:
        hists = [
            m for m in (self.tel.registry.as_dicts() if self.tel else [])
            if m["type"] == "histogram"
        ]
        payload = {
            "rounds": self.rounds,
            "factors": self.factors,
            "ticks": self.ticks,
            "decide": self.decide,
            "region_s": self.region_s,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "histograms": hists,
            "agg": (
                summary.aggregate(self.recorder.spans)
                if self.recorder is not None else None
            ),
        }
        (self.out_dir / f"worker{wid}.json").write_text(json.dumps(payload))


def _instrument(patches: Patches, probe: _WorkerProbe, releases: list,
                per_region: bool) -> None:
    """Barrier calibration and timing hooks on the plane's functions."""
    from repro.service import shard
    from repro.service.controller import ControlLoop
    from repro.telemetry import get_telemetry

    def make_main(original):
        def worker_main(wid, job, conn, stop_ev):
            probe.reset()
            try:
                original(wid, job, conn, stop_ev)
            finally:
                probe.dump(wid)

        return worker_main

    def make_exchange(original):
        def exchange(self, settles, open_hour, next_tick):
            arrive = time.perf_counter()
            times = hostref.time_reference(CAL_REPS)
            sent = time.perf_counter()
            allot = original(self, settles, open_hour, next_tick)
            probe.rounds.append((arrive, sent, time.perf_counter()))
            probe.factors.append(hostref.factor_from(times))
            if probe.tel is None:
                probe.tel = get_telemetry()
            return allot

        return exchange

    def make_route(original):
        def route(self, tick):
            done = len(self.decide_wall_s)
            t0 = time.perf_counter()
            original(self, tick)
            # Ticks are routed only after the first barrier.
            slot = len(probe.rounds) - 1
            probe.ticks.append((time.perf_counter() - t0, slot))
            # RegionDriver's own per-decision on_tick wall times.
            probe.decide.extend((s, slot) for s in self.decide_wall_s[done:])

        return route

    def make_round(original):
        def on_round(self, payloads):
            out = original(self, payloads)
            releases.append(time.perf_counter())
            return out

        return on_round

    def make_on_tick(original):
        def on_tick(self, tick):
            t0 = time.perf_counter()
            try:
                return original(self, tick)
            finally:
                probe.region_s[self.name] = (
                    probe.region_s.get(self.name, 0.0) + time.perf_counter() - t0
                )

        return on_tick

    patches.patch(shard, "_worker_main", make_main)
    patches.patch(shard._PipeLedger, "exchange", make_exchange)
    patches.patch(shard.RegionDriver, "_route", make_route)
    patches.patch(shard.ShardCoordinator, "_on_round", make_round)
    if per_region:
        patches.patch(ControlLoop, "on_tick", make_on_tick)


def _run_plane(plane, recorder=None) -> dict:
    """Run one plane; return what the checks and metrics read of it.

    The plane itself is not kept, so the front's memory does not grow
    with the number of planes a run measures.
    """
    out_dir = plane.decision_log.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = _WorkerProbe(out_dir, recorder)
    releases: list[float] = []
    patches = Patches()
    _instrument(patches, probe, releases, per_region=recorder is not None)
    try:
        result = plane.run()
    finally:
        patches.restore()
    workers = [
        json.loads((out_dir / f"worker{wid}.json").read_text())
        for wid in sorted(plane.owned)
    ]
    coordinator = plane.coordinator
    return {
        "summary": result, "workers": workers, "releases": releases,
        "log_paths": plane.log_paths, "decision_log": plane.decision_log,
        "hour_summaries": coordinator.hour_summaries,
        "total_spent": coordinator.budgeter.total_spent,
        "dropped": plane.readmodel.dropped_total,
    }


def _hour_samples(run: dict) -> list[tuple[float, float]]:
    """Barrier-to-barrier hours as ``(raw seconds, factor)`` pairs.

    An hour runs from one round release to the next, less the reference
    time of the worker whose report closed the second round; its factor
    is the workers' mean over the two barriers around it.
    """
    releases, workers = run["releases"], run["workers"]
    clocks = [hostref.HostClock(wk["factors"]) for wk in workers]
    rounds = min([len(releases)] + [len(wk["rounds"]) for wk in workers])
    out = []
    for k in range(1, rounds):
        closing = max((wk["rounds"][k] for wk in workers), key=lambda r: r[1])
        raw = releases[k] - releases[k - 1] - (closing[1] - closing[0])
        factor = sum(c.slot_factor(k - 1) for c in clocks) / len(clocks)
        out.append((raw, factor))
    return out


def _worker_pairs(run: dict, key: str) -> list[tuple[float, float]]:
    """A worker-side sample list as ``(raw seconds, factor)`` pairs."""
    return [
        pair for wk in run["workers"]
        for pair in hostref.HostClock(wk["factors"]).pairs(wk[key])
    ]


def _check_plane(run: dict, front) -> tuple[int, int, list[str], list[str]]:
    """``(attempted, failed, notes, wrong)`` for one plane's outputs.

    ``front`` is a plane of the same spec: its world and region plan.
    """
    result = run["summary"]
    notes: list[str] = []
    wrong: list[str] = []
    logs = {
        r: path.read_text().splitlines()
        for r, path in sorted(run["log_paths"].items())
    }
    decisions = sum(len(lines) for lines in logs.values())
    if result["worker_errors"]:
        notes.append(f"worker errors: {result['worker_errors']}")
        return max(decisions, 1), max(decisions, 1), notes, wrong
    world, mix = front.world, front.world.mix
    by_name = {s.name: s for s in world.sites}
    failed = 0
    steps: dict[tuple[int, int], set] = {}
    capacity: dict[tuple[int, int], float] = {}
    for region in front.regions:
        for line in logs[region.index]:
            event = json.loads(line)
            key = (region.index, event["hour"])
            steps.setdefault(key, set()).add(event["step"])
            if key not in capacity:
                capacity[key] = sum(
                    by_name[name].hour(event["hour"]).max_rate_rps
                    for name in region.sites
                )
            allocated = sum(rate for _site, rate in event["allocations"])
            premium = mix.premium_rate(event["lambda_rps"])
            faults = checks.decision_faults(
                event["step"], min(allocated, premium), premium,
                allocated, event["lambda_rps"], capacity[key],
            )
            if faults:
                failed += 1
                if len(notes) < 5:
                    notes.append(
                        f"region {region.index} tick {event['tick_seq']}: "
                        f"{'; '.join(faults)}"
                    )
    for s in run["hour_summaries"]:
        fault = checks.budget_fault(
            s["spend"], s["budget"], steps.get((s["region"], s["hour"]), ())
        )
        if fault:
            failed += 1
            if len(notes) < 10:
                notes.append(f"region {s['region']} hour {s['hour']}: {fault}")
    if not checks.spends_match(
        [s["spend"] for s in run["hour_summaries"]], run["total_spent"]
    ):
        wrong.append("settled spends differ from Budgeter.total_spent")
    expected = [
        line for _seq, _r, line in heapq.merge(
            *[[(json.loads(x)["tick_seq"], r, x) for x in lines]
              for r, lines in logs.items()],
            key=lambda e: (e[0], e[1]),
        )
    ]
    merged = run["decision_log"].read_text().splitlines()
    if merged != expected:
        wrong.append("merged log is not the (tick_seq, region) merge of the region logs")
    if not (len(merged) == decisions == result["decisions"]
            == result["merged_log_lines"]):
        wrong.append("merged log lines differ from the decisions published")
    return decisions, failed, notes, wrong


def measure(w: World, seconds: float, host) -> dict:
    from repro.service import run_sharded_serial

    runs = []
    for i in range(planes_for(seconds)):
        plane = w.plane if i == 0 else _new_plane(w.spec, w.run_dir / f"plane{i}")
        run = _run_plane(plane)
        del plane
        gc.collect()
        runs.append(run)
        if run["summary"]["worker_errors"]:
            break
    # The front's high-water mark before the checks below read the logs
    # and rerun every region in this process.
    front_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = failed = 0
    notes: list[str] = []
    wrong: list[str] = []
    for run in runs:
        a, f, n, bad = _check_plane(run, w.plane)
        attempted += a
        failed += f
        notes.extend(n)
        wrong.extend(bad)
        host.add([x for wk in run["workers"] for x in wk["factors"]])
    serial, _coordinator = run_sharded_serial(w.spec)
    serial_identical = runs[0]["decision_log"].read_text() == "".join(
        line + "\n" for line in serial
    )
    if not serial_identical:
        wrong.append("merged decision log differs from run_sharded_serial")
    _remove_run_dir(w)

    hours = [h for run in runs for h in _hour_samples(run)]
    decide = [d for run in runs for d in _worker_pairs(run, "decide")]
    ticks = [t for run in runs for t in _worker_pairs(run, "ticks")]
    hs = runs[0]["hour_summaries"]
    served = sum(s["served_premium_rps"] + s["served_ordinary_rps"] for s in hs)
    offered = sum(s["demand_premium_rps"] + s["demand_ordinary_rps"] for s in hs)
    bill = sum(s["spend"] for s in hs)
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "wrong": wrong,
        "checks": {"planes": len(runs), "serial_identical": serial_identical},
        "timings": {
            "hours_per_s": ("rate", len(hours), hours),
            "hour_ms_p50": ("q", hours, 0.50),
            "hour_ms_p95": ("q", hours, 0.95),
            "decisions_per_s": ("rate", len(decide), hours),
            "decision_ms_p50": ("q", decide, 0.50),
            "decision_ms_p90": ("q", decide, 0.90),
            "tick_ms_p50": ("q", ticks, 0.50),
            "tick_ms_p90": ("q", ticks, 0.90),
        },
        "detail_timings": {
            "decision_ms_p99": ("q", decide, 0.99),
        },
        "served_frac": served / offered,
        "usd_per_m_served": bill / (served * 3600.0 / 1e6),
        "peak_rss_mb": front_rss + max(
            sum(wk["rss_mb"] for wk in run["workers"]) for run in runs
        ),
        "unit_s": hostref.mean_corrected(hours),
    }


def trace(w: World, recorder, host) -> dict:
    """One traced plane: worker spans folded back, barrier figures."""
    from repro.telemetry import Telemetry, use_telemetry

    tel = Telemetry()
    plane = _new_plane(w.spec, w.run_dir / "traced")
    recorder.install_layers()
    try:
        with use_telemetry(tel):
            run = _run_plane(plane, recorder)
    finally:
        recorder.restore()
        _remove_run_dir(w)
    workers = run["workers"]
    host.add([x for wk in workers for x in wk["factors"]])
    hours = _hour_samples(run)
    factor = hostref.effective_factor(hours)
    waits, busy = [], []
    for wk in workers:
        rounds = wk["rounds"]
        waits.extend(back - sent for _arrive, sent, back in rounds)
        busy.extend(rounds[k][0] - rounds[k - 1][2] for k in range(1, len(rounds)))
    region = [s for wk in workers for s in wk["region_s"].values()]
    return {
        "telemetry": tel.registry.as_dicts() + [
            m for wk in workers for m in wk["histograms"]
        ],
        "worker_aggs": [wk["agg"] for wk in workers],
        "hours": 0,
        "unit_s": hostref.mean_corrected(hours),
        "factor": factor,
        "extra": {
            "shard.barrier_wait_ms": sum(waits) * 1e3 / factor / len(waits),
            "shard.worker_busy_frac": sum(busy) / (sum(busy) + sum(waits)),
            "shard.region_skew": max(region) / (sum(region) / len(region)),
            "readmodel.dropped": float(run["dropped"]),
        },
    }
