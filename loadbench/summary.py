"""Order statistics and span arithmetic shared by every workload.

Two rules from the benchmark's contract live here so they are tested in
one place:

* a tail percentile is only reported where at least :data:`MIN_BEYOND`
  samples lie beyond it; with fewer samples the highest percentile that
  still has that many is used instead, and the percentile actually
  reported travels with the value;
* a span's self time is its duration minus the part of its interval
  covered by its direct children.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def tail(values, q: float) -> dict:
    """Nearest-rank percentile ``q`` of ``values`` under the ten-beyond rule.

    Returns ``{"value", "q", "n", "beyond"}``: ``q`` is the percentile
    actually reported (lowered from the request when too few samples
    lie beyond it) and ``beyond`` the count of samples above its rank.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples cannot support any percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
        q = rank / n
    return {"value": xs[rank - 1], "q": q, "n": n, "beyond": n - rank}


def self_times(spans) -> dict[int, float]:
    """Self time of each span: duration minus its direct children's.

    ``spans`` are ``(span_id, parent_id, name, t0, t1)`` tuples; a
    parent of 0 marks a root. Children of one span never overlap (one
    thread runs them in turn), so their durations add up to the part of
    the parent's interval they cover.
    """
    child = defaultdict(float)
    for _sid, parent, _name, t0, t1 in spans:
        if parent:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _p, _n, t0, t1 in spans}


def aggregate(spans) -> dict[str, dict]:
    """Per-name ``calls``, ``total_s`` and ``self_s``, plus the parent names.

    ``parents`` maps each parent name to the calls and total seconds of
    this name under it, which is how a layer counts only the calls made
    from a given caller (e.g. kernel prep under a kernel solve).
    """
    names = {sid: name for sid, _p, name, _a, _b in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, parent, name, t0, t1 in spans:
        row = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
        )
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += selfs[sid]
        pname = names.get(parent, "") if parent else ""
        prow = row["parents"].setdefault(pname, {"calls": 0, "total_s": 0.0})
        prow["calls"] += 1
        prow["total_s"] += t1 - t0
    return out


def merge_aggregates(parts) -> dict[str, dict]:
    """Fold per-process :func:`aggregate` results into one."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            dst = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
            )
            dst["calls"] += row["calls"]
            dst["total_s"] += row["total_s"]
            dst["self_s"] += row["self_s"]
            for pname, prow in row["parents"].items():
                pd = dst["parents"].setdefault(pname, {"calls": 0, "total_s": 0.0})
                pd["calls"] += prow["calls"]
                pd["total_s"] += prow["total_s"]
    return out
