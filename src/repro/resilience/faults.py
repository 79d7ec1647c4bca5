"""Deterministic fault injection for the hourly control loop.

The paper's controller runs in an environment that *will* misbehave:
ISO price feeds lag, background-demand telemetry drops out, a MILP
backend occasionally dies or times out, and the budgeter process can be
restarted mid-month. :class:`FaultInjector` turns those failure modes
into a reproducible schedule: every fault channel is an independent
Bernoulli draw per simulated hour, keyed by ``(seed, hour)``, so the
same spec always perturbs the same hours — runs are replayable, and a
chaos CI job can pin its expectations.

The injector is stateless: :meth:`FaultInjector.faults_for` may be
called any number of times, in any order, and always returns the same
:class:`HourFaults` for a given hour.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..solver.errors import SolverError, SolverLimitError

__all__ = ["FaultSpec", "HourFaults", "FaultInjector", "FAULT_KINDS"]

#: Fault channels in draw order. The order is part of the reproducibility
#: contract: changing it re-shuffles every seeded schedule.
FAULT_KINDS = (
    "price_stale",
    "sensor_dropout",
    "solver_error",
    "solver_timeout",
    "budget_loss",
)


@dataclass(frozen=True)
class FaultSpec:
    """Per-hour fault probabilities plus the schedule seed.

    Attributes
    ----------
    price_stale:
        The locational price feed did not refresh: the dispatcher sees
        the *previous* hour's full market snapshot (prices and
        background demand) while the realized bill uses the truth.
    sensor_dropout:
        The background-demand sensors dropped out: the dispatcher sees
        the previous hour's background demand under current prices.
    solver_error:
        The whole solver stack (past the HiGHS retry) raises.
    solver_timeout:
        The solver stack exceeds its time/node limits and gives up.
    budget_loss:
        The budgeter process is restarted and loses its in-memory
        state; it must resume from its last checkpoint.
    seed:
        Schedule seed; the per-hour draws are keyed by ``(seed, hour)``.
    """

    price_stale: float = 0.0
    sensor_dropout: float = 0.0
    solver_error: float = 0.0
    solver_timeout: float = 0.0
    budget_loss: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for kind in FAULT_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{kind} must be a probability in [0, 1], got {p}")

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        """Build a spec from a CLI string.

        Format: comma-separated ``key=value`` pairs, e.g.
        ``"price_stale=0.1,solver_error=0.05,seed=3"``. Unknown keys
        raise with the list of valid ones.
        """
        kwargs: dict[str, float | int] = {}
        valid = {f.name for f in fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"malformed fault spec entry {part!r}: expected key=value")
            if key not in valid:
                raise ValueError(
                    f"unknown fault channel {key!r}; valid keys: "
                    + ", ".join(sorted(valid))
                )
            try:
                kwargs[key] = int(value) if key == "seed" else float(value)
            except ValueError:
                raise ValueError(f"bad value for {key!r}: {value!r}") from None
        return cls(**kwargs)

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, kind) > 0 for kind in FAULT_KINDS)


@dataclass(frozen=True)
class HourFaults:
    """The faults injected into one simulated hour."""

    stale_prices: bool = False
    sensor_dropout: bool = False
    solver_error: bool = False
    solver_timeout: bool = False
    budget_loss: bool = False

    @property
    def any(self) -> bool:
        return (
            self.stale_prices
            or self.sensor_dropout
            or self.solver_error
            or self.solver_timeout
            or self.budget_loss
        )

    @property
    def kinds(self) -> tuple[str, ...]:
        """Names of the injected fault channels (spec key names)."""
        out = []
        if self.stale_prices:
            out.append("price_stale")
        if self.sensor_dropout:
            out.append("sensor_dropout")
        if self.solver_error:
            out.append("solver_error")
        if self.solver_timeout:
            out.append("solver_timeout")
        if self.budget_loss:
            out.append("budget_loss")
        return tuple(out)

    def solver_exception(self) -> SolverError | None:
        """The exception this hour's solver stack should die with."""
        if self.solver_timeout:
            return SolverLimitError("injected fault: solver timed out")
        if self.solver_error:
            return SolverError("injected fault: solver stack failure")
        return None


#: No faults; shared by every clean hour.
_CLEAN = HourFaults()


class FaultInjector:
    """Seed-keyed deterministic fault schedule over simulated hours."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec

    def faults_for(self, hour: int) -> HourFaults:
        """The faults injected into ``hour`` (same answer every call)."""
        if hour < 0:
            raise ValueError("hour must be >= 0")
        if not self.spec.any_enabled:
            return _CLEAN
        # One generator per (seed, hour): the schedule is independent of
        # call order and of how many hours the caller simulates.
        draws = np.random.default_rng([self.spec.seed, hour]).random(len(FAULT_KINDS))
        flags = {
            kind: bool(draw < getattr(self.spec, kind))
            for kind, draw in zip(FAULT_KINDS, draws)
        }
        return HourFaults(
            stale_prices=flags["price_stale"],
            sensor_dropout=flags["sensor_dropout"],
            solver_error=flags["solver_error"],
            solver_timeout=flags["solver_timeout"],
            budget_loss=flags["budget_loss"],
        )

    def schedule_counts(self, hours: int) -> dict[str, int]:
        """Tally of injected faults per channel over ``hours`` hours."""
        counts = dict.fromkeys(FAULT_KINDS, 0)
        for t in range(hours):
            for kind in self.faults_for(t).kinds:
                counts[kind] += 1
        return counts
