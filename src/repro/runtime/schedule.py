"""Schedulers: the order in which pending units reach the executor.

Results never depend on execution order (seeds travel inside units), so
scheduling is purely a *latency* lever: under any bounded-concurrency
executor, dispatching the longest-expected units first minimizes the
makespan tail — the classic longest-processing-time heuristic.

* :class:`PlanOrderScheduler` — the bit-identical default: units reach
  the executor exactly as the plan emitted them (what every run did
  before schedulers existed);
* :class:`AdaptiveScheduler` — longest-expected-unit-first, fed by an
  :class:`ExpectedCostModel` that :func:`repro.runtime.runner.run`
  trains online from the per-unit timings each run's generations carry
  (the same numbers :class:`~repro.runtime.runner.RunStats` aggregates
  as ``generation_seconds``).  Share one scheduler (or one cost model)
  across runs and every sweep after the first is ordered by observed
  per-model cost.
"""

from __future__ import annotations

import threading
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import HarnessError

from repro.runtime.units import WorkUnit


@runtime_checkable
class Scheduler(Protocol):
    """What a scheduling policy must implement.

    ``order`` returns a permutation of ``units``; implementations may
    additionally expose ``observe(unit, elapsed_s)``, which the runner
    calls once per freshly executed unit so the policy can learn.
    """

    def order(
        self, units: Sequence[WorkUnit]
    ) -> list[WorkUnit]:  # pragma: no cover - protocol
        ...


class PlanOrderScheduler:
    """Dispatch units exactly in plan order (the determinism baseline)."""

    def order(self, units: Sequence[WorkUnit]) -> list[WorkUnit]:
        return list(units)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PlanOrderScheduler()"


class ExpectedCostModel:
    """Online per-model estimate of one generation's wall-clock cost.

    An exponential moving average per model name, updated from observed
    call durations.  A model never seen before is estimated at the mean
    of the models already observed (any real number beats assuming
    zero), and with no observations at all every unit costs the same —
    the scheduler then degrades to plan order.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise HarnessError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ema: dict[str, float] = {}
        self._observations = 0

    def observe(self, model: str, elapsed_s: float) -> None:
        """Fold one measured call duration into the model's estimate."""
        if elapsed_s <= 0:
            return  # cached/zero-cost records carry no signal
        with self._lock:
            previous = self._ema.get(model)
            if previous is None:
                self._ema[model] = elapsed_s
            else:
                self._ema[model] = (
                    self.alpha * elapsed_s + (1 - self.alpha) * previous
                )
            self._observations += 1

    def expected(self, unit: WorkUnit) -> float:
        """Expected cost (seconds) of executing ``unit`` now."""
        with self._lock:
            estimate = self._ema.get(unit.model)
            if estimate is not None:
                return estimate
            if self._ema:
                return sum(self._ema.values()) / len(self._ema)
        return 0.0

    @property
    def observations(self) -> int:
        with self._lock:
            return self._observations

    def snapshot(self) -> dict[str, float]:
        """Current per-model estimates (for diagnostics and tests)."""
        with self._lock:
            return dict(self._ema)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExpectedCostModel(alpha={self.alpha}, "
            f"models={sorted(self.snapshot())})"
        )


class AdaptiveScheduler:
    """Longest-expected-unit-first ordering.

    The sort is stable, so units with equal estimates keep plan order —
    a cold cost model makes this scheduler behave exactly like
    :class:`PlanOrderScheduler`.
    """

    def __init__(self, cost_model: ExpectedCostModel | None = None) -> None:
        self.cost_model = (
            cost_model if cost_model is not None else ExpectedCostModel()
        )

    def order(self, units: Sequence[WorkUnit]) -> list[WorkUnit]:
        return sorted(units, key=lambda unit: -self.cost_model.expected(unit))

    def observe(self, unit: WorkUnit, elapsed_s: float) -> None:
        self.cost_model.observe(unit.model, elapsed_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdaptiveScheduler(cost_model={self.cost_model!r})"
