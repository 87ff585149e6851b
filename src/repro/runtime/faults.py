"""The unified fault policy: retries, deadlines, budgets, isolation.

Before this module, second chances existed only inside
:class:`~repro.runtime.executors.AsyncExecutor`; a transient provider
failure on the serial, threaded, MPI-shard or batched path aborted the
whole sweep.  :class:`FaultPolicy` centralizes every fault-handling knob
and :func:`fault_scope` threads it through *all* executors at once:
:func:`repro.runtime.executors.generate_unit` — the single funnel every
sync executor's model calls go through — consults the active
:class:`FaultState`, and the async executor awaits the same policy on
its event loop.  One policy object therefore gives every execution
backend the same deterministic exponential backoff, per-unit wall-clock
deadlines, a run-shared retry budget, and an ``on_failure`` disposition:

* ``"raise"`` — retry per policy, then propagate (the historical
  behavior, and the default);
* ``"isolate"`` — a unit that exhausts its chances is *quarantined*: the
  run completes, the unit's evaluations raise
  :class:`~repro.errors.UnitFailedError` on access, and the failure is
  recorded (in :class:`~repro.runtime.runner.RunStats`, on
  :class:`~repro.runtime.runner.RunResult`, and durably in the run
  manifest when a store is attached) so a later run against the same
  store re-executes exactly the quarantined units;
* ``"skip"`` — like ``"isolate"``, but assembly silently drops the
  failed epochs/samples instead of raising (partial tables).

Only *fault-shaped* exceptions are ever isolated — a
:class:`~repro.errors.ModelError` or an :class:`OSError`.  Anything
else (a scorer bug, a typo'd model name surfacing as
:class:`~repro.errors.UnknownModelError` is still a ``ModelError`` and
deterministic, so it is isolatable but never retried) propagates in
``raise`` mode and is quarantined otherwise; genuine programming errors
(``TypeError`` and friends) always propagate, isolation must not paper
over bugs.

Determinism: backoff is jitter-free, deadlines only convert would-be
retries into failures (a *successful* late sync result is kept — the
work is already done), and the retry budget is exhausted in completion
order; a fault-free run takes the same code path with or without a
policy attached, which is what the gated no-fault overhead bench pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterator

from repro.errors import (
    CalibrationError,
    DeadlineExceededError,
    GenerationError,
    HarnessError,
    ModelError,
    UnknownModelError,
)
from repro.runtime.units import Generation, WorkUnit

ON_FAILURE_MODES = ("raise", "isolate", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff for transient provider failures.

    A call is retried when it raises a :class:`~repro.errors.ModelError`
    that is plausibly transient — rate limits, timeouts, 5xx-shaped
    failures a real endpoint emits.  Deterministic failures
    (:class:`~repro.errors.UnknownModelError`,
    :class:`~repro.errors.GenerationError`,
    :class:`~repro.errors.CalibrationError`) and non-model exceptions
    are never retried: they would fail identically every attempt.
    :class:`~repro.errors.DeadlineExceededError` is likewise final —
    the budget a deadline protects is already spent.

    Backoff is exponential (``base_delay * 2**attempt``, capped at
    ``max_delay``) and deliberately jitter-free so runs stay
    reproducible; spread load across clients by varying ``base_delay``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise HarnessError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise HarnessError("retry delays must be non-negative")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, ModelError) and not isinstance(
            exc,
            (
                UnknownModelError,
                GenerationError,
                CalibrationError,
                DeadlineExceededError,
            ),
        )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return min(self.max_delay, self.base_delay * (2 ** attempt))


@dataclass(frozen=True)
class FaultPolicy:
    """Every fault-handling knob of one run, in one immutable object.

    * ``retry`` — per-unit retry/backoff schedule;
    * ``unit_deadline_s`` — wall-clock budget per unit across all of its
      attempts (``None`` = unbounded).  Sync attempts cannot be
      interrupted mid-call, so the deadline is enforced between
      attempts (a retry that would start or sleep past the deadline
      fails as :class:`~repro.errors.DeadlineExceededError` instead);
      async attempts are genuinely cancelled via ``asyncio.wait_for``;
    * ``retry_budget`` — maximum *total* retries across the whole run,
      shared by every unit (``None`` = unbounded).  A storm of transient
      failures degrades into isolation instead of retrying forever;
    * ``on_failure`` — what becomes of a unit that is out of chances:
      ``"raise"`` propagates, ``"isolate"`` quarantines it (accessing
      its evaluations raises :class:`~repro.errors.UnitFailedError`),
      ``"skip"`` quarantines and silently drops it from assembled
      results.
    """

    retry: RetryPolicy = RetryPolicy()
    unit_deadline_s: float | None = None
    retry_budget: int | None = None
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.on_failure not in ON_FAILURE_MODES:
            raise HarnessError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {self.on_failure!r}"
            )
        if self.unit_deadline_s is not None and self.unit_deadline_s <= 0:
            raise HarnessError(
                f"unit_deadline_s must be positive, got {self.unit_deadline_s}"
            )
        if self.retry_budget is not None and self.retry_budget < 0:
            raise HarnessError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    @property
    def isolating(self) -> bool:
        return self.on_failure != "raise"


@dataclass(frozen=True)
class UnitFailure:
    """The durable record of one quarantined unit.

    Everything a later session needs to triage without re-running: the
    unit and generation identity, the exception's type and message, how
    many attempts were spent, the wall clock they cost, and a stable
    digest of the traceback (so identical failure sites can be grouped
    without persisting full tracebacks into manifests).
    """

    uid: str
    key: str
    model: str
    error_type: str
    message: str
    attempts: int
    elapsed_s: float
    traceback_digest: str

    def describe(self) -> str:
        return (
            f"{self.uid}: {self.error_type} after {self.attempts} attempt(s) "
            f"in {self.elapsed_s:.2f}s [{self.traceback_digest}] — {self.message}"
        )


class FailedGeneration:
    """The executor-side carrier of one isolated failure.

    Flows through the same ``dict[key, ...]`` channel as
    :class:`~repro.runtime.units.Generation` (it has a ``key``), so no
    executor needs a second return path; the runner partitions it out,
    never caches it, and turns it into per-uid :class:`UnitFailure`
    records.
    """

    __slots__ = (
        "key", "model", "error_type", "message", "attempts",
        "elapsed_s", "traceback_digest",
    )

    def __init__(self, unit: WorkUnit, exc: BaseException,
                 attempts: int, elapsed_s: float) -> None:
        self.key = unit.key
        self.model = unit.model
        self.error_type = type(exc).__name__
        self.message = str(exc)
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.traceback_digest = traceback_digest(exc)

    def unit_failure(self, uid: str) -> UnitFailure:
        return UnitFailure(
            uid=uid,
            key=self.key,
            model=self.model,
            error_type=self.error_type,
            message=self.message,
            attempts=self.attempts,
            elapsed_s=self.elapsed_s,
            traceback_digest=self.traceback_digest,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailedGeneration({self.error_type} after {self.attempts} "
            f"attempt(s), key={self.key[:8]}…)"
        )


def traceback_digest(exc: BaseException) -> str:
    """A short stable digest of an exception's traceback.

    Frame filenames, line numbers and function names only — not the
    message — so the same failure *site* hashes identically across
    units and runs, and manifests stay small.
    """
    frames = "\n".join(
        f"{frame.filename}:{frame.lineno}:{frame.name}"
        for frame in traceback.extract_tb(exc.__traceback__)
    )
    body = f"{type(exc).__name__}\n{frames}"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


def _isolatable(exc: BaseException) -> bool:
    # fault-shaped: provider failures and I/O errors.  Programming
    # errors (TypeError, KeyError, …) must always propagate — a policy
    # that quarantines bugs hides them.
    return isinstance(exc, (ModelError, OSError))


class FaultState:
    """One run's live fault-handling state: counters plus the shared budget.

    Thread-safe: serial, threaded and MPI-shard execution all funnel
    through :meth:`run_unit` from arbitrary worker threads, and the
    async path awaits :meth:`run_unit_async` on its loop.  Install for
    the duration of an execution phase with :func:`fault_scope`.
    """

    def __init__(self, policy: FaultPolicy) -> None:
        self.policy = policy
        self._mu = threading.Lock()
        self._budget_left = policy.retry_budget  # None = unbounded
        self.retries = 0  # total retry attempts granted
        self.retry_seconds = 0.0  # failed-attempt time + backoff sleeps
        self._retried_uids: set[str] = set()
        self.budget_exhausted = False

    @property
    def units_retried(self) -> int:
        return len(self._retried_uids)

    def _acquire_retry(self, uid: str, cost_s: float) -> bool:
        """One retry token from the shared budget; False when spent."""
        with self._mu:
            if self._budget_left is not None:
                if self._budget_left <= 0:
                    self.budget_exhausted = True
                    return False
                self._budget_left -= 1
            self.retries += 1
            self.retry_seconds += cost_s
            self._retried_uids.add(uid)
            return True

    def _note_sleep(self, seconds: float) -> None:
        with self._mu:
            self.retry_seconds += seconds

    # -- shared per-attempt bookkeeping --------------------------------------

    def _after_failed_attempt(
        self,
        unit: WorkUnit,
        exc: BaseException,
        attempt: int,
        started: float,
        attempt_elapsed: float,
    ) -> "float | FailedGeneration":
        """Decide one failed attempt's fate.

        Returns the backoff delay (seconds) when the unit may retry, or
        the terminal :class:`FailedGeneration` / raises, when it may
        not.  ``attempt`` is 1-based.
        """
        policy = self.policy
        retry = policy.retry
        elapsed = time.perf_counter() - started
        deadline = policy.unit_deadline_s
        if not retry.is_retryable(exc):
            return self._fail(unit, exc, attempt, elapsed)
        if attempt >= retry.max_attempts:
            return self._fail(unit, exc, attempt, elapsed)
        delay = retry.delay(attempt - 1)
        if deadline is not None and elapsed + delay >= deadline:
            timeout = DeadlineExceededError(
                f"unit {unit.uid} exceeded its {deadline}s deadline after "
                f"{attempt} attempt(s) ({elapsed:.2f}s elapsed)",
                elapsed_s=elapsed,
                deadline_s=deadline,
            )
            timeout.__cause__ = exc
            return self._fail(unit, timeout, attempt, elapsed)
        if not self._acquire_retry(unit.uid, attempt_elapsed):
            return self._fail(unit, exc, attempt, elapsed)
        return delay

    def _fail(
        self, unit: WorkUnit, exc: BaseException, attempts: int, elapsed: float
    ) -> FailedGeneration:
        if not self.policy.isolating or not _isolatable(exc):
            raise exc
        return FailedGeneration(unit, exc, attempts, elapsed)

    # -- sync path (serial / threaded / MPI-shard / batched fallback) --------

    def run_unit(
        self,
        unit: WorkUnit,
        generate_once: Callable[[WorkUnit], Generation],
    ) -> "Generation | FailedGeneration":
        """Drive one unit under the policy: retry, deadline, isolate."""
        started = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            attempt_started = time.perf_counter()
            try:
                result = generate_once(unit)
            except Exception as exc:
                attempt_elapsed = time.perf_counter() - attempt_started
                outcome = self._after_failed_attempt(
                    unit, exc, attempt, started, attempt_elapsed
                )
                if isinstance(outcome, FailedGeneration):
                    return outcome
                self._note_sleep(outcome)
                time.sleep(outcome)
            else:
                return result

    # -- async path ----------------------------------------------------------

    async def run_unit_async(
        self,
        unit: WorkUnit,
        generate_once: Callable[[WorkUnit], Awaitable[Generation]],
    ) -> "Generation | FailedGeneration":
        """The same policy on an event loop; in-flight attempts that blow
        the deadline are genuinely cancelled via ``asyncio.wait_for``."""
        import asyncio  # only async executors load it

        policy = self.policy
        started = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            attempt_started = time.perf_counter()
            try:
                deadline = policy.unit_deadline_s
                if deadline is not None:
                    remaining = deadline - (time.perf_counter() - started)
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"unit {unit.uid} exceeded its {deadline}s "
                            f"deadline after {attempt - 1} attempt(s)",
                            elapsed_s=time.perf_counter() - started,
                            deadline_s=deadline,
                        )
                    try:
                        result = await asyncio.wait_for(
                            generate_once(unit), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        raise DeadlineExceededError(
                            f"unit {unit.uid} exceeded its {deadline}s "
                            f"deadline mid-attempt {attempt}",
                            elapsed_s=time.perf_counter() - started,
                            deadline_s=deadline,
                        ) from None
                else:
                    result = await generate_once(unit)
            except Exception as exc:
                attempt_elapsed = time.perf_counter() - attempt_started
                outcome = self._after_failed_attempt(
                    unit, exc, attempt, started, attempt_elapsed
                )
                if isinstance(outcome, FailedGeneration):
                    return outcome
                self._note_sleep(outcome)
                await asyncio.sleep(outcome)
            else:
                return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultState({self.policy!r}, retries={self.retries}, "
            f"units_retried={self.units_retried})"
        )


# -- the active scope --------------------------------------------------------
#
# A module-level global, not a threading.local: executors hand units to
# worker threads (ThreadedExecutor), simulated MPI rank threads and
# process-adjacent event loops, none of which inherit the installing
# thread's locals.  Mirrors repro.obs's active-profiler pattern.  One
# scope at a time: nested scopes raise rather than silently shadow.

_active: FaultState | None = None
_active_mu = threading.Lock()


def active_faults() -> FaultState | None:
    """The fault state installed by the innermost :func:`fault_scope`."""
    return _active


@contextlib.contextmanager
def fault_scope(state: FaultState) -> Iterator[FaultState]:
    """Install ``state`` as the process-wide active fault state."""
    global _active
    with _active_mu:
        if _active is not None:
            raise HarnessError(
                "a fault_scope is already active; concurrent runs with "
                "distinct FaultPolicys in one process are not supported"
            )
        _active = state
    try:
        yield state
    finally:
        with _active_mu:
            _active = None


def failure_payload(failure: UnitFailure) -> dict[str, Any]:
    """JSON-ready form of one failure (manifest persistence)."""
    return {
        "uid": failure.uid,
        "key": failure.key,
        "model": failure.model,
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": failure.attempts,
        "elapsed_s": failure.elapsed_s,
        "traceback_digest": failure.traceback_digest,
    }


def failure_from_payload(payload: dict[str, Any]) -> UnitFailure:
    """Rebuild one :class:`UnitFailure` from its manifest payload."""
    try:
        return UnitFailure(
            uid=payload["uid"],
            key=payload["key"],
            model=payload["model"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=int(payload["attempts"]),
            elapsed_s=float(payload["elapsed_s"]),
            traceback_digest=payload["traceback_digest"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise HarnessError(f"malformed unit-failure payload: {exc}") from None
