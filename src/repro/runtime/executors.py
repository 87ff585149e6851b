"""Pluggable executors: how a batch of work units reaches the model layer.

All executors consume units whose seeds travel *inside* the unit
(``WorkUnit.config.seed``), so execution order is irrelevant and every
executor produces bit-identical generations:

* :class:`SerialExecutor` — the reference implementation, one call at a
  time in plan order (exactly what the hand-rolled loops used to do);
* :class:`ThreadedExecutor` — a ``concurrent.futures`` thread pool; the
  win is large for latency-bound providers (real API endpoints), modest
  for the CPU-bound offline simulator under the GIL;
* :class:`MpiShardExecutor` — shards units round-robin across simulated
  :mod:`repro.mpi` ranks and gathers generations at the root, the same
  SPMD decomposition a real-MPI deployment would use;
* :class:`AsyncExecutor` — an asyncio event loop multiplexing
  :class:`~repro.llm.api.AsyncModelAPI` calls under a bounded-concurrency
  semaphore, with deterministic retry/backoff for transient
  :class:`~repro.errors.ModelError`\\ s; sync providers are adapted via
  :func:`repro.llm.api.as_async` (thread offload), async-native ones run
  on the loop directly — the shape a real API backend wants;
* :class:`~repro.runtime.batching.BatchingExecutor` (see
  :mod:`repro.runtime.batching`) — groups units by model and issues one
  ``generate_batch`` call per group.
"""

from __future__ import annotations

import concurrent.futures
import re
import threading
import time
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.errors import DeadlineExceededError, HarnessError, ModelError
from repro.llm.api import as_async, get_model
from repro.llm.types import ChatMessage
from repro.obs import active_tracer, span
from repro.runtime.faults import (
    FailedGeneration,
    RetryPolicy,
    active_faults,
)
from repro.runtime.units import Generation, WorkUnit

__all__ = [
    "generate_unit",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "MpiShardExecutor",
    "AsyncExecutor",
    "RetryPolicy",  # moved to repro.runtime.faults; re-exported for imports
]


def _generate_once(unit: WorkUnit) -> Generation:
    """One raw model call for one unit; no retry, no policy."""
    started = time.perf_counter()
    output = get_model(unit.model).generate(unit.prompt, unit.config)
    return Generation(
        key=unit.key,
        model=unit.model,
        completion=output.completion,
        usage=output.usage,
        elapsed_s=time.perf_counter() - started,
    )


def generate_unit(unit: WorkUnit) -> "Generation | FailedGeneration":
    """Run one unit's model call; pure function of the unit's content.

    The single funnel every sync executor goes through: when a
    :func:`~repro.runtime.faults.fault_scope` is active, the call runs
    under its :class:`~repro.runtime.faults.FaultPolicy` — deterministic
    retry/backoff, per-unit deadline, run-shared retry budget, and
    failure isolation (a quarantined unit comes back as a
    :class:`~repro.runtime.faults.FailedGeneration` instead of raising).
    Without a scope this is exactly the raw provider call it always was.

    Each call is wrapped in a ``span("unit")`` — per-unit latency
    visibility for every sync executor (serial, threaded, MPI-shard),
    retries included.  The constant span name keeps phase profiles
    compact; traces still record one identified span per unit.
    """
    with span("unit"):
        state = active_faults()
        if state is not None:
            return state.run_unit(unit, _generate_once)
        return _generate_once(unit)


@runtime_checkable
class Executor(Protocol):
    """What an execution backend must implement.

    ``execute`` receives units with pairwise-distinct generation keys
    (the runner deduplicates and consults the cache first) and returns
    one generation per key.
    """

    def execute(
        self, units: Sequence[WorkUnit]
    ) -> dict[str, Generation]:  # pragma: no cover - protocol
        ...


class SerialExecutor:
    """One generation at a time, in plan order (the determinism baseline)."""

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        return {unit.key: generate_unit(unit) for unit in units}

    def execute_iter(self, units: Sequence[WorkUnit]) -> Iterator[Generation]:
        """Yield each generation as it completes (still dispatch order).

        The streaming face of the executor: the runner feeds completed
        units straight into the scoring pipeline while later units are
        still generating, instead of waiting for the whole batch.
        """
        for unit in units:
            yield generate_unit(unit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadedExecutor:
    """Fan units out over a persistent thread pool.

    Suited to providers that block on I/O (network endpoints); the
    offline simulator is CPU-bound, where threads mostly help by
    overlapping its numpy sections.

    The pool is created lazily on the first ``execute`` and reused by
    every subsequent call, so multi-plan sweeps stop paying thread-pool
    startup and teardown per run.  Call :meth:`close` (or use the
    executor as a context manager) to release the worker threads; a
    closed executor transparently re-creates its pool on the next
    ``execute``, but *re-entering* a closed executor as a context
    manager raises :class:`~repro.errors.HarnessError` (the ``with``
    block would otherwise silently resurrect a pool the caller just
    tore down).
    """

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers <= 0:
            raise HarnessError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-exec",
                )
                self._closed = False
            return self._pool

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        if not units:
            return {}
        generations = self._ensure_pool().map(generate_unit, units)
        return {gen.key: gen for gen in generations}

    def execute_iter(self, units: Sequence[WorkUnit]) -> Iterator[Generation]:
        """Yield generations in completion order as workers finish them.

        Completion order is nondeterministic but harmless: generations
        are keyed by content and reassembled in plan order, so streamed
        results are bit-identical to :meth:`execute`'s.
        """
        if not units:
            return
        pool = self._ensure_pool()
        futures = [pool.submit(generate_unit, unit) for unit in units]
        for future in concurrent.futures.as_completed(futures):
            yield future.result()

    def close(self) -> None:
        """Shut the pool down and join its worker threads (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedExecutor":
        # entering an explicitly closed executor would silently resurrect
        # the pool the caller just paid to tear down — make the lifecycle
        # bug loud instead (plain execute() still reopens transparently)
        with self._lock:
            if self._closed:
                raise HarnessError(
                    "ThreadedExecutor was closed; create a new executor "
                    "instead of re-entering the closed one as a context "
                    "manager"
                )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedExecutor(max_workers={self.max_workers})"


class MpiShardExecutor:
    """Shard units across simulated MPI ranks; gather at the root.

    Each rank executes ``units[rank::nprocs]`` serially and the root
    merges the per-rank shards via ``comm.gather`` — the standard SPMD
    decomposition, runnable unchanged on a real communicator.
    """

    def __init__(self, nprocs: int = 4, *, timeout: float = 300.0) -> None:
        if nprocs <= 0:
            raise HarnessError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.timeout = timeout

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        if not units:
            return {}
        from repro.mpi.launcher import mpiexec

        units = list(units)

        def rank_main(comm):
            shard = units[comm.rank :: comm.size]
            local = {unit.key: generate_unit(unit) for unit in shard}
            shards = comm.gather(local, root=0)
            if comm.rank != 0:
                return {}
            merged: dict[str, Generation] = {}
            for part in shards:
                merged.update(part)
            return merged

        from repro.errors import CommunicatorError

        started = time.perf_counter()
        try:
            launch = mpiexec(
                rank_main,
                min(self.nprocs, len(units)),
                timeout=self.timeout,
                comm_timeout=self.timeout,
            )
        except CommunicatorError as exc:
            # a rank failure wraps the provider's exception; unwrap it so
            # all executors surface the same exception types.  A genuine
            # communicator timeout/deadlock has no cause: surface it as a
            # typed deadline error carrying the stuck rank and elapsed
            # wall clock instead of a bare re-raise with no context.
            if exc.__cause__ is not None:
                raise exc.__cause__
            match = re.search(r"mpi-rank-(\d+)", str(exc))
            raise DeadlineExceededError(
                f"MPI shard execution missed its {self.timeout}s deadline: "
                f"{exc}",
                elapsed_s=time.perf_counter() - started,
                deadline_s=self.timeout,
                rank=int(match.group(1)) if match else None,
            ) from exc
        return launch[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MpiShardExecutor(nprocs={self.nprocs})"


class AsyncExecutor:
    """Event-loop execution: many provider calls in flight at once.

    Each ``execute`` spins up an asyncio loop, resolves every unit's
    provider through :func:`repro.llm.api.as_async` (async-native
    providers run on the loop directly; sync ones are offloaded to
    worker threads by the default adapter) and gathers all calls under a
    semaphore of ``max_concurrency``.  Transient
    :class:`~repro.errors.ModelError`\\ s are retried per ``retry``.

    Concurrency here is a cheap integer, not a thread: raising it costs
    nothing for async-native providers, which is why a latency-bound
    sweep scales past what a same-sized thread pool gives.  Results
    remain bit-identical to :class:`SerialExecutor` — seeds travel
    inside units, so in-flight interleaving cannot reorder randomness.

    The adapter thread pool for sync providers is created lazily and
    persists across ``execute`` calls (the loop's own default executor
    is sized by CPU count and dies with each loop, which would both
    throttle the semaphore and pay thread startup per run); it follows
    the same lifecycle as :class:`ThreadedExecutor` — ``close()`` or the
    context manager releases it, plain ``execute`` reopens, re-entering
    a closed executor raises.
    """

    def __init__(
        self, max_concurrency: int = 8, *, retry: RetryPolicy | None = None
    ) -> None:
        if max_concurrency <= 0:
            raise HarnessError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency
        self.retry = retry if retry is not None else RetryPolicy()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-async",
                )
                self._closed = False
            return self._pool

    def close(self) -> None:
        """Shut the adapter pool down and join its threads (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "AsyncExecutor":
        with self._lock:
            if self._closed:
                raise HarnessError(
                    "AsyncExecutor was closed; create a new executor "
                    "instead of re-entering the closed one as a context "
                    "manager"
                )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        if not units:
            return {}
        import asyncio  # only this executor loads it

        return asyncio.run(self._execute(list(units)))

    async def _execute(self, units: list[WorkUnit]) -> dict[str, Generation]:
        import asyncio

        pool = self._ensure_pool()
        semaphore = asyncio.Semaphore(self.max_concurrency)
        state = active_faults()

        async def generate_once(unit: WorkUnit) -> Generation:
            provider = as_async(get_model(unit.model).provider, pool)
            messages = [ChatMessage.user(unit.prompt)]
            started = time.perf_counter()
            output = await provider.agenerate(messages, unit.config)
            return Generation(
                key=unit.key,
                model=unit.model,
                completion=output.completion,
                usage=output.usage,
                elapsed_s=time.perf_counter() - started,
            )

        async def one(unit: WorkUnit) -> "Generation | FailedGeneration":
            tracer = active_tracer()
            if tracer is None:
                return await one_inner(unit)
            # interleaved tasks share this thread, so the per-unit span
            # is folded post-hoc (record_span) instead of riding the
            # thread's span-nesting stack
            start_unix = time.time()
            t0 = time.perf_counter()
            gen = await one_inner(unit)
            tracer.record_span(
                "unit",
                start_unix=start_unix,
                duration_s=time.perf_counter() - t0,
            )
            return gen

        async def one_inner(unit: WorkUnit) -> "Generation | FailedGeneration":
            async with semaphore:
                if state is not None:
                    # the run's FaultPolicy owns retry/deadline/isolation;
                    # the executor's own RetryPolicy applies only outside
                    # a fault scope
                    return await state.run_unit_async(unit, generate_once)
                provider = as_async(get_model(unit.model).provider, pool)
                messages = [ChatMessage.user(unit.prompt)]
                started = time.perf_counter()
                output = await self._generate_with_retry(
                    provider, messages, unit
                )
                elapsed = time.perf_counter() - started
            return Generation(
                key=unit.key,
                model=unit.model,
                completion=output.completion,
                usage=output.usage,
                elapsed_s=elapsed,
            )

        generations = await asyncio.gather(*(one(unit) for unit in units))
        return {gen.key: gen for gen in generations}

    async def _generate_with_retry(self, provider, messages, unit: WorkUnit):
        import asyncio

        attempt = 0
        while True:
            try:
                return await provider.agenerate(messages, unit.config)
            except ModelError as exc:
                attempt += 1
                if attempt >= self.retry.max_attempts or not self.retry.is_retryable(exc):
                    raise
                await asyncio.sleep(self.retry.delay(attempt - 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncExecutor(max_concurrency={self.max_concurrency}, "
            f"retry={self.retry})"
        )
