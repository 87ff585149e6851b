"""The runtime entry point: plan → (cache, dedup) → schedule → execute → score.

:func:`run` is the single funnel every evaluation in the repository goes
through.  It looks each work unit up in the result cache (one batched
``get_many`` when the backend supports it), deduplicates identical
generations within the run, hands only the genuinely new units — in the
dispatch order the scheduler picks — to the executor, scores every unit
against its own target behind a :class:`~repro.runtime.cache.ScoreCache`
(identical (generation, target, scorer) triples are scored once), and
reassembles the plan's evaluation results.

Scoring can be *pipelined*: pass a
:class:`~repro.runtime.scoring.ScoringPool` as ``scoring`` and each
unit's metric work is submitted to a worker process the moment its
generation exists — for streaming executors (serial, threaded) that is
while later units are still generating — and collected at assembly
time.  Results are bit-identical to inline scoring; only the wall time
changes.

:class:`RunStats` records how much work the model layer *and* the
metric layer actually did, which is what the cache and scaling tests
assert on.  When a :mod:`repro.obs` profiler is active the run's phase
breakdown (cache-get / generate / cache-put / score, with nested
store-io spans) is attached as :attr:`RunStats.profile`.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping

from repro.core.task import EvalResult
from repro.errors import HarnessError
from repro.llm import generate_ahead
from repro.obs import (
    PhaseProfile,
    active_profiler,
    active_registry,
    active_tracer,
    span,
)
from repro.stats import stats_dict, strip_markers

if TYPE_CHECKING:  # repro.persist builds on repro.runtime, not vice versa
    from repro.persist import RunManifest, RunStore

from repro.runtime.cache import ResultCache, ScoreCache
from repro.runtime.config import RunConfig
from repro.runtime.executors import Executor, SerialExecutor
from repro.runtime.faults import (
    FailedGeneration,
    FaultPolicy,
    FaultState,
    UnitFailure,
    fault_scope,
)
from repro.runtime.plan import EvalSpec, Plan
from repro.runtime.schedule import PlanOrderScheduler, Scheduler
from repro.runtime.scoring import ScoreHandle, ScoringPool
from repro.runtime.units import Generation, UnitResult, WorkUnit


def score_key(unit: WorkUnit, target_hash: str) -> Hashable:
    """Memoization key for one unit's score.

    (generation key, target hash, scorer fingerprint): the generation
    key pins the completion, the target hash pins what it is compared
    against, and the scorer fingerprint pins *how* — two tasks sharing
    a prompt and target but scoring differently never collide.  Scorers
    may expose a ``fingerprint`` attribute; otherwise the scorer object
    itself is the fingerprint (the key's reference keeps it alive, so
    its identity cannot be recycled while cached).  Unhashable
    fingerprint-less scorers fall back to ``id()`` — such a scorer must
    outlive any :class:`~repro.runtime.cache.ScoreCache` shared across
    runs.
    """
    scorer: Callable = unit.scorer
    fingerprint = getattr(scorer, "fingerprint", None)
    if fingerprint is not None:
        try:
            hash(fingerprint)
        except TypeError:
            fingerprint = None  # unusable fingerprint: key on the scorer itself
    if fingerprint is None:
        try:
            hash(scorer)
            fingerprint = scorer
        except TypeError:
            fingerprint = id(scorer)
    return (unit.key, target_hash, fingerprint)


@dataclass(frozen=True)
class RunStats:
    """How one run's units were satisfied."""

    total_units: int
    generated: int  # units that reached the executor (new model calls)
    cache_hits: int  # units satisfied from the result cache
    deduplicated: int  # units coalesced onto an identical in-run generation
    scores_computed: int = 0  # scorer invocations (score-cache misses)
    score_hits: int = 0  # units whose score came from the score cache
    generation_seconds: float = 0.0  # summed provider wall-clock of new calls
    profile: PhaseProfile | None = None  # phase breakdown (when profiling)
    score_workers: int = 0  # scoring worker processes this run used (0 = inline)
    read_lru_hits: int = 0  # store read-LRU hits during this run (disk cache)
    read_lru_misses: int = 0  # store read-LRU misses during this run
    bytes_read: int = 0  # record bytes read from store segments this run
    units_failed: int = 0  # units quarantined by the fault policy
    units_retried: int = 0  # units that needed at least one retry
    retry_seconds: float = 0.0  # failed-attempt time + backoff sleeps
    trace_id: str | None = None  # distributed-trace id (when tracing was on)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_units if self.total_units else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Unified stats payload (``repro.stats`` schema, kind ``"run"``).

        Key names match the dataclass fields — the shape manifests have
        always persisted — plus the schema/kind markers; the profile
        nests as its own dict.
        """
        payload = stats_dict("run")
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        payload["profile"] = (
            self.profile.as_dict() if self.profile is not None else None
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunStats":
        """Rehydrate from :meth:`as_dict` output *or* a pre-schema payload.

        Tolerant in both directions: marker keys and unknown future keys
        are ignored, and fields absent from old payloads keep their
        dataclass defaults.
        """
        body = strip_markers(dict(payload))
        profile = body.pop("profile", None)
        known = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in body.items() if key in known}
        try:
            return cls(
                **kwargs,
                profile=PhaseProfile.from_dict(profile)
                if profile is not None
                else None,
            )
        except TypeError as exc:
            raise HarnessError(f"malformed run-stats payload: {exc}") from None


@dataclass
class RunResult:
    """Executed plan: per-unit results plus reassembly helpers."""

    plan: Plan
    results: Mapping[str, UnitResult]
    stats: RunStats
    manifest: "RunManifest | None" = None  # recorded when a store was used
    failures: Mapping[str, UnitFailure] = None  # uid -> quarantined failure
    on_failure: str = "raise"  # the run's FaultPolicy disposition

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = {}

    def eval_result(self, spec: EvalSpec) -> EvalResult:
        """The :class:`EvalResult` for one ``add_eval`` handle.

        An eval whose units were quarantined by the fault policy raises
        :class:`~repro.errors.UnitFailedError` here (``isolate`` mode)
        or silently drops the failed epochs/samples (``skip`` mode).
        """
        return spec.assemble(
            self.results,
            failures=self.failures,
            skip_failed=self.on_failure == "skip",
        )

    def __getitem__(self, uid: str) -> UnitResult:
        return self.results[uid]


def run(
    plan: Plan,
    *,
    config: "RunConfig | None" = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    score_cache: ScoreCache | None = None,
    scheduler: Scheduler | None = None,
    store: "RunStore | None" = None,
    scoring: ScoringPool | None = None,
    faults: FaultPolicy | None = None,
    resume_from: str | None = None,
) -> RunResult:
    """Execute every unit of ``plan`` and score it against its target.

    See :func:`_run_impl` for the execution pipeline itself; this
    wrapper owns the run's **distributed trace**: when a
    :func:`repro.obs.tracing` tracer is active, the run opens its own
    trace (``run:<plan name>``), every span inside — including spans
    folded back from scoring-pool workers and the remote store server —
    is recorded with ids/parents/wall-clock placement, and the finished
    trace lands on the run's manifest (and its id on
    :attr:`RunStats.trace_id`).  A run started while another trace is
    already open simply folds its spans into the outer trace.  Telemetry
    never changes results: grids are bit-identical with tracing on or
    off.
    """
    tracer = active_tracer()
    handle = tracer.begin_trace(f"run:{plan.name}") if tracer is not None else None
    kwargs = dict(
        config=config,
        executor=executor,
        cache=cache,
        score_cache=score_cache,
        scheduler=scheduler,
        store=store,
        scoring=scoring,
        faults=faults,
        resume_from=resume_from,
    )
    if handle is None:
        return _run_impl(plan, **kwargs)
    finished: list = []

    def finish_trace():
        trace = tracer.end_trace(handle)
        finished.append(trace)
        return trace

    try:
        return _run_impl(plan, _finish_trace=finish_trace, **kwargs)
    finally:
        if not finished:  # the run raised before its trace was sealed
            tracer.end_trace(handle)


def _publish_run_metrics(registry, plan: Plan, stats: RunStats) -> None:
    """Fold one run's counters into the ambient metrics registry."""
    labels = {"plan": plan.name}
    registry.counter("repro_runs_total", "runs executed", ("plan",)).inc(**labels)
    units = registry.counter(
        "repro_run_units_total",
        "units by how they were satisfied",
        ("plan", "outcome"),
    )
    for outcome, count in (
        ("generated", stats.generated),
        ("cache_hit", stats.cache_hits),
        ("deduplicated", stats.deduplicated),
        ("failed", stats.units_failed),
    ):
        if count:
            units.inc(count, outcome=outcome, **labels)
    for name, help_text, value in (
        ("repro_scores_computed_total", "scorer invocations", stats.scores_computed),
        ("repro_score_hits_total", "score-cache hits", stats.score_hits),
        ("repro_units_retried_total", "units needing retries", stats.units_retried),
        ("repro_read_lru_hits_total", "store read-LRU hits", stats.read_lru_hits),
        ("repro_read_lru_misses_total", "store read-LRU misses", stats.read_lru_misses),
        ("repro_store_bytes_read_total", "segment bytes read", stats.bytes_read),
    ):
        if value:
            registry.counter(name, help_text, ("plan",)).inc(value, **labels)
    registry.histogram(
        "repro_generation_seconds",
        "summed provider wall-clock per run",
        ("plan",),
    ).observe(stats.generation_seconds, **labels)


def _run_impl(
    plan: Plan,
    *,
    config: "RunConfig | None" = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    score_cache: ScoreCache | None = None,
    scheduler: Scheduler | None = None,
    store: "RunStore | None" = None,
    scoring: ScoringPool | None = None,
    faults: FaultPolicy | None = None,
    resume_from: str | None = None,
    _finish_trace: Callable[[], Any] | None = None,
) -> RunResult:
    """The execution pipeline behind :func:`run`.

    Results are independent of the executor *and* scheduler choice:
    seeds live inside the units, and generations are keyed by content,
    so serial, threaded, MPI-shard, async and batched execution (in any
    dispatch order, with any mix of cold/warm cache) produce
    bit-identical output.

    ``scheduler`` picks the dispatch order of the units that miss the
    cache (default: plan order); a scheduler exposing ``observe`` — the
    :class:`~repro.runtime.schedule.AdaptiveScheduler` — is fed each
    fresh generation's measured duration, so sharing one across runs
    trains its cost model online.  ``score_cache`` memoizes scores
    across runs; when omitted, a fresh per-run cache still collapses the
    metric work of deduplicated units.

    ``store`` plugs in a durable :class:`~repro.persist.RunStore`: unless
    overridden by an explicit ``cache``/``score_cache``, generations and
    scores are read from and written through to disk (shared with every
    process pointed at the same directory), and the run is recorded as a
    :class:`~repro.persist.RunManifest` — so an interrupted or repeated
    sweep re-generates only the units the store has never seen, and
    ``RunResult.manifest`` documents exactly how each run was satisfied.

    ``scoring`` plugs in a :class:`~repro.runtime.scoring.ScoringPool`:
    score-cache misses are computed in worker processes, overlapping
    generation when the executor streams (serial, threaded) and each
    other always; grids stay bit-identical to inline scoring.  Units
    sharing a scorer and target are submitted as one batched group
    (one worker call per chunk instead of one per score).  An
    :class:`~repro.runtime.scoring.AdaptiveScoringPool` additionally
    chooses its worker count here, per run, from its cost model — and
    is fed this run's measured per-unit costs afterwards.

    ``faults`` installs a :class:`~repro.runtime.faults.FaultPolicy` for
    the execution phase: every executor gains the same deterministic
    retry/backoff, per-unit deadlines and a run-shared retry budget, and
    — with ``on_failure="isolate"``/``"skip"`` — units that exhaust
    their chances are quarantined as per-uid
    :class:`~repro.runtime.faults.UnitFailure` records instead of
    aborting the sweep.  Failures are never cached, so re-running the
    same plan against the same store re-executes exactly the quarantined
    units; ``resume_from`` makes that linkage explicit by validating the
    prior run's manifest (same plan fingerprint) and recording it as
    this run's predecessor.

    ``config`` is the documented way to set all of the above at once: a
    :class:`~repro.runtime.config.RunConfig` carrying the same eight
    knobs as one immutable value.  The individual keyword arguments
    remain as a deprecation shim and merge into the config; supplying a
    knob both ways raises :class:`~repro.errors.HarnessError`.
    """
    merged = (config if config is not None else RunConfig()).merged_with_kwargs(
        executor=executor,
        cache=cache,
        score_cache=score_cache,
        scheduler=scheduler,
        store=store,
        scoring=scoring,
        faults=faults,
        resume_from=resume_from,
    )
    executor, cache, score_cache, scheduler = (
        merged.executor, merged.cache, merged.score_cache, merged.scheduler,
    )
    store, scoring, faults, resume_from = (
        merged.store, merged.scoring, merged.faults, merged.resume_from,
    )
    started_unix = time.time()
    started = time.perf_counter()
    if resume_from is not None:
        if store is None:
            raise HarnessError(
                "resume_from requires a store (the failure set to resume "
                "lives in the prior run's manifest)"
            )
        from repro.persist.manifest import plan_fingerprint

        prior = store.manifest(resume_from)
        if prior is None:
            raise HarnessError(
                f"store at {store.root} has no recorded run {resume_from!r}"
            )
        if prior.plan_fingerprint != plan_fingerprint(plan):
            raise HarnessError(
                f"run {resume_from!r} executed a different plan "
                f"(fingerprint {prior.plan_fingerprint[:12]}…); resume "
                "must replay the same plan against the same store"
            )
    fault_state = FaultState(faults) if faults is not None else None
    profiler = active_profiler()
    profile_before = profiler.snapshot() if profiler is not None else None
    if store is not None:
        if cache is None:
            cache = store.result_cache
        if score_cache is None:
            score_cache = store.score_cache()
    executor = executor or SerialExecutor()
    scheduler = scheduler if scheduler is not None else PlanOrderScheduler()
    score_cache = score_cache if score_cache is not None else ScoreCache()
    units = plan.units

    # a disk-backed cache exposes cheap read-LRU counters; the deltas
    # over this run land in RunStats (and therefore in the manifest)
    read_stats_fn = getattr(cache, "read_stats", None) if cache is not None else None
    reads_before = read_stats_fn() if read_stats_fn is not None else None

    # -- result-cache lookup + in-run dedup ----------------------------------
    generations: dict[str, Generation | None] = {}
    pending = []  # first unit per generation key that missed the cache
    cache_hits = 0
    with span("cache-get"):
        lookup_units = []  # first unit per distinct generation key
        for unit in units:
            if unit.key not in generations:
                generations[unit.key] = None  # claimed; filled below
                lookup_units.append(unit)
        hits: dict[str, Generation] = {}
        if cache is not None:
            get_many = getattr(cache, "get_many", None)
            if get_many is not None:
                # one batched lookup for the whole plan (the disk backend
                # sorts the reads by segment offset); semantics identical
                hits = get_many([unit.key for unit in lookup_units])
            else:
                for unit in lookup_units:
                    hit = cache.get(unit.key)
                    if hit is not None:
                        hits[unit.key] = hit
        for unit in lookup_units:
            hit = hits.get(unit.key)
            if hit is not None:
                generations[unit.key] = hit
                cache_hits += 1
            else:
                pending.append(unit)

    # -- score planning ------------------------------------------------------
    # A unit's score key needs only the generation key, the target and
    # the scorer — all known before execution — so score-cache hits are
    # resolved and pool submissions planned up front.
    target_hashes: dict[str, str] = {}  # per-run memo of target digests
    unit_skeys: dict[str, Hashable] = {}  # uid -> score key
    skey_units: dict[Hashable, WorkUnit] = {}  # first unit per score key
    for unit in units:
        target_hash = target_hashes.get(unit.target)
        if target_hash is None:
            target_hash = target_hashes[unit.target] = hashlib.sha256(
                unit.target.encode("utf-8")
            ).hexdigest()
        skey = score_key(unit, target_hash)
        unit_skeys[unit.uid] = skey
        if skey not in skey_units:
            skey_units[skey] = unit

    to_compute: dict[str, list[Hashable]] = {}  # generation key -> score keys
    with span("score"):  # cache consultation is part of the scoring phase
        # one batched lookup for the whole plan: a store-backed cache
        # resolves every LRU miss in a single store read (one round trip)
        cached_scores = score_cache.get_many(list(skey_units))
        for skey, unit in skey_units.items():
            if skey not in cached_scores:
                to_compute.setdefault(unit.key, []).append(skey)

    # -- scoring backend resolution ------------------------------------------
    # an adaptive pool picks its worker count now, from the number of
    # score computes this run actually needs (0 = score inline)
    adaptive = scoring if hasattr(scoring, "for_run") else None
    score_backend = scoring
    if adaptive is not None:
        score_backend = adaptive.for_run(
            sum(len(skeys) for skeys in to_compute.values())
        )

    pool_jobs: dict[Hashable, ScoreHandle] = {}

    def submit_scores(resolved: list[tuple[str, Generation]]) -> None:
        """Queue every score waiting on the given resolved generations.

        Scores sharing a (scorer, target) pair are submitted as one
        batched group — one worker call per chunk — when the backend
        supports it; results are identical to per-score submission.
        """
        groups: dict[tuple, list[tuple[Hashable, str]]] = {}
        for gen_key, gen in resolved:
            for skey in to_compute.get(gen_key, ()):
                unit = skey_units[skey]
                groups.setdefault((id(unit.scorer), unit.target), []).append(
                    (skey, gen.completion)
                )
        submit_many = getattr(score_backend, "submit_many", None)
        for (_scorer_id, target), entries in groups.items():
            scorer = skey_units[entries[0][0]].scorer
            if submit_many is not None and len(entries) > 1:
                handles = submit_many(
                    scorer, [completion for _skey, completion in entries], target
                )
                for (skey, _completion), handle in zip(entries, handles):
                    pool_jobs[skey] = handle
            else:
                for skey, completion in entries:
                    pool_jobs[skey] = score_backend.submit(
                        scorer, completion, target
                    )

    if score_backend is not None:
        # generations already satisfied from the cache can score now,
        # overlapping the execution phase below
        submit_scores(
            [(gen_key, gen) for gen_key, gen in generations.items() if gen is not None]
        )

    # -- execution -----------------------------------------------------------
    generation_seconds = 0.0
    failed: dict[str, FailedGeneration] = {}  # generation key -> failure
    ok_units: list = []  # executed units that actually produced a generation
    if pending:
        ordered = scheduler.order(pending)
        if len(ordered) != len(pending) or {u.uid for u in ordered} != {
            u.uid for u in pending
        }:
            raise HarnessError(
                f"scheduler {scheduler!r} must return a permutation of the "
                f"pending units ({len(pending)} in, {len(ordered)} out)"
            )
        execute_iter = (
            getattr(executor, "execute_iter", None)
            if score_backend is not None
            else None
        )
        produced: dict[str, Generation] = {}
        scope = (
            fault_scope(fault_state)
            if fault_state is not None
            else contextlib.nullcontext()
        )
        with scope, span("generate"):
            # simulated models compute their payloads on every free core
            # first; the executor then finds them done (same output)
            generate_ahead([(unit.model, unit.prompt, unit.config) for unit in ordered])
            if execute_iter is not None:
                # streaming: completed units flow into the scoring pool
                # while later units are still generating
                for gen in execute_iter(ordered):
                    produced[gen.key] = gen
                    if not isinstance(gen, FailedGeneration):
                        submit_scores([(gen.key, gen)])
            else:
                produced = executor.execute(ordered)
        failed = {
            key: gen
            for key, gen in produced.items()
            if isinstance(gen, FailedGeneration)
        }
        missing = [u.uid for u in pending if u.key not in produced]
        if missing:
            raise HarnessError(
                f"executor {executor!r} returned no generation for units {missing}"
            )
        generations.update(produced)
        ok_units = (
            [unit for unit in pending if unit.key not in failed]
            if failed
            else list(pending)
        )
        if score_backend is not None and execute_iter is None:
            submit_scores([(unit.key, produced[unit.key]) for unit in ok_units])
        observe = getattr(scheduler, "observe", None)
        for unit in ok_units:
            gen = produced[unit.key]
            generation_seconds += gen.elapsed_s
            if observe is not None:
                observe(unit, gen.elapsed_s)
        if cache is not None and ok_units:
            # quarantined failures never enter the cache: the next run
            # against the same cache/store re-executes exactly them
            with span("cache-put"):
                put_many = getattr(cache, "put_many", None)
                if put_many is not None:
                    # one lock acquisition / append batch for backends that
                    # support it (in-memory, disk); semantics identical
                    put_many([produced[unit.key] for unit in ok_units])
                else:
                    for unit in ok_units:
                        cache.put(produced[unit.key])

    # -- scoring + assembly --------------------------------------------------
    # failures become per-uid records (deduplicated units sharing a
    # failed generation key all fail together) and are excluded from
    # scoring; EvalSpec.assemble surfaces them per evaluation
    failures: dict[str, UnitFailure] = {}
    if failed:
        for unit in units:
            failure = failed.get(unit.key)
            if failure is not None:
                failures[unit.uid] = failure.unit_failure(unit.uid)
    results: dict[str, UnitResult] = {}
    computed_scores: dict[Hashable, object] = {}
    scores_computed = score_hits = 0
    inline_scores = 0
    inline_score_seconds = 0.0
    with span("score"):
        for unit in units:
            gen = generations[unit.key]
            if isinstance(gen, FailedGeneration):
                continue
            skey = unit_skeys[unit.uid]
            score = cached_scores.get(skey)
            if score is not None:
                score_hits += 1
            else:
                score = computed_scores.get(skey)
                if score is None:
                    handle = pool_jobs.get(skey)
                    if handle is not None:
                        score = handle.result()
                    else:
                        score_started = time.perf_counter()
                        score = unit.scorer(gen.completion, unit.target)
                        inline_score_seconds += time.perf_counter() - score_started
                        inline_scores += 1
                    score_cache.put(skey, score)
                    computed_scores[skey] = score
                    scores_computed += 1
                else:
                    score_hits += 1
            results[unit.uid] = UnitResult(uid=unit.uid, generation=gen, score=score)

    if adaptive is not None:
        # feed the cost model: inline scoring wall time (pooled scores
        # overlap generation, so only inline computes carry a clean
        # per-unit cost) plus this run's per-unit generation cost
        adaptive.observe_run(
            scores_computed=inline_scores,
            score_seconds=inline_score_seconds,
            generated=len(ok_units),
            generation_seconds=generation_seconds,
        )

    read_lru_hits = read_lru_misses = bytes_read = 0
    if reads_before is not None:
        reads_after = read_stats_fn()
        read_lru_hits = reads_after["read_lru_hits"] - reads_before["read_lru_hits"]
        read_lru_misses = (
            reads_after["read_lru_misses"] - reads_before["read_lru_misses"]
        )
        bytes_read = reads_after["bytes_read"] - reads_before["bytes_read"]

    if score_backend is not None:
        score_workers = getattr(score_backend, "max_workers", 0)
    elif adaptive is not None:
        score_workers = adaptive.last_workers  # 0: the run scored inline
    else:
        score_workers = 0

    unique_keys = len(generations)
    profile = None
    if profiler is not None:
        profile = profiler.snapshot().subtract(profile_before)
    # seal the run's distributed trace (if any) before stats are frozen,
    # so the trace id travels with the stats and the span set is complete
    trace = _finish_trace() if _finish_trace is not None else None
    wall_seconds = time.perf_counter() - started
    stats = RunStats(
        total_units=len(units),
        generated=len(ok_units),
        cache_hits=cache_hits,
        deduplicated=len(units) - unique_keys,
        scores_computed=scores_computed,
        score_hits=score_hits,
        generation_seconds=generation_seconds,
        profile=profile,
        score_workers=score_workers,
        read_lru_hits=read_lru_hits,
        read_lru_misses=read_lru_misses,
        bytes_read=bytes_read,
        units_failed=len(failures),
        units_retried=fault_state.units_retried if fault_state is not None else 0,
        retry_seconds=fault_state.retry_seconds if fault_state is not None else 0.0,
        trace_id=trace.trace_id if trace is not None else None,
    )
    registry = active_registry()
    if registry is not None:
        _publish_run_metrics(registry, plan, stats)
    manifest = None
    if store is not None:
        manifest = store.record_run(
            plan=plan,
            stats=stats,
            executor=executor,
            scheduler=scheduler,
            cache=cache,
            started_unix=started_unix,
            wall_seconds=wall_seconds,
            failures=tuple(failures.values()),
            resumed_from=resume_from,
            trace=trace.as_dict() if trace is not None else None,
            metrics=registry.snapshot() if registry is not None else None,
        )
    return RunResult(
        plan=plan,
        results=results,
        stats=stats,
        manifest=manifest,
        failures=failures,
        on_failure=faults.on_failure if faults is not None else "raise",
    )
