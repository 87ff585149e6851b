"""The offline model provider.

Generation pipeline (the same code path a real provider would sit behind):

0. ahead of a sweep, :func:`generate_ahead` may run steps 1-4 for every
   pending request on the CPUs this process is allowed to use: forked
   helpers and this process pull calibration cells off one queue, and
   the payloads wait in a per-model memo that step 4 reads first;
1. concatenate the user messages and recover the experiment cell from the
   prompt text alone (:func:`repro.llm.intent.analyze_prompt`);
2. fetch the ground-truth artifact for that cell and build the
   cell-specific corruption-operator sequence from the model's knowledge
   profile;
3. calibrate the corruption depth ``k*`` against the profile's target
   score (cached per cell — this is the model's "competence");
4. per trial: derive an RNG from (model, cell, seed), sample jitter and a
   within-band operator shuffle using real temperature/top_p decoding
   math (deterministic when temperature is 0 or the model's jitter scale
   is 0, as with Claude), and apply ``k* + jitter`` operators;
5. wrap the artifact in model-styled chatter + a markdown fence, account
   tokens, and return a :class:`~repro.llm.types.ModelOutput`.

Few-shot prompts raise the effective competence target (step 3 uses the
few-shot calibration table) and suppress the worst-case/hallucination
operators — providing an example config demonstrably prevents inventing
fields, which is the paper's §4.5 finding.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import tempfile
import threading
import warnings
from concurrent.futures import Future
from typing import IO, Iterable, Iterator, NamedTuple, NoReturn, Sequence

from repro.core.assets import annotated_producer, reference_config
from repro.errors import GenerationError
from repro.llm import tokenizer
from repro.llm.api import get_model
from repro.llm.calibration import (
    CalibrationResult,
    QualityCurve,
    calibrate,
    local_recalibrate,
)
from repro.llm.corruption import (
    CorruptionOp,
    build_ops,
    shuffle_within_bands,
)
from repro.llm.intent import Intent, analyze_prompt
from repro.llm.knowledge import ModelProfile
from repro.llm.sampling import sample_jitter
from repro.llm.types import (
    BatchRequest,
    ChatMessage,
    GenerateConfig,
    ModelOutput,
    ModelUsage,
)
from repro.metrics.compiled import CompiledReference, compile_reference
from repro.utils.rng import rng_for


class CalibratedCell(NamedTuple):
    """Everything one experiment cell computes exactly once.

    The compiled reference and the calibration-pass quality curve travel
    with the cell so later generations never re-tokenize the reference
    (every trial's recalibration scores against ``compiled``) and the
    deterministic path never re-applies operators (``curve.text(k)``
    returns the memoized prefix).
    """

    ops: list[CorruptionOp]
    calib: CalibrationResult
    curve: QualityCurve
    compiled: CompiledReference


class SimulatedModel:
    """A behavioural simulator behind the ModelAPI protocol."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = f"sim/{profile.name}"
        self._lock = threading.Lock()
        # key -> Future so concurrent callers of the same cell compute once
        self._cell_cache: dict[tuple, Future[CalibratedCell]] = {}
        # cells a generate_ahead helper calibrated, built on first use:
        # key -> (calibrated depth, achieved BLEU, text at that depth)
        self._adopted: dict[tuple, tuple[int, float, str]] = {}
        # payloads generate_ahead computed: memo key -> [payload, uses left]
        self._ahead: dict[tuple, list] = {}

    # -- ModelAPI ------------------------------------------------------------

    def generate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:
        prompt = self._prompt_of(messages)
        intent = analyze_prompt(prompt)
        return self._complete(prompt, intent, config)

    def generate_batch(
        self, requests: Sequence[BatchRequest]
    ) -> list[ModelOutput]:
        """Native batched generation (one "round-trip" for the group).

        The batch amortizes per-request overhead the way a real batching
        endpoint amortizes the network round-trip: each distinct prompt
        is intent-analyzed once for the whole group (per-cell
        calibration is already memoized by :meth:`_cell`).  Outputs are
        bit-identical to per-request :meth:`generate` calls.
        """
        prepared: list[tuple[str, Intent, GenerateConfig]] = []
        intents: dict[str, Intent] = {}
        for messages, config in requests:
            prompt = self._prompt_of(messages)
            intent = intents.get(prompt)
            if intent is None:
                intent = intents[prompt] = analyze_prompt(prompt)
            prepared.append((prompt, intent, config))
        return [
            self._complete(prompt, intent, config)
            for prompt, intent, config in prepared
        ]

    def _prompt_of(self, messages: Sequence[ChatMessage]) -> str:
        prompt = "\n\n".join(m.content for m in messages if m.role != "assistant")
        if not prompt.strip():
            raise GenerationError(f"{self.name}: empty prompt")
        return prompt

    def _complete(
        self, prompt: str, intent: Intent, config: GenerateConfig
    ) -> ModelOutput:
        payload = self._take_ahead(intent, config)
        if payload is None:
            payload = self._generate_payload(intent, config)
        completion = self._decorate(payload, intent, config)
        usage = ModelUsage(
            input_tokens=tokenizer.count_tokens(prompt),
            output_tokens=tokenizer.count_tokens(completion),
        )
        return ModelOutput(
            model=self.name,
            completion=completion,
            usage=usage,
            stop_reason="stop",
            params_applied=not self.profile.ignore_sampling_params,
            metadata={"intent": intent},
        )

    # -- internals ---------------------------------------------------------------

    def reference_for(self, intent: Intent) -> str:
        """Ground-truth artifact for an experiment cell."""
        if intent.experiment == "configuration":
            return reference_config(intent.system)
        if intent.experiment == "annotation":
            return annotated_producer(intent.system)
        if intent.experiment == "translation":
            return annotated_producer(intent.target)
        raise GenerationError(f"unknown experiment {intent.experiment!r}")

    @staticmethod
    def _cell_key(intent: Intent) -> tuple:
        return (
            intent.experiment,
            intent.cell_system,
            intent.variant,
            intent.fewshot,
            intent.doccontext,
        )

    def _cell(self, intent: Intent) -> CalibratedCell:
        key = self._cell_key(intent)
        # publish a Future under the lock before computing, so concurrent
        # callers of the same cell wait for one calibration instead of
        # duplicating it (calibration is the expensive step)
        with self._lock:
            future = self._cell_cache.get(key)
            if future is not None:
                owned = False
            else:
                future = self._cell_cache[key] = Future()
                owned = True
        if not owned:
            return future.result()
        try:
            cell = self._calibrate_cell(intent, key)
        except BaseException as exc:
            with self._lock:
                self._cell_cache.pop(key, None)
            future.set_exception(exc)
            raise
        future.set_result(cell)
        return cell

    def _calibrate_cell(self, intent: Intent, key: tuple) -> CalibratedCell:
        reference = self.reference_for(intent)
        compiled = compile_reference(reference)
        knowledge = self.profile.knowledge_for(intent.experiment, intent.cell_system)
        if intent.fewshot:
            # an in-context example demonstrably suppresses schema invention:
            # strip hallucination/confusion/worst-case operators
            from repro.llm.knowledge import SystemKnowledge

            knowledge = SystemKnowledge(renames=knowledge.renames)
        elif intent.doccontext:
            # documentation snippets (RAG-lite) name the real fields, which
            # suppresses the worst case but not structural sloppiness
            from repro.llm.knowledge import SystemKnowledge

            knowledge = SystemKnowledge(
                renames=knowledge.renames,
                inserts=knowledge.inserts,
                drops=knowledge.drops,
            )
        ops = build_ops(
            reference,
            knowledge,
            chrf_bias=self.profile.bias_for(intent.experiment, intent.cell_system),
            seed_labels=(self.name, key),
        )
        target = self.profile.target_for(
            intent.experiment, intent.cell_system, intent.variant, intent.fewshot
        )
        if intent.doccontext and not intent.fewshot:
            # halfway between zero-shot and few-shot competence
            few = self.profile.target_for(
                intent.experiment, intent.cell_system, intent.variant, True
            )
            target = (target + few) / 2.0
        curve = QualityCurve(reference, ops, compiled=compiled)
        adopted = self._adopted.pop(key, None)
        if adopted is not None:
            k, achieved, text = adopted
            curve.hold(k, text)
            return CalibratedCell(
                ops, CalibrationResult(k, achieved, target), curve, compiled
            )
        result = calibrate(reference, ops, target, curve=curve)
        # the cell is cached for the process lifetime but only the
        # calibrated depth's text is ever read again: drop the rest
        curve.compact(keep=(result.k,))
        return CalibratedCell(ops, result, curve, compiled)

    def _generate_payload(self, intent: Intent, config: GenerateConfig) -> str:
        cell = self._cell(intent)
        reference = cell.curve.reference
        temperature, top_p = self._effective_sampling(config)
        rng = rng_for(self.name, intent.experiment, intent.cell_system,
                      intent.variant, intent.fewshot, intent.doccontext,
                      config.seed)
        if self.profile.epoch_jitter <= 0 or temperature == 0:
            # deterministic decoding: identical artifact every trial — the
            # calibration pass already built this prefix, so reuse it
            return cell.curve.text(cell.calib.k)
        # trial-to-trial variation: perturb the competence target by a few
        # points (sampled with real temperature/top_p decoding math), then
        # re-pick the depth on this trial's shuffled operator order
        epoch_ops = shuffle_within_bands(cell.ops, rng)
        jitter_points = sample_jitter(
            rng,
            scale=self.profile.epoch_jitter,
            temperature=temperature,
            top_p=top_p,
        )
        target = min(100.0, max(0.0, cell.calib.target_bleu + jitter_points))
        epoch_curve = QualityCurve(reference, epoch_ops, compiled=cell.compiled)
        k = local_recalibrate(
            reference, epoch_ops, target, center=cell.calib.k, curve=epoch_curve
        )
        return epoch_curve.text(k)

    def _ahead_key(self, intent: Intent, config: GenerateConfig) -> tuple:
        """Everything :meth:`_generate_payload` reads: cell, seed, sampling."""
        return (self._cell_key(intent), config.seed, *self._effective_sampling(config))

    def _take_ahead(self, intent: Intent, config: GenerateConfig) -> str | None:
        """The payload :func:`generate_ahead` computed for this request, if any."""
        if not self._ahead:
            return None
        key = self._ahead_key(intent, config)
        with self._lock:
            entry = self._ahead.get(key)
            if entry is None:
                return None
            entry[1] -= 1
            if not entry[1]:
                del self._ahead[key]
        return entry[0]

    def _adopt(self, intent: Intent, calibrated: tuple[int, float, str]) -> None:
        """Keep a helper's calibration of a cell for :meth:`_calibrate_cell`."""
        self._adopted[self._cell_key(intent)] = calibrated

    def _effective_sampling(self, config: GenerateConfig) -> tuple[float, float]:
        if self.profile.ignore_sampling_params:
            # o3-style endpoints decode with their own fixed settings
            return 1.0, 1.0
        return config.temperature, config.top_p

    def _decorate(self, payload: str, intent: Intent, config: GenerateConfig) -> str:
        rng = rng_for(self.name, "chatter", intent.experiment, intent.cell_system,
                      intent.variant, config.seed)
        prefix = self.profile.chatter_prefixes[
            int(rng.integers(0, len(self.profile.chatter_prefixes)))
        ]
        fence = self.profile.fence_language(intent.experiment, intent.cell_system)
        parts = [prefix, f"```{fence}\n{payload}\n```"]
        # the fabricated-citation suffix shows up exactly where the paper
        # saw it: zero-shot Wilkins configuration requests
        if (
            self.profile.chatter_suffixes
            and intent.experiment == "configuration"
            and intent.system == "wilkins"
            and not intent.fewshot
        ):
            suffix = next((s for s in self.profile.chatter_suffixes if s), "")
            if suffix:
                parts.append(suffix)
        return "\n\n".join(p for p in parts if p)

    # -- introspection (used by benches and tests) ---------------------------------

    def calibration_for(self, intent: Intent) -> CalibrationResult:
        """Expose the calibrated depth/score for a cell (diagnostics)."""
        return self._cell(intent).calib

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedModel({self.name!r})"


# -- generate-ahead -----------------------------------------------------------

_QUEUE_ITEM = struct.Struct("<H")
# the whole queue is written before anyone reads it, so it must fit in
# one pipe buffer: 4 KiB, the least a Linux pipe holds
_QUEUE_CAP = 4096 // _QUEUE_ITEM.size
# the models whose memos the last generate_ahead call filled
_memo_holders: list[SimulatedModel] = []


class _CellGroup(NamedTuple):
    """One simulated model's pending requests for one calibration cell."""

    model: SimulatedModel
    intent: Intent
    configs: dict[tuple, GenerateConfig]  # memo key -> a config with that key
    uses: dict[tuple, int]  # memo key -> requests that will read it

    def payloads(self) -> dict[tuple, str]:
        return {
            key: self.model._generate_payload(self.intent, config)
            for key, config in self.configs.items()
        }


def generate_ahead(requests: Iterable[tuple[str, str, GenerateConfig]]) -> None:
    """Compute the payloads of a sweep's simulated requests on every free core.

    ``requests`` are the ``(model name, prompt, config)`` triples of the
    units a sweep is about to execute.  Requests to simulated models are
    grouped by calibration cell.  ``cores - 1`` forked helpers and this
    process pull the groups off one shared queue; each calibrates its
    group's cell unless it is cached, then computes the payload of every
    config.  The payloads wait in the models' memos until
    :meth:`SimulatedModel.generate` reads them, so every output is
    exactly what the in-process path gives; only where the work runs
    changes.  A cell a helper calibrated travels back as ``(k, achieved
    BLEU, text at k)`` and becomes a cached cell on first use.

    Helpers are forked, not spawned: they need this process's models and
    calibrated cells, which a spawned worker would have to rebuild.  It
    forks only when ``os.sched_getaffinity`` exists and allows two or
    more CPUs, no other Python thread is alive (a fork would copy the
    locks it holds), and there are two or more groups; otherwise it
    returns at once.  A group that raises, a helper that dies and an
    unreadable result all leave their groups out of the memo: those
    requests are computed in-process at generate time, and raise there
    as they always did.  Each call replaces the previous call's memos.
    """
    global _memo_holders
    for model in _memo_holders:
        model._ahead = {}
    _memo_holders = []
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        return
    groups = _cell_groups(requests)[:_QUEUE_CAP]
    if len(groups) < 2:
        return
    _memo_holders = list({id(group.model): group.model for group in groups}.values())
    _run_groups(groups, helpers=min(cores, len(groups)) - 1)


def _cell_groups(requests: Iterable[tuple[str, str, GenerateConfig]]) -> list[_CellGroup]:
    """The simulated requests grouped by (model, cell), in request order."""
    providers: dict[str, object] = {}
    groups: dict[tuple, _CellGroup] = {}
    for name, prompt, config in requests:
        try:
            model = providers.get(name)
            if model is None:
                model = providers[name] = get_model(name).provider
            if not isinstance(model, SimulatedModel):
                continue
            intent = analyze_prompt(model._prompt_of([ChatMessage.user(prompt)]))
            key = model._ahead_key(intent, config)
        except Exception:
            continue  # the unit raises at generate time, as it always did
        group = groups.get((id(model), key[0]))
        if group is None:
            group = groups[(id(model), key[0])] = _CellGroup(model, intent, {}, {})
        group.configs.setdefault(key, config)
        group.uses[key] = group.uses.get(key, 0) + 1
    return list(groups.values())


def _run_groups(groups: list[_CellGroup], helpers: int) -> None:
    """Work the queue here and in ``helpers`` forked helpers; fill the memos."""
    queue, write_end = os.pipe()
    os.write(write_end, b"".join(_QUEUE_ITEM.pack(i) for i in range(len(groups))))
    os.close(write_end)  # every reader sees end-of-file once the queue is empty
    sinks: list[IO[bytes]] = []
    pids: list[int] = []
    try:
        for _ in range(helpers):
            sinks.append(tempfile.TemporaryFile())
            pid = _fork()
            if pid == 0:
                _helper(groups, queue, sinks[-1])
            pids.append(pid)
        for index in _pulled(queue):
            try:
                payloads = groups[index].payloads()
            except Exception:
                continue
            _remember(groups[index], payloads)
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
        for sink in sinks:
            sink.seek(0)
            for index, calibrated, payloads in _records(sink):
                if calibrated is not None:
                    groups[index].model._adopt(groups[index].intent, calibrated)
                _remember(groups[index], payloads)
    finally:
        os.close(queue)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for sink in sinks:
            sink.close()


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns whenever the process has more than one OS
        # thread, and numpy's OpenBLAS pool is one.  No Python thread is
        # alive (generate_ahead checked), the BLAS pool is fork-safe
        # through pthread_atfork, and the child runs only the simulator
        # before os._exit.
        warnings.filterwarnings(
            "ignore", message=r".*multi-threaded, use of fork\(\)",
            category=DeprecationWarning,
        )
        return os.fork()


def _helper(groups: list[_CellGroup], queue: int, sink: IO[bytes]) -> NoReturn:
    """A forked helper's whole life: work the queue, write results, exit."""
    code = 1
    try:
        for index in _pulled(queue):
            record = _helper_record(groups[index], index)
            if record is not None:
                pickle.dump(record, sink, pickle.HIGHEST_PROTOCOL)
                sink.flush()
        code = 0
    finally:
        os._exit(code)


def _helper_record(group: _CellGroup, index: int) -> tuple | None:
    """``(index, calibrated cell or None, payloads)``; None if the group raised."""
    model = group.model
    key = model._cell_key(group.intent)
    fresh = key not in model._cell_cache and key not in model._adopted
    try:
        payloads = group.payloads()
    except Exception:
        return None
    calibrated = None
    if fresh:  # calibrated here: ship what the parent needs to adopt it
        cell = model._cell(group.intent)
        calibrated = (cell.calib.k, cell.calib.achieved_bleu, cell.curve.text(cell.calib.k))
    return index, calibrated, payloads


def _pulled(queue: int) -> Iterator[int]:
    """Group indices taken off the shared queue until it runs dry."""
    size = _QUEUE_ITEM.size
    while len(chunk := os.read(queue, size)) == size:
        yield _QUEUE_ITEM.unpack(chunk)[0]


def _records(sink: IO[bytes]) -> Iterator[tuple]:
    """A helper's results, up to the first one that cannot be read."""
    while True:
        try:
            record = pickle.load(sink)
        except Exception:  # end of file, or a record its helper died writing
            return
        yield record


def _remember(group: _CellGroup, payloads: dict[tuple, str]) -> None:
    memo = group.model._ahead
    for key, payload in payloads.items():
        memo[key] = [payload, group.uses[key]]
