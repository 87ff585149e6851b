"""Layer spans for the traced run, recorded from outside ``src/``.

:class:`LayerTracer` replaces each layer's public function *at the name
its caller looks up* with a timing wrapper — e.g.
``repro.llm.simulated.calibrate``, which is what ``SimulatedModel``
calls, not only its home in ``repro.llm.calibration``.  Spans nest on
one stack (every workload runs serially on one thread), so each span
gets its inclusive time and its self time: inclusive minus the part of
its interval that child spans cover.  :meth:`LayerTracer.restore` puts
every original back.

The blocking-step breakdown (:attr:`LayerTracer.step_s`) partitions the
traced time the same way, except that a calibration or recalibration
keeps the self time of every span nested inside it: "where did the time
go" then reads calibrate / recalibrate / generate / score / runtime /
store round trips / build / render, summing to the traced wall time.

Program counters the spans read (``QualityCurve.scores_computed``,
``RunStats`` on each ``runtime.run`` result) are folded into
:attr:`LayerTracer.counts` by per-span hooks.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# span name -> layer, for per-layer self time
LAYER_OF = {
    "experiments.run": "experiments",
    "runtime.run": "runtime",
    "llm.generate": "llm",
    "llm.calibrate": "llm",
    "llm.recalibrate": "llm",
    "llm.corrupt": "llm",
    "metrics.bleu_compiled": "metrics",
    "metrics.score": "metrics",
    "serve.client.get": "serve",
    "serve.client.record_run": "serve",
    "serve.client.exchange": "serve",
    "reporting.render": "reporting",
}

# spans whose nested work (curve text, curve scoring) counts as theirs
# in the blocking-step breakdown, :attr:`LayerTracer.step_s`
STEPS = ("llm.calibrate", "llm.recalibrate")


class LayerTracer:
    """Nested timing spans around patched layer entry points."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # inclusive seconds
        self.self_s: defaultdict = defaultdict(float)  # minus child spans
        self.step_s: defaultdict = defaultdict(float)  # blocking-step partition
        self.counts: Counter = Counter()  # hook-recorded program counters
        self.run_stats: list = []  # RunStats of every runtime.run
        self._stack: list[list] = []  # per open span: [child seconds, step]
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``hook(tracer, bound_args, result)`` runs after a call returns,
        outside the span's timed interval.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if hook is not None else None
        stack, calls, total = self._stack, self.calls, self.total
        self_s, step_s = self.self_s, self.step_s

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            step = stack[-1][1] if stack and stack[-1][1] else (
                name if name in STEPS else None
            )
            frame = [0.0, step]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - frame[0]
                step_s[step or name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_self(self) -> dict[str, float]:
        """Seconds of self time per layer (sum over its spans)."""
        layers: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[LAYER_OF[name]] += seconds
        return dict(layers)


def _depths(key: str):
    """Hook: count the depths a calibration scored on the curve it used.

    The caller hands the curve in as ``curve=``; the count read back is
    the program's own ``QualityCurve.scores_computed``, which starts at
    zero on the fresh curve the simulator builds per calibration.
    """

    def hook(tracer: LayerTracer, args: dict, _result) -> None:
        curve = args.get("curve")
        scored = curve.scores_computed if curve is not None else 0
        tracer.counts[f"{key}.depths_scored"] += scored
        center, window, ops = args.get("center"), args.get("window"), args.get("ops")
        if key == "llm.recalibrate" and None not in (center, window, ops):
            lo, hi = max(0, center - window), min(len(ops), center + window)
            # a depth outside the window was scored: the windowed search
            # fell back to a scan of the whole curve
            if scored > hi - lo + 1:
                tracer.counts["llm.recalibrate.fallbacks"] += 1

    return hook


def _keep_stats(tracer: LayerTracer, _args: dict, result) -> None:
    tracer.run_stats.append(result.stats)


def install(remote: bool) -> LayerTracer:
    """Wrap every measured layer's entry points; returns the tracer."""
    import repro.core.experiments as experiments
    import repro.core.experiments.fewshot as fewshot
    import repro.core.experiments.prompt_sensitivity as prompt_sensitivity
    import repro.core.scorers as scorers
    import repro.llm.calibration as calibration
    import repro.llm.simulated as simulated
    import repro.metrics.kernels as kernels
    import repro.reporting as reporting
    import repro.runtime as runtime

    tracer = LayerTracer()
    for runner in ("run_configuration", "run_annotation", "run_translation",
                   "run_fewshot", "run_prompt_sensitivity"):
        tracer.wrap(experiments, runner, "experiments.run")
    # run_grid_sweep imports repro.runtime.run at call time; the fewshot
    # and prompt-sensitivity runners bound it at import
    for owner in (runtime, fewshot, prompt_sensitivity):
        tracer.wrap(owner, "run", "runtime.run", hook=_keep_stats)
    tracer.wrap(simulated.SimulatedModel, "generate", "llm.generate")
    tracer.wrap(simulated, "calibrate", "llm.calibrate",
                hook=_depths("llm.calibrate"))
    tracer.wrap(simulated, "local_recalibrate", "llm.recalibrate",
                hook=_depths("llm.recalibrate"))
    tracer.wrap(calibration.QualityCurve, "text", "llm.corrupt")
    tracer.wrap(calibration, "bleu_compiled", "metrics.bleu_compiled")
    tracer.wrap(kernels, "bleu_compiled", "metrics.bleu_compiled")
    tracer.wrap(scorers.CodeSimilarityScorer, "__call__", "metrics.score")
    for renderer in ("render_grid_table", "render_fewshot_table",
                     "render_figure1", "compare_with_paper"):
        tracer.wrap(reporting, renderer, "reporting.render")
    if remote:
        from repro.serve import client

        tracer.wrap(client.RemoteRunStore, "get_records", "serve.client.get")
        tracer.wrap(client.RemoteRunStore, "record_run",
                    "serve.client.record_run")
        tracer.wrap(client.StoreClient, "_exchange", "serve.client.exchange")
    return tracer
