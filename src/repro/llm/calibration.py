"""Calibration: choose the corruption depth that hits a target score.

Given an ordered operator sequence, the quality curve ``BLEU(k)`` for
``k = 0..N`` is evaluated through a :class:`QualityCurve`.  Prefix
state ``k`` (a line list) is built by applying *one* operator to state
``k-1``, and each depth is scored once and memoized.

Scoring runs on a delta engine, :class:`repro.metrics.compiled.BleuCursor`:
one running set of BLEU statistics (per-line tokens, hypothesis n-gram
counts, clipped-match totals, hypothesis length) that the curve walks
from state to state.  Depth ``k+1`` differs from depth ``k`` by one
operator that usually touches one line, so each step re-tokenizes and
re-counts only the changed lines and their ``max_order - 1`` tokens of
context instead of the whole artifact.  The re-count updates the
statistics one n-gram occurrence at a time (the old span's grams down
by one, the new span's up by one) with no per-span ``Counter`` to net
against another.  The integer statistics equal a
from-scratch count, so every score is bit-identical to
:func:`~repro.metrics.compiled.bleu_compiled` on ``apply_ops(ref, ops,
k)``.  A depth whose lines break the per-line tokenization
preconditions (a non-final line ending in ``-``, a ``\\r``, a single
line) falls back to ``bleu_compiled`` on the joined text; a request
below the cursor's depth (``local_recalibrate``'s full-scan fallback)
rebuilds the cursor there.  No text is joined unless a caller reads it
through :meth:`QualityCurve.text`.

Two kinds of work are never repeated.  A *no-op depth* — an operator
that returns its input list, or an equal one (a rename whose word is
gone, an anchor that is missing) — reuses the memoized score of depth
``k-1`` in O(1): no line diff, no cursor move, no BLEU arithmetic.  And
a curve that starts at depth 0 does not count the reference: it gets a
copy of the cursor its :class:`~repro.metrics.compiled.CompiledReference`
holds on the reference's own lines (:meth:`CompiledReference.bleu_cursor`),
counted once per reference and never moved.

The k with minimum ``|BLEU(k) − target|`` is selected by a straight
scan rather than bisection because the curve is only *approximately*
monotone — individual operators vary in impact.

Results are cached per (reference, ops identity, target) by the caller;
this module stays pure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import CalibrationError
from repro.llm.corruption import CorruptionOp, apply_ops  # noqa: F401 (re-export)
from repro.metrics.compiled import (
    BleuCursor,
    CompiledReference,
    bleu_compiled,
    compile_reference,
)


@dataclass(frozen=True)
class CalibrationResult:
    """Chosen corruption depth and the achieved score."""

    k: int
    achieved_bleu: float
    target_bleu: float

    @property
    def error(self) -> float:
        return abs(self.achieved_bleu - self.target_bleu)


class QualityCurve:
    """Incrementally evaluated ``BLEU(k)`` over corruption prefixes.

    The curve extends lazily: asking for depth ``k`` applies only the
    operators beyond the deepest prefix state built so far, and each
    depth's score is memoized.  Scores come from one :class:`BleuCursor`
    walked forward through the prefix states; texts are joined only for
    the depths :meth:`text` is asked for.  A windowed search followed by
    a full scan (the ``local_recalibrate`` fallback) therefore never
    re-applies an operator or re-scores a depth.  Corruption operators
    never mutate their input line lists, so prefix states can be
    retained and shared with the cursor safely.

    Thread-safe: curve objects are published process-wide inside the
    simulator's cached cells, so extension, scoring and the cursor run
    under one lock (the memoized fast paths stay lock-free).
    """

    __slots__ = ("reference", "ops", "compiled", "_states", "_texts", "_scores",
                 "_cursor", "_cursor_k", "_lock", "scores_computed")

    def __init__(
        self,
        reference: str,
        ops: list[CorruptionOp],
        *,
        compiled: CompiledReference | None = None,
    ) -> None:
        self.reference = reference
        self.ops = ops
        self.compiled = compiled if compiled is not None else compile_reference(reference)
        self._states: list[list[str]] = [reference.split("\n")]
        self._texts: dict[int, str] = {0: reference}
        self._scores: dict[int, float] = {}
        self._cursor: BleuCursor | None = None
        self._cursor_k = 0  # depth of the state the cursor was last fed
        self._lock = threading.Lock()
        self.scores_computed = 0  # instrumentation for benches and tests

    def __len__(self) -> int:
        """Number of depths on the curve (k = 0..len(ops))."""
        return len(self.ops) + 1

    def _clamp(self, k: int) -> int:
        return max(0, min(k, len(self.ops)))

    def _state(self, k: int) -> list[str]:
        """Prefix state ``k``, extending the built prefix (caller holds the lock)."""
        states = self._states
        while len(states) <= k:
            states.append(self.ops[len(states) - 1].apply(states[-1]))
        return states[k]

    def text(self, k: int) -> str:
        """The artifact at depth ``k`` — identical to ``apply_ops(ref, ops, k)``."""
        k = self._clamp(k)
        text = self._texts.get(k)
        if text is None:
            with self._lock:
                text = self._texts.get(k)
                if text is None:
                    text = self._texts[k] = "\n".join(self._state(k))
        return text

    def score(self, k: int) -> float:
        """Memoized ``BLEU(text(k), reference)``."""
        k = self._clamp(k)
        score = self._scores.get(k)
        if score is None:
            with self._lock:
                score = self._scores.get(k)
                if score is None:
                    score = self._scores[k] = self._score_unmemoized(k)
                    self.scores_computed += 1
        return score

    def _score_unmemoized(self, k: int) -> float:
        lines = self._state(k)
        if k:
            previous = self._states[k - 1]
            if lines is previous or lines == previous:
                # a no-op depth scores what depth k-1 scored
                score = self._scores.get(k - 1)
                if score is not None:
                    if self._cursor_k == k - 1:
                        self._cursor_k = k
                    return score
        cursor = self._cursor
        if cursor is None or k < self._cursor_k:
            cursor = self._cursor = (
                self.compiled.bleu_cursor() if k == 0 else BleuCursor(self.compiled)
            )
        else:
            # walk the intermediate states: one operator's change per step
            for j in range(self._cursor_k + 1, k):
                cursor.move(self._states[j])
        self._cursor_k = k
        if cursor.move(lines):
            return cursor.bleu()
        return bleu_compiled("\n".join(lines), self.compiled)

    def scores(self) -> list[float]:
        """The full curve, depths 0..len(ops)."""
        return [self.score(k) for k in range(len(self))]

    def compact(self, keep: tuple[int, ...] = ()) -> None:
        """Release prefix states, texts and the cursor, keeping ``keep``'s texts.

        A calibrated cell lives for the whole process but only ever
        re-reads the text at its calibrated depth; dropping the other
        prefix states and the cursor's per-line tokens and n-gram
        counters frees them for every cell.  Memoized *scores* are kept
        (one float per depth scored, up to ``len(ops) + 1``), and any
        depth's text or score can still be rebuilt on demand.
        """
        kept = {k: self.text(k) for k in keep}
        with self._lock:
            self._states = [self.reference.split("\n")]
            self._texts = {0: self.reference, **kept}
            self._cursor = None

    def hold(self, k: int, text: str) -> None:
        """Take ``text`` as the artifact at depth ``k`` without building it.

        For a cell calibrated in another process
        (:func:`repro.llm.simulated.generate_ahead`): the text arrives
        with the calibrated depth, so no operator is applied to serve it.
        """
        with self._lock:
            self._texts[self._clamp(k)] = text

    def best(self, target: float, lo: int = 0, hi: int | None = None) -> tuple[int, float]:
        """(k, error) minimising ``|score(k) − target|`` over ``[lo, hi]``.

        Ties break toward the lowest depth, matching the historical
        straight-scan behaviour.
        """
        hi = len(self.ops) if hi is None else min(hi, len(self.ops))
        best_k, best_err = lo, float("inf")
        for k in range(lo, hi + 1):
            err = abs(self.score(k) - target)
            if err < best_err:
                best_k, best_err = k, err
        return best_k, best_err


def quality_curve(reference: str, ops: list[CorruptionOp]) -> list[float]:
    """``BLEU(apply_ops(reference, ops, k), reference)`` for k = 0..len(ops)."""
    return QualityCurve(reference, ops).scores()


def local_recalibrate(
    reference: str,
    ops: list[CorruptionOp],
    target_bleu: float,
    *,
    center: int,
    window: int = 8,
    curve: QualityCurve | None = None,
) -> int:
    """Re-pick the best depth in a window around ``center``.

    Used per trial after the within-band operator shuffle: the prefix at
    the calibrated depth contains the same *number* of operators but a
    different mix, so the achieved score drifts; a cheap local search
    around the calibrated depth re-centres each trial on the target
    before jitter is applied.

    Pass the trial's :class:`QualityCurve` as ``curve`` to reuse its
    prefix states and memoized scores (the fallback full scan then skips
    every depth the window search already evaluated).
    """
    if curve is None:
        curve = QualityCurve(reference, ops)
    lo = max(0, center - window)
    hi = min(len(ops), center + window)
    best_k, best_err = curve.best(target_bleu, lo, hi)
    if best_err > 6.0:
        # the shuffle moved the target region outside the window (small op
        # sets shift a lot); fall back to a full scan of this epoch's curve
        for k in range(len(curve)):
            err = abs(curve.score(k) - target_bleu)
            if err < best_err:
                best_k, best_err = k, err
    return best_k


def calibrate(
    reference: str,
    ops: list[CorruptionOp],
    target_bleu: float,
    *,
    tolerance: float = 8.0,
    curve: QualityCurve | None = None,
) -> CalibrationResult:
    """Pick the operator-prefix length whose BLEU is closest to the target.

    ``curve`` lets a caller hand in a pre-built :class:`QualityCurve`
    (and keep it for later reuse — the simulator's per-cell calibration
    does this so the deterministic generation path never re-applies ops).

    Raises :class:`CalibrationError` when the closest achievable score is
    farther than ``tolerance`` points from the target — that signals the
    operator pool lacks dynamic range for this cell (e.g. a missing
    ``worst_case`` artifact for a very low target).
    """
    if not 0.0 <= target_bleu <= 100.0:
        raise CalibrationError(f"target BLEU out of range: {target_bleu}")
    if curve is None:
        curve = QualityCurve(reference, ops)
    scores = curve.scores()
    best_k, _ = curve.best(target_bleu)
    result = CalibrationResult(
        k=best_k,
        achieved_bleu=scores[best_k],
        target_bleu=target_bleu,
    )
    if result.error > tolerance:
        raise CalibrationError(
            f"cannot reach BLEU {target_bleu:.1f}: closest achievable is "
            f"{result.achieved_bleu:.1f} at k={best_k} "
            f"(curve range {min(scores):.1f}..{max(scores):.1f})"
        )
    return result
