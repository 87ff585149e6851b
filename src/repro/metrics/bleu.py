"""BLEU (bilingual evaluation understudy), sacrebleu-compatible.

Implements corpus and sentence BLEU with:

* mteval-13a tokenization (:mod:`repro.metrics.tokenizers`),
* clipped modified n-gram precision up to ``max_order`` (default 4),
* brevity penalty ``exp(1 - ref_len / hyp_len)`` for short hypotheses,
* the sacrebleu smoothing methods ``"exp"`` (default), ``"floor"``,
  ``"add-k"`` and ``"none"``.

Scores are in 0..100.  A hypothesis identical to its reference scores 100.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MetricError
from repro.metrics.tokenizers import clipped_matches, ngrams, tokenize_13a

DEFAULT_MAX_ORDER = 4


@dataclass
class BleuScore:
    """Full BLEU decomposition, mirroring sacrebleu's ``BLEUScore``."""

    score: float
    precisions: list[float]
    bp: float
    sys_len: int
    ref_len: int
    counts: list[int] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)

    def __float__(self) -> float:
        return self.score

    def format(self) -> str:
        precs = "/".join(f"{p:.1f}" for p in self.precisions)
        return (
            f"BLEU = {self.score:.2f} {precs} "
            f"(BP = {self.bp:.3f} ratio = {self.sys_len / max(self.ref_len, 1):.3f} "
            f"hyp_len = {self.sys_len} ref_len = {self.ref_len})"
        )


def _segment_statistics(
    hypothesis: str, references: Sequence[str], max_order: int
) -> tuple[list[int], list[int], int, int]:
    """Per-segment clipped match counts, totals, and length bookkeeping."""
    hyp_tokens = tokenize_13a(hypothesis)
    ref_token_lists = [tokenize_13a(r) for r in references]
    sys_len = len(hyp_tokens)
    # closest reference length (ties broken toward the shorter, per mteval)
    ref_len = min(
        (abs(len(rt) - sys_len), len(rt)) for rt in ref_token_lists
    )[1]

    counts: list[int] = []
    totals: list[int] = []
    for order in range(1, max_order + 1):
        hyp_grams = ngrams(hyp_tokens, order) if sys_len >= order else Counter()
        merged_ref: Counter = Counter()
        for rt in ref_token_lists:
            for gram, c in ngrams(rt, order).items():
                merged_ref[gram] = max(merged_ref[gram], c)
        counts.append(clipped_matches(hyp_grams, merged_ref))
        totals.append(max(sys_len - order + 1, 0))
    return counts, totals, sys_len, ref_len


def _compute_score(
    counts: list[int],
    totals: list[int],
    sys_len: int,
    ref_len: int,
    smooth_method: str,
    smooth_value: float | None,
    max_order: int,
) -> BleuScore:
    score, precisions = _score_and_precisions(
        counts, totals, sys_len, ref_len, smooth_method, smooth_value, max_order
    )
    bp = _brevity_penalty(sys_len, ref_len)
    return BleuScore(score, precisions, bp, sys_len, ref_len, counts, totals)


def _score_and_precisions(
    counts: Sequence[int],
    totals: Sequence[int],
    sys_len: int,
    ref_len: int,
    smooth_method: str,
    smooth_value: float | None,
    max_order: int,
) -> tuple[float, list[float]]:
    """The BLEU formula: (score, smoothed per-order precisions).

    The one copy of the arithmetic, shared by :func:`_compute_score` and
    :meth:`repro.metrics.compiled.BleuCursor.bleu`; it keeps no
    reference to ``counts`` or ``totals``.
    """
    precisions = [0.0] * max_order
    smooth_mteval = 1.0
    effective_order = max_order
    for n in range(max_order):
        if totals[n] == 0:
            # hypothesis shorter than the order: shrink the effective order
            effective_order = min(effective_order, n)
            continue
        if counts[n] == 0:
            if smooth_method == "exp":
                smooth_mteval *= 2.0
                precisions[n] = 100.0 / (smooth_mteval * totals[n])
            elif smooth_method == "floor":
                floor = 0.1 if smooth_value is None else smooth_value
                precisions[n] = 100.0 * floor / totals[n]
            elif smooth_method == "add-k":
                k = 1.0 if smooth_value is None else smooth_value
                precisions[n] = 100.0 * k / (totals[n] + k)
            else:  # "none"
                precisions[n] = 0.0
        else:
            if smooth_method == "add-k" and n > 0:
                k = 1.0 if smooth_value is None else smooth_value
                precisions[n] = 100.0 * (counts[n] + k) / (totals[n] + k)
            else:
                precisions[n] = 100.0 * counts[n] / totals[n]

    if effective_order == 0 or sys_len == 0 or ref_len == 0:
        # sys_len == 0: nothing was produced; ref_len == 0: nothing to
        # match, so smoothing must not fabricate a positive score
        return 0.0, precisions

    usable = precisions[:effective_order] if effective_order < max_order else precisions
    if any(p <= 0.0 for p in usable):
        return 0.0, precisions
    log_avg = sum(math.log(p) for p in usable) / len(usable)
    score = math.exp(log_avg)
    score *= _brevity_penalty(sys_len, ref_len)
    return min(score, 100.0), precisions


def _brevity_penalty(sys_len: int, ref_len: int) -> float:
    if sys_len == 0:
        return 0.0
    if sys_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / sys_len)


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]] | Sequence[str],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> BleuScore:
    """Corpus-level BLEU over parallel hypothesis/reference segments.

    ``references`` may be a flat list (one reference per hypothesis) or a
    list of reference lists (multi-reference).
    """
    if smooth_method not in ("exp", "floor", "add-k", "none"):
        raise MetricError(f"unknown BLEU smoothing method: {smooth_method!r}")
    if len(hypotheses) == 0:
        raise MetricError("corpus_bleu requires at least one segment")
    norm_refs: list[Sequence[str]] = []
    for ref in references:
        norm_refs.append([ref] if isinstance(ref, str) else list(ref))
    if len(norm_refs) != len(hypotheses):
        raise MetricError(
            f"got {len(hypotheses)} hypotheses but {len(norm_refs)} reference sets"
        )

    counts = [0] * max_order
    totals = [0] * max_order
    sys_len = ref_len = 0
    for hyp, refs in zip(hypotheses, norm_refs):
        if not refs:
            raise MetricError("every hypothesis needs at least one reference")
        c, t, sl, rl = _segment_statistics(hyp, refs, max_order)
        counts = [a + b for a, b in zip(counts, c)]
        totals = [a + b for a, b in zip(totals, t)]
        sys_len += sl
        ref_len += rl
    return _compute_score(
        counts, totals, sys_len, ref_len, smooth_method, smooth_value, max_order
    )


def bleu(
    hypothesis: str,
    reference: str | Sequence[str],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> float:
    """Sentence-level BLEU score (0..100) of ``hypothesis`` vs ``reference``."""
    refs = [reference] if isinstance(reference, str) else list(reference)
    return corpus_bleu(
        [hypothesis],
        [refs],
        max_order=max_order,
        smooth_method=smooth_method,
        smooth_value=smooth_value,
    ).score
