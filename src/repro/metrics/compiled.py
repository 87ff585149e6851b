"""Precompiled references: tokenize once, score many.

Every calibrated cell and every scored unit compares hundreds of
hypotheses against the *same* reference artifact.  The plain
:func:`~repro.metrics.bleu.bleu` / :func:`~repro.metrics.chrf.chrf`
entry points re-tokenize and re-count that reference on every call —
pure waste on the hot path.  :class:`CompiledReference` does the work
once (13a tokens, per-order token n-gram counters, per-order character
n-gram counters) and :func:`bleu_compiled` / :func:`chrf_compiled`
score a hypothesis against it.

Both compiled scorers run the *same arithmetic in the same order* as
the reference implementations (they share ``_compute_score`` /
``_fscore``), so results are numerically identical — property-tested to
1e-9 in ``tests/test_metrics_compiled.py``, and in practice bit-equal.

:func:`compile_reference` is LRU-cached by reference *content hash*, so
scorer instances, calibration cells and benches that share an artifact
also share one compiled object.  The cache capacity is configurable via
``REPRO_COMPILE_CACHE`` (entries; default 512, 0 disables caching) to
bound memory on many-artifact sweeps — compiled objects now also carry
interned numpy n-gram vocabularies (see :mod:`repro.metrics.kernels`),
so a pinned entry is no longer just a few counters.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import Counter, OrderedDict
from itertools import chain
from typing import Sequence

from repro.errors import MetricError
from repro.metrics.bleu import DEFAULT_MAX_ORDER, _compute_score, _score_and_precisions
from repro.metrics.chrf import DEFAULT_BETA, DEFAULT_CHAR_ORDER, _fscore
from repro.metrics.tokenizers import (
    char_ngrams,
    clipped_matches,
    line_tokens,
    ngrams,
    tokenize_13a_cached,
    tokenize_lines,
)


class CompiledReference:
    """One reference artifact with all metric statistics precomputed lazily.

    Counters are filled on first use per (order, options) and shared by
    every subsequent scoring call.  Fills are idempotent, so concurrent
    access from executor threads is safe without a lock.
    """

    __slots__ = (
        "text",
        "_tokens",
        "_token_ngrams",
        "_ngram_tables",
        "_char_grams",
        "_char_totals",
        "_kernels",
        "_cursor",
    )

    def __init__(self, text: str) -> None:
        self.text = text
        self._tokens: tuple[str, ...] | None = None
        self._token_ngrams: dict[int, Counter] = {}
        self._ngram_tables: dict[int, dict[tuple[str, ...], int]] = {}
        self._char_grams: dict[tuple[int, bool], Counter] = {}
        self._char_totals: dict[tuple[int, bool], int] = {}
        # interned vectorized-kernel vocabularies, keyed and filled by
        # repro.metrics.kernels (False marks "vectorization unsupported
        # for this reference/options", e.g. packed codes would overflow)
        self._kernels: dict[tuple, object] = {}
        # the BleuCursor on the reference's own lines (False: the lines
        # break the per-line tokenization preconditions)
        self._cursor: BleuCursor | bool | None = None

    @property
    def tokens(self) -> tuple[str, ...]:
        if self._tokens is None:
            self._tokens = tokenize_13a_cached(self.text)
        return self._tokens

    @property
    def ref_len(self) -> int:
        return len(self.tokens)

    def token_ngrams(self, order: int) -> Counter:
        """Token ``order``-gram multiset (computed once per order)."""
        grams = self._token_ngrams.get(order)
        if grams is None:
            grams = self._token_ngrams[order] = ngrams(self.tokens, order)
        return grams

    def ngram_table(self, max_order: int) -> dict[tuple[str, ...], int]:
        """Every token 1..``max_order``-gram's count, in one dict.

        A gram's order is its tuple length, so the orders share one key
        space; :class:`BleuCursor` looks up touched grams of any order
        with a single probe.
        """
        table = self._ngram_tables.get(max_order)
        if table is None:
            table = {}
            for order in range(1, max_order + 1):
                table.update(self.token_ngrams(order))
            self._ngram_tables[max_order] = table
        return table

    def bleu_cursor(self) -> BleuCursor:
        """A fresh :class:`BleuCursor` already on the reference's lines.

        The reference is counted once, into a cursor this object keeps
        and never moves; every call returns a copy of it, which shares no
        mutable state with it.  A reference whose lines the cursor
        refuses yields an unpositioned cursor.
        """
        base = self._cursor
        if base is None:
            base = BleuCursor(self)
            if not base.move(self.text.split("\n")):
                base = False
            self._cursor = base
        return base.copy() if base else BleuCursor(self)

    def char_grams(self, order: int, remove_whitespace: bool = True) -> Counter:
        """Character ``order``-gram multiset (computed once per options)."""
        key = (order, remove_whitespace)
        grams = self._char_grams.get(key)
        if grams is None:
            grams = self._char_grams[key] = char_ngrams(
                self.text, order, remove_whitespace=remove_whitespace
            )
        return grams

    def char_total(self, order: int, remove_whitespace: bool = True) -> int:
        """Total character ``order``-gram count (the chrF recall denominator)."""
        key = (order, remove_whitespace)
        total = self._char_totals.get(key)
        if total is None:
            total = self._char_totals[key] = sum(
                self.char_grams(order, remove_whitespace).values()
            )
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledReference({self.text[:32]!r}..., ref_len={self.ref_len})"


def _compile_cache_capacity() -> int:
    """Entries the compile cache may hold (``REPRO_COMPILE_CACHE``)."""
    raw = os.environ.get("REPRO_COMPILE_CACHE", "")
    try:
        return int(raw) if raw else 512
    except ValueError:
        return 512


_compile_lock = threading.Lock()
_compile_cache: OrderedDict[str, CompiledReference] = OrderedDict()


def compile_reference(text: str) -> CompiledReference:
    """The shared :class:`CompiledReference` for ``text`` (LRU by content hash).

    Keyed by the SHA-256 of the reference text rather than the text
    itself: the key table stays small no matter how large the artifacts
    are, and the capacity (``REPRO_COMPILE_CACHE``, default 512) bounds
    how many compiled objects — counters plus interned kernel
    vocabularies — a many-artifact sweep can pin at once.
    """
    # surrogatepass: artifacts decoded with errors="surrogateescape" may
    # carry lone surrogates; they must hash, not raise
    key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    with _compile_lock:
        ref = _compile_cache.get(key)
        if ref is not None:
            _compile_cache.move_to_end(key)
            return ref
    ref = CompiledReference(text)
    capacity = _compile_cache_capacity()
    if capacity <= 0:
        return ref
    with _compile_lock:
        racer = _compile_cache.get(key)
        if racer is not None:  # a concurrent compile won: share its object
            _compile_cache.move_to_end(key)
            return racer
        _compile_cache[key] = ref
        while len(_compile_cache) > capacity:
            _compile_cache.popitem(last=False)
    return ref


def _compile_cache_clear() -> None:
    with _compile_lock:
        _compile_cache.clear()


def _compile_cache_len() -> int:
    with _compile_lock:
        return len(_compile_cache)


# lru_cache-compatible management surface (benches/tests call these)
compile_reference.cache_clear = _compile_cache_clear  # type: ignore[attr-defined]
compile_reference.cache_len = _compile_cache_len  # type: ignore[attr-defined]


def bleu_compiled(
    hypothesis: str,
    reference: CompiledReference | str,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> float:
    """Sentence BLEU against a precompiled reference.

    Numerically identical to ``bleu(hypothesis, reference.text, ...)``:
    the clipped-match counting and score combination are the exact same
    code path, only the reference-side statistics come precomputed.
    """
    if smooth_method not in ("exp", "floor", "add-k", "none"):
        raise MetricError(f"unknown BLEU smoothing method: {smooth_method!r}")
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    hyp_tokens = tokenize_13a_cached(hypothesis)
    sys_len = len(hyp_tokens)

    counts: list[int] = []
    totals: list[int] = []
    for order in range(1, max_order + 1):
        hyp_grams = ngrams(hyp_tokens, order) if sys_len >= order else Counter()
        counts.append(clipped_matches(hyp_grams, ref.token_ngrams(order)))
        totals.append(max(sys_len - order + 1, 0))
    return _compute_score(
        counts, totals, sys_len, ref.ref_len, smooth_method, smooth_value, max_order
    ).score


class BleuCursor:
    """Running sentence-BLEU statistics of a line list against one reference
    (the :func:`bleu_compiled` defaults: up to 4-grams, exp smoothing).

    For the lines it was last moved to, the cursor holds every line's 13a
    tokens (:func:`~repro.metrics.tokenizers.line_tokens`), the
    hypothesis count of every n-gram the reference contains, the
    per-order clipped-match totals and the hypothesis length.

    :meth:`move` to another line list diffs the two by common prefix and
    suffix and re-tokenizes only the lines in between, plus an edge line
    whose first- or last-line (sentinel) status flipped.  When the old
    and new spans have the same length (a rename or a line replaced in
    place), only the runs of lines whose tokens changed are re-counted.
    Each re-counted span's n-grams, with 3 tokens of context on both
    sides (``max_order - 1``), are walked once: every occurrence of an
    old gram takes one off its count, every occurrence of a new one
    adds one, and a clipped match moves with each step that crosses the
    gram's reference count.  No per-span multiset is built or netted:
    the unit steps telescope to ``min(c', r) - min(c, r)``.  A move
    costs O(changed tokens), not O(artifact).

    The integer statistics equal a from-scratch count, so :meth:`bleu`
    is bit-identical to :func:`bleu_compiled` on ``"\\n".join(lines)``.
    Lines that break the per-line tokenization preconditions
    (:func:`~repro.metrics.tokenizers.tokenize_lines`) are refused:
    :meth:`move` returns ``False``, the cursor stays where it was, and the
    caller scores the joined text whole.

    Not thread-safe: the owner serializes moves.
    """

    __slots__ = ("_ref_len", "_table", "_lines", "_tokens", "_counts", "_matches",
                 "_sys_len")

    def __init__(self, reference: CompiledReference) -> None:
        self._ref_len = reference.ref_len
        self._table = reference.ngram_table(DEFAULT_MAX_ORDER)
        self._lines: list[str] | None = None
        self._tokens: list[tuple[str, ...]] = []
        self._counts: dict[tuple[str, ...], int] = {}  # reference grams only
        self._matches = [0] * DEFAULT_MAX_ORDER
        self._sys_len = 0

    def move(self, lines: list[str]) -> bool:
        """Position the cursor on ``lines``; ``False`` if it cannot."""
        old = self._lines
        if lines is old:
            return True
        if old is None:
            return self._recount(lines)
        n_old, n_new = len(old), len(lines)
        if n_new < 2:
            return False
        limit = min(n_old, n_new)
        lo = _common_prefix(old, lines, limit)
        if lo == n_old == n_new:
            self._lines = lines
            return True
        tail = _common_suffix(old, lines, limit - lo)
        hi_old, hi_new = n_old - tail, n_new - tail
        if lo in (hi_old, hi_new):
            # a pure insertion or deletion: the line next to it may gain
            # or lose its first- or last-line (sentinel) status
            if tail == 0:
                lo -= 1
            elif lo == 0:
                hi_old += 1
                hi_new += 1
        last = n_new - 1
        fresh = []
        for i in range(lo, hi_new):
            tokens = line_tokens(lines[i], i == 0, i == last)
            if tokens is None:
                return False
            fresh.append(tokens)

        if hi_old - lo != hi_new - lo:
            self._splice(lo, hi_old, fresh)
        else:
            # lines align one to one: splice each run of changed lines
            per_line = self._tokens
            run = None
            for i, tokens in enumerate(fresh, lo):
                if tokens != per_line[i]:
                    if run is None:
                        run = i
                elif run is not None:
                    self._splice(run, i, fresh[run - lo : i - lo])
                    run = None
            if run is not None:
                self._splice(run, hi_new, fresh[run - lo :])
        self._lines = lines
        return True

    def copy(self) -> BleuCursor:
        """A cursor on the same lines whose moves leave this one as it is."""
        clone = BleuCursor.__new__(BleuCursor)
        clone._ref_len, clone._table = self._ref_len, self._table
        clone._lines = self._lines  # never mutated: moves rebind it
        clone._tokens = list(self._tokens)
        clone._counts = dict(self._counts)
        clone._matches = list(self._matches)
        clone._sys_len = self._sys_len
        return clone

    def _splice(self, lo: int, hi: int, fresh: list[tuple[str, ...]]) -> None:
        """Replace the tokens of lines ``lo..hi-1`` with ``fresh``."""
        per_line = self._tokens
        reach = DEFAULT_MAX_ORDER - 1
        left: tuple[str, ...] = ()
        i = lo
        while i and len(left) < reach:
            i -= 1
            left = per_line[i] + left
        right: tuple[str, ...] = ()
        i, end = hi, len(per_line)
        while i < end and len(right) < reach:
            right += per_line[i]
            i += 1
        old_mid = tuple(chain.from_iterable(per_line[lo:hi]))
        new_mid = tuple(chain.from_iterable(fresh))
        self._sys_len += len(new_mid) - len(old_mid)
        per_line[lo:hi] = fresh
        # tokens the two spans share at either end are context too: a
        # renamed identifier re-counts only the grams that reach it
        limit = min(len(old_mid), len(new_mid))
        head = _common_prefix(old_mid, new_mid, limit)
        if head:
            left = (left + old_mid[:head])[-reach:]
        back = _common_suffix(old_mid, new_mid, limit - head)
        if back:
            right = (old_mid[len(old_mid) - back:] + right)[:reach]
        old_mid = old_mid[head:len(old_mid) - back]
        new_mid = new_mid[head:len(new_mid) - back]
        counts, table, matches = self._counts, self._table, self._matches
        n_left = len(left)
        for order in range(1, DEFAULT_MAX_ORDER + 1):
            before_mid = left[max(n_left - order + 1, 0):]
            after_mid = right[: order - 1]
            matched = 0
            # a unit step changes min(count, ref) exactly when it crosses
            # ``ref``: count <= ref on the way down, count < ref on the way up
            window = before_mid + old_mid + after_mid
            for gram in zip(*[window[i:] for i in range(order)]):
                ref = table.get(gram)
                if ref:
                    count = counts[gram]
                    counts[gram] = count - 1
                    if count <= ref:
                        matched -= 1
            window = before_mid + new_mid + after_mid
            for gram in zip(*[window[i:] for i in range(order)]):
                ref = table.get(gram)
                if ref:
                    count = counts.get(gram, 0)
                    counts[gram] = count + 1
                    if count < ref:
                        matched += 1
            matches[order - 1] += matched

    def _recount(self, lines: list[str]) -> bool:
        per_line = tokenize_lines(lines)
        if per_line is None:
            return False
        stream = tuple(chain.from_iterable(per_line))
        table = self._table
        counts = {
            gram: count
            for gram, count in Counter(chain.from_iterable(
                zip(*[stream[i:] for i in range(order)])
                for order in range(1, DEFAULT_MAX_ORDER + 1)
            )).items()
            if gram in table
        }
        matches = [0] * DEFAULT_MAX_ORDER
        for gram, count in counts.items():
            ref = table[gram]
            matches[len(gram) - 1] += count if count < ref else ref
        self._lines, self._tokens = lines, per_line
        self._counts, self._matches = counts, matches
        self._sys_len = len(stream)
        return True

    def bleu(self) -> float:
        """Sentence BLEU (exp smoothing) of the lines the cursor is on."""
        sys_len = self._sys_len
        totals = [max(sys_len - n, 0) for n in range(DEFAULT_MAX_ORDER)]
        return _score_and_precisions(
            self._matches, totals, sys_len, self._ref_len,
            "exp", None, DEFAULT_MAX_ORDER,
        )[0]


def _common_prefix(a: Sequence[str], b: Sequence[str], limit: int) -> int:
    """Leading items (lines or tokens) ``a`` and ``b`` share, at most ``limit``."""
    for i in range(limit):
        x, y = a[i], b[i]
        if x is not y and x != y:
            return i
    return limit


def _common_suffix(a: Sequence[str], b: Sequence[str], limit: int) -> int:
    """Trailing items (lines or tokens) ``a`` and ``b`` share, at most ``limit``."""
    for i in range(1, limit + 1):
        x, y = a[-i], b[-i]
        if x is not y and x != y:
            return i - 1
    return limit


def chrf_compiled(
    hypothesis: str,
    reference: CompiledReference | str,
    *,
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
    remove_whitespace: bool = True,
) -> float:
    """Sentence chrF against a precompiled reference.

    Numerically identical to ``chrf(hypothesis, reference.text, ...)``
    (single-reference path: the best-reference loop is trivial).
    """
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    per_order_f: list[float] = []
    for order in range(1, char_order + 1):
        hyp_grams = char_ngrams(hypothesis, order, remove_whitespace=remove_whitespace)
        hyp_count = sum(hyp_grams.values())
        ref_count = ref.char_total(order, remove_whitespace)
        if hyp_count == 0 and ref_count == 0:
            continue
        matches = clipped_matches(hyp_grams, ref.char_grams(order, remove_whitespace))
        per_order_f.append(_fscore(matches, hyp_count, ref_count, beta))
    return 100.0 * (sum(per_order_f) / len(per_order_f)) if per_order_f else 0.0
