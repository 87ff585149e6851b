"""Compiled metrics engine: equivalence with the reference scorers.

The compiled scorers must be drop-in numerically identical to
``bleu``/``chrf`` (property-tested to 1e-9 across random hypotheses and
every smoothing method), the reference statistics must be computed once
and shared, and zero-length hypothesis/reference edge cases must score
without fabricating positive similarity.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import bleu, chrf
from repro.metrics.bleu import _compute_score, corpus_bleu
from repro.metrics.compiled import (
    BleuCursor,
    CompiledReference,
    bleu_compiled,
    chrf_compiled,
    compile_reference,
)
from repro.metrics.tokenizers import (
    _tokenize_13a_reference,
    line_tokens,
    tokenize_13a,
    tokenize_13a_cached,
    tokenize_lines,
)

text = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")),
    min_size=0,
    max_size=200,
)
multiline_text = st.lists(text, min_size=1, max_size=8).map("\n".join)
word_text = st.lists(
    st.text(alphabet="abcdefgh.,-0123456789", min_size=1, max_size=6),
    min_size=1,
    max_size=40,
).map(" ".join)

SMOOTHING = ["exp", "floor", "add-k", "none"]


class TestBleuCompiledEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=text, ref=word_text, smooth=st.sampled_from(SMOOTHING))
    def test_matches_reference_bleu(self, hyp, ref, smooth):
        expected = bleu(hyp, ref, smooth_method=smooth)
        got = bleu_compiled(hyp, ref, smooth_method=smooth)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text)
    def test_matches_on_multiline_artifacts(self, hyp, ref):
        assert bleu_compiled(hyp, ref) == pytest.approx(bleu(hyp, ref), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        hyp=word_text,
        ref=word_text,
        smooth=st.sampled_from(["floor", "add-k"]),
        value=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    )
    def test_matches_with_explicit_smooth_values(self, hyp, ref, smooth, value):
        expected = bleu(hyp, ref, smooth_method=smooth, smooth_value=value)
        got = bleu_compiled(hyp, ref, smooth_method=smooth, smooth_value=value)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_unknown_smoothing_rejected(self):
        from repro.errors import MetricError

        with pytest.raises(MetricError, match="smoothing"):
            bleu_compiled("a", "a", smooth_method="nope")

    def test_accepts_precompiled_object(self):
        ref = compile_reference("engine.put(var, data)")
        assert bleu_compiled("engine.put(var, data)", ref) == pytest.approx(100.0)


class TestChrfCompiledEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=text, ref=word_text)
    def test_matches_reference_chrf(self, hyp, ref):
        assert chrf_compiled(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text, order=st.integers(1, 8))
    def test_matches_across_char_orders(self, hyp, ref, order):
        expected = chrf(hyp, ref, char_order=order)
        got = chrf_compiled(hyp, ref, char_order=order)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=word_text, ref=word_text)
    def test_matches_with_whitespace_kept(self, hyp, ref):
        expected = chrf(hyp, ref, remove_whitespace=False)
        got = chrf_compiled(hyp, ref, remove_whitespace=False)
        assert got == pytest.approx(expected, abs=1e-9)


class TestCompiledReference:
    def test_lru_shares_one_object_per_text(self):
        assert compile_reference("shared text") is compile_reference("shared text")

    def test_statistics_memoized(self):
        ref = CompiledReference("a b c a b")
        assert ref.token_ngrams(2) is ref.token_ngrams(2)
        assert ref.char_grams(3) is ref.char_grams(3)
        assert ref.char_total(3) == sum(ref.char_grams(3).values())

    def test_ref_len_matches_tokenizer(self):
        ref = CompiledReference("engine.put(var, data)")
        assert ref.ref_len == len(tokenize_13a("engine.put(var, data)"))

    def test_counters_not_polluted_by_lookups(self):
        # scoring must never grow the shared reference counters
        ref = compile_reference("alpha beta gamma")
        before = dict(ref.token_ngrams(1))
        bleu_compiled("delta epsilon zeta", ref)
        assert dict(ref.token_ngrams(1)) == before


class TestTokenizerCache:
    @settings(max_examples=120, deadline=None)
    @given(s=st.text(alphabet=st.characters(codec="ascii"), max_size=240))
    def test_cached_equals_reference_implementation(self, s):
        assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(text, min_size=2, max_size=10))
    def test_multiline_split_equals_reference(self, lines):
        s = "\n".join(lines)
        assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)

    def test_hyphenated_line_join(self):
        assert tokenize_13a("work-\nflow") == ["workflow"]

    def test_returns_fresh_list(self):
        a = tokenize_13a("alpha beta")
        a.append("junk")
        assert tokenize_13a("alpha beta") == ["alpha", "beta"]

    def test_digit_context_at_line_boundaries(self):
        # the per-line fast path must preserve the period/digit rules
        for s in (".5 rest", "x.\n.5", "3\n.5", "5.\n3", "a.\n.b", ".5\ntail"):
            assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)


# lines built from few distinct words so edits share and clip n-grams, with
# the characters the 13a digit/period rules and the preconditions key on
line = st.lists(
    st.sampled_from(["a", "b", "x.", ".5", "5.", "3", ",", "-", "(c)", "", "\r"]),
    max_size=5,
).map(" ".join) | st.sampled_from(["", "5.", ".5", "a-", "-"])
edit = st.tuples(
    st.sampled_from(["insert", "delete", "replace", "reset"]),
    st.integers(0, 12),
    st.lists(line, min_size=1, max_size=4),
)


def apply_edit(lines: list[str], edit) -> list[str]:
    kind, at, new = edit
    at = at % (len(lines) + 1)
    if kind == "insert":
        return lines[:at] + new + lines[at:]
    if kind == "delete":
        return lines[:at] + lines[at + len(new):]
    if kind == "replace":
        return lines[:at] + new + lines[at + 1:]
    return list(new)


# two words, so one splice can push a gram's count past its reference
# count and back; edits pinned to the first or last line are the pure
# inserts and deletes whose middle span is empty (junction grams only)
ab_line = st.lists(st.sampled_from(["a", "b", "a a", "b a b"]), max_size=3).map(" ".join)
ab_edit = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.sampled_from(["first", "last"]) | st.integers(0, 8),
    st.lists(ab_line, min_size=1, max_size=3),
)


def apply_edge_edit(lines: list[str], edit) -> list[str]:
    kind, where, new = edit
    if where == "first":
        where = 0
    elif where == "last":
        where = {
            "insert": len(lines),
            "delete": max(len(lines) - len(new), 0),
            "replace": max(len(lines) - 1, 0),
        }[kind]
    return apply_edit(lines, (kind, where, new))


class TestBleuCursor:
    """Running BLEU statistics equal a whole-text score after every move."""

    REFERENCE = ".5 a b\nx. 3\n\n(c) , 5.\na b x.\nb a 5."

    def walk(self, states):
        compiled = compile_reference(self.REFERENCE)
        cursor = BleuCursor(compiled)
        for lines in states:
            moved = cursor.move(lines)
            assert moved == (tokenize_lines(lines) is not None), lines
            if moved:
                assert cursor.bleu() == bleu_compiled("\n".join(lines), compiled), lines

    @settings(max_examples=150, deadline=None)
    @given(start=st.lists(line, max_size=8), edits=st.lists(edit, max_size=12))
    def test_matches_bleu_compiled_along_random_edits(self, start, edits):
        states = [start]
        for e in edits:
            states.append(apply_edit(states[-1], e))
        self.walk(states)

    AB_REFERENCE = "a b a\nb a b b\na a\nb"

    @settings(max_examples=200, deadline=None)
    @given(start=st.lists(ab_line, min_size=2, max_size=6),
           edits=st.lists(ab_edit, min_size=1, max_size=12))
    @example(start=["a b", "b a"], edits=[("insert", "last", ["a"]),
                                          ("delete", "first", ["a b"])])
    @example(start=["a", "a a", "a"], edits=[("replace", 1, ["a a a a"]),
                                             ("replace", 1, ["b"])])
    def test_statistics_equal_a_fresh_count_after_every_move(self, start, edits):
        states = [start]
        for e in edits:
            states.append(apply_edge_edit(states[-1], e))
        compiled = compile_reference(self.AB_REFERENCE)
        cursor = BleuCursor(compiled)
        for lines in states:
            if not cursor.move(lines):
                continue
            fresh = BleuCursor(compiled)
            assert fresh.move(lines)
            assert cursor._matches == fresh._matches, lines
            assert cursor._sys_len == fresh._sys_len, lines
            assert ({g: c for g, c in cursor._counts.items() if c}
                    == {g: c for g, c in fresh._counts.items() if c}), lines

    def test_refused_move_keeps_the_last_position(self):
        ref = self.REFERENCE.split("\n")
        self.walk([
            ref,
            ref[:2] + ["hy-"] + ref[2:],  # refused: hyphenation
            ["only one line"],  # refused: a single line
            ref[:1] + ["cr\r"] + ref[1:],  # refused: carriage return
            ref[1:] + ["5."],  # diffed against ``ref``, the last good position
        ])

    def test_status_flips_at_both_edges(self):
        ref = self.REFERENCE.split("\n")
        self.walk([
            ref,
            ["x."] + ref,  # ".5 a b" gains a line before it
            ref,
            ref + [".5"],  # "b a 5." gains a line after it
            ref[:-1],
            ref[1:],
            [""] + ref + [""],
        ])

    @settings(max_examples=300, deadline=None)
    @given(
        sys_len=st.integers(0, 12),
        ref_len=st.integers(0, 12),
        wanted=st.lists(st.integers(0, 12), min_size=4, max_size=4),
    )
    @example(sys_len=3, ref_len=5, wanted=[3, 1, 0, 0])  # sys_len < 4 and < ref_len
    @example(sys_len=6, ref_len=0, wanted=[6, 5, 4, 3])
    def test_bleu_is_the_shared_formula_bit_for_bit(self, sys_len, ref_len, wanted):
        # zero matches at any order, short hypotheses, brevity, ref_len 0
        totals = [max(sys_len - n, 0) for n in range(4)]
        matches = [min(m, total) for m, total in zip(wanted, totals)]
        cursor = BleuCursor(compile_reference(self.REFERENCE))
        cursor._matches, cursor._sys_len, cursor._ref_len = list(matches), sys_len, ref_len
        expected = _compute_score(matches, totals, sys_len, ref_len, "exp", None, 4).score
        assert cursor.bleu().hex() == expected.hex()
        assert cursor._matches == matches

    def test_reference_cursor_is_counted_once_and_cloned(self):
        compiled = CompiledReference(self.REFERENCE)
        first, second = compiled.bleu_cursor(), compiled.bleu_cursor()
        base = compiled._cursor
        assert base is not first and base is not second
        snapshot = (list(base._tokens), dict(base._counts), list(base._matches),
                    base._sys_len)
        assert first.bleu() == second.bleu() == 100.0
        ref = self.REFERENCE.split("\n")
        moved = ref[:2] + ["a b 5. x."] + ref[3:]
        assert first.move(moved)
        assert first.bleu() == bleu_compiled("\n".join(moved), compiled)
        assert second.bleu() == 100.0  # clones share no mutable state
        assert (base._tokens, base._counts, base._matches, base._sys_len) == snapshot
        assert compiled._cursor is base

    def test_reference_cursor_on_refused_lines_is_unpositioned(self):
        compiled = CompiledReference("one single line")
        cursor = compiled.bleu_cursor()
        assert compiled._cursor is False
        assert cursor._lines is None
        assert not cursor.move(["one single line"])

    def test_line_tokens_is_the_tokenizer_rule(self):
        lines = ["x.", ".5 a", "b 5."]
        per_line = [line_tokens(ln, i == 0, i == 2) for i, ln in enumerate(lines)]
        assert per_line == tokenize_lines(lines)
        flat = [token for tokens in per_line for token in tokens]
        assert flat == list(tokenize_13a_cached("\n".join(lines)))
        assert line_tokens("a-", first=True, last=False) is None
        assert line_tokens("a-", first=False, last=True) == ("a-",)
        assert line_tokens("a\rb", first=True, last=True) is None
        assert tokenize_lines(["single"]) is None


class TestEmptyStringScoring:
    """Zero-length hypothesis/reference sweep (metrics/ edge-case audit)."""

    def test_bleu_empty_hypothesis_is_zero(self):
        assert bleu("", "some reference text") == 0.0

    def test_bleu_empty_reference_is_zero(self):
        # smoothing must not fabricate similarity to an empty reference
        assert bleu("some hypothesis text", "") == 0.0

    def test_bleu_both_empty_is_zero(self):
        assert bleu("", "") == 0.0

    def test_chrf_empty_hypothesis_is_zero(self):
        assert chrf("", "some reference text") == 0.0

    def test_chrf_empty_reference_is_zero(self):
        assert chrf("some hypothesis text", "") == 0.0

    def test_chrf_both_empty_is_zero(self):
        assert chrf("", "") == 0.0

    @pytest.mark.parametrize("hyp,ref", [("", "ref text"), ("hyp text", ""), ("", "")])
    def test_compiled_agrees_on_empties(self, hyp, ref):
        assert bleu_compiled(hyp, ref) == pytest.approx(bleu(hyp, ref), abs=1e-9)
        assert chrf_compiled(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    def test_whitespace_only_pair(self):
        assert bleu("   ", " \n ") == 0.0
        assert chrf("   ", " \n ") == 0.0

    def test_bleu_format_guards_zero_ref_len(self):
        score = corpus_bleu(["hello"], [""])
        assert score.ref_len == 0
        assert "ratio" in score.format()  # no ZeroDivisionError
