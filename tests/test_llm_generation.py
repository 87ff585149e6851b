"""Corruption engine, calibration, and the simulated models."""

from __future__ import annotations

import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.assets import annotated_producer, reference_config
from repro.errors import CalibrationError
from repro.llm import GenerateConfig, get_model
from repro.llm.calibration import (
    QualityCurve,
    calibrate,
    local_recalibrate,
    quality_curve,
)
import repro.llm.calibration as calibration
from repro.data import ANNOTATION_SYSTEMS, CONFIG_SYSTEMS, TRANSLATION_DIRECTIONS
from repro.llm.corruption import (
    CorruptionOp,
    _drop_anchor,
    _insert_after,
    _replace_word,
    apply_ops,
    build_ops,
    shuffle_within_bands,
)
from repro.llm.knowledge import SystemKnowledge
from repro.llm.profiles import ALL_PROFILES
from repro.metrics import bleu
from repro.metrics.compiled import BleuCursor, bleu_compiled, compile_reference
from repro.metrics.tokenizers import tokenize_lines
from repro.utils.rng import rng_for
from repro.utils.text import strip_markdown_chatter

REF = reference_config("wilkins")


def wilkins_knowledge() -> SystemKnowledge:
    profile = ALL_PROFILES["o3"]()
    return profile.knowledge_for("configuration", "wilkins")


class TestCorruptionOps:
    def test_zero_ops_is_identity(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        assert apply_ops(REF, ops, 0) == REF

    def test_full_ops_near_worst_case(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        corrupted = apply_ops(REF, ops, len(ops))
        assert bleu(corrupted, REF) < 25.0

    def test_curve_starts_at_100(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = quality_curve(REF, ops)
        assert curve[0] == pytest.approx(100.0)

    def test_curve_overall_decreasing(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = quality_curve(REF, ops)
        # not strictly monotone, but start > middle > end
        assert curve[0] > curve[len(curve) // 2] > curve[-1]

    def test_ops_deterministic_for_seed(self):
        a = build_ops(REF, wilkins_knowledge(), seed_labels=("x",))
        b = build_ops(REF, wilkins_knowledge(), seed_labels=("x",))
        assert [op.describe for op in a] == [op.describe for op in b]

    def test_bands_sorted(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        bands = [op.band for op in ops]
        assert bands == sorted(bands)

    def test_shuffle_preserves_bands_and_membership(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        shuffled = shuffle_within_bands(ops, rng_for("shuffle"))
        assert [op.band for op in shuffled] == [op.band for op in ops]
        assert sorted(op.describe for op in shuffled) == sorted(
            op.describe for op in ops
        )

    def test_shuffle_keeps_heavy_bands_fixed(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        shuffled = shuffle_within_bands(ops, rng_for("shuffle2"))
        heavy = [op.describe for op in ops if op.band >= 4]
        heavy_shuffled = [op.describe for op in shuffled if op.band >= 4]
        assert heavy == heavy_shuffled

    def test_empty_knowledge_still_has_mild_ops(self):
        ops = build_ops(REF, SystemKnowledge(), seed_labels=("t",))
        assert len(ops) >= 3
        assert all(op.band == 1 for op in ops)


class TestQualityCurve:
    """The incremental curve must match the from-scratch construction."""

    def _ops(self):
        return build_ops(REF, wilkins_knowledge(), seed_labels=("t",))

    def test_texts_match_apply_ops_at_every_depth(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        for k in range(len(ops) + 1):
            assert curve.text(k) == apply_ops(REF, ops, k)

    def test_scores_match_naive_curve_bitwise(self):
        ops = self._ops()
        naive = [bleu(apply_ops(REF, ops, k), REF) for k in range(len(ops) + 1)]
        assert QualityCurve(REF, ops).scores() == naive

    def test_depth_clamping_matches_apply_ops(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        assert curve.text(-3) == REF
        assert curve.text(len(ops) + 10) == apply_ops(REF, ops, len(ops))

    def test_scores_memoized(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        curve.score(5)
        curve.score(5)
        curve.score(3)
        assert curve.scores_computed == 2

    def test_best_breaks_ties_toward_lowest_depth(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        k, err = curve.best(curve.score(4), lo=0, hi=len(ops))
        assert curve.score(k) == curve.score(4)
        assert k <= 4
        assert err == 0.0

    def test_local_recalibrate_matches_naive_window_search(self):
        ops = self._ops()
        target = 70.0
        center = calibrate(REF, ops, target).k
        for trial in range(6):
            epoch_ops = shuffle_within_bands(ops, rng_for("recal", trial))
            # the pre-engine implementation: score every window depth from
            # scratch, with the historical full-scan fallback
            lo, hi = max(0, center - 8), min(len(epoch_ops), center + 8)
            best_k, best_err = center, float("inf")
            for k in range(lo, hi + 1):
                err = abs(bleu(apply_ops(REF, epoch_ops, k), REF) - target)
                if err < best_err:
                    best_k, best_err = k, err
            if best_err > 6.0:
                for k, score in enumerate(quality_curve(REF, epoch_ops)):
                    err = abs(score - target)
                    if err < best_err:
                        best_k, best_err = k, err
            got = local_recalibrate(REF, epoch_ops, target, center=center)
            assert got == best_k, f"trial {trial}"

    def test_compact_keeps_depths_and_rebuilds_the_rest(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        expected = {k: curve.text(k) for k in (0, 7, len(ops))}
        curve.compact(keep=(7,))
        assert curve._texts == {0: REF, 7: expected[7]}
        assert len(curve._states) == 1
        # non-kept depths rebuild on demand, identically
        assert curve.text(len(ops)) == expected[len(ops)]
        assert curve.text(7) == expected[7]

    def test_local_recalibrate_reuses_supplied_curve(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        k = local_recalibrate(REF, ops, 70.0, center=10, curve=curve)
        computed = curve.scores_computed
        assert computed > 0
        # a second search over the same window re-scores nothing
        assert local_recalibrate(REF, ops, 70.0, center=10, curve=curve) == k
        assert curve.scores_computed == computed


# words that sit inside other words ("n" in "rank"), regex metacharacters,
# and words absent from every line
RENAME_WORDS = ["n", "rank", "a.b", "x+", "(c)", "[0]", "$v", "a|b", "\\d", "nprocs",
                "absent", ""]
rename_line = st.lists(
    st.sampled_from(RENAME_WORDS[:-2] + [" ", "=", "-", "_", "n_1", "ranks", "."]),
    max_size=8,
).map("".join)


class TestReplaceWord:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(rename_line, max_size=6),
        old=st.sampled_from(RENAME_WORDS),
        new=st.sampled_from(["m", "size", "n", "a.b", ""]),
    )
    @example(lines=["rank = n", "n_1 ranks"], old="n", new="m")
    @example(lines=["a.b axb", "(c)"], old="a.b", new="q")
    @example(lines=["x", "y"], old="absent", new="z")
    def test_equals_whole_list_substitution(self, lines, old, new):
        before = list(lines)
        got = _replace_word(lines, old, new)
        expected = [re.sub(rf"\b{re.escape(old)}\b", new, ln) for ln in lines]
        assert got == expected
        assert lines == before  # never mutates its input
        assert (got is lines) == (expected == lines)


def simulator_cells():
    """(label, reference, ops) for every model x experiment cell, built
    the way :class:`~repro.llm.simulated.SimulatedModel` builds them."""
    experiments = (
        ("configuration", CONFIG_SYSTEMS, reference_config),
        ("annotation", ANNOTATION_SYSTEMS, annotated_producer),
        ("translation", TRANSLATION_DIRECTIONS, lambda pair: annotated_producer(pair[1])),
    )
    for name, factory in ALL_PROFILES.items():
        profile = factory()
        for experiment, keys, reference_of in experiments:
            for key in keys:
                reference = reference_of(key)
                ops = build_ops(
                    reference,
                    profile.knowledge_for(experiment, key),
                    chrf_bias=profile.bias_for(experiment, key),
                    seed_labels=(name, experiment, key),
                )
                yield f"{name}/{experiment}/{key}", reference, ops


def depth_lines(reference: str, ops: list[CorruptionOp]) -> list[list[str]]:
    """Every depth's line list, folded op by op (``apply_ops`` unjoined)."""
    states = [reference.split("\n")]
    for op in ops:
        states.append(op.apply(states[-1]))
    return states


def op(apply) -> CorruptionOp:
    return CorruptionOp("test", 1, "test op", apply)


# sentinel-sensitive edges: a leading ".5" splits only when a line comes
# before it, a trailing "5." only when a line comes after it
EDGE_REF = ".5 start\nalpha = 1\n\nbeta = 2.\ngamma(3, 4)\nend 5."

EDGE_OPS = [
    op(lambda lines: lines),  # a no-op at depth 1: the input list itself
    op(lambda lines: ["0.25 header"] + lines),  # insert at line 0
    op(lambda lines: _insert_after(lines, "no such anchor", "tail 7.")),  # append
    op(lambda lines: lines[1:]),  # delete the first line
    op(lambda lines: lines[:-1]),  # delete the last line
    op(lambda lines: lines[:2] + ["", ""] + lines[2:]),  # empty lines
    op(lambda lines: _replace_word(lines, "beta", "delta")),
    op(lambda lines: _replace_word(lines, "beta", "delta")),  # rename no-op ...
    op(lambda lines: list(lines)),  # ... and an equal new list: two in a row
    op(lambda lines: _drop_anchor(lines, "gamma")),
    op(lambda lines: lines[:1] + ["split-"] + lines[1:]),  # hyphenation: fallback
    op(lambda lines: list(lines)),  # a no-op right after a fallback depth
    op(lambda lines: _drop_anchor(lines, "split-")),
    op(lambda lines: lines[:1] + ["carriage\rreturn"] + lines[1:]),  # fallback
    op(lambda lines: _drop_anchor(lines, "carriage")),
    op(lambda lines: lines + ["last-"]),  # a *final* "-" line keeps the fast path
    op(lambda lines: lines + ["after"]),  # ... until a line follows it: fallback
    op(lambda lines: lines[:-1]),
    op(lambda lines: [".5 x", "y 5."]),  # restructure to a shorter artifact
    op(lambda lines: [".5 a", "b 5.", "", "c", "d 1.", "e"] * 3),  # ... a longer one
    op(lambda lines: ["single line 5."]),  # a single-line artifact: fallback
    op(lambda lines: ["", "x 5.", ".5 y", ""]),
    op(lambda lines: [line.rstrip(".") for line in lines]),
]


class TestQualityCurveDeltaEngine:
    """The cursor-driven curve is bit-equal to whole-text scoring at every depth."""

    @staticmethod
    def assert_exact(reference, ops, order=None):
        curve = QualityCurve(reference, ops)
        compiled = compile_reference(reference)
        states = depth_lines(reference, ops)
        for k in order if order is not None else range(len(curve)):
            expected = bleu_compiled("\n".join(states[k]), compiled)
            assert curve.score(k) == expected, k
        return curve

    def test_every_simulator_cell_and_shuffled_epoch(self):
        for label, reference, ops in simulator_cells():
            compiled = compile_reference(reference)
            for trial_ops in (ops, shuffle_within_bands(ops, rng_for(label))):
                got = QualityCurve(reference, trial_ops, compiled=compiled).scores()
                states = depth_lines(reference, trial_ops)
                for k, lines in enumerate(states):
                    assert got[k] == bleu_compiled("\n".join(lines), compiled), (
                        label, k,
                    )

    def test_edge_ops_match_apply_ops(self):
        compiled = compile_reference(EDGE_REF)
        curve = QualityCurve(EDGE_REF, EDGE_OPS)
        for k in range(len(curve)):
            expected = bleu_compiled(apply_ops(EDGE_REF, EDGE_OPS, k), compiled)
            assert curve.score(k) == expected, k

    def test_edge_ops_every_prefix_out_of_order(self):
        # backward, interleaved and windowed orders rebuild the cursor
        n = len(EDGE_OPS) + 1
        self.assert_exact(EDGE_REF, EDGE_OPS, order=range(n - 1, -1, -1))
        interleaved = [k for pair in zip(range(n // 2, n), range(n // 2)) for k in pair]
        self.assert_exact(EDGE_REF, EDGE_OPS, order=interleaved)

    def test_out_of_order_after_deeper_depth(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        order = [40, 10, 41, 9, len(ops), 0, 25, 26, 24]
        curve = self.assert_exact(REF, ops, order=order)
        assert curve.scores_computed == len(order)

    def test_local_recalibrate_full_scan_fallback_is_exact(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        epoch_ops = shuffle_within_bands(ops, rng_for("fallback"))
        curve = QualityCurve(REF, epoch_ops)
        # a target far outside the window forces the full-scan fallback
        k = local_recalibrate(REF, epoch_ops, 5.0, center=3, curve=curve)
        assert curve.scores_computed == len(curve)
        naive = [bleu(apply_ops(REF, epoch_ops, j), REF) for j in range(len(curve))]
        assert curve.scores() == naive
        assert k == min(range(len(naive)), key=lambda j: (abs(naive[j] - 5.0), j))

    def test_whole_text_fallback_only_where_preconditions_break(self, monkeypatch):
        calls = []
        real = calibration.bleu_compiled

        def counted(text, compiled):
            calls.append(text)
            return real(text, compiled)

        monkeypatch.setattr(calibration, "bleu_compiled", counted)
        curve = QualityCurve(EDGE_REF, EDGE_OPS)
        curve.scores()
        states = depth_lines(EDGE_REF, EDGE_OPS)
        refused = [k for k, lines in enumerate(states) if tokenize_lines(lines) is None]
        # a no-op depth after a refused one reuses its score, unscored
        no_ops = [k for k in refused if states[k] == states[k - 1]]
        assert no_ops
        assert calls == ["\n".join(states[k]) for k in refused if k not in no_ops]

    def test_no_op_depths_reuse_the_previous_score(self, monkeypatch):
        scored = []
        real = BleuCursor.bleu

        def counted(cursor):
            scored.append(1)
            return real(cursor)

        monkeypatch.setattr(BleuCursor, "bleu", counted)
        curve = self.assert_exact(EDGE_REF, EDGE_OPS)
        states = depth_lines(EDGE_REF, EDGE_OPS)
        no_ops = [k for k in range(1, len(states)) if states[k] == states[k - 1]]
        assert no_ops[:1] == [1]  # the depth-1 no-op, and more after it
        assert 4 <= len(no_ops) < len(states)
        refused = [k for k, lines in enumerate(states) if tokenize_lines(lines) is None]
        cursor_scored = set(range(len(states))) - set(no_ops) - set(refused)
        assert len(scored) == len(cursor_scored)
        # reused depths still count as computed
        assert curve.scores_computed == len(states)

    def test_two_curves_on_one_compiled_reference_alternate(self):
        compiled = compile_reference(REF)
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        epoch_ops = shuffle_within_bands(ops, rng_for("alternate"))
        curves = [QualityCurve(REF, ops, compiled=compiled),
                  QualityCurve(REF, epoch_ops, compiled=compiled)]
        curves[0].score(0)
        base = compiled._cursor
        snapshot = (base._lines, list(base._tokens), dict(base._counts),
                    list(base._matches), base._sys_len)
        expected = [
            [bleu_compiled("\n".join(lines), compiled) for lines in depth_lines(REF, o)]
            for o in (ops, epoch_ops)
        ]
        for k in range(len(curves[0])):
            for curve, want in zip(curves, expected):
                assert curve.score(k) == want[k], k
        assert curves[0]._cursor is not curves[1]._cursor
        assert compiled._cursor is base
        assert (base._lines, base._tokens, base._counts, base._matches,
                base._sys_len) == snapshot

    def test_concurrent_scorers_share_one_memo(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = QualityCurve(REF, ops)
        forward, backward = range(len(curve)), range(len(curve) - 1, -1, -1)
        orders = [forward, backward, forward, backward]  # more threads than cores
        barrier = threading.Barrier(len(orders))
        results: list[dict[int, float]] = [{} for _ in orders]

        def scan(i):
            barrier.wait()
            results[i].update((k, curve.score(k)) for k in orders[i])

        threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == results[0] for result in results)
        # a lost update of the memo or the counter would break this
        assert curve.scores_computed == len(curve)
        compiled = compile_reference(REF)
        for k, lines in enumerate(depth_lines(REF, ops)):
            assert results[0][k] == bleu_compiled("\n".join(lines), compiled)

    def test_only_read_depths_are_joined(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = QualityCurve(REF, ops)
        curve.scores()
        assert set(curve._texts) == {0}
        assert curve.text(12) == apply_ops(REF, ops, 12)
        assert set(curve._texts) == {0, 12}

    def test_compacted_curve_retains_no_counters(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = QualityCurve(REF, ops)
        result = calibrate(REF, ops, 70.0, curve=curve)
        assert curve._cursor is not None
        curve.compact(keep=(result.k,))
        assert curve._cursor is None
        assert len(curve._states) == 1
        # scores stay memoized; unmemoized depths rebuild exactly
        computed = curve.scores_computed
        assert curve.score(result.k) == result.achieved_bleu
        assert curve.scores_computed == computed


class TestCalibration:
    def test_hits_targets_across_range(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        for target in (95.0, 70.0, 40.0, 20.0):
            result = calibrate(REF, ops, target)
            assert abs(result.achieved_bleu - target) <= 8.0

    def test_target_100_is_k0(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        assert calibrate(REF, ops, 100.0).k == 0

    def test_out_of_range_target(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        with pytest.raises(CalibrationError):
            calibrate(REF, ops, 150.0)

    def test_unreachable_target_raises(self):
        # only mild ops: cannot reach BLEU 10
        ops = build_ops(REF, SystemKnowledge(), seed_labels=("t",))
        with pytest.raises(CalibrationError, match="cannot reach"):
            calibrate(REF, ops, 10.0)


CFG_PROMPT = (
    "I would like to have a 3-node workflow consisting of one producer and two "
    "consumer tasks, where producer generates grid and particles datasets, "
    "consumer1 reads grid and consumer2 reads particles datasets. Producer "
    "requires 3 processes, and each consumer runs on a single process. Please "
    "provide the workflow configuration file for the Wilkins workflow system."
)


class TestSimulatedModels:
    def test_deterministic_given_seed(self):
        model = get_model("sim/o3")
        a = model.generate(CFG_PROMPT, GenerateConfig(seed=3)).completion
        b = model.generate(CFG_PROMPT, GenerateConfig(seed=3)).completion
        assert a == b

    def test_seeds_vary_output_for_jittery_models(self):
        model = get_model("sim/gemini-2.5-pro")
        outputs = {
            model.generate(CFG_PROMPT, GenerateConfig(seed=s)).completion
            for s in range(4)
        }
        assert len(outputs) > 1

    def test_claude_identical_across_seeds(self):
        model = get_model("sim/claude-sonnet-4")
        payloads = {
            strip_markdown_chatter(
                model.generate(CFG_PROMPT, GenerateConfig(seed=s)).completion
            )
            for s in range(4)
        }
        assert len(payloads) == 1

    def test_temperature_zero_deterministic_for_all(self):
        for name in ("sim/gemini-2.5-pro", "sim/llama-3.3-70b"):
            model = get_model(name)
            payloads = {
                strip_markdown_chatter(
                    model.generate(
                        CFG_PROMPT,
                        GenerateConfig(temperature=0.0, top_p=0.95, seed=s),
                    ).completion
                )
                for s in range(3)
            }
            assert len(payloads) == 1, name

    def test_o3_ignores_sampling_params(self):
        model = get_model("sim/o3")
        out = model.generate(CFG_PROMPT, GenerateConfig(temperature=0.0, seed=1))
        assert out.params_applied is False
        # o3 still varies across seeds despite temperature=0 in the request
        other = model.generate(CFG_PROMPT, GenerateConfig(temperature=0.0, seed=2))
        assert isinstance(other.completion, str)

    def test_usage_accounting(self):
        out = get_model("sim/o3").generate(CFG_PROMPT, GenerateConfig(seed=0))
        assert out.usage.input_tokens > 20
        assert out.usage.output_tokens > 20
        assert out.usage.total_tokens == (
            out.usage.input_tokens + out.usage.output_tokens
        )

    def test_completion_is_fenced_with_chatter(self):
        out = get_model("sim/gemini-2.5-pro").generate(CFG_PROMPT, GenerateConfig(seed=0))
        assert "```" in out.completion
        payload = strip_markdown_chatter(out.completion)
        assert payload and "```" not in payload

    def test_metadata_carries_intent(self):
        out = get_model("sim/o3").generate(CFG_PROMPT, GenerateConfig(seed=0))
        intent = out.metadata["intent"]
        assert intent.experiment == "configuration"
        assert intent.system == "wilkins"

    def test_annotation_generation_scores_in_band(self):
        prompt = (
            "You are assisting in the development of a simple producer-consumer "
            "workflow using the PyCOMPSs system. The producer task code is "
            "provided below. Annotate this task code in order to use it with "
            "the PyCOMPSs system.\n\n<code>"
        )
        model = get_model("sim/gemini-2.5-pro")
        ref = annotated_producer("pycompss")
        scores = [
            bleu(
                strip_markdown_chatter(
                    model.generate(prompt, GenerateConfig(seed=s)).completion
                ),
                ref,
            )
            for s in range(3)
        ]
        # paper target 89.3 for this cell
        assert 80.0 <= sum(scores) / len(scores) <= 98.0

    def test_empty_prompt_rejected(self):
        from repro.errors import GenerationError

        with pytest.raises(GenerationError):
            get_model("sim/o3").generate("   ", GenerateConfig())


class TestProfiles:
    def test_all_profiles_have_full_target_coverage(self):
        from repro.data import PROMPT_VARIANTS

        cells = (
            [("configuration", s) for s in ("adios2", "henson", "wilkins")]
            + [("annotation", s) for s in ("adios2", "henson", "pycompss", "parsl")]
            + [
                ("translation", ("henson", "adios2")),
                ("translation", ("adios2", "henson")),
                ("translation", ("parsl", "pycompss")),
                ("translation", ("pycompss", "parsl")),
            ]
        )
        for name, factory in ALL_PROFILES.items():
            profile = factory()
            for experiment, system_key in cells:
                for variant in PROMPT_VARIANTS:
                    target = profile.target_for(experiment, system_key, variant)
                    assert 0.0 <= target <= 100.0, (name, experiment, system_key)

    def test_fewshot_targets_above_zero_shot(self):
        for factory in ALL_PROFILES.values():
            profile = factory()
            for system in ("adios2", "henson", "wilkins"):
                zero = profile.target_for("configuration", system, "original")
                few = profile.target_for("configuration", system, "original", True)
                assert few > zero

    def test_claude_has_zero_jitter(self):
        assert ALL_PROFILES["claude-sonnet-4"]().epoch_jitter == 0.0

    def test_o3_ignores_params_flag(self):
        assert ALL_PROFILES["o3"]().ignore_sampling_params is True

    def test_knowledge_fallback_is_empty(self):
        profile = ALL_PROFILES["o3"]()
        knowledge = profile.knowledge_for("annotation", "nonexistent-system")
        assert knowledge.confusions == {}
