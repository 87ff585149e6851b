"""The reproduction pipeline the benchmark times, and its output checks.

:func:`reproduce` is the sweep sequence of ``examples/reproduce_tables.py``
— Tables 1/2/3/5, then optionally Figure 1 (a)-(c) — run against one
:class:`repro.runtime.RunConfig`, with every table and heatmap rendered
into a string instead of printed.  Every layer entry point is looked up
through its package attribute at call time (``experiments.run_*``,
``reporting.render_*``), so the traced run can wrap it without touching
``src/``.

:func:`check_output` is the correctness check: every table cell and
every Figure 1 value present, every BLEU/ChrF inside [0, 100], every
table cell aggregating exactly the requested number of trials.
:func:`paper_deltas` gives the mean |measured - paper| per table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro import data, reporting
from repro.core import experiments

TABLE_TITLES = (
    "Table 1: workflow configuration",
    "Table 2: task code annotation",
    "Table 3: task code translation",
    "Table 5: few-shot vs zero-shot",
)
FIGURES = (
    ("configuration", "Figure 1(a): configuration"),
    ("annotation", "Figure 1(b): annotation"),
    ("translation", "Figure 1(c): translation"),
)


@dataclass
class Output:
    """What one pass produced: the grids and the rendered text."""

    epochs: int
    grids: dict = field(default_factory=dict)  # "t1".."t3" -> ExperimentGrid
    fewshot: object = None  # FewshotComparison
    figures: dict = field(default_factory=dict)  # experiment -> heatmap data
    blocks: list = field(default_factory=list)  # rendered text, in order

    @property
    def text(self) -> str:
        return "\n\n".join(self.blocks) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def reproduce(config, *, epochs: int, figures: bool) -> Output:
    """Run the tables (and figures) sweeps; render what a user reads."""
    out = Output(epochs=epochs)
    t1 = experiments.run_configuration(epochs=epochs, config=config)
    out.blocks.append(reporting.render_grid_table(t1, TABLE_TITLES[0]))
    t2 = experiments.run_annotation(epochs=epochs, config=config)
    out.blocks.append(reporting.render_grid_table(t2, TABLE_TITLES[1]))
    t3 = experiments.run_translation(epochs=epochs, config=config)
    out.blocks.append(reporting.render_grid_table(t3, TABLE_TITLES[2]))
    out.fewshot = experiments.run_fewshot(epochs=epochs, config=config)
    out.blocks.append(reporting.render_fewshot_table(out.fewshot, TABLE_TITLES[3]))
    out.grids = {"t1": t1, "t2": t2, "t3": t3}
    if figures:
        for experiment, title in FIGURES:
            results = experiments.run_prompt_sensitivity(
                experiment, epochs=1, config=config
            )
            out.figures[experiment] = results
            out.blocks.append(reporting.render_figure1(results, title))
    lines = []
    for key, paper_table, label in _paper_tables():
        for row_model, paper in sorted(paper_table.items()):
            row, model = row_model
            name = "->".join(row) if isinstance(row, tuple) else row
            lines.append(reporting.compare_with_paper(
                out.grids[key].cell(row, model), paper, f"{label} {name}/{model}"
            ))
    out.blocks.append("\n".join(lines))
    return out


def _paper_tables():
    return (("t1", data.TABLE1, "T1"), ("t2", data.TABLE2, "T2"),
            ("t3", data.TABLE3, "T3"))


def _in_range(value: float) -> bool:
    return 0.0 <= value <= 100.0


def check_output(out: Output, *, figures: bool) -> list[str]:
    """Every problem with one pass's output (empty when it is correct)."""
    problems = []
    for key, grid in out.grids.items():
        for row in grid.row_keys:
            for model in grid.models:
                cell = grid.cells.get((row, model))
                if cell is None:
                    problems.append(f"{key}: cell ({row}, {model}) missing")
                    continue
                for metric in ("bleu", "chrf"):
                    agg = getattr(cell, metric)
                    if not _in_range(agg.mean):
                        problems.append(f"{key} ({row}, {model}) {metric} "
                                        f"{agg.mean} outside [0, 100]")
                    if agg.n != out.epochs:
                        problems.append(f"{key} ({row}, {model}) {metric} "
                                        f"aggregates {agg.n} of {out.epochs} trials")
    for mode in ("zero_shot", "few_shot"):
        cells = getattr(out.fewshot, mode)
        for model in data.MODELS:
            cell = cells.get(model)
            if cell is None:
                problems.append(f"t5 {mode} {model} missing")
            elif not (_in_range(cell.bleu.mean) and _in_range(cell.chrf.mean)):
                problems.append(f"t5 {mode} {model} outside [0, 100]")
    if figures:
        for experiment, _title in FIGURES:
            results = out.figures.get(experiment, {})
            if len(results) == 0:
                problems.append(f"figure 1 {experiment} missing")
            for condition, by_variant in results.items():
                for variant in data.PROMPT_VARIANTS:
                    for model in data.MODELS:
                        value = by_variant.get(variant, {}).get(model)
                        if value is None or not _in_range(value):
                            problems.append(f"figure 1 {experiment} {condition} "
                                            f"{variant} {model}: {value}")
    return problems


def paper_deltas(out: Output) -> dict[str, float]:
    """Mean |measured - paper| of BLEU and ChrF over each table's cells."""
    deltas = {}
    for key, paper_table, _label in _paper_tables():
        grid = out.grids[key]
        for metric in ("bleu", "chrf"):
            diffs = [
                abs(getattr(grid.cell(row, model), metric).mean
                    - getattr(paper, metric))
                for (row, model), paper in paper_table.items()
            ]
            deltas[f"{key}_{metric}_abs_delta"] = sum(diffs) / len(diffs)
    return deltas
