"""Fidelity ratchet: the reproduction may not drift further from the paper.

For Tables 1, 2 and 3 at 2 epochs, the mean |measured - paper| of each
table's BLEU and ChrF cells (against ``repro.data.TABLE1/2/3``) must
stay at or under a ceiling pinned in
``tests/fixtures/paper_delta_ceilings.json``.

The rule: a ceiling only goes down, and it goes down in the same change
that lowers the measured value.  A change that raises a value is a
fidelity regression, not a reason to raise the ceiling.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.experiments import run_annotation, run_configuration, run_translation
from repro.data import TABLE1, TABLE2, TABLE3

CEILINGS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "paper_delta_ceilings.json").read_text()
)
SLACK = 1e-9  # float summation order only; the runs are deterministic
TABLES = {
    "t1": (run_configuration, TABLE1),
    "t2": (run_annotation, TABLE2),
    "t3": (run_translation, TABLE3),
}


def mean_abs_deltas() -> dict[str, float]:
    deltas = {}
    for key, (run, paper_table) in TABLES.items():
        grid = run(epochs=2)
        for metric in ("bleu", "chrf"):
            diffs = [
                abs(getattr(grid.cell(row, model), metric).mean - getattr(paper, metric))
                for (row, model), paper in paper_table.items()
            ]
            deltas[f"{key}_{metric}"] = sum(diffs) / len(diffs)
    return deltas


@pytest.fixture(scope="module")
def measured() -> dict[str, float]:
    return mean_abs_deltas()


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_mean_abs_delta_is_at_most_its_ceiling(measured, name):
    assert measured[name] <= CEILINGS[name] + SLACK, (
        f"{name}: mean |measured - paper| rose to {measured[name]!r}, "
        f"over its ceiling {CEILINGS[name]!r}"
    )


def test_every_table_metric_has_a_ceiling(measured):
    assert sorted(CEILINGS) == sorted(measured)
