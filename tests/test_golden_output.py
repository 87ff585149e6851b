"""Golden output: the reproduction's rendered tables stay byte-identical.

The simulated models are deterministic, so any change to a rendered
table is either a deliberate fidelity change (re-pin the digest and
report it) or a bug.  Tier-1 pins a cheap slice, Table 1 at 2 epochs;
CI pins the whole ``examples/reproduce_tables.py --fast`` output (with
its ``total time:`` line dropped) against
``tests/fixtures/reproduce_tables_fast.sha256``.
"""

from __future__ import annotations

import hashlib
import pathlib

from repro.core.experiments import run_configuration
from repro.reporting import render_grid_table

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def pinned(name: str) -> str:
    return (FIXTURES / name).read_text().strip()


def test_table1_two_epochs_matches_golden_digest():
    table = render_grid_table(
        run_configuration(epochs=2), "Table 1: workflow configuration"
    )
    digest = hashlib.sha256(table.encode("utf-8")).hexdigest()
    assert digest == pinned("table1_epochs2.sha256")
