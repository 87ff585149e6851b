"""Import contract: what importing the reproduction's layers may load.

The reproduction never builds a :class:`~repro.workflows.graph.WorkflowGraph`,
so importing the layers it runs through must not pull in ``networkx``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

REPRODUCTION_LAYERS = (
    "repro.core.experiments",
    "repro.reporting",
    "repro.llm",
    "repro.runtime",
    "repro.data",
)


def loaded_after(statements, probe):
    """``probe in sys.modules`` after running ``statements`` in a fresh interpreter."""
    code = "\n".join(["import sys", *statements, f"print({probe!r} in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_reproduction_layers_do_not_import_networkx():
    imports = [f"import {name}" for name in REPRODUCTION_LAYERS]
    assert not loaded_after(imports, "networkx")


def test_building_a_workflow_graph_loads_networkx():
    build = ["from repro.workflows.graph import linear_pipeline",
             "linear_pipeline(['a', 'b']).validate()"]
    assert loaded_after(build, "networkx")
