"""Import contract: what importing the reproduction's layers may load.

The reproduction never builds a :class:`~repro.workflows.graph.WorkflowGraph`,
so importing the layers it runs through must not pull in ``networkx``.

The infrastructure layers form a DAG — core ← runtime ← persist ← serve,
with obs a leaf — and each check below pins one of its edges: a layer
never loads a layer that sits above it.
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


def loaded_modules(statements):
    """Every name in ``sys.modules`` after ``statements`` ran in a fresh interpreter."""
    code = "\n".join(["import sys", *statements, "print('\\n'.join(sys.modules))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def in_packages(modules, *packages):
    """The modules of ``modules`` that are ``packages`` or live under them."""
    return sorted(
        name for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


def test_reproduction_layers_do_not_import_networkx():
    imports = [f"import {name}" for name in REPRODUCTION_LAYERS]
    assert "networkx" not in loaded_modules(imports)


def test_building_a_workflow_graph_loads_networkx():
    build = ["from repro.workflows.graph import linear_pipeline",
             "linear_pipeline(['a', 'b']).validate()"]
    assert "networkx" in loaded_modules(build)


def test_runtime_loads_neither_persist_nor_serve():
    loaded = loaded_modules(["import repro.runtime"])
    assert in_packages(loaded, "repro.persist", "repro.serve") == []


def test_persist_does_not_load_serve():
    loaded = loaded_modules(["import repro.persist"])
    assert "repro.persist" in loaded
    assert in_packages(loaded, "repro.serve") == []


def test_obs_is_a_leaf():
    loaded = loaded_modules(["import repro.obs"])
    allowed = {"repro", "repro.errors", "repro._version"}
    outside = [
        name for name in in_packages(loaded, "repro")
        if name not in allowed and not name.startswith("repro.obs")
    ]
    assert outside == []
