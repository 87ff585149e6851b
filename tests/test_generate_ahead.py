"""Generate-ahead: a sweep's simulated completions computed on every free core.

:func:`repro.llm.generate_ahead` forks helpers that calibrate cells and
compute payloads ahead of the executor.  These tests pin that it changes
where the work runs and nothing else: grids are bit-identical with
helpers on and off, a dying helper or a raising cell behaves as on the
in-process path, it never forks next to a live Python thread, and it
leaves no memo behind.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import threading
import time

import pytest

import repro.llm.api as api
import repro.llm.simulated as simulated
from repro.core.experiments import run_configuration, run_prompt_sensitivity
from repro.core.experiments.configuration import configuration_task
from repro.core.assets import reference_config
from repro.data import MODELS
from repro.errors import CalibrationError
from repro.llm import generate_ahead, get_model
from repro.llm.intent import analyze_prompt
from repro.llm.simulated import SimulatedModel
from repro.llm.types import ChatMessage
from repro.reporting import render_grid_table
from repro.runtime import FaultPolicy, Plan, ThreadedExecutor, run

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="generate-ahead needs two or more usable CPUs",
)


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Waits for threads earlier tests left behind, which would veto the fork.

    An executor pool nobody closed keeps its workers until the cyclic
    collector frees it, and a stopped server's thread can outlive its
    test by a moment.
    """
    gc.collect()
    deadline = time.monotonic() + 10
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    stray = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
    assert not stray, f"threads from earlier tests still alive: {stray}"


@pytest.fixture()
def fresh_models(monkeypatch):
    """Returns a function that swaps in uncalibrated ``sim/*`` models."""
    monkeypatch.setattr(api, "_instances", dict(api._instances))

    def reset():
        for name in [name for name in api._instances if name.startswith("sim/")]:
            del api._instances[name]

    reset()
    return reset


@pytest.fixture()
def forks(monkeypatch):
    """Records every ``os.fork`` this process makes."""
    made = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return made


@contextlib.contextmanager
def one_cpu():
    """Pins this process to one CPU, then restores its affinity."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def sim_models() -> list[SimulatedModel]:
    return [get_model(f"sim/{model}").provider for model in MODELS]


def table1_plan() -> Plan:
    plan = Plan("generate-ahead/table1")
    for system in ("adios2", "henson", "wilkins"):
        for model in MODELS:
            plan.add_eval(configuration_task(system), f"sim/{model}", epochs=2)
    return plan


def table1_and_figure1a():
    table = run_configuration(epochs=2)
    figure = run_prompt_sensitivity("configuration", conditions=["wilkins"])
    return table.cells, render_grid_table(table, "Table 1"), figure


def outcome_of(plan: Plan, **kwargs):
    """Completions and quarantined failures of an isolating run."""
    outcome = run(plan, faults=FaultPolicy(on_failure="isolate"), **kwargs)
    completions = {uid: r.completion for uid, r in outcome.results.items()}
    failures = {
        uid: (f.error_type, f.message, f.attempts, f.traceback_digest)
        for uid, f in outcome.failures.items()
    }
    return completions, failures


def henson_uncalibratable(monkeypatch):
    """Every Henson configuration cell raises CalibrationError."""
    real = simulated.calibrate
    henson = reference_config("henson")

    def calibrate(reference, ops, target, **kwargs):
        if reference == henson:
            raise CalibrationError(f"cannot reach BLEU {target:.1f}")
        return real(reference, ops, target, **kwargs)

    monkeypatch.setattr(simulated, "calibrate", calibrate)


def test_grids_identical_with_helpers_on_and_off(fresh_models, forks):
    with one_cpu():
        off = table1_and_figure1a()
    assert forks == []
    fresh_models()
    on = table1_and_figure1a()
    assert forks, "the fork path did not run"
    assert on == off


def test_dead_helper_gives_identical_output(fresh_models, forks, monkeypatch):
    monkeypatch.setattr(simulated, "_helper_record", lambda group, index: os._exit(3))
    dying = table1_and_figure1a()
    assert forks
    fresh_models()
    with one_cpu():
        assert table1_and_figure1a() == dying


def test_calibration_error_raises_at_its_unit(fresh_models, forks, monkeypatch):
    henson_uncalibratable(monkeypatch)
    on = outcome_of(table1_plan())
    assert forks
    assert on[1] and all("/henson/" in uid for uid in on[1])
    with pytest.raises(CalibrationError, match="cannot reach BLEU"):
        run(table1_plan())
    fresh_models()
    calls = len(forks)
    with one_cpu():
        assert outcome_of(table1_plan()) == on
        with pytest.raises(CalibrationError, match="cannot reach BLEU"):
            run(table1_plan())
    assert len(forks) == calls


def test_live_python_thread_means_no_fork(fresh_models, forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        run(table1_plan())
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_threads_consuming_the_memo_lose_no_update(fresh_models, forks):
    with one_cpu():
        expected = outcome_of(table1_plan())
    fresh_models()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadedExecutor(8) as executor:  # its threads start after the fork
            assert outcome_of(table1_plan(), executor=executor) == expected
    finally:
        sys.setswitchinterval(interval)
    assert forks
    assert all(model._ahead == {} for model in sim_models())


def test_requests_sharing_a_payload_each_read_it(fresh_models, forks, monkeypatch):
    units = table1_plan().units
    # a trailing newline changes the generation key, not the payload
    requests = [(u.model, prompt, u.config)
                for u in units for prompt in (u.prompt, u.prompt + "\n")]
    generate_ahead(requests)
    assert forks
    assert all(uses == 2 for model in sim_models() for _payload, uses in model._ahead.values())
    fresh = {model.name: SimulatedModel(model.profile) for model in sim_models()}
    expected = [fresh[name].generate([ChatMessage.user(prompt)], config).completion
                for name, prompt, config in requests]

    def not_ahead(self, intent, config):
        raise AssertionError("payload computed at generate time")

    monkeypatch.setattr(SimulatedModel, "_generate_payload", not_ahead)
    got = [get_model(name).generate(prompt, config).completion
           for name, prompt, config in requests]
    assert got == expected
    assert all(model._ahead == {} for model in sim_models())


def test_memo_is_empty_after_the_run(fresh_models, forks):
    run(table1_plan())
    assert forks
    assert all(model._ahead == {} for model in sim_models())


def test_memo_left_by_a_skipped_unit_is_replaced(fresh_models, forks):
    units = table1_plan().units
    generate_ahead([(u.model, u.prompt, u.config) for u in units])
    assert forks
    assert any(model._ahead for model in sim_models())
    generate_ahead([])
    assert all(model._ahead == {} for model in sim_models())


def test_adopted_cell_calibration_matches_in_process(fresh_models, forks):
    units = table1_plan().units
    generate_ahead([(u.model, u.prompt, u.config) for u in units])
    assert forks
    adopted = 0
    for unit in units:
        model = get_model(unit.model).provider
        intent = analyze_prompt(unit.prompt)
        if model._cell_key(intent) not in model._adopted:
            continue
        adopted += 1
        expected = SimulatedModel(model.profile).calibration_for(intent)
        assert model.calibration_for(intent) == expected
    assert adopted, "no helper calibrated a cell"
    generate_ahead([])  # drop the memo this test left behind


def test_concurrent_callers_build_an_adopted_cell_once(fresh_models, forks, monkeypatch):
    # the fork-path twin of test_runtime.py's TestCalibrationRace: a cell a
    # helper calibrated is built once for concurrent callers, and never
    # calibrated again here
    units = table1_plan().units
    generate_ahead([(u.model, u.prompt, u.config) for u in units])
    assert forks
    adopted = [(get_model(u.model).provider, analyze_prompt(u.prompt)) for u in units]
    adopted = [(model, intent) for model, intent in adopted
               if model._cell_key(intent) in model._adopted]
    assert adopted, "no helper calibrated a cell"
    model, intent = adopted[0]
    calls = []
    monkeypatch.setattr(simulated, "calibrate", lambda *a, **kw: calls.append(a))

    barrier = threading.Barrier(8)
    cells = []

    def hammer():
        barrier.wait(timeout=10)
        cells.append(model._cell(intent))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == []
    assert len(cells) == 8 and all(cell is cells[0] for cell in cells)
    assert model._cell_key(intent) not in model._adopted
    generate_ahead([])  # drop the memo this test left behind
