"""One benchmark step in a fresh interpreter; writes its result as JSON.

Usage (``run.py`` spawns it; ``PERFBENCH_LAUNCHED`` carries the
``time.monotonic()`` reading taken just before the spawn)::

    python perfbench/worker.py MODE --out RESULT.json [--seconds S]
        [--trace] [--work DIR]

Modes:

* ``probe`` — set up (imports + model registry) and stop: one
  ``setup_s`` sample.
* ``cold`` — set up, then one timed ``cold-fast`` pass: Tables 1/2/3/5
  at 2 trials, then Figure 1 (a)-(c) at 1 trial, in-memory cache, no
  store.  ``--trace`` times the pass with layer spans instead.
* ``regen`` — set up, one untimed 1-trial table pass (calibrates every
  table cell), then timed 5-trial table passes with a fresh result
  cache each: at least ``MIN_REGEN_PASSES``, then while the next is
  predicted to end within ``--seconds``.  ``--trace`` runs one untimed
  pass, one plain timed pass and one traced timed pass.
* ``warm`` — set up, pin this process (and so the server it starts)
  to one core, start ``python -m repro.serve`` on a unix socket
  under ``--work`` and fill it with one cold-fast pass.  The filled
  store is the pristine history.  Each round copies it, serves the copy
  and times ``RERUNS`` warm re-runs of the 7 sweeps; rounds repeat
  while the next is predicted to end within ``--seconds``.  ``--trace``
  runs one plain round and one traced round.

Every timed pass and set-up is kept twice: raw wall seconds (``*_raw``)
and reference seconds (see :mod:`speed`), which the metrics use.  Every sweep runs on
the default serial executor from this one process; the store client
keeps at most ``POOL_SIZE`` connections.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed

LAUNCHED = float(os.environ.get("PERFBENCH_LAUNCHED", time.monotonic()))

FAST_EPOCHS = 2  # reproduce_tables --fast
PAPER_EPOCHS = 5  # the paper's trials per table cell
COLD_SWEEPS = 7  # Tables 1/2/3/5 + Figure 1 (a)-(c)
TABLE_SWEEPS = 4
RERUNS = 40  # warm re-runs per round; history grows 7 manifests each
POOL_SIZE = 2  # store connections: no more than the box's 2 cores
SERVER_PROBES = 3  # extra server start + connect samples per warm run
MIN_REGEN_PASSES = 3


def setup(sampler: speed.SpeedSampler, remote: bool) -> dict:
    """Imports and the model registry, timed from interpreter launch.

    ``sampler`` was started first thing in :func:`main`; it covers all
    but the interpreter's own start-up, which it assumes ran at the
    speed it measured.
    """
    import pipeline  # noqa: F401  (repro.core.experiments, repro.reporting)
    import repro.runtime  # noqa: F401
    from repro.data import MODELS
    from repro.llm import get_model

    for model in MODELS:
        get_model(f"sim/{model}")
    if remote:
        import repro.serve  # noqa: F401
    raw = time.monotonic() - LAUNCHED
    sampler.stop()
    return {"setup_s": sampler.normalize(raw), "setup_raw_s": raw}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memory_config():
    from repro.runtime import InMemoryResultCache, RunConfig, SerialExecutor

    return RunConfig(executor=SerialExecutor(), cache=InMemoryResultCache())


def timed_pass(config, *, epochs: int, figures: bool):
    """One pass of the pipeline; (output, reference seconds, raw seconds)."""
    import pipeline

    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        started = time.perf_counter()
        out = pipeline.reproduce(config, epochs=epochs, figures=figures)
        raw = time.perf_counter() - started
    finally:
        sampler.stop()
    return out, sampler.normalize(raw), raw


def traced(remote: bool, body):
    """Run ``body()`` under layer spans; (body result, span report)."""
    import layers

    from repro.metrics.tokenizers import tokenize_13a_cached

    tracer = layers.install(remote=remote)
    before = tokenize_13a_cached.cache_info()
    try:
        result = body()
    finally:
        tracer.restore()
    after = tokenize_13a_cached.cache_info()
    report = {
        "calls": dict(tracer.calls),
        "total": dict(tracer.total),
        "self": dict(tracer.self_s),
        "steps": dict(tracer.step_s),
        "layer_self": tracer.layer_self(),
        "counts": dict(tracer.counts),
        "tokenize": {"hits": after.hits - before.hits,
                     "misses": after.misses - before.misses},
        "runs": [stats.as_dict() for stats in tracer.run_stats],
    }
    return result, report


def output_summary(out, figures: bool) -> dict:
    import pipeline

    return {
        "sha256": out.sha256,
        "problems": pipeline.check_output(out, figures=figures),
        "deltas": pipeline.paper_deltas(out),
    }


class Passes:
    """Timed passes of one worker: outputs and both timings."""

    def __init__(self) -> None:
        self.outputs: list[dict] = []
        self.ref: list[float] = []
        self.raw: list[float] = []

    def run(self, config, *, epochs: int, figures: bool) -> None:
        out, ref, raw = timed_pass(config, epochs=epochs, figures=figures)
        self.add(out, figures, ref, raw)

    def add(self, out, figures: bool, ref: float, raw: float) -> None:
        self.outputs.append(output_summary(out, figures=figures))
        self.ref.append(ref)
        self.raw.append(raw)

    def result(self, setup: dict, sweeps: int, spans=None) -> dict:
        return {**setup, "passes": self.ref, "passes_raw": self.raw,
                "sweeps": sweeps, "outputs": self.outputs, "spans": spans,
                "peak_rss_mb": peak_rss_mb()}


# -- modes --------------------------------------------------------------------


def mode_probe(args) -> dict:
    return setup(args.sampler, remote=False)


def mode_cold(args) -> dict:
    started = setup(args.sampler, remote=False)
    passes = Passes()
    config = memory_config()
    spans = None
    if args.trace:
        (out, ref, raw), spans = traced(
            False, lambda: timed_pass(config, epochs=FAST_EPOCHS, figures=True)
        )
        passes.add(out, True, ref, raw)
    else:
        passes.run(config, epochs=FAST_EPOCHS, figures=True)
    return passes.result(started, COLD_SWEEPS, spans)


def mode_regen(args) -> dict:
    started = setup(args.sampler, remote=False)
    prep, _ref, _raw = timed_pass(memory_config(), epochs=1, figures=False)
    problems = output_summary(prep, figures=False)["problems"]
    passes = Passes()
    spans = None
    if args.trace:
        timed_pass(memory_config(), epochs=PAPER_EPOCHS, figures=False)
        passes.run(memory_config(), epochs=PAPER_EPOCHS, figures=False)
        (out, ref, raw), spans = traced(
            False,
            lambda: timed_pass(memory_config(), epochs=PAPER_EPOCHS, figures=False),
        )
        passes.add(out, False, ref, raw)
    else:
        begun = time.perf_counter()
        while len(passes.raw) < MIN_REGEN_PASSES or (
            time.perf_counter() - begun + statistics.median(passes.raw)
            <= args.seconds
        ):
            passes.run(memory_config(), epochs=PAPER_EPOCHS, figures=False)
    result = passes.result(started, TABLE_SWEEPS, spans)
    result["prep_problems"] = problems
    return result


class Server:
    """One ``python -m repro.serve`` process on a unix socket in ``cwd``.

    The socket path is relative (``store.sock``) and both processes run
    in ``cwd``, which keeps it under the unix-socket path limit however
    deep the checkout is.
    """

    SOCKET = "store.sock"
    URL = f"unix://{SOCKET}"
    READY = "ready.json"

    def __init__(self, root: str) -> None:
        self.root = root
        self.proc = None

    def start(self):
        """Spawn, wait until ready, connect; (store client, seconds)."""
        from repro.serve import open_store

        if os.path.exists(self.READY):
            os.unlink(self.READY)
        sampler = speed.SpeedSampler()
        sampler.start()
        try:
            started = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--root", self.root,
                 "--unix", self.SOCKET, "--ready-file", self.READY],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            while not os.path.exists(self.READY):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"store server exited with {self.proc.returncode}")
                if time.monotonic() - started > 60:
                    raise RuntimeError("store server not ready after 60 s")
                time.sleep(0.005)
            store = open_store(self.URL, pool_size=POOL_SIZE)
            store.ping()
            raw = time.monotonic() - started
        except BaseException:
            self.stop()
            raise
        finally:
            sampler.stop()
        return store, sampler.normalize(raw)

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


def remote_config(store):
    from repro.runtime import RunConfig, SerialExecutor

    return RunConfig(executor=SerialExecutor(), cache=store.result_cache,
                     store=store, store_url=Server.URL)


def server_summary(store) -> dict:
    live = store.metrics()
    summary = live["summary"]
    return {
        "requests": summary["requests_served"],
        "ops": summary["ops"],
        "manifests": sum(shard["manifests"] for shard in summary["shards"]),
        "op_seconds": _op_seconds(live["metrics"]),
    }


def _op_seconds(snapshot: dict) -> float:
    """Summed server handling time over every op except ``metrics``."""
    total = 0.0
    for metric in snapshot["metrics"]:
        if metric["name"] == "repro_server_op_seconds":
            for series in metric["series"]:
                if series["labels"]["op"] != "metrics":
                    total += series["sum"]
    return total


def warm_round(pristine: str, fill_sha: str, *, trace: bool) -> dict:
    """Serve a copy of the pristine store and time RERUNS warm re-runs."""
    shutil.copytree(pristine, "round")
    server = Server("round")
    try:
        store, ready_s = server.start()
        try:
            config = remote_config(store)
            before = server_summary(store)

            def reruns():
                return [timed_pass(config, epochs=FAST_EPOCHS, figures=True)
                        for _ in range(RERUNS)]

            if trace:
                timed, spans = traced(True, reruns)
            else:
                timed, spans = reruns(), None
            after = server_summary(store)
            manifests = store.manifests()
        finally:
            store.close()
    finally:
        server.stop()
        shutil.rmtree("round")
    # every re-run: byte-identical to the fill, and its 7 manifests
    # record zero generations, zero scoring and zero failures
    history = manifests[before["manifests"]:]
    bad = 0
    for index, (out, _ref, _raw) in enumerate(timed):
        recorded = history[index * COLD_SWEEPS:(index + 1) * COLD_SWEEPS]
        if out.sha256 != fill_sha or len(recorded) != COLD_SWEEPS or any(
            m.stats.generated or m.stats.scores_computed or m.stats.units_failed
            for m in recorded
        ):
            bad += 1
    return {
        "ready_s": ready_s,
        "walls": [ref for _out, ref, _raw in timed],
        "walls_raw": [raw for _out, _ref, raw in timed],
        "failed_reruns": bad,
        "manifests_start": before["manifests"],
        "manifests_end": after["manifests"],
        "server_before": before,
        "server_after": after,
        "spans": spans,
    }


def mode_warm(args) -> dict:
    started = setup(args.sampler, remote=True)
    # client and server share one core: the speed sampler in this
    # process then measures the core both sides run on, and no
    # round trip waits for a cross-core wake-up
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(args.work)
    server = Server("pristine")
    store, ready_s = server.start()
    try:
        out, _ref, _raw = timed_pass(remote_config(store), epochs=FAST_EPOCHS,
                                     figures=True)
    finally:
        store.close()
        server.stop()
    fill = output_summary(out, figures=True)
    ready = [ready_s]
    for _ in range(SERVER_PROBES):
        store, ready_s = server.start()
        store.close()
        server.stop()
        ready.append(ready_s)
    rounds = []
    if args.trace:
        rounds.append(warm_round("pristine", fill["sha256"], trace=False))
        rounds.append(warm_round("pristine", fill["sha256"], trace=True))
    else:
        begun = time.perf_counter()
        while not rounds or (
            time.perf_counter() - begun
            + statistics.median(sum(r["walls_raw"]) for r in rounds) <= args.seconds
        ):
            rounds.append(warm_round("pristine", fill["sha256"], trace=False))
    return {
        **started,
        "server_ready_s": ready + [r["ready_s"] for r in rounds],
        "rounds": rounds,
        "passes": [sum(r["walls"]) for r in rounds],
        "passes_raw": [sum(r["walls_raw"]) for r in rounds],
        "sweeps": COLD_SWEEPS,
        "outputs": [fill],
        "spans": rounds[-1]["spans"],
        "peak_rss_mb": peak_rss_mb(),
    }


MODES = {"probe": mode_probe, "cold": mode_cold, "regen": mode_regen,
         "warm": mode_warm}


def main() -> int:
    sampler = speed.SpeedSampler()
    sampler.start()  # set-up is timed from here on
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", default=".")
    args = parser.parse_args()
    args.sampler = sampler
    out_path = os.path.abspath(args.out)
    try:
        result = MODES[args.mode](args)
        code = 0
    except Exception:
        result = {"error": traceback.format_exc()}
        code = 1
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
