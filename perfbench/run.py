"""End-to-end benchmark of the paper reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload {cold-fast,regen-trials,warm-remote}
        [--seed N] [--seconds S] [--trace {0,1}]

Every workload runs in fresh interpreters (``perfbench/worker.py``), so
no model instance, calibration, compile cache or tokenizer cache
carries over from an earlier run:

* ``cold-fast`` — the whole ``reproduce_tables --fast`` pipeline (288
  generations), one fresh interpreter per pass;
* ``regen-trials`` — calibrations warm, Tables 1/2/3/5 re-run at the
  paper's 5 trials with a fresh result cache per pass;
* ``warm-remote`` — re-runs of the 7 sweeps against a filled
  ``python -m repro.serve`` store: zero generations, zero scoring.

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
one plain and one traced measurement, and every per-layer metric.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (sweeps) and ``metrics``.

The reproduction has no input seed: its trial seeds are the epoch
indices, so ``--seed`` is recorded and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"cold-fast": "cold", "regen-trials": "regen", "warm-remote": "warm"}
SETUP_PROBES = 5  # extra set-up-only interpreters per run
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
WORKER_TIMEOUT_S = 150
DELTA_METRICS = tuple(
    f"t{table}_{metric}_abs_delta" for table in (1, 2, 3) for metric in ("bleu", "chrf")
)


class WorkerFailed(Exception):
    """A worker interpreter raised or died; carries its report."""


def spawn(mode: str, work: pathlib.Path, seconds: float, trace: bool) -> dict:
    """Run one worker to completion in a fresh interpreter."""
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--out", str(out),
           "--seconds", str(seconds), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PERFBENCH_LAUNCHED=repr(time.monotonic()))
    # its own session, so a timeout also stops the store server it started
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} worker ran over {WORKER_TIMEOUT_S} s") from None
    if not out.exists():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {log}")
    result = json.loads(out.read_text())
    out.unlink()
    if "error" in result:
        raise WorkerFailed(f"{mode} worker raised:\n{result['error']}")
    return result


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its label.

    Fewer than TAIL_BEYOND + 1 samples leave no such percentile; the
    maximum stands in and the label says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of n={n}"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100.0 * (index + 1) / n:g} of n={n}"


class Measurement:
    """Worker results of one run, folded into metrics and checks."""

    def __init__(self) -> None:
        # reference seconds (see speed.py); *_raw in wall seconds
        self.setup_samples: list[float] = []
        self.setup_raw: list[float] = []
        self.ready_samples: list[float] = []
        self.passes: list[float] = []  # timed-work seconds per pass / round
        self.passes_raw: list[float] = []
        self.reruns: list[float] = []  # per re-run seconds
        self.round_tails: list[tuple[float, str]] = []  # warm-remote, per round
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: list[dict] = []
        self.timed_shas: list[str] = []  # digest of each timed pass's output
        self.labels: dict[str, object] = {}
        self.results: list[dict] = []

    def add(self, result: dict) -> None:
        self.results.append(result)
        self.setup_samples.append(result["setup_s"])
        self.setup_raw.append(result["setup_raw_s"])
        if "passes" not in result:
            return  # a set-up probe
        self.rss.append(result["peak_rss_mb"])
        self.ready_samples += result.get("server_ready_s", [])
        self.passes += result["passes"]
        self.passes_raw += result["passes_raw"]
        self.problems += result.get("prep_problems", [])
        if "rounds" in result:
            for rnd in result["rounds"]:
                self.reruns += rnd["walls"]
                self.round_tails.append(tail(rnd["walls"]))
                self.attempted += len(rnd["walls"]) * result["sweeps"]
                self.failed += rnd["failed_reruns"] * result["sweeps"]
                if rnd["failed_reruns"]:
                    self.problems.append(
                        f"{rnd['failed_reruns']} warm re-run(s) differ from the "
                        "fill or recorded generations/scoring/failures")
            # each re-run was checked byte-identical to the fill
            self.timed_shas.append(result["outputs"][0]["sha256"])
        else:
            timed = result["outputs"]
            self.reruns += result["passes"]
            self.attempted += len(timed) * result["sweeps"]
            self.failed += sum(1 for o in timed if o["problems"]) * result["sweeps"]
            self.timed_shas += [o["sha256"] for o in timed]
        for output in result["outputs"]:
            self.problems += output["problems"]
        self.outputs += result["outputs"]

    def fail_worker(self, sweeps: int, error: str) -> None:
        self.attempted += sweeps
        self.failed += sweeps
        self.problems.append(error)


def check_consistency(runs: list[Measurement]) -> list[str]:
    """Identical work must render identically within the run."""
    shas = {sha for m in runs for sha in m.timed_shas}
    if len(shas) > 1:
        return [f"the timed passes rendered {len(shas)} different outputs"]
    return []


def measure(workload: str, work: pathlib.Path, seconds: float, trace: bool):
    """Run the workload's workers; (plain Measurement, traced one or None)."""
    mode = WORKLOADS[workload]
    plain = Measurement()
    traced = Measurement() if trace else None
    try:
        for _ in range(SETUP_PROBES):
            plain.add(spawn("probe", work, seconds, False))
        started = time.perf_counter()
        if trace:
            if mode == "cold":  # the plain pass needs its own interpreter
                plain.add(spawn(mode, work, seconds, False))
            traced.add(spawn(mode, work, seconds, True))
        elif mode == "cold":
            # one fresh interpreter per pass, while the next fits
            while not plain.passes or (
                time.perf_counter() - started
                + statistics.median(plain.passes_raw) <= seconds
            ):
                plain.add(spawn(mode, work, seconds, False))
        else:
            plain.add(spawn(mode, work, seconds, False))
    except WorkerFailed as exc:
        (traced or plain).fail_worker(4 if mode == "regen" else 7, str(exc))
    return plain, traced


def end_to_end(m: Measurement) -> dict[str, tuple[float, str]]:
    setup = statistics.median(m.setup_samples)
    if m.ready_samples:
        setup += statistics.median(m.ready_samples)
    if m.round_tails:  # the same percentile however many rounds fit
        tail_value = statistics.median(value for value, _ in m.round_tails)
        tail_label = (f"{m.round_tails[0][1]} per round, median of "
                      f"{len(m.round_tails)} round(s)")
    else:
        tail_value, tail_label = tail(m.reruns)
    m.labels["rerun_tail"] = tail_label
    m.labels["raw_wall_s"] = f"{statistics.median(m.passes_raw):.4f}"
    m.labels["raw_setup_s"] = f"{statistics.median(m.setup_raw):.4f}"
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(m.passes), "s"),
        "rerun_p50_ms": (1000.0 * statistics.median(m.reruns), "ms"),
        "rerun_tail_ms": (1000.0 * tail_value, "ms"),
        "peak_rss_mb": (max(m.rss), "MB"),
    }
    deltas = m.outputs[-1]["deltas"]
    for name in DELTA_METRICS:
        metrics[name] = (deltas[name], "points")
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Measurement, traced: Measurement) -> dict[str, tuple[float, str]]:
    result = traced.results[-1]
    spans = result["spans"]
    calls, total, counts = spans["calls"], spans["total"], spans["counts"]
    self_s, layer_self = spans["self"], spans["layer_self"]
    runs = spans["runs"]

    def run_sum(key: str) -> int:
        return sum(stats.get(key, 0) for stats in runs)

    traced_wall = result["passes"][-1]
    if plain.passes:  # cold-fast: the plain pass ran in its own interpreter
        plain_wall = statistics.median(plain.passes)
    else:  # regen / warm: the plain pass or round precedes the traced one
        plain_wall = result["passes"][-2]
    tokens = spans["tokenize"]
    units = run_sum("total_units")
    lru = run_sum("read_lru_hits") + run_sum("read_lru_misses")
    out = {
        "llm.calibrate.calls": (calls.get("llm.calibrate", 0), "count"),
        "llm.calibrate.s": (total.get("llm.calibrate", 0.0), "s"),
        "llm.calibrate.depths_scored": (counts.get("llm.calibrate.depths_scored", 0),
                                        "count"),
        "llm.calibrate.useful_frac": (
            _ratio(calls.get("llm.calibrate", 0),
                   counts.get("llm.calibrate.depths_scored", 0)), "ratio"),
        "llm.recalibrate.calls": (calls.get("llm.recalibrate", 0), "count"),
        "llm.recalibrate.s": (total.get("llm.recalibrate", 0.0), "s"),
        "llm.recalibrate.depths_scored": (
            counts.get("llm.recalibrate.depths_scored", 0), "count"),
        "llm.recalibrate.fallback_frac": (
            _ratio(counts.get("llm.recalibrate.fallbacks", 0),
                   calls.get("llm.recalibrate", 0)), "ratio"),
        "llm.corrupt.s": (total.get("llm.corrupt", 0.0), "s"),
        "llm.generate.calls": (calls.get("llm.generate", 0), "count"),
        "llm.generate.s": (total.get("llm.generate", 0.0), "s"),
        "llm.self.s": (layer_self.get("llm", 0.0), "s"),
        "metrics.bleu_compiled.calls": (calls.get("metrics.bleu_compiled", 0), "count"),
        "metrics.bleu_compiled.s": (total.get("metrics.bleu_compiled", 0.0), "s"),
        "metrics.score.calls": (calls.get("metrics.score", 0), "count"),
        "metrics.score.s": (total.get("metrics.score", 0.0), "s"),
        "metrics.self.s": (layer_self.get("metrics", 0.0), "s"),
        "metrics.tokenize_cache_hit_frac": (
            _ratio(tokens["hits"], tokens["hits"] + tokens["misses"]), "ratio"),
        "runtime.run.calls": (calls.get("runtime.run", 0), "count"),
        "runtime.run.s": (total.get("runtime.run", 0.0), "s"),
        "runtime.self.s": (self_s.get("runtime.run", 0.0), "s"),
        "runtime.units": (units, "count"),
        "runtime.generated": (run_sum("generated"), "count"),
        "runtime.cache_hits": (run_sum("cache_hits"), "count"),
        "runtime.score_hits": (run_sum("score_hits"), "count"),
        "runtime.cache_hit_frac": (_ratio(run_sum("cache_hits"), units), "ratio"),
        "experiments.build.s": (self_s.get("experiments.run", 0.0), "s"),
        "reporting.render.s": (total.get("reporting.render", 0.0), "s"),
        "persist.read_lru_hit_frac": (_ratio(run_sum("read_lru_hits"), lru), "ratio"),
        "persist.bytes_read": (run_sum("bytes_read"), "bytes"),
        "setup.import.s": (statistics.median(plain.setup_samples), "s"),
        "setup.server_ready.s": (
            statistics.median(traced.ready_samples) if traced.ready_samples else 0.0,
            "s"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
    }
    out.update(serve_layer(result, calls, total, layer_self))
    return out


SERVER_OPS = ("get_records", "latest_manifest", "put_manifest")


def serve_layer(result, calls, total, layer_self) -> dict[str, tuple[float, str]]:
    """Client spans against the server's own metrics over the traced round."""
    out = {
        "serve.client.get.calls": (calls.get("serve.client.get", 0), "count"),
        "serve.client.get.s": (total.get("serve.client.get", 0.0), "s"),
        "serve.client.record_run.calls": (calls.get("serve.client.record_run", 0),
                                          "count"),
        "serve.client.record_run.s": (total.get("serve.client.record_run", 0.0), "s"),
        "serve.self.s": (layer_self.get("serve", 0.0), "s"),
    }
    rnd = result["rounds"][-1] if result.get("rounds") else None
    before = rnd["server_before"] if rnd else None
    after = rnd["server_after"] if rnd else None
    server_s = after["op_seconds"] - before["op_seconds"] if rnd else 0.0
    out["serve.transport.s"] = (
        total.get("serve.client.exchange", 0.0) - server_s if rnd else 0.0, "s")
    out["serve.server.requests"] = (
        after["requests"] - before["requests"] if rnd else 0, "count")
    for op in SERVER_OPS:
        p50 = after["ops"].get(op, {}).get("p50_s", 0.0) if rnd else 0.0
        out[f"serve.server.{op}.p50_ms"] = (1000.0 * p50, "ms")
    out["persist.manifests_start"] = (rnd["manifests_start"] if rnd else 0, "count")
    out["persist.manifests"] = (rnd["manifests_end"] if rnd else 0, "count")
    return out


def isolation(workload: str, traced: Measurement, layer: dict) -> list[str]:
    """The blocking-step claims the benchmark's workloads rest on."""
    steps = traced.results[-1]["spans"]["steps"]
    largest = max(steps, key=steps.get) if steps else None
    lines = [f"largest blocking step: {largest} ({steps.get(largest, 0.0):.3f} s)"]
    if workload == "cold-fast":
        claims = {"llm.calibrate is the largest blocking step":
                  largest == "llm.calibrate"}
    elif workload == "regen-trials":
        claims = {"llm.calibrate.calls == 0": layer["llm.calibrate.calls"][0] == 0,
                  "llm.recalibrate is the largest blocking step":
                  largest == "llm.recalibrate"}
    else:
        claims = {"llm.generate.calls == 0": layer["llm.generate.calls"][0] == 0,
                  "metrics.score.calls == 0": layer["metrics.score.calls"][0] == 0}
    for claim, holds in claims.items():
        lines.append(f"isolation: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    total = sum(steps.values()) or 1.0
    for name, seconds in sorted(steps.items(), key=lambda kv: -kv[1]):
        lines.append(f"  step {name:<26} {seconds:9.3f} s  {100 * seconds / total:5.1f}%")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    try:
        plain, traced = measure(args.workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    runs = [plain] if traced is None else [plain, traced]
    problems = [p for m in runs for p in m.problems] + check_consistency(runs)
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    scored = traced if traced is not None else plain
    correct = not problems and failed == 0 and bool(scored.passes)
    lines = [f"workload {args.workload}  seed {args.seed} (no input seed: trial "
             "seeds are epoch indices)"]
    metrics: dict[str, tuple[float, str]] = {}
    if correct:
        metrics = (per_layer(plain, traced) if traced is not None
                   else end_to_end(plain))
        if traced is not None:
            lines += isolation(args.workload, traced, metrics)
        lines.append(f"label output_sha256 = {scored.timed_shas[0]}")
        for key, value in sorted(scored.labels.items()):
            lines.append(f"label {key} = {value}")
        warm = [rnd for r in scored.results for rnd in r.get("rounds", [])]
        if warm:
            lines.append(f"label manifests_at_start = {warm[0]['manifests_start']}")
            lines.append("label manifests_after_reruns = "
                         + ",".join(str(r["manifests_end"]) for r in warm))
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.6g} {unit}")
    for problem in problems[:20]:
        lines.append(f"PROBLEM: {problem}")
    lines.append(f"failed_frac = {failed}/{attempted} sweeps")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
