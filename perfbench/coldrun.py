"""The ``cold-compile`` workload: repetitions of the 48-job suite, each in
a fresh interpreter (``cold_child.py``), because the process-wide
expression-intern table and generated-function cache outlive a session
and would warm later repetitions."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import inputs
import layers
import spans
from openloop import quantile

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0


def _one_rep(seed: int, trace_out: str | None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "cold_child.py")]
    spawn_ns = time.monotonic_ns()
    argv += [str(spawn_ns), str(seed)] + ([trace_out] if trace_out else [])
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-compile child failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    expected = inputs.load_expected()["compile"]
    reps: list[dict] = []
    trace_files: list[str] = []
    start = time.monotonic()
    while True:
        trace_out = os.path.join(workdir, f"cold-{len(reps)}.json") if trace else None
        reps.append(_one_rep(seed, trace_out))
        if trace_out:
            trace_files.append(trace_out)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    attempted = failed = 0
    for rep in reps:
        for key, want in expected.items():
            attempted += 1
            if rep["outputs"].get(key) != want:
                failed += 1
                log(f"wrong output for {key}: {rep['outputs'].get(key)} != {want}")

    suite = [r["suite_s"] for r in reps]
    # Per job, the median over repetitions; quantiles are over the jobs.
    compile_ms = [statistics.median(r["compile_ms"][k] for r in reps) for k in expected]
    timing_ms = [statistics.median(r["timing_ms"][k] for r in reps) for k in expected]
    log(f"reps={len(reps)} suite_s={[round(s, 3) for s in suite]} "
        f"setup_s={[round(r['setup_s'], 3) for r in reps]}")
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "suite_s": statistics.median(suite),
            "compile_p50_ms": quantile(compile_ms, 0.5),
            "compile_mean_ms": statistics.fmean(compile_ms),
            "run_p50_ms": quantile(timing_ms, 0.5),
            "run_mean_ms": statistics.fmean(timing_ms),
            # Jobs per second of the ``compile_many`` call alone.
            "achieved_rps": statistics.median(r["jobs"] / r["compile_many_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        },
    }
    if trace:
        result["layers"], result["trace_processes"] = _layers(reps, trace_files)
    return result


def _layers(reps: list[dict], trace_files: list[str]) -> tuple[dict, dict]:
    cost_ns = spans.per_span_cost_ns()
    processes: dict[int, list] = {}
    all_spans = []
    covered = wall = 0
    for rep, path in zip(reps, trace_files):
        pid, rep_spans = spans.load_spans(path)
        processes[pid] = rep_spans
        all_spans.extend(rep_spans)
        lo, hi = rep["window_ns"]
        wall += hi - lo
        covered += spans.covered_ns((lo, hi), rep_spans)
    out = layers.span_metrics(all_spans, reps=len(reps))
    out.update(layers.DEFAULTS)
    out["esat.guard_rejects"] = statistics.median(r["guard_rejects"] for r in reps)
    out["trace.unattributed_ratio"] = 1.0 - covered / wall
    out["trace.overhead_ratio"] = len(all_spans) * cost_ns / wall
    return out, processes
