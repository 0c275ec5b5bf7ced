"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import make_expected  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _runnable():
    return inputs.runnable_specs(inputs.all_specs())


def _plan(seed: int, fresh_every=None):
    rng = random.Random(seed)
    plan = serving._plan(rng, _runnable(), 2, fresh_every, rate=10.0)
    return plan + serving._plan(rng, _runnable(), 1, fresh_every, prefix="k")


def _shape(plan):
    return [(r.offset_s, r.op, r.bench, r.fresh, json.dumps(r.wire, sort_keys=True))
            for r in plan]


def test_same_seed_same_schedule():
    for fresh_every in (None, 3):
        assert _shape(_plan(7, fresh_every)) == _shape(_plan(7, fresh_every))
        assert _shape(_plan(7, fresh_every)) != _shape(_plan(8, fresh_every))
    specs = inputs.all_specs()
    assert inputs.cold_jobs(specs, 7) == inputs.cold_jobs(specs, 7)


def test_schedule_is_balanced_and_churn_third_is_fresh():
    rng = random.Random(1)
    assert serving._window_cycles(10.0, 25.0, _runnable(), None) == 10
    assert serving._window_cycles(8.0, 25.0, _runnable(), 3) == 3
    plan = serving._plan(rng, _runnable(), 3, None, rate=26.0)
    assert len(plan) == 78 and plan[-1].offset_s == pytest.approx(77 / 26.0)
    counts = {}
    for r in plan:
        counts[(r.op, r.bench)] = counts.get((r.op, r.bench), 0) + 1
    assert set(counts.values()) == {3}
    churn = serving._plan(rng, _runnable(), 1, 3, rate=8.0)
    capacity = serving._plan(rng, _runnable(), 2, 3, prefix="k")
    assert sum(r.fresh for r in churn) == 26 and sum(r.fresh for r in capacity) == 52
    for op in ("compile", "run"):
        fresh = [r.bench for r in churn if r.fresh and r.op == op]
        assert sorted(fresh) == sorted(s.name for s in _runnable())
    fresh_sources = {r.wire["source"] for r in churn + capacity if r.fresh}
    assert len(fresh_sources) == 78


def test_expected_outputs_match_program_and_bench_obs():
    fresh = make_expected.generate()
    assert make_expected.cross_check(fresh, "BENCH_obs.json") == []
    assert fresh == inputs.load_expected()
    assert len(fresh["compile"]) == 48 and len(fresh["run"]) == 13


def test_request_env_keeps_float_arguments():
    ep = {s.name: s for s in inputs.all_specs()}["EP"]
    env = inputs.run_env(ep)
    assert env["ainv"] == pytest.approx(1.1920928955078125e-07)
    assert env["__len_qx"] == env["nbatch"]


def test_self_time_subtracts_union_of_children():
    parent = spans.Span("p", "a", 0, None, None, 1)
    parent.end = 100
    kids = []
    for sid, (lo, hi) in enumerate(((10, 40), (30, 60), (90, 120))):
        kid = spans.Span(str(sid), "b", lo, "p", None, 1)
        kid.end = hi
        kids.append(kid)
    selfs = spans.self_times_ns([parent] + kids)
    assert selfs["p"] == 100 - 50 - 10
    assert spans.covered_ns((0, 100), kids) == 60


def test_wrappers_keep_results_and_record_spans():
    store = spans.SpanStore()
    calls = []

    def layer(x):
        calls.append(x)
        return x * 2

    wrapped = store.sync(layer, "layer")
    assert wrapped(21) == 42 and calls == [21]
    assert [s.name for s in store.spans] == ["layer"]


def _run(workload: str, seconds: str, cwd: str, trace: str = "0"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("workload", ["cold-compile", "warm-serve", "churn-route"])
def test_workload_runs_without_errors(workload):
    """Every output check passes at this commit, including the served
    runs of 352.ep and EP (part of every prewarm pass)."""
    proc = _run(workload, "2", ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


#: Per-layer metrics each workload exercises (perfbench/NOTES.md): a
#: traced run must report them above 0, so a wrapper that stops catching
#: its layer's calls fails here rather than reading as the default 0.
LAYERS_ON = {
    "cold-compile": [
        "lang.parse.calls", "lang.tokenize.self_ms", "ir.build.calls",
        "pipeline.pass.autopar.self_ms", "pipeline.pass.licm.self_ms",
        "pipeline.pass.safara.self_ms", "pipeline.pass.esat.self_ms",
        "feedback.backend_compilations", "gpu.ptxas.calls", "gpu.ptxas.self_ms",
        "esat.self_ms", "esat.guard_rejects", "codegen.vir.self_ms",
        "codegen.vir.instrs", "codegen.plan.calls", "codegen.numpy.calls",
        "gpu.timing.calls", "trace.unattributed_ratio", "trace.overhead_ratio",
    ],
    "warm-serve": [
        "lang.parse.calls", "lang.parse.self_ms", "ir.build.self_ms",
        "gpu.timing.calls", "gpu.timing.self_ms", "gpu.exec.self_ms",
        "gpu.run_args.self_ms", "gpu.tier.codegen", "cache.mem.hit_ratio",
        "serve.handle_p50_ms", "wire.overhead_p50_ms", "wire.bytes_per_req",
        "trace.unattributed_ratio", "trace.overhead_ratio",
    ],
    "churn-route": [
        "cluster.route.self_ms", "cluster.balance", "cache.disk.hit_ratio",
        "cache.disk.get.self_ms", "cache.disk.put.calls", "cache.disk.put.self_ms",
        "codegen.plan.calls", "codegen.numpy.calls", "gpu.ptxas.calls",
        "feedback.backend_compilations", "gpu.exec.self_ms",
        "trace.unattributed_ratio", "trace.overhead_ratio",
    ],
}


@pytest.mark.parametrize("workload", sorted(LAYERS_ON))
def test_traced_run_reports_its_layer_metrics(workload):
    proc = _run(workload, "3", ROOT, trace="1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == names
    zero = [n for n in LAYERS_ON[workload] if not result["metrics"][n]["value"] > 0]
    assert zero == [], f"{workload} traced run reports 0 for {zero}"
    with open(os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed5.json")) as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("cold-compile", "2", bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
