"""One cold-compile repetition, in a fresh interpreter.

    python3 perfbench/cold_child.py SPAWN_NS SEED [TRACE_OUT]

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from it to the moment imports and the suite
are loaded.  Then one fresh ``CompilerSession`` compiles the 48 jobs in one
``compile_many`` call (at most ``nproc`` worker threads), and
``time_program`` evaluates each.  Prints one JSON object: timings, each
cell's checked outputs, and peak RSS.  With ``TRACE_OUT`` the layer
wrappers are installed after set-up and the spans are written there.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    spawn_ns, seed = int(argv[0]), int(argv[1])
    trace_out = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, os.path.abspath("src"))
    import inputs
    from repro.compiler.session import CompileJob, CompilerSession

    specs = {s.name: s for s in inputs.all_specs()}
    configs = inputs.configs()
    cells = inputs.cold_jobs(list(specs.values()), seed)
    jobs = [
        CompileJob(source=specs[b].source, config=configs[label], env=dict(specs[b].env))
        for b, label in cells
    ]
    ready_ns = time.monotonic_ns()

    store = None
    if trace_out is not None:
        import spans

        store = spans.SpanStore()
        spans.install(store)

    workers = min(os.cpu_count() or 1, len(jobs))
    session = CompilerSession(max_workers=workers)
    t0 = time.monotonic_ns()
    programs = session.compile_many(jobs, max_workers=workers)
    compiled_ns = time.monotonic_ns()
    timing_ms = {}
    outputs = {}
    for (bench, label), program in zip(cells, programs):
        spec = specs[bench]
        t = time.perf_counter()
        timing = session.time_program(program, dict(spec.env), launches=spec.launches)
        timing_ms[f"{bench}|{label}"] = (time.perf_counter() - t) * 1000.0
        outputs[f"{bench}|{label}"] = inputs.compile_outputs(program, timing)
    t1 = time.monotonic_ns()

    cell_of = {job.key(): f"{b}|{label}" for job, (b, label) in zip(jobs, cells)}
    compile_ms = {cell_of[t.cache_key]: t.wall_ms for t in session.stats.traces}
    guard_rejects = sum(
        1
        for (bench, label), program in zip(cells, programs)
        if label == "safara_small_dim_sat"
        for k in program.kernels
        if k.esat is not None and not k.esat.applied
    )
    if store is not None:
        store.dump(trace_out)
    print(json.dumps({
        "setup_s": (ready_ns - spawn_ns) / 1e9,
        "suite_s": (t1 - t0) / 1e9,
        "compile_many_s": (compiled_ns - t0) / 1e9,
        "window_ns": [t0, t1],
        "compile_ms": compile_ms,
        "timing_ms": timing_ms,
        "jobs": len(jobs),
        "guard_rejects": guard_rejects,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
