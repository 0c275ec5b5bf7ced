"""Write ``perfbench/expected.json``, the benchmark's expected outputs.

    python3 perfbench/make_expected.py

The file holds, for each of the 48 cold-suite (benchmark, config) cells,
every kernel's registers and spill bytes and the modeled ``total_ms``; and,
for each functionally runnable benchmark, the scalar oracle's execution
statistics on the arguments a served ``run`` builds.  Before writing, the
cells are cross-checked against the ``entries`` table of the repository's
``BENCH_obs.json`` (max registers and modeled milliseconds of the
``OpenUH(base)`` and ``OpenUH(SAFARA+small+dim)`` rows).  Run it from the
repository root.  The self-test
``test_expected_outputs_match_program_and_bench_obs`` checks that the file
still matches the program.
"""

from __future__ import annotations

import json
import os
import sys

import inputs


def generate() -> dict:
    from repro.compiler.session import CompileJob, CompilerSession

    specs = inputs.all_specs()
    configs = inputs.configs()
    session = CompilerSession()
    compile_cells: dict[str, dict] = {}
    for spec in specs:
        for label in inputs.CONFIG_LABELS:
            job = CompileJob(
                source=spec.source, config=configs[label], env=dict(spec.env)
            )
            (program,) = session.compile_many([job], max_workers=1)
            timing = session.time_program(
                program, dict(spec.env), launches=spec.launches
            )
            compile_cells[f"{spec.name}|{label}"] = inputs.compile_outputs(
                program, timing
            )
    run_cells = {
        spec.name: inputs.oracle_stats(spec)
        for spec in inputs.runnable_specs(specs)
    }
    return {"compile": compile_cells, "run": run_cells}


def cross_check(expected: dict, bench_obs_path: str) -> list[str]:
    """Mismatches between ``expected`` and ``BENCH_obs.json`` entries."""
    with open(bench_obs_path, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    names = {"base": "OpenUH(base)", "safara_small_dim": "OpenUH(SAFARA+small+dim)"}
    problems = []
    for key, cell in expected["compile"].items():
        bench, label = key.split("|")
        if label not in names:
            continue
        row = entries.get(f"{bench}|{names[label]}")
        if row is None:
            problems.append(f"{key}: no BENCH_obs.json entry")
            continue
        regs = max(k["registers"] for k in cell["kernels"])
        if regs != row["max_registers"]:
            problems.append(f"{key}: registers {regs} != {row['max_registers']}")
        if round(cell["total_ms"], 6) != row["model_ms"]:
            problems.append(f"{key}: total_ms {cell['total_ms']} != {row['model_ms']}")
    return problems


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    fresh = generate()
    problems = cross_check(fresh, "BENCH_obs.json")
    for line in problems:
        print(f"BENCH_obs.json mismatch: {line}", file=sys.stderr)
    if problems:
        return 1
    with open(inputs.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {inputs.EXPECTED_PATH}: {len(fresh['compile'])} compile cells, "
          f"{len(fresh['run'])} run cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
