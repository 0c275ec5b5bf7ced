"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` and driven only through public entry points.  Header lines start
with ``#``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer ones, from a separate traced run that
also writes a Chrome trace file (loadable in Perfetto) under
``.perfbench/``.  Workloads and metrics are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

WORKLOADS = ("cold-compile", "warm-serve", "churn-route")
OUT_DIR = ".perfbench"


def _log(line: str) -> None:
    print(f"# {line}", flush=True)


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join("src", "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, os.path.abspath("src"))

    _log(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} nproc={os.cpu_count()} src_lines={src_lines()} (information only)")
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    try:
        if args.workload == "cold-compile":
            import coldrun

            result = coldrun.run(args.seed, args.seconds, bool(args.trace), workdir, _log)
        else:
            import serving

            run = serving.warm_serve if args.workload == "warm-serve" else serving.churn_route
            result = run(args.seed, args.seconds, bool(args.trace), workdir, _log)
        values = result["layers"] if args.trace else result["metrics"]
        if args.trace:
            import spans

            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            spans.write_chrome(path, result["trace_processes"])
            _log(f"spans written to {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload produced no value for {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        _log(f"{m['name']:<36} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
