"""Inputs and expected outputs of the benchmark.

Everything here talks to the program only through its public surface:
the benchmark suite registry, the compiler configurations, and (for the
run oracle) the scalar interpreter.  ``src/`` must be importable, which
``run.py`` arranges before importing this module.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The three compiler configurations of the cold suite, by the label the
#: expected-outputs file uses.  The saturating variant keeps the display
#: name of the configuration it derives from, so labels, not names, key
#: the file.
CONFIG_LABELS = ("base", "safara_small_dim", "safara_small_dim_sat")

#: The configuration a served ``compile`` without a ``config`` field uses
#: (``BrokerConfig.default_config``); served registers are checked against
#: this label.
SERVED_LABEL = "safara_small_dim"


def configs() -> dict:
    """Label -> CompilerConfig for the cold suite."""
    from repro.compiler.options import ALL_CONFIGS

    smd = ALL_CONFIGS["OpenUH(SAFARA+small+dim)"]
    return {
        "base": ALL_CONFIGS["OpenUH(base)"],
        "safara_small_dim": smd,
        "safara_small_dim_sat": smd.derive(saturate=True),
    }


def all_specs() -> list:
    """Every suite benchmark, SPEC first, each suite in name order."""
    from repro.bench import NAS, SPEC, load_all

    load_all()
    return list(SPEC.all()) + list(NAS.all())


def runnable_specs(specs: list) -> list:
    """Benchmarks a served ``run`` can execute with generic arguments
    (those needing hand-built index arrays are compile-only)."""
    return [s for s in specs if s.make_test_args is None]


def run_env(spec) -> dict:
    """The ``env`` of a served request for ``spec``.

    Scalar arguments are kept exactly as the spec gives them; EP's
    ``ainv=1.19e-7`` must stay a float, or its kernel divides by zero.
    Raw-pointer sizes are added as ``__len_<name>`` from the integer-valued
    entries.
    """
    env = dict(spec.interpreter_args())
    if spec.pointer_lens:
        sizes = {k: int(v) for k, v in env.items() if v == int(v)}
        env.update(
            {f"__len_{k}": v for k, v in spec.pointer_sizes(sizes).items()}
        )
    return env


def cold_jobs(specs: list, seed: int) -> list[tuple[str, str]]:
    """The 48 (benchmark, config label) jobs of the cold suite, in an
    order drawn from ``seed``."""
    jobs = [(s.name, label) for s in specs for label in CONFIG_LABELS]
    random.Random(seed).shuffle(jobs)
    return jobs


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compile_outputs(program, timing) -> dict:
    """The checked outputs of one compiled (benchmark, config) cell."""
    return {
        "kernels": [
            {
                "name": k.name,
                "registers": k.ptxas.registers,
                "spill_bytes": k.ptxas.spill_bytes,
            }
            for k in program.kernels
        ],
        "total_ms": timing.total_ms,
    }


def oracle_stats(spec) -> dict:
    """What the scalar interpreter reports for ``spec`` on the arguments
    a served ``run`` builds (``build_run_args`` with its default seed)."""
    from repro.gpu.interpreter import build_run_args, run_kernel
    from repro.ir.builder import build_module
    from repro.lang.parser import parse_program

    fn = build_module(parse_program(spec.source)).functions[0]
    _arrays, stats = run_kernel(fn, build_run_args(fn, run_env(spec)))
    return {
        "loads": stats.loads,
        "stores": stats.stores,
        "flops": stats.flops,
        "iterations": stats.iterations,
    }


def served_registers(expected: dict, name: str) -> list[int]:
    cell = expected["compile"][f"{name}|{SERVED_LABEL}"]
    return [k["registers"] for k in cell["kernels"]]


def check_compile_response(response: dict, expected: dict, name: str) -> bool:
    """A served ``compile`` is correct when it succeeded and every
    kernel's register count equals the expected file's."""
    if not response.get("ok"):
        return False
    kernels = response["result"]["kernels"]
    return [k["registers"] for k in kernels] == served_registers(expected, name)


def check_run_response(response: dict, oracle: dict, name: str) -> bool:
    """A served ``run`` is correct when its execution statistics equal
    the scalar oracle's for the same arguments."""
    return bool(response.get("ok")) and response["result"]["stats"] == oracle[name]
