"""The two serving workloads.

``warm-serve`` drives a ``repro serve --socket`` daemon subprocess over
one connection.  ``churn-route`` drives an in-process ``Router`` over two
``LocalShard`` brokers sharing one disk cache, with a third of the
requests carrying a never-seen source.

Set-up is the daemon spawn (or the router build, with the imports of the
serving modules) plus prewarm: one cold pass that compiles and runs every
runnable benchmark in turn, then passes like it over never-seen sources
(their wall time is ``suite_s``), then warm rounds.  ``warm-serve`` sets up several
times, each over a fresh cache directory, and measures on the last daemon;
``churn-route`` sets up once, because the process-wide caches it shares
with its router would make a second set-up in the same process partly
warm.

The measurement is an open-loop window (the latency metrics), then a
closed-loop capacity phase (``achieved_rps``).
"""

from __future__ import annotations

import collections
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import inputs
import layers
import openloop
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

WARM_RATE_RPS = 10.0
WARM_WORKERS = min(2, os.cpu_count() or 1)
WARM_SETUPS = 3
CHURN_RATE_RPS = 8.0
CHURN_SHARDS = 2
#: One in this many churn-route requests carries a never-seen source.
CHURN_FRESH_EVERY = 3
#: Never-seen-source passes in churn-route's set-up (after its first pass).
CHURN_FRESH_PASSES = 4
#: In-memory compile-cache entries per shard session: below the 13-kernel
#: working set, so compile hits split between the memory and disk tiers.
CHURN_CACHE_SIZE = 4
#: Requests in flight per service worker during the capacity phase.
CAPACITY_IN_FLIGHT_PER_WORKER = 2
#: Plan cycles (``_cycle_len``) in the capacity phase.
WARM_CAPACITY_CYCLES = 6
CHURN_CAPACITY_CYCLES = 2
#: How long to wait for the last responses after the last send.
DRAIN_TIMEOUT_S = 60.0
SPAWN_TIMEOUT_S = 60.0


def _wire(op: str, source: str, env: dict, index: int, prefix: str) -> dict:
    return {"id": f"{prefix}-{index}", "op": op, "source": source, "env": env,
            "trace_id": f"{prefix}-{index}"}


class Checker:
    """Counts every operation and checks each response's outputs."""

    def __init__(self, log) -> None:
        self.expected = inputs.load_expected()
        self.oracle: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.log = log

    def compute_oracle(self, specs: list) -> None:
        self.oracle = {s.name: inputs.oracle_stats(s) for s in specs}
        if self.oracle != self.expected["run"]:
            self.log("scalar oracle disagrees with expected.json")
            self.failed += 1

    def check(self, op: str, bench: str, response: dict | None) -> bool:
        self.attempted += 1
        if response is None:
            ok = False
        elif op == "compile":
            ok = inputs.check_compile_response(response, self.expected, bench)
        else:
            ok = inputs.check_run_response(response, self.oracle, bench)
        if not ok:
            self.failed += 1
            self.log(f"wrong or failed {op} of {bench}: {str(response)[:300]}")
        return ok


def _cold_pass(call, specs: list, prefix: str, edit: str | None = None) -> tuple[dict, list]:
    """Compile then run each benchmark in turn, waiting for each answer.
    Returns each benchmark's wall time for the pair, and the answers.
    With ``edit``, each source gets that comment line, so every key is
    one the service has never seen."""
    seconds, answers = {}, []
    for i, spec in enumerate(specs):
        env = inputs.run_env(spec)
        source = spec.source if edit is None else _edited(spec.source, f"{edit}-{i}")
        t0 = time.monotonic()
        for j, op in enumerate(("compile", "run")):
            wire = _wire(op, source, env, 2 * i + j, prefix)
            answers.append((op, spec.name, call(wire)))
        seconds[spec.name] = time.monotonic() - t0
    return seconds, answers


def _edited(source: str, tag: str) -> str:
    """``source`` plus a unique comment line: a new cache key, same kernel."""
    return source.rstrip("\n") + f"\n// edit {tag}\n"


def _suite_s(passes: list[dict]) -> float:
    """Never-seen-source pass wall time, robust to a burst of host noise in
    one pass: the sum over benchmarks of each one's median over the
    passes."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def _cycle_len(specs: list, fresh_every: int | None) -> int:
    """Requests in one whole cycle of a plan: each (op, never-seen) class
    has taken every benchmark the same number of times."""
    return 2 * len(specs) * (fresh_every or 1)


def _window_cycles(rate: float, seconds: float, specs: list, fresh_every: int | None) -> int:
    """Whole plan cycles nearest to ``seconds`` at ``rate`` (at least one):
    a partial cycle would let the seed pick which benchmarks come once more."""
    return max(1, round(rate * seconds / _cycle_len(specs, fresh_every)))


def _plan(rng: random.Random, specs: list, cycles: int, fresh_every: int | None,
          *, rate: float | None = None, prefix: str = "m") -> list[openloop.Request]:
    """The seeded request plan: ``cycles`` whole cycles, sent evenly spaced
    at ``rate`` requests per second, or back to back without a rate.

    The ops alternate, compile first; with ``fresh_every=k``, every k-th
    request carries a never-seen source (the benchmark plus a unique
    comment), so fresh requests are spread evenly and split evenly between
    the ops.  Each (op, fresh) class draws its benchmarks from its own
    balanced deck, so every (op, benchmark) pair occurs equally often.  The
    seed decides the benchmark order and the comments.  Request and trace
    ids are ``<prefix>-<index>``."""
    n = cycles * _cycle_len(specs, fresh_every)
    offsets = [i / rate for i in range(n)] if rate else [0.0] * n
    classes = [("compile" if i % 2 == 0 else "run", bool(fresh_every) and i % fresh_every == 0)
               for i in range(n)]
    decks = {key: openloop.balanced_deck(rng, specs, count)
             for key, count in sorted(collections.Counter(classes).items())}
    tag = rng.getrandbits(48)
    plan = []
    for index, (offset, (op, fresh)) in enumerate(zip(offsets, classes)):
        spec = decks[(op, fresh)].pop(0)
        source = _edited(spec.source, f"{tag:012x}-{index}") if fresh else spec.source
        wire = _wire(op, source, inputs.run_env(spec), index, prefix)
        plan.append(openloop.Request(index, offset, op, spec.name, wire, fresh))
    return plan


def _check_plan(checker: Checker, plan: list[openloop.Request]) -> None:
    for r in plan:
        r.correct = checker.check(r.op, r.bench, r.response)


# -- warm-serve -------------------------------------------------------------


class Daemon:
    """A ``repro serve --socket`` subprocess (or, traced, the benchmark's
    launcher around ``run_daemon``) and one client connection to it."""

    def __init__(self, workdir: str, trace_out: str | None) -> None:
        from repro.serve.client import SocketClient

        os.makedirs(workdir)
        # Relative socket path: unix socket paths are limited to ~107 bytes.
        self.socket = os.path.relpath(os.path.join(workdir, "d.sock"))
        args = ["--socket", self.socket, "--workers", str(WARM_WORKERS),
                "--cache-dir", os.path.join(workdir, "cache")]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "daemon_launcher.py"),
                    "--trace-out", trace_out] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(os.path.join(workdir, "daemon.log"), "w")
        self.proc = subprocess.Popen(argv, env=env, stdout=self._log, stderr=self._log)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if os.path.exists(self.socket):
                try:
                    self.client = SocketClient(self.socket, timeout=DRAIN_TIMEOUT_S)
                    break
                except OSError:
                    pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon socket did not appear")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut the daemon down and wait for it; safe to call twice."""
        client, self.client = getattr(self, "client", None), None
        try:
            if client is not None:
                client.shutdown()
                client.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _warm_rounds_socket(client, specs: list, rounds: int) -> list:
    """Each compile is sent twice back to back, so both worker sessions
    are likely to take it into their memory tier, and each run once;
    one benchmark's three requests are in flight at a time."""
    answers = []
    for r in range(rounds):
        for i, spec in enumerate(specs):
            env = inputs.run_env(spec)
            sent = {}
            for op in ("compile", "compile", "run"):
                wire = _wire(op, spec.source, env, 3 * i + len(sent), f"w{r}")
                sent[wire["id"]] = op
                client.send(wire)
            for _ in sent:
                response = client.recv()
                answers.append((sent[response["id"]], spec.name, response))
    return answers


def warm_serve(seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    specs = inputs.runnable_specs(inputs.all_specs())
    checker = Checker(log)
    setups, passes, answers = [], [], []
    trace_out = os.path.join(workdir, "daemon-spans.json") if trace else None
    n_setups = 1 if trace else WARM_SETUPS
    daemon = None
    try:
        for k in range(n_setups):
            t0 = time.monotonic()
            daemon = Daemon(os.path.join(workdir, f"setup-{k}"), trace_out)
            # The fresh daemon's first pass, then one over never-seen
            # sources; only the second is timed into ``suite_s``.
            for edit in (None, f"setup{k}"):
                cold_s, cold = _cold_pass(daemon.client.request, specs, f"c{k}{edit}", edit)
                if edit is not None:
                    passes.append(cold_s)
                answers += cold
            answers += _warm_rounds_socket(daemon.client, specs, rounds=2)
            setups.append(time.monotonic() - t0)
            if k < n_setups - 1:
                daemon.stop()
        checker.compute_oracle(specs)
        for op, bench, response in answers:
            checker.check(op, bench, response)

        rng = random.Random(seed)
        cycles = _window_cycles(WARM_RATE_RPS, seconds, specs, None)
        plan = _plan(rng, specs, cycles, None, rate=WARM_RATE_RPS)
        capacity = _plan(rng, specs, WARM_CAPACITY_CYCLES, None, prefix="k")
        before = daemon.client.stats()["result"] if trace else None
        t0_ns = openloop.drive_socket(daemon.client, plan, timeout_s=DRAIN_TIMEOUT_S)
        after = daemon.client.stats()["result"] if trace else None
        c0_ns = openloop.drive_closed_socket(
            daemon.client, capacity, timeout_s=DRAIN_TIMEOUT_S,
            in_flight=CAPACITY_IN_FLIGHT_PER_WORKER * WARM_WORKERS,
        )
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    _check_plan(checker, plan)
    _check_plan(checker, capacity)
    summary = openloop.summarize(plan, t0_ns)
    log(f"setup_s={[round(s, 3) for s in setups]} "
        f"fresh_pass_s={[round(sum(p.values()), 3) for p in passes]}")
    _log_window(log, WARM_RATE_RPS, summary)
    result = _result(checker, setups, passes, summary, rss,
                     openloop.capacity_rps(capacity, c0_ns))
    if trace:
        result["layers"], result["trace_processes"] = _socket_layers(
            plan, trace_out, before, after, summary, seconds
        )
    return result


def _log_window(log, rate: float, summary: dict) -> None:
    log(f"rate={rate:g}rps answered_rps={summary['answered_rps']:.3f} "
        f"samples={summary['samples']} "
        f"compile_p90_ms={summary['compile_p90_ms']:.3f} "
        f"run_p90_ms={summary['run_p90_ms']:.3f} slo_met={summary['slo_met']} "
        f"backlog_grew={summary['backlog_grew']} late_p90_ms={summary['late_p90_ms']:.3f}")


def _result(checker, setups, passes, summary, rss, capacity_rps) -> dict:
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "suite_s": _suite_s(passes),
            "compile_p50_ms": summary["compile_p50_ms"],
            "compile_mean_ms": summary["compile_mean_ms"],
            "run_p50_ms": summary["run_p50_ms"],
            "run_mean_ms": summary["run_mean_ms"],
            "achieved_rps": capacity_rps,
            "peak_rss_mb": rss,
        },
    }


def _measured(span_list: list) -> list:
    return [s for s in span_list if (s.trace_id or "").startswith("m-")]


def _coverage(plan: list[openloop.Request], by_trace: dict) -> float:
    covered = wall = 0
    for r in plan:
        if r.response is None:
            continue
        wall += r.done_ns - r.sent_ns
        covered += spans.covered_ns((r.sent_ns, r.done_ns), by_trace.get(f"m-{r.index}", []))
    return 1.0 - covered / wall if wall else 0.0


def _by_trace(span_list: list) -> dict:
    out: dict = {}
    for s in span_list:
        out.setdefault(s.trace_id, []).append(s)
    return out


def _socket_layers(plan, trace_out, before, after, summary, seconds) -> tuple[dict, dict]:
    pid, daemon_spans = spans.load_spans(trace_out)
    measured = _measured(daemon_spans)
    by_trace = _by_trace(measured)
    out = layers.span_metrics(measured)
    out.update(layers.DEFAULTS)
    out.update(layers.broker_metrics([before], [after]))
    overhead = []
    for r in plan:
        request_spans = [s for s in by_trace.get(f"m-{r.index}", []) if s.name == "serve.request"]
        if r.response is not None and request_spans:
            server = request_spans[0].end - request_spans[0].start
            overhead.append((r.done_ns - r.sent_ns - server) / 1e6)
    out["wire.overhead_p50_ms"] = openloop.quantile(overhead, 0.5)
    out["wire.bytes_per_req"] = statistics.mean(r.bytes for r in plan) if plan else 0.0
    out["loadgen.late_p90_ms"] = summary["late_p90_ms"]
    out["trace.unattributed_ratio"] = _coverage(plan, by_trace)
    out["trace.overhead_ratio"] = len(measured) * spans.per_span_cost_ns() / (seconds * 1e9)
    return out, {pid: measured}


# -- churn-route ------------------------------------------------------------


def churn_route(seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    t0 = time.monotonic()
    from repro.serve.broker import BrokerConfig
    from repro.serve.cluster import ClusterConfig, Router

    specs = inputs.runnable_specs(inputs.all_specs())
    store = None
    if trace:
        store = spans.SpanStore()
        spans.install(store)
    broker = BrokerConfig(
        workers=1, cache_dir=os.path.join(workdir, "cache"), cache_size=CHURN_CACHE_SIZE
    )
    router = Router(ClusterConfig(shards=CHURN_SHARDS, broker=broker))
    try:
        def call(wire):
            return router.submit(wire).result(timeout=DRAIN_TIMEOUT_S)

        # The first pass is the process's cold start; the next ones use
        # never-seen sources, the path a churn miss takes, and only they
        # are timed into ``suite_s``.
        _, answers = _cold_pass(call, specs, "c0")
        passes = []
        for k in range(1, CHURN_FRESH_PASSES + 1):
            cold_s, cold = _cold_pass(call, specs, f"c{k}", f"setup{k}")
            passes.append(cold_s)
            answers += cold
        _, warm = _cold_pass(call, specs, "w")
        setup_s = time.monotonic() - t0

        checker = Checker(log)
        checker.compute_oracle(specs)
        for op, bench, response in answers + warm:
            checker.check(op, bench, response)

        rng = random.Random(seed)
        cycles = _window_cycles(CHURN_RATE_RPS, seconds, specs, CHURN_FRESH_EVERY)
        plan = _plan(rng, specs, cycles, CHURN_FRESH_EVERY, rate=CHURN_RATE_RPS)
        capacity = _plan(rng, specs, CHURN_CAPACITY_CYCLES, CHURN_FRESH_EVERY, prefix="k")
        before = router.stats() if trace else None
        t0_ns = openloop.drive_router(router, plan, timeout_s=DRAIN_TIMEOUT_S)
        after = router.stats() if trace else None
        c0_ns = openloop.drive_closed_router(
            router, capacity, timeout_s=DRAIN_TIMEOUT_S,
            in_flight=CAPACITY_IN_FLIGHT_PER_WORKER * CHURN_SHARDS,
        )
    finally:
        router.drain()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_plan(checker, plan)
    _check_plan(checker, capacity)
    summary = openloop.summarize(plan, t0_ns)
    fresh = sum(1 for r in plan if r.fresh)
    log(f"setup_s={setup_s:.3f} fresh_pass_s={[round(sum(p.values()), 3) for p in passes]} "
        f"fresh={fresh}/{len(plan)}")
    _log_window(log, CHURN_RATE_RPS, summary)
    result = _result(checker, [setup_s], passes, summary, rss,
                     openloop.capacity_rps(capacity, c0_ns))
    if trace:
        measured = _measured(store.spans)
        out = layers.span_metrics(measured)
        out.update(layers.DEFAULTS)
        shard_stats = lambda doc: [s["stats"] for s in doc["shards"] if "stats" in s]
        out.update(layers.broker_metrics(shard_stats(before), shard_stats(after)))
        out.update(layers.router_metrics(before, after))
        out["loadgen.late_p90_ms"] = summary["late_p90_ms"]
        out["trace.unattributed_ratio"] = _coverage(plan, _by_trace(measured))
        out["trace.overhead_ratio"] = (
            len(measured) * spans.per_span_cost_ns() / (seconds * 1e9)
        )
        result["layers"], result["trace_processes"] = out, {os.getpid(): measured}
    return result
