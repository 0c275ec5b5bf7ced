"""Per-layer metrics of a traced run, computed from the benchmark's own
spans (``spans.py``) and the service's public ``stats`` documents."""

from __future__ import annotations

from spans import Span, self_times_ns

#: The optimization passes the pipeline registers at the time the
#: benchmark was defined; each gets ``pipeline.pass.<key>.self_ms``.
PASS_KEYS = ("autopar", "carr-kennedy", "esat", "licm", "safara", "unroll")

#: Spans of the routing layer (``serve.cluster`` + ``serve.hashring``).
CLUSTER_SPANS = ("cluster.request", "cluster.shard_submit", "cluster.key", "cluster.rank")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: list[Span], reps: int = 1) -> dict[str, float]:
    """Counts and self times per layer; totals are divided by ``reps``
    (the number of identical repetitions the spans came from)."""
    selfs = self_times_ns(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / reps

    def self_ms(*names: str) -> float:
        return sum(selfs[s.sid] for n in names for s in by_name.get(n, ())) / 1e6 / reps

    def hit_ratio(name: str) -> float:
        group = by_name.get(name, ())
        return _ratio(sum(1 for s in group if s.attrs.get("hit")), len(group))

    tokenized = sum(s.attrs.get("bytes", 0) for s in by_name.get("lang.tokenize", ()))
    executions = by_name.get("gpu.exec", ())
    out = {
        "lang.parse.calls": calls("lang.parse"),
        "lang.parse.self_ms": self_ms("lang.parse"),
        "lang.tokenize.self_ms": self_ms("lang.tokenize"),
        "lang.tokenize.us_per_kb": _ratio(
            self_ms("lang.tokenize") * 1000.0 * reps, tokenized / 1024.0
        ),
        "ir.build.calls": calls("ir.build"),
        "ir.build.self_ms": self_ms("ir.build"),
        "feedback.backend_compilations": calls("feedback.compile"),
        "gpu.ptxas.calls": calls("gpu.ptxas"),
        "gpu.ptxas.self_ms": self_ms("gpu.ptxas"),
        "esat.self_ms": self_ms("esat.saturate"),
        "codegen.vir.self_ms": self_ms("codegen.vir"),
        "codegen.vir.instrs": sum(
            s.attrs.get("instrs", 0) for s in by_name.get("codegen.vir", ())
        ) / reps,
        "codegen.plan.calls": calls("codegen.plan"),
        "codegen.plan.self_ms": self_ms("codegen.plan"),
        "codegen.numpy.calls": calls("codegen.numpy"),
        "codegen.numpy.self_ms": self_ms("codegen.numpy"),
        "codegen.fnobj.hit_ratio": hit_ratio("codegen.fnobj"),
        "gpu.timing.calls": calls("gpu.timing"),
        "gpu.timing.self_ms": self_ms("gpu.timing"),
        "gpu.exec.self_ms": self_ms("gpu.exec"),
        "gpu.run_args.self_ms": self_ms("gpu.run_args"),
        "cache.mem.hit_ratio": hit_ratio("cache.mem.get"),
        "cache.disk.hit_ratio": hit_ratio("cache.disk.get"),
        "cache.disk.get.self_ms": self_ms("cache.disk.get"),
        "cache.disk.put.calls": calls("cache.disk.put"),
        "cache.disk.put.self_ms": self_ms("cache.disk.put"),
        "cluster.route.self_ms": self_ms(*CLUSTER_SPANS),
    }
    for tier in ("codegen", "vector", "scalar"):
        out[f"gpu.tier.{tier}"] = _ratio(
            sum(1 for s in executions if s.attrs.get("tier") == tier), len(executions)
        )
    for key in PASS_KEYS:
        out[f"pipeline.pass.{key}.self_ms"] = self_ms(f"pipeline.pass.{key}")
    return out


# -- the service's own counters (the ``stats`` op) ---------------------------


def _hist(metrics: dict, name: str) -> dict:
    return metrics.get(name) or {"count": 0, "buckets": {}}


def _bucket_quantile(before: dict, after: dict, q: float) -> float:
    """Quantile of the observations a fixed-bucket histogram gained
    between two snapshots, interpolated linearly inside its bucket."""
    count = after.get("count", 0) - before.get("count", 0)
    if count <= 0:
        return 0.0
    rank = q * count
    lo_edge, lo_cum = 0.0, 0
    for key, cum in after["buckets"].items():
        cum -= before.get("buckets", {}).get(key, 0)
        edge = float("inf") if key == "le_inf" else float(key[3:])
        if cum >= rank:
            if edge == float("inf"):
                return lo_edge
            span = cum - lo_cum
            return lo_edge + (edge - lo_edge) * ((rank - lo_cum) / span if span else 1.0)
        lo_edge, lo_cum = edge, cum
    return lo_edge


def _value(metrics: dict, name: str) -> float:
    return (metrics.get(name) or {}).get("value", 0)


def broker_metrics(before: list[dict], after: list[dict]) -> dict[str, float]:
    """Queue wait, handling time and degradations of the measured window,
    from ``stats`` documents of one or more brokers taken before and after
    it (histograms and counters are differenced, then pooled)."""
    waits_b, waits_a, handle_b, handle_a = {}, {}, {}, {}
    degraded = runs = 0.0

    def pool(into: dict, hist: dict) -> None:
        into["count"] = into.get("count", 0) + hist.get("count", 0)
        buckets = into.setdefault("buckets", {})
        for key, cum in hist.get("buckets", {}).items():
            buckets[key] = buckets.get(key, 0) + cum

    for b, a in zip(before, after):
        mb, ma = b["metrics"], a["metrics"]
        pool(waits_b, _hist(mb, "serve.wait_ms"))
        pool(waits_a, _hist(ma, "serve.wait_ms"))
        pool(handle_b, _hist(mb, "serve.handle_ms"))
        pool(handle_a, _hist(ma, "serve.handle_ms"))
        degraded += _value(ma, "serve.degradations") - _value(mb, "serve.degradations")
        runs += _value(ma, "serve.requests.run") - _value(mb, "serve.requests.run")
    return {
        "serve.queue_wait_p90_ms": _bucket_quantile(waits_b, waits_a, 0.9),
        "serve.handle_p50_ms": _bucket_quantile(handle_b, handle_a, 0.5),
        "serve.degraded_ratio": _ratio(degraded, runs),
    }


def router_metrics(before: dict, after: dict) -> dict[str, float]:
    """Shard balance (least-loaded / most-loaded shard's routed count),
    hedges and failovers of the measured window, from two router
    ``stats`` documents."""
    mb, ma = before["metrics"], after["metrics"]
    routed = [
        _value(ma, name) - _value(mb, name)
        for name in ma if name.startswith("cluster.routed.")
    ]
    return {
        "cluster.balance": _ratio(min(routed, default=0), max(routed, default=0)),
        "cluster.hedges": _value(ma, "cluster.hedges") - _value(mb, "cluster.hedges"),
        "cluster.failovers": _value(ma, "cluster.failovers") - _value(mb, "cluster.failovers"),
    }


#: Metrics not computed from spans; a workload whose layers do not
#: produce one reports 0.
DEFAULTS = {
    "esat.guard_rejects": 0.0,
    "serve.queue_wait_p90_ms": 0.0,
    "serve.handle_p50_ms": 0.0,
    "serve.degraded_ratio": 0.0,
    "wire.overhead_p50_ms": 0.0,
    "wire.bytes_per_req": 0.0,
    "cluster.balance": 0.0,
    "cluster.hedges": 0.0,
    "cluster.failovers": 0.0,
    "loadgen.late_p90_ms": 0.0,
}
