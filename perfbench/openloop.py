"""The open-loop load generator shared by the two serving workloads.

The whole plan -- op, benchmark, and for ``churn-route`` which requests
carry a never-seen source -- is fixed from the seed before the clock
starts.  Arrivals are evenly spaced: with Poisson arrivals the burst
pattern of each seed moved the per-op p90 by 20-30% from seed to seed on
a 2-CPU host, more than the benchmark's bound.  One thread sends on that schedule whatever the service
does (an open loop: a stall delays every later response, and that delay
is counted).  Latency runs from a request's scheduled send time to its
response.  The generator uses one connection (or, in process, one
``Router``) and at most two threads: the sender and, over a socket, one
reader.

After the open-loop window a closed loop measures capacity: a second
seeded plan is sent back to back with a fixed number of requests in
flight, and ``capacity_rps`` is its correct answers per second.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass

#: The latency limit of the per-op SLO verdict, on p90.
SLO_P90_MS = 250.0


@dataclass
class Request:
    """One planned request and, once sent, what happened to it."""

    index: int
    offset_s: float
    op: str
    bench: str
    wire: dict
    fresh: bool = False
    sent_ns: int = 0
    done_ns: int = 0
    response: dict | None = None
    in_flight_at_send: int = 0
    bytes: int = 0
    correct: bool = False


def balanced_deck(rng: random.Random, items: list, n: int) -> list:
    """``n`` draws that cycle through shuffled copies of ``items``, so every
    item occurs equally often up to one partial cycle."""
    out: list = []
    while len(out) < n:
        cycle = list(items)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def drive_socket(client, plan: list[Request], *, timeout_s: float) -> int:
    """Send ``plan`` on schedule over a ``SocketClient``; returns the clock
    origin (ns).  Responses are matched by ``id``."""
    by_id = {r.wire["id"]: r for r in plan}
    received = [0]
    done = threading.Event()

    def reader() -> None:
        try:
            while received[0] < len(plan):
                response = client.recv()
                request = by_id.get(response.get("id"))
                if request is None:
                    continue
                request.done_ns = time.monotonic_ns()
                request.response = response
                request.bytes += len(json.dumps(response)) + 1
                received[0] += 1
        except (OSError, ValueError):
            pass  # the stream died; unanswered requests count as failed
        finally:
            done.set()

    thread = threading.Thread(target=reader, name="perfbench-reader")
    t0 = time.monotonic_ns() + 20_000_000
    thread.start()
    for request in plan:
        due = t0 + int(request.offset_s * 1e9)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        line = json.dumps(request.wire)
        request.bytes += len(line) + 1
        request.in_flight_at_send = request.index - received[0]
        request.sent_ns = time.monotonic_ns()
        client.send(request.wire)
    done.wait(timeout_s)
    if thread.is_alive():
        # The service stopped answering; closing the socket ends the
        # reader, and unanswered requests count as failed.
        client.close()
        thread.join(10.0)
    return t0


def _collector(plan: list[Request], on_done=None):
    """A future callback that records each ``Request``'s response, and an
    event set once every request in ``plan`` has one."""
    finished = [0]
    lock = threading.Lock()
    all_done = threading.Event()

    def finish(future, request: Request) -> None:
        request.done_ns = time.monotonic_ns()
        try:
            request.response = future.result()
        except Exception as exc:  # noqa: BLE001 -- recorded as a failure
            request.response = {"ok": False, "error": {"code": type(exc).__name__}}
        with lock:
            finished[0] += 1
            if finished[0] == len(plan):
                all_done.set()
        if on_done is not None:
            on_done()

    return finish, finished, all_done


def drive_router(router, plan: list[Request], *, timeout_s: float) -> int:
    """Send ``plan`` on schedule into an in-process ``Router``; returns the
    clock origin (ns)."""
    finish, finished, all_done = _collector(plan)
    t0 = time.monotonic_ns() + 20_000_000
    for request in plan:
        due = t0 + int(request.offset_s * 1e9)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        request.in_flight_at_send = request.index - finished[0]
        request.sent_ns = time.monotonic_ns()
        future = router.submit(request.wire)
        future.add_done_callback(lambda f, r=request: finish(f, r))
    if plan:
        all_done.wait(timeout_s)
    return t0


def drive_closed_socket(client, plan: list[Request], *, in_flight: int,
                        timeout_s: float) -> int:
    """Send ``plan`` back to back over a ``SocketClient``, one new request
    per response, keeping ``in_flight`` outstanding; returns the clock
    origin (ns).  A read that times out (the client's own timeout) ends
    the phase, and unanswered requests count as failed."""
    by_id = {r.wire["id"]: r for r in plan}
    pending = iter(plan)
    deadline = time.monotonic() + timeout_s

    def send_next() -> int:
        request = next(pending, None)
        if request is None:
            return 0
        request.sent_ns = time.monotonic_ns()
        request.bytes += len(json.dumps(request.wire)) + 1
        client.send(request.wire)
        return 1

    t0 = time.monotonic_ns()
    outstanding = sum(send_next() for _ in range(in_flight))
    try:
        while outstanding and time.monotonic() < deadline:
            response = client.recv()
            request = by_id.get(response.get("id"))
            if request is None:
                continue
            request.done_ns = time.monotonic_ns()
            request.response = response
            outstanding += send_next() - 1
    except (OSError, ValueError):
        pass
    return t0


def drive_closed_router(router, plan: list[Request], *, in_flight: int,
                        timeout_s: float) -> int:
    """Submit ``plan`` back to back into an in-process ``Router``, keeping
    ``in_flight`` requests outstanding; returns the clock origin (ns)."""
    slots = threading.Semaphore(in_flight)
    finish, _finished, all_done = _collector(plan, on_done=slots.release)
    deadline = time.monotonic() + timeout_s
    t0 = time.monotonic_ns()
    for request in plan:
        if not slots.acquire(timeout=max(0.0, deadline - time.monotonic())):
            break
        request.sent_ns = time.monotonic_ns()
        future = router.submit(request.wire)
        future.add_done_callback(lambda f, r=request: finish(f, r))
    if plan:
        all_done.wait(max(0.0, deadline - time.monotonic()))
    return t0


def capacity_rps(plan: list[Request], t0_ns: int) -> float:
    """Correct answers per second, from the clock origin to the last
    response."""
    last_ns = max((r.done_ns for r in plan if r.response is not None), default=t0_ns)
    return sum(1 for r in plan if r.correct) / max(1e-9, (last_ns - t0_ns) / 1e9)


def backlog_grew(plan: list[Request]) -> bool:
    """True when requests in flight at send time rose over the run: the
    median of the last quarter exceeds twice the first half's plus two."""
    depth = [r.in_flight_at_send for r in plan]
    if len(depth) < 8:
        return False
    first = sorted(depth[: len(depth) // 2])
    last = sorted(depth[-(len(depth) // 4):])
    return last[len(last) // 2] > 2 * first[len(first) // 2] + 2


def summarize(plan: list[Request], t0_ns: int) -> dict:
    """Per-op latency quantiles and means from scheduled send time, the
    answered rate (correct answers per second from the clock origin to the
    last response; fixed by the schedule while the service keeps up),
    generator lateness and the SLO verdict."""
    latency: dict[str, list[float]] = {"compile": [], "run": []}
    late = []
    answered = [r for r in plan if r.response is not None]
    for r in answered:
        latency[r.op].append((r.done_ns - (t0_ns + r.offset_s * 1e9)) / 1e6)
    for r in plan:
        if r.sent_ns:
            late.append((r.sent_ns - (t0_ns + r.offset_s * 1e9)) / 1e6)
    out = {
        "compile_p50_ms": quantile(latency["compile"], 0.5),
        "compile_p90_ms": quantile(latency["compile"], 0.9),
        "compile_mean_ms": statistics.fmean(latency["compile"]) if latency["compile"] else 0.0,
        "run_p50_ms": quantile(latency["run"], 0.5),
        "run_p90_ms": quantile(latency["run"], 0.9),
        "run_mean_ms": statistics.fmean(latency["run"]) if latency["run"] else 0.0,
        "answered_rps": capacity_rps(plan, t0_ns),
        "late_p90_ms": quantile(late, 0.9),
        "samples": {op: len(v) for op, v in latency.items()},
        "backlog_grew": backlog_grew(plan),
    }
    out["slo_met"] = (
        out["compile_p90_ms"] <= SLO_P90_MS
        and out["run_p90_ms"] <= SLO_P90_MS
        and all(r.correct for r in plan)
        and not out["backlog_grew"]
    )
    return out
