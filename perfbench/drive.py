"""Load generation through the public ``AsyncLeaseClient``, plus spans.

Two drives, both from one process over at most ``nproc`` connections:

* :func:`closed_loop` steps every tenant through the trace's days with
  barriers (tick, then releases, then acquires).  Each tenant has one op
  in flight; tenants share the connections and pipeline on them.
* :func:`open_loop_step` sends ops at seeded Poisson arrival times,
  whether or not earlier ops have been answered, and times each op from
  the moment it was due, so a stall shows in every op queued behind it.

Both drives take any client with ``AsyncLeaseClient``'s ``call``, so
they drive the benchmark's yardstick server the same way.

A :class:`Tracer` keeps spans in memory; :meth:`Tracer.write` dumps
them as JSON lines when the run ends.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field

from repro.engine.events import Release, Tick
from repro.serve.loadgen import _day_schedule as day_schedule
from repro.serve.protocol import ServeError

#: Errors an op may draw that count as a failed op rather than a crash.
OP_ERRORS = (ServeError, ConnectionError, OSError, asyncio.TimeoutError)

#: Seconds a ladder step's stragglers get to finish after its last send.
DRAIN_TIMEOUT = 30.0

#: In-flight ops per tenant: ``engine serve``'s default ``--window``.
SESSION_WINDOW = 64


class Tracer:
    """In-memory spans: ``(span_id, parent_id, name, start_ns, end_ns)``.

    A disabled tracer records nothing: :meth:`record` returns at once.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, name: str, parent: int, start_ns: int, end_ns: int,
               span_id: int | None = None) -> int:
        if not self.enabled:
            return 0
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start_ns, end_ns))
        return span_id

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values`` (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_of(event) -> str:
    kind = type(event)
    if kind is Tick:
        return "tick"
    return "release" if kind is Release else "acquire"


@dataclass
class DriveResult:
    """What one drive measured, from the client's side."""

    ops: int = 0
    failed: int = 0
    mutations: int = 0
    latencies_us: list[float] = field(default_factory=list)
    lags_us: list[float] = field(default_factory=list)
    seconds: float = 0.0
    client_cpu_s: float = 0.0
    replies: list[tuple[str, dict, dict]] = field(default_factory=list)


async def closed_loop(clients, events, tenants, tracer: Tracer,
                      keep_replies: bool = False) -> DriveResult:
    """Drive the trace day by day; one op in flight per tenant."""
    conn = {tenant: clients[i % len(clients)] for i, tenant in enumerate(tenants)}
    result = DriveResult()
    clock = time.perf_counter_ns
    replies = result.replies

    async def one(client, op, parent, fields):
        t0 = clock()
        try:
            reply = await client.call(op, **fields)
        except OP_ERRORS:
            result.failed += 1
            reply = None
        t1 = clock()
        result.latencies_us.append((t1 - t0) / 1000.0)
        if tracer.enabled:
            tracer.record("client." + op, parent, t0, t1)
        if keep_replies and reply is not None:
            replies.append((op, fields, reply))

    async def burst(tenant, day_events, parent):
        client = conn[tenant]
        for event in day_events:
            await one(client, op_of(event), parent, {
                "tenant": event.tenant, "resource": event.resource,
                "time": event.time,
            })

    cpu0 = time.process_time()
    start = time.perf_counter()
    for day, has_tick, releases, acquires in day_schedule(events):
        day_id = tracer.new_id() if tracer.enabled else 0
        day_start = clock()
        if has_tick:
            await one(clients[0], "tick", day_id, {"time": day})
        for phase in (releases, acquires):
            if phase:
                await asyncio.gather(*(
                    burst(tenant, evs, day_id) for tenant, evs in phase.items()
                ))
        if tracer.enabled:
            tracer.record("day", 0, day_start, clock(), span_id=day_id)
    result.seconds = time.perf_counter() - start
    result.client_cpu_s = time.process_time() - cpu0
    result.ops = result.mutations = len(result.latencies_us)
    return result


def op_stream(events, read_every: int = 0, first_offset: int = 0):
    """The trace as an endless op stream for the open-loop ladder.

    Each pass over the trace is shifted past the previous one's last day
    (the first by ``first_offset``), so the broker clock keeps moving
    forward; with ``read_every`` a read (alternately ``stats`` and
    ``leases``) follows every that many mutations.
    """
    span = events[-1].time + 1
    reads = itertools.cycle(("stats", "leases"))
    count = 0
    for offset in itertools.count(first_offset, span):
        for event in events:
            if type(event) is Tick:
                yield "tick", None, {"time": event.time + offset}
            else:
                yield op_of(event), event.tenant, {
                    "tenant": event.tenant, "resource": event.resource,
                    "time": event.time + offset,
                }
            count += 1
            if read_every and count % read_every == 0:
                yield next(reads), None, {}


def arrivals(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Poisson arrival offsets (seconds) at ``rate`` over ``seconds``.

    The count is fixed at ``rate * seconds`` and the times are sorted
    uniform draws: a Poisson process conditioned on its count, so every
    run of a rung offers exactly the same number of ops.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


@dataclass
class StepResult:
    """One rung of the offered-rate ladder."""

    rate: float
    drive: DriveResult
    p50_us: float
    p99_us: float
    drain_us: float
    passed: bool
    steal: float = 0.0
    sample: dict | None = None


def _summarise(rate, drive: DriveResult, drain_us: float,
               slo_us: float) -> StepResult:
    # A failed op misses the latency limit: it ranks as infinitely slow.
    ranked = drive.latencies_us + [math.inf] * drive.failed
    p50 = percentile(ranked, 50)
    p99 = percentile(ranked, 99)
    passed = p99 <= slo_us and drive.failed == 0 and drain_us <= slo_us
    return StepResult(rate, drive, p50, p99, drain_us, passed)


async def open_loop_step(clients, conn_of, stream, rate: float,
                         seconds: float, rng: random.Random, slo_us: float,
                         tracer: Tracer, keep_replies: bool = False
                         ) -> StepResult:
    """One ladder rung: Poisson sends for ``seconds``, then drain.

    A tenant never has more than :data:`SESSION_WINDOW` ops in flight, the
    server's per-tenant bound, so an overloaded server queues ops (which
    then miss the limit, timed from when they were due) instead of
    refusing them.
    """
    schedule = arrivals(rate, seconds, rng)
    windows = {tenant: asyncio.Semaphore(SESSION_WINDOW) for tenant in conn_of}
    drive = DriveResult()
    clock = time.perf_counter_ns
    pending: set[asyncio.Future] = set()
    step_id = tracer.new_id() if tracer.enabled else 0
    loop_time = time.perf_counter
    cpu0 = time.process_time()
    t0 = loop_time()
    t0_ns = clock()

    def finished(future, op, fields, due_ns, sent_ns, tenant):
        pending.discard(future)
        done_ns = clock()
        if tenant is not None:
            windows[tenant].release()
        if future.cancelled() or future.exception() is not None:
            drive.failed += 1
            return
        drive.latencies_us.append((done_ns - due_ns) / 1000.0)
        if tracer.enabled:
            tracer.record("client." + op, step_id, sent_ns, done_ns)
        if keep_replies:
            drive.replies.append((op, fields, future.result()))

    for offset in schedule:
        delay = t0 + offset - loop_time()
        if delay > 0:
            await asyncio.sleep(delay)
        op, tenant, fields = next(stream)
        client = clients[0] if tenant is None else conn_of[tenant]
        if tenant is not None:
            await windows[tenant].acquire()
        due_ns = t0_ns + int(offset * 1e9)
        sent_ns = clock()
        drive.lags_us.append((sent_ns - due_ns) / 1000.0)
        future = asyncio.ensure_future(client.call(op, **fields))
        pending.add(future)
        future.add_done_callback(
            lambda f, op=op, fields=fields, due=due_ns, sent=sent_ns,
            tenant=tenant: finished(f, op, fields, due, sent, tenant)
        )
        drive.ops += 1
        if tenant is not None or op == "tick":
            drive.mutations += 1
    end_ns = t0_ns + int(seconds * 1e9)
    if pending:
        await asyncio.wait(set(pending), timeout=DRAIN_TIMEOUT)
        # Stragglers past the timeout are cancelled; their callbacks
        # count them as failed before the gather returns.
        stragglers = set(pending)
        for future in stragglers:
            future.cancel()
        await asyncio.gather(*stragglers, return_exceptions=True)
    drain_us = max(0.0, (clock() - end_ns) / 1000.0)
    drive.seconds = loop_time() - t0
    drive.client_cpu_s = time.process_time() - cpu0
    if tracer.enabled:
        tracer.record(f"step.{int(rate)}", 0, t0_ns, clock(), span_id=step_id)
    return _summarise(rate, drive, drain_us, slo_us)


def max_rate_at_slo(steps: list[StepResult], slo_us: float) -> float:
    """Highest ladder rate meeting the limit, interpolated to the crossing.

    Below the first failing rung every rung passed.  Between the last
    passing rung and the first failing one the rate is interpolated where
    log p99 crosses log limit, so the figure moves smoothly with the
    program rather than in whole ladder steps.  When the bottom rung
    already fails, the answer scales its rate by limit / p99.
    """
    previous = None
    for step in steps:
        if step.passed:
            previous = step
            continue
        if previous is None:
            return step.rate * min(1.0, slo_us / step.p99_us)
        if math.isinf(step.p99_us) or step.p99_us <= previous.p99_us:
            return previous.rate
        share = (math.log(slo_us) - math.log(previous.p99_us)) / (
            math.log(step.p99_us) - math.log(previous.p99_us)
        )
        share = min(1.0, max(0.0, share))
        return previous.rate + share * (step.rate - previous.rate)
    return previous.rate
