"""Run one workload: set up, measure, check, and collect every metric.

:func:`run` returns a :class:`Result` whose ``metrics`` map each metric
name to ``(value, unit, samples)``.  Any correctness check that fails
raises :class:`CheckFailed`; the caller then reports no numbers.

A run repeats its measurement and reports medians: ``replay`` times
rounds of the whole trace; closed-loop served workloads drive the trace
pass after pass against one long-lived process tree (each pass shifted
past the last, so the broker clock keeps moving forward); the open-loop
workload repeats rungs at its reference rate, then climbs its ladder.
The first pass or rung warms the processes up and is checked but not
timed.  ``setup_s`` is the median of several separate set-ups.

Server CPU per event, the gated figure, is scaled to a reference host
by a yardstick: stand-in code of the program's shape but none of its
code, run just before each stretch of timed work so that both see the
same host.  Served workloads drive a stand-in server
(``perfbench/yardstick.py``) the same way as the program; ``replay``
runs :func:`replay_yardstick` before each chunk of the trace.  Every
timed sample also records the share of CPU time the hypervisor stole
while it ran; the printed medians are taken over the samples with at
most :data:`STEAL_LIMIT` stolen, or over the least-stolen ones.

End-to-end figures come from untraced work.  With ``traced=True`` the
same run alternates traced passes or rungs with untraced ones, times
each layer alone on the workload's inputs, and adds the per-layer
figures.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import heapq
import json
import os
import random
import selectors
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.lease import LeaseSchedule
from repro.core.results import RunResult
from repro.engine.broker import LeaseBroker, replay_trace
from repro.engine.events import (
    Acquire,
    Release,
    event_from_payload,
    generate_resource_trace,
)
from repro.engine.scenarios import (
    BrokerTraceInstance,
    broker_trace_optimum,
    run_broker_trace,
    verify_broker_trace,
)
from repro.serve.client import AsyncLeaseClient
from repro.serve.loadgen import merge_shard_payloads, replay_applied

from . import layers, sut
from .drive import (
    OP_ERRORS,
    Tracer,
    closed_loop,
    max_rate_at_slo,
    op_stream,
    open_loop_step,
    percentile,
)
from .yardstick import YardstickClient
from .workloads import READ_EVERY, SLO_P99_US, Workload

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Timed closed-loop passes (or inline replay rounds, or reference rungs)
#: a median is taken over at least.
MIN_PASSES = 3

#: Timed rungs at the reference rate per open-loop run.
REFERENCE_REPEATS = 6

#: Share of an open-loop budget spent at the reference rate; the rest
#: climbs the ladder.
REFERENCE_SHARE = 0.5

#: Seconds of the untimed warm-up rung.
WARMUP_RUNG_S = 0.5

#: Length of the yardstick drive before each untraced pass or reference
#: rung, as a share of the pass's events or the rung's seconds.
YARDSTICK_SHARE = 0.5

#: Largest share of CPU time the hypervisor may steal during a sample
#: for the sample to count towards a median.
STEAL_LIMIT = 0.05

#: Events per replay chunk: the replay yardstick runs over each chunk
#: just before the broker does, so both see the same stretch of the host.
REPLAY_CHUNK = 8192

#: Seconds any single drive or barrier may take before the run is abandoned.
DRIVE_TIMEOUT = 60.0

#: Seconds a server gets to acknowledge ``shutdown`` before it is killed.
SHUTDOWN_TIMEOUT = 10.0

UNITS = {
    "events_per_s": "ev/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "max_rate_at_slo": "ev/s",
    "server_cpu_us_per_event": "us",
    "server_cpu_ref_us_per_event": "us",
    "cost_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "events.generate_s": "s",
    "broker.us_per_event": "us",
    "broker.fast_path_share": "share",
    "broker.renewal_share": "share",
    "broker.leases_bought": "count",
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.bytes_per_op": "B",
    "server.enqueue_to_reply_p50_us": "us",
    "server.plumbing_us_per_event": "us",
    "wal.append_us": "us",
    "wal.flush_us": "us",
    "wal.bytes_per_event": "B",
    "router.cpu_us_per_event": "us",
    "worker.cpu_us_per_event": "us",
    "loadgen.cpu_share": "share",
    "loadgen.lag_p99_us": "us",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), UNITS[name], samples)

    def put_server_cpu(self, us_per_event: float, yardstick_us: float,
                       reference_us: float, samples: int) -> None:
        """``server_cpu_us_per_event`` as measured, and scaled by the
        yardstick's CPU per request beside it to the reference host, where
        that request costs ``reference_us``."""
        self.put("server_cpu_us_per_event", us_per_event, samples)
        self.put("server_cpu_ref_us_per_event",
                 us_per_event * reference_us / yardstick_us, samples)
        self.notes.append(
            f"yardstick: {yardstick_us:.3f} us CPU per request or event "
            f"(reference "
            f"{reference_us:g} us)"
        )

    def absent(self, names, why: str) -> None:
        """Figures this workload has no layer for: 0 from 0 samples."""
        for name in names:
            self.put(name, 0.0, 0)
        self.notes.append(f"{', '.join(names)}: 0 (no samples); {why}")


def canonical(run: RunResult) -> bytes:
    """The aggregate a run is judged on, as bytes."""
    return json.dumps({
        "cost": run.cost,
        "leases": [
            [lease.resource, lease.type_index, lease.start, lease.length,
             lease.cost]
            for lease in run.leases
        ],
        "num_demands": run.num_demands,
        "broker_stats": run.detail["broker_stats"],
        "num_active": run.detail["num_active"],
    }, sort_keys=True).encode()


def _trace(workload: Workload, seed: int) -> tuple[BrokerTraceInstance, float]:
    """The workload's generated inputs and the seconds generation took."""
    start = time.perf_counter()
    events = generate_resource_trace(
        "markov", workload.horizon, seed,
        num_resources=workload.resources,
        tenants_per_resource=workload.tenants_per_resource,
    )
    seconds = time.perf_counter() - start
    schedule = LeaseSchedule.power_of_two(
        workload.num_types, cost_growth=workload.cost_growth
    )
    return _instance(schedule, workload, seed, events), seconds


def _instance(schedule, workload, seed, events) -> BrokerTraceInstance:
    return BrokerTraceInstance(
        schedule=schedule, workload="markov", horizon=workload.horizon,
        seed=seed, num_resources=workload.resources,
        resources=(0, workload.resources), events=tuple(events),
    )


def _shifted(events, offset: int) -> list:
    return [dataclasses.replace(event, time=event.time + offset)
            for event in events]


def _tenants(events) -> list[str]:
    return sorted({e.tenant for e in events if type(e) is Acquire})


def _median(values) -> float:
    return statistics.median(values)


def _steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def _steady(samples: list[dict]) -> list[dict]:
    """The samples medians are taken over: those with at most
    :data:`STEAL_LIMIT` stolen, or the least-stolen :data:`MIN_PASSES`
    when fewer were."""
    clean = [s for s in samples if s["steal"] <= STEAL_LIMIT]
    if len(clean) >= min(MIN_PASSES, len(samples)):
        return clean
    return sorted(samples, key=lambda s: s["steal"])[:MIN_PASSES]


def _steady_note(out: Result, what: str, samples: list[dict],
                 steady: list[dict]) -> None:
    out.notes.append(
        f"medians over {len(steady)} of {len(samples)} {what} (steal limit "
        f"{STEAL_LIMIT:.0%}; steal in each: "
        + ", ".join(f"{s['steal']:.0%}" for s in samples) + ")"
    )


def _ladder_note(out: Result, label: str, steps) -> None:
    for step in steps:
        out.notes.append(
            f"{label} {step.rate:>7.0f} ev/s: p50 {step.p50_us:9.1f} us, "
            f"p99 {step.p99_us:9.1f} us, drain {step.drain_us:8.1f} us, "
            f"send lag p99 {percentile(step.drive.lags_us, 99):8.1f} us, "
            f"n={step.drive.ops}, failed={step.drive.failed}, server CPU "
            f"{step.sample['cpu']:.1f} us/ev, steal {step.steal:.0%}, "
            f"{'meets' if step.passed else 'misses'} "
            f"p99 <= {SLO_P99_US:.0f} us"
        )


# ----------------------------------------------------------------------
# Per-layer figures, shared by every workload
# ----------------------------------------------------------------------
def _layer_metrics(out: Result, instance, gen_times, exchanges, codec: str,
                   tracer: Tracer, seed: int) -> dict:
    """Time each layer alone on the workload's inputs.

    Every layer runs twice: traced, for its spans, and untraced, for the
    figures (a span per call would inflate them).  Returns the untraced
    figures and the traced broker run.
    """
    events = instance.events
    untraced = Tracer(False)
    figures = {"broker_traced": layers.broker_layer(instance.schedule, events,
                                                    tracer)}
    figures["broker"] = broker = layers.broker_layer(instance.schedule, events,
                                                     untraced)
    out.put("events.generate_s", _median(gen_times), len(gen_times))
    out.put("broker.us_per_event", broker["seconds"] * 1e6 / broker["events"],
            broker["events"])
    out.put("broker.fast_path_share", broker["fast_path_share"],
            broker["events"])
    out.put("broker.renewal_share", broker["renewal_share"], broker["events"])
    out.put("broker.leases_bought", broker["leases_bought"], 1)
    exchanges = exchanges[:layers.CODEC_SAMPLE]
    layers.codec_layer(codec, exchanges, tracer)
    figures["codec"] = fig = layers.codec_layer(codec, exchanges, untraced)
    out.put("protocol.encode_us_per_frame", fig["encode_us_per_frame"],
            2 * len(exchanges))
    out.put("protocol.decode_us_per_frame", fig["decode_us_per_frame"],
            2 * len(exchanges))
    out.put("protocol.bytes_per_op", fig["bytes_per_op"], len(exchanges))
    wal_events = events[:layers.WAL_SAMPLE]
    wal_dir = Path(f".perfbench/walbench-{seed}-{os.getpid()}")
    layers.wal_layer(wal_events, wal_dir, tracer)
    figures["wal"] = fig = layers.wal_layer(wal_events, wal_dir, untraced)
    out.put("wal.append_us", fig["append_us"], len(wal_events))
    out.put("wal.flush_us", fig["flush_us"], len(wal_events))
    out.put("wal.bytes_per_event", fig["bytes_per_event"], len(wal_events))
    return figures


# ----------------------------------------------------------------------
# Inline replay
# ----------------------------------------------------------------------
def replay_yardstick(events, length: int = 8) -> int:
    """Thread-CPU nanoseconds of the replay yardstick over ``events``.

    A stand-in lease book written for the benchmark: each acquire not
    covered by a live lease buys one of fixed ``length``, a release drops
    it, a tick expires leases from a heap.  It walks the same event
    objects with the dicts and heap ``LeaseBroker`` uses, but none of the
    broker's code, so its cost moves with the host the way the broker's
    does and the replay's CPU per event is divided by it.
    """
    held: dict = {}
    expiries: list = []
    start = time.thread_time_ns()
    for event in events:
        kind = type(event)
        if kind is Acquire:
            key = (event.tenant, event.resource)
            end = held.get(key)
            if end is None or end <= event.time:
                held[key] = event.time + length
                heapq.heappush(expiries, (event.time + length, key))
        elif kind is Release:
            held.pop((event.tenant, event.resource), None)
        else:
            while expiries and expiries[0][0] <= event.time:
                _, key = heapq.heappop(expiries)
                if held.get(key, -1) <= event.time:
                    held.pop(key, None)
    return time.thread_time_ns() - start


def run_replay(workload: Workload, seed: int, seconds: float, traced: bool,
               tracer: Tracer, out: Result) -> None:
    gen_times, setups = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        instance, gen = _trace(workload, seed)
        LeaseBroker(instance.schedule)
        setups.append(time.perf_counter() - start)
        gen_times.append(gen)
    events = instance.events

    # The checked reference run also warms up; the rounds after it time.
    reference = run_broker_trace(instance, seed)
    out.attempted += len(events)
    coverage = verify_broker_trace(instance, reference)
    if not coverage.ok:
        raise CheckFailed(f"replay left demands uncovered: "
                          f"{coverage.failures[:3]}")
    expected = (reference.detail["broker_stats"],
                reference.detail["num_active"])
    chunks = [events[i:i + REPLAY_CHUNK]
              for i in range(0, len(events), REPLAY_CHUNK)]
    rounds, spent, rss = [], 0.0, None
    yard_ns = 0
    while spent < seconds or len(rounds) < MIN_PASSES:
        broker = LeaseBroker(instance.schedule)
        steal0 = sut.steal_ticks()
        cpu = elapsed = 0
        for chunk in chunks:
            yard_ns += replay_yardstick(chunk)
            start = time.perf_counter()
            cpu0 = time.thread_time_ns()
            replay_trace(broker, chunk)
            cpu += time.thread_time_ns() - cpu0
            elapsed += time.perf_counter() - start
        steal = _steal_share(steal0, sut.steal_ticks())
        out.attempted += len(events)
        if (broker.stats.mergeable(), broker.num_active) != expected:
            raise CheckFailed("a replay round disagrees with the reference run")
        spent += elapsed
        rounds.append({"rate": len(events) / elapsed,
                       "cpu": cpu / 1000.0 / len(events), "steal": steal})
        out.notes.append(f"round {len(rounds)}: {rounds[-1]['rate']:.0f} "
                         f"ev/s, CPU {rounds[-1]['cpu']:.2f} us/ev, steal "
                         f"{steal:.0%}")
        if len(rounds) == MIN_PASSES:
            # After a fixed amount of work, so it does not grow with the budget.
            rss = sut.peak_rss_mib()
    steady = _steady(rounds)
    _steady_note(out, "rounds", rounds, steady)
    out.put("events_per_s", _median(r["rate"] for r in steady), len(steady))
    # Every round replays the whole trace, so the mean is CPU per event
    # over all of them, as the yardstick's is.
    out.put_server_cpu(sum(r["cpu"] for r in rounds) / len(rounds),
                       yard_ns / 1000.0 / (len(rounds) * len(events)),
                       workload.yardstick_ref_us, len(rounds))
    out.put("cost_ratio",
            reference.cost / broker_trace_optimum(instance).lower, 1)
    out.put("setup_s", _median(setups), len(setups))
    out.put("peak_rss_mib", rss, 1)
    if not traced:
        return

    sample = events[:layers.CODEC_SAMPLE]
    replies = layers.broker_layer(
        instance.schedule, sample, Tracer(False), keep_replies=True
    )["replies"]
    exchanges = [
        (op, fields, reply)
        for (op, _, fields), reply in zip(op_stream(sample), replies)
    ]
    figures = _layer_metrics(out, instance, gen_times, exchanges, "json",
                             tracer, seed)
    out.absent(("server.enqueue_to_reply_p50_us",
                "server.plumbing_us_per_event", "router.cpu_us_per_event",
                "worker.cpu_us_per_event", "loadgen.cpu_share",
                "loadgen.lag_p99_us"),
               "replay has no server, router or separate load generator")
    out.put("trace.overhead_ratio", figures["broker"]["seconds"]
            / figures["broker_traced"]["seconds"], 1)


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
@dataclass
class Session:
    """One serving process tree with the benchmark's connections to it."""

    process: sut.ServingProcess
    clients: list
    setup_s: float
    gen_s: float
    instance: BrokerTraceInstance


async def _open_session(workload: Workload, seed: int, workdir: Path,
                        index: int, src: Path) -> Session:
    """Generate inputs, spawn the process tree, connect: one set-up."""
    start = time.perf_counter()
    instance, gen_s = _trace(workload, seed)
    where = workdir / f"s{index}"
    where.mkdir(parents=True)
    socket = str(where / "sock")
    process = sut.ServingProcess(
        ["-m", "repro", *workload.argv(socket, str(where / "wal"))],
        cwd=Path.cwd(), src=src,
    )
    clients = []
    try:
        process.wait_ready()
        for _ in range(min(2, os.cpu_count() or 1)):
            clients.append(await AsyncLeaseClient.open_unix(
                socket, retry_for=10.0, codec=workload.codec
            ))
    except BaseException:
        for client in clients:
            await client.close()
        process.kill()
        raise
    return Session(process, clients, time.perf_counter() - start, gen_s,
                   instance)


async def _close_session(session: Session) -> None:
    """Ask the server to shut down; kill it if it does not answer."""
    try:
        await asyncio.wait_for(session.clients[0].shutdown(), SHUTDOWN_TIMEOUT)
    except OP_ERRORS:
        session.process.kill()
    finally:
        for client in session.clients:
            await client.close()
        session.process.stop()


def _served_run(report: dict, corrupt: bool) -> RunResult:
    shards = report["shards"]
    if corrupt:
        shards = json.loads(json.dumps(shards))
        for shard in shards:
            if shard["leases"]:
                shard["leases"].pop()
                break
    return merge_shard_payloads(shards)


def _check_applied(schedule, trace_payload: dict, served: RunResult) -> None:
    if canonical(replay_applied(schedule, trace_payload)) != canonical(served):
        raise CheckFailed("served aggregate differs from replay_applied of "
                          "the server's own applied trace")


def _sample(applied: int, seconds: float, cpu0, cpu1, steal: float,
            latencies: list[float], client_cpu_s: float) -> dict:
    """One timed pass or rung: rates and CPU per applied event."""
    return {
        "events": applied,
        "rate": applied / seconds,
        "cpu": (sum(cpu1) - sum(cpu0)) / 1000.0 / applied,
        "root_cpu": (cpu1[0] - cpu0[0]) / 1000.0 / applied,
        "worker_cpu": (cpu1[1] - cpu0[1]) / 1000.0 / applied,
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
        "samples": len(latencies),
        "client_cpu_share": client_cpu_s / seconds,
        "steal": steal,
    }


async def _closed_passes(session: Session, yardstick: "Yardstick",
                         budget: float, traced: bool, tracer: Tracer,
                         out: Result):
    """Pass 0 warms up; then timed passes until the budget is spent.

    Each untraced pass is preceded by a closed-loop drive of the yardstick
    over the first :data:`YARDSTICK_SHARE` of the same events.  Peak RSS
    is read after a fixed amount of work, the warm-up plus
    :data:`MIN_PASSES` passes, so it does not grow with the budget.
    """
    events = session.instance.events
    tenants = _tenants(events)
    span = events[-1].time + 1
    passes = {False: [], True: []}
    replies = None
    driven = []
    spent = 0.0
    rss = None
    while True:
        if rss is None and len(driven) == (MIN_PASSES + 1) * len(events):
            rss = session.process.peak_rss_mib()
        untimed = not driven
        if (not untimed and spent >= budget
                and len(passes[False]) >= MIN_PASSES
                and (not traced or len(passes[True]) >= len(passes[False]))):
            break
        trace_on = (traced and not untimed
                    and len(passes[True]) < len(passes[False]))
        shifted = _shifted(events, len(driven) // len(events) * span)
        if not trace_on:
            part = shifted[:int(len(shifted) * YARDSTICK_SHARE)]
            spent += await yardstick.measure(
                closed_loop(yardstick.clients, part, tenants, Tracer(False)),
                timed=not untimed,
            )
        cpu0 = session.process.cpu_ns()
        steal0 = sut.steal_ticks()
        drive = await asyncio.wait_for(closed_loop(
            session.clients, shifted, tenants,
            tracer if trace_on else Tracer(False),
            keep_replies=trace_on and replies is None,
        ), DRIVE_TIMEOUT)
        cpu1 = session.process.cpu_ns()
        steal = _steal_share(steal0, sut.steal_ticks())
        driven.extend(shifted)
        out.attempted += drive.ops
        out.failed += drive.failed
        if drive.failed:
            raise CheckFailed(f"{drive.failed} closed-loop ops failed")
        if untimed:
            continue
        if trace_on and replies is None:
            replies = drive.replies
        spent += drive.seconds
        sample = _sample(len(shifted), drive.seconds, cpu0, cpu1, steal,
                         drive.latencies_us, drive.client_cpu_s)
        passes[trace_on].append(sample)
        out.notes.append(
            f"pass {len(passes[False]) + len(passes[True])}"
            f"{' (traced)' if trace_on else ''}: {sample['rate']:.0f} ev/s, "
            f"server CPU {sample['cpu']:.1f} us/ev, client CPU "
            f"{sample['client_cpu_share']:.0%}, steal {steal:.0%}"
        )
    return passes, replies, driven, rss


async def _closed_run(session: Session, yardstick: "Yardstick",
                      workload: Workload, seed: int, seconds: float,
                      traced: bool, tracer: Tracer, out: Result,
                      corrupt: bool):
    """Closed-loop passes, then the served report checked byte for byte
    against inline replay of every pass driven."""
    passes, replies, driven, rss = await _closed_passes(
        session, yardstick, seconds, traced, tracer, out
    )
    report = await asyncio.wait_for(session.clients[0].report(), DRIVE_TIMEOUT)
    served = _served_run(report, corrupt)
    driven_instance = _instance(session.instance.schedule, workload, seed,
                                driven)
    if canonical(served) != canonical(run_broker_trace(driven_instance, seed)):
        raise CheckFailed("served report is not byte-identical to inline "
                          "replay")
    coverage = verify_broker_trace(driven_instance, served)
    if not coverage.ok:
        raise CheckFailed(f"served leases leave demands uncovered: "
                          f"{coverage.failures[:3]}")
    instance = session.instance
    # On the generated trace itself (the first, warm-up pass): the served
    # broker matched inline replay over every pass, and a fixed input
    # keeps the figure exact for a given seed.
    cost_ratio = (run_broker_trace(instance, seed).cost
                  / broker_trace_optimum(instance).lower)
    return passes, replies, rss, cost_ratio, None


async def _open_run(session: Session, yardstick: "Yardstick",
                    workload: Workload, seed: int, seconds: float,
                    traced: bool, tracer: Tracer, out: Result):
    """Reference rungs, each after a yardstick rung, then the ladder.

    ``cost_ratio`` and peak RSS are taken after the warm-up and the
    :data:`REFERENCE_REPEATS` reference rungs, which offer a fixed number
    of ops, so neither depends on how far the ladder climbs.
    """
    clients = session.clients
    events = session.instance.events
    tenants = _tenants(events)
    conn_of = {t: clients[i % len(clients)] for i, t in enumerate(tenants)}
    stream = op_stream(events, READ_EVERY if workload.reads else 0)
    rng = random.Random(seed * 7919 + 1)
    yard_conn_of = {t: yardstick.clients[i % len(yardstick.clients)]
                    for i, t in enumerate(tenants)}
    yard_stream = op_stream(events, READ_EVERY if workload.reads else 0)
    yard_rng = random.Random(seed * 7919 + 2)

    async def step(rate, rung_s, trace_on=False, keep=False):
        cpu0 = session.process.cpu_ns()
        steal0 = sut.steal_ticks()
        rung = await open_loop_step(
            clients, conn_of, stream, rate, rung_s, rng, SLO_P99_US,
            tracer if trace_on else Tracer(False), keep_replies=keep,
        )
        cpu1 = session.process.cpu_ns()
        rung.steal = _steal_share(steal0, sut.steal_ticks())
        rung.sample = _sample(
            rung.drive.mutations, rung.drive.seconds, cpu0, cpu1, rung.steal,
            rung.drive.latencies_us, rung.drive.client_cpu_s,
        )
        # From intended send, and failed ops rank as infinitely slow.
        rung.sample.update(p50=rung.p50_us, p99=rung.p99_us,
                           samples=rung.drive.ops)
        out.attempted += rung.drive.ops
        out.failed += rung.drive.failed
        return rung

    async def yard_step(rate, rung_s, timed=True):
        async def rung():
            return (await open_loop_step(
                yardstick.clients, yard_conn_of, yard_stream, rate, rung_s,
                yard_rng, SLO_P99_US, Tracer(False),
            )).drive
        await yardstick.measure(rung(), timed)

    rate = workload.reference_rate
    await yard_step(rate, WARMUP_RUNG_S, timed=False)
    await step(rate, WARMUP_RUNG_S)
    refs = {False: [], True: []}
    repeats = REFERENCE_REPEATS * (2 if traced else 1)
    rung_s = seconds * REFERENCE_SHARE / repeats
    for index in range(repeats):
        trace_on = traced and index % 2 == 1
        if not trace_on:
            await yard_step(rate, rung_s * YARDSTICK_SHARE)
        refs[trace_on].append(
            await step(rate, rung_s, trace_on, trace_on and not refs[True])
        )
    rss = session.process.peak_rss_mib()
    prefix_trace = await asyncio.wait_for(clients[0].trace(), DRIVE_TIMEOUT)
    prefix = _served_run(await clients[0].report(), False)
    _check_applied(session.instance.schedule, prefix_trace, prefix)
    applied = [event_from_payload(event)
               for shard in prefix_trace["shards"]
               for event in shard["events"]]
    cost_ratio = prefix.cost / broker_trace_optimum(_instance(
        session.instance.schedule, workload, seed, applied)).lower
    base = refs[False]
    climb = []
    ladder_s = seconds * (1 - REFERENCE_SHARE) / len(workload.ladder)
    for rung_rate in workload.ladder:
        rung = await step(rung_rate, ladder_s)
        if not rung.passed:
            # One hiccup (a collection pause, a descheduled core) can sink
            # a short rung; the rate only fails if a second try misses too.
            rung = await step(rung_rate, ladder_s)
        climb.append(rung)
        if not rung.passed:
            break
    out.put("max_rate_at_slo", max_rate_at_slo(climb, SLO_P99_US), len(climb))
    _ladder_note(out, "reference", base)
    _ladder_note(out, "ladder", climb)
    passes = {key: [r.sample for r in rungs] for key, rungs in refs.items()}
    replies = [r for rung in refs[True] for r in rung.drive.replies
               if r[0] in ("acquire", "release", "tick")]
    lags = [lag for rung in _steady_rungs(base) for lag in rung.drive.lags_us]
    return passes, replies, rss, cost_ratio, lags


def _steady_rungs(rungs: list) -> list:
    keep = {id(s) for s in _steady([r.sample for r in rungs])}
    return [r for r in rungs if id(r.sample) in keep]


@dataclass
class Yardstick:
    """The yardstick process tree (``perfbench/yardstick.py``), the
    benchmark's connections to it, and the CPU its timed drives cost."""

    process: sut.ServingProcess
    clients: list
    cpu_ns: int = 0
    requests: int = 0

    async def measure(self, drive, timed: bool = True) -> float:
        """Await one drive of the yardstick, a coroutine that returns its
        :class:`DriveResult`; when ``timed``, count its CPU and requests.
        Returns the drive's seconds."""
        cpu0 = sum(self.process.cpu_ns())
        done = await asyncio.wait_for(drive, DRIVE_TIMEOUT)
        if done.failed:
            raise RuntimeError(f"{done.failed} yardstick requests failed")
        if not timed:
            return 0.0
        self.cpu_ns += sum(self.process.cpu_ns()) - cpu0
        self.requests += done.mutations
        return done.seconds

    def us_per_request(self) -> float:
        return self.cpu_ns / 1000.0 / self.requests


async def _start_yardstick(workload: Workload, workdir: Path,
                           src: Path) -> Yardstick:
    """Spawn the workload's yardstick and connect to it as to the program."""
    where = workdir / "yardstick"
    where.mkdir()
    socket = str(where / "sock")
    process = sut.ServingProcess(
        [str(Path(__file__).with_name("yardstick.py")),
         *workload.yardstick_argv(socket, str(where / "log"))],
        cwd=Path.cwd(), src=src,
    )
    clients = []
    try:
        process.wait_ready()
        for _ in range(min(2, os.cpu_count() or 1)):
            clients.append(await YardstickClient.open_unix(socket))
    except BaseException:
        for client in clients:
            await client.close()
        process.kill()
        raise
    return Yardstick(process, clients)


async def _stop_yardstick(yardstick: Yardstick) -> None:
    for client in yardstick.clients:
        await client.close()
    yardstick.process.process.terminate()
    yardstick.process.stop()


async def run_served(workload: Workload, seed: int, seconds: float,
                     traced: bool, tracer: Tracer, out: Result,
                     workdir: Path, src: Path, corrupt: bool) -> None:
    setups, gens = [], []
    for index in range(SETUP_SAMPLES):
        session = await _open_session(workload, seed, workdir, index, src)
        setups.append(session.setup_s)
        gens.append(session.gen_s)
        if index < SETUP_SAMPLES - 1:
            await _close_session(session)
    instance = session.instance
    try:
        yardstick = await _start_yardstick(workload, workdir, src)
        try:
            if workload.closed_loop:
                passes, replies, rss, cost_ratio, lags = await _closed_run(
                    session, yardstick, workload, seed, seconds, traced,
                    tracer, out, corrupt,
                )
            else:
                passes, replies, rss, cost_ratio, lags = await _open_run(
                    session, yardstick, workload, seed, seconds, traced,
                    tracer, out,
                )
        finally:
            await _stop_yardstick(yardstick)
        metrics_text = (await session.clients[0].call("metrics"))["text"]
        trace_payload = await asyncio.wait_for(
            session.clients[0].trace(), DRIVE_TIMEOUT
        )
        report = await session.clients[0].report()
    finally:
        await _close_session(session)

    served = _served_run(report, corrupt and not workload.closed_loop)
    _check_applied(instance.schedule, trace_payload, served)
    stats = served.detail["broker_stats"]
    renewal_share = stats["renewals"] / (stats["acquires"] + stats["renewals"])
    if workload.reads and renewal_share == 0:
        raise CheckFailed("op mix: no renewals were served, so the renew "
                          "path went unmeasured")

    base = passes[False]
    steady = _steady(base)
    _steady_note(out, "passes" if workload.closed_loop else "rungs", base,
                 steady)
    samples = sum(p["samples"] for p in steady)
    out.put("events_per_s", _median(p["rate"] for p in steady), len(steady))
    out.put("op_p50_us", _median(p["p50"] for p in steady), samples)
    out.put("op_p99_us", _median(p["p99"] for p in steady), samples)
    # Over every untraced pass or reference rung, as the yardstick's is.
    cpu_per_event = (sum(p["cpu"] * p["events"] for p in base)
                     / sum(p["events"] for p in base))
    out.put_server_cpu(cpu_per_event, yardstick.us_per_request(),
                       workload.yardstick_ref_us, len(base))
    out.put("cost_ratio", cost_ratio, 1)
    out.put("setup_s", _median(setups), len(setups))
    out.put("peak_rss_mib", rss, 1)
    out.notes.append(
        f"served op mix: renewals {renewal_share:.3f} of demands, covered "
        f"fast path {stats['covered_fast_path']} of "
        f"{stats['acquires'] + stats['renewals']}"
    )
    if not traced:
        return

    figures = _layer_metrics(out, instance, gens, replies,
                             workload.codec or "json", tracer, seed)
    out.put("loadgen.cpu_share",
            _median(p["client_cpu_share"] for p in steady), len(steady))
    if lags is None:
        out.absent(("loadgen.lag_p99_us",),
                   "a closed loop has no send schedule to lag behind")
    else:
        out.put("loadgen.lag_p99_us", percentile(lags, 99), len(lags))
    out.put("trace.overhead_ratio", _median(p["rate"] for p in passes[True])
            / _median(p["rate"] for p in steady), len(passes[True]))
    if workload.kind == "cluster":
        out.put("server.enqueue_to_reply_p50_us", layers.histogram_p50_us(
            metrics_text, "cluster_relay_latency_seconds"), 1)
        out.put("router.cpu_us_per_event",
                _median(p["root_cpu"] for p in steady), len(steady))
        out.put("worker.cpu_us_per_event",
                _median(p["worker_cpu"] for p in steady), len(steady))
        out.absent(("server.plumbing_us_per_event",),
                   "the subtraction table covers single-server workloads; "
                   "router and worker CPU split this one")
        out.notes.append("server.enqueue_to_reply_p50_us on cluster-routed: "
                         "router-observed relay latency, send to worker "
                         "reply")
        return

    out.put("server.enqueue_to_reply_p50_us", layers.histogram_p50_us(
        metrics_text, "serve_op_latency_seconds"), 1)
    out.absent(("router.cpu_us_per_event", "worker.cpu_us_per_event"),
               "a single server has no router and no workers")
    broker = figures["broker"]
    codec = figures["codec"]
    table = layers.subtraction_table(
        cpu_per_event,
        broker["seconds"] * 1e6 / broker["events"],
        codec["encode_us_per_frame"] + codec["decode_us_per_frame"],
        figures["wal"]["append_us"] + figures["wal"]["flush_us"]
        if workload.wal else 0.0,
    )
    out.put("server.plumbing_us_per_event", table[-1][1], 1)
    lines = [
        f"subtraction table ({workload.name}): base of every share = "
        f"server_cpu_us_per_event = {cpu_per_event:.2f} us per applied event",
        f"  {'layer':<18} {'us/event':>10} {'share':>8}",
    ]
    lines += [f"  {name:<18} {us:>10.2f} {share:>8.1%}"
              for name, us, share in table]
    lines.append(
        "  untraced layer timings: broker = mean LeaseBroker call; codec = "
        "one request decode + one reply encode (encode_frame, "
        "FrameDecoder.feed); wal = ShardWal.append + flush"
        + ("" if workload.wal else " (no WAL here)")
    )
    out.tables.append("\n".join(lines))


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        workdir: Path, src: Path, corrupt: bool = False
        ) -> tuple[Result, Tracer]:
    out = Result()
    tracer = Tracer(traced)
    workdir.mkdir(parents=True, exist_ok=True)
    steal0 = sut.steal_ticks()
    try:
        if workload.kind == "replay":
            run_replay(workload, seed, seconds, traced, tracer, out)
        else:
            # The load generator's own collection pauses would show up as
            # server latency, so it runs without the cyclic collector.
            gc.collect()
            gc.disable()
            try:
                # select() takes microsecond timeouts where epoll rounds
                # them up to whole milliseconds, which would batch the
                # open-loop sends into 1 ms bursts.
                with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(
                    selectors.SelectSelector()
                )) as runner:
                    runner.run(run_served(workload, seed, seconds, traced,
                                          tracer, out, workdir, src, corrupt))
            finally:
                gc.enable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.notes.append(
        f"hypervisor steal during the run: "
        f"{_steal_share(steal0, sut.steal_ticks()):.1%} of CPU time"
    )
    return out, tracer
