"""Per-layer figures: timed calls into each layer's public functions.

Every function here runs one layer alone on the workload's own inputs
and records one span per call: ``LeaseBroker.acquire/renew/release/
tick``, ``encode_frame`` / ``FrameDecoder.feed``, ``ShardWal.append /
flush``.  :func:`subtraction_table` then splits a served event's server
CPU into those layers plus the residual plumbing.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.durable.wal import ShardWal
from repro.engine.broker import LeaseBroker
from repro.obs.metrics import Histogram
from repro.obs.promparse import parse_exposition
from repro.serve.protocol import FrameDecoder, encode_frame, ok, request

from .drive import Tracer, op_of

#: Frames the codec figures are taken over (a prefix of the workload's ops).
CODEC_SAMPLE = 20_000

#: Events the WAL figures are taken over.
WAL_SAMPLE = 20_000


def _grant_reply(grant, now: int) -> dict:
    """The result a server sends for a grant (same keys as the server's)."""
    return {
        "grant": None if grant is None else {
            "grant_id": grant.grant_id,
            "tenant": grant.tenant,
            "resource": grant.resource,
            "acquired_at": grant.acquired_at,
            "expires_at": grant.expires_at,
            "released_at": grant.released_at,
        },
        "applied_time": now,
    }


def public_calls(broker: LeaseBroker):
    """``apply(op, tenant, resource, now) -> (call name, grant)`` through
    the broker's public calls.

    An acquire by a tenant whose grant is still live goes to ``renew``, so
    the calls and counters match what ``replay_trace`` does.
    """
    held: dict[tuple[str, int], int] = {}

    def apply(op: str, tenant, resource, now: int):
        if op == "tick":
            broker.tick(now)
            return "broker.tick", None
        key = (tenant, resource)
        if op == "release":
            held.pop(key, None)
            return "broker.release", broker.release(tenant, resource, now)
        if held.get(key, 0) > now:
            name, grant = "broker.renew", broker.renew(tenant, resource, now)
        else:
            name, grant = "broker.acquire", broker.acquire(tenant, resource, now)
        held[key] = grant.expires_at
        return name, grant

    return apply


def broker_layer(schedule, events, tracer: Tracer,
                 keep_replies: bool = False) -> dict:
    """Apply ``events`` to a fresh broker through its public calls."""
    broker = LeaseBroker(schedule)
    apply = public_calls(broker)
    clock = time.perf_counter_ns
    record = tracer.record if tracer.enabled else None
    parent = tracer.new_id() if tracer.enabled else 0
    replies = []
    start = clock()
    for event in events:
        op = op_of(event)
        t0 = clock()
        name, grant = apply(op, getattr(event, "tenant", None),
                            getattr(event, "resource", None), event.time)
        t1 = clock()
        if record is not None:
            record(name, parent, t0, t1)
        if keep_replies:
            replies.append(
                {"applied_time": event.time} if op == "tick"
                else _grant_reply(grant, event.time)
            )
    end = clock()
    if tracer.enabled:
        tracer.record("layer.broker", 0, start, end, span_id=parent)
    stats = broker.stats
    demands = stats.acquires + stats.renewals
    return {
        "seconds": (end - start) / 1e9,
        "events": len(events),
        "fast_path_share": stats.covered_fast_path / demands,
        "renewal_share": stats.renewals / demands,
        "leases_bought": len(broker.leases),
        "replies": replies,
    }


def codec_layer(codec: str, exchanges, tracer: Tracer) -> dict:
    """Encode each request and reply frame, then feed them to a decoder.

    ``exchanges`` is ``(op, fields, result)`` per op, as the client saw
    them.  Returns per-frame encode and decode microseconds and the wire
    bytes of one request plus its reply.
    """
    clock = time.perf_counter_ns
    parent = tracer.new_id()
    decoder = FrameDecoder()
    frames = []
    encode_ns = decode_ns = 0
    start = clock()
    for request_id, (op, fields, result) in enumerate(exchanges, start=1):
        for payload in (request(op, request_id, **fields), ok(request_id, result)):
            t0 = clock()
            frame = encode_frame(payload, codec)
            t1 = clock()
            tracer.record("codec.encode", parent, t0, t1)
            encode_ns += t1 - t0
            frames.append(frame)
    for frame in frames:
        t0 = clock()
        decoded = decoder.feed(frame)
        t1 = clock()
        tracer.record("codec.decode", parent, t0, t1)
        decode_ns += t1 - t0
        if len(decoded) != 1:
            raise RuntimeError("frame decoder lost frame alignment")
    tracer.record("layer.codec", 0, start, clock(), span_id=parent)
    count = len(frames)
    return {
        "encode_us_per_frame": encode_ns / count / 1000.0,
        "decode_us_per_frame": decode_ns / count / 1000.0,
        "bytes_per_op": 2 * sum(map(len, frames)) / count,
    }


def wal_layer(events, directory: Path, tracer: Tracer) -> dict:
    """Append each event to a fresh ``ShardWal``, flushing after each.

    The server flushes at every burst boundary; under load a boundary
    can come after every event, which is what this measures.  The fsync
    policy is ``batch``, the one the ``serve-open-wal`` workload runs.
    """
    clock = time.perf_counter_ns
    parent = tracer.new_id()
    wal = ShardWal(directory, fsync="batch")
    append_ns = flush_ns = 0
    start = clock()
    try:
        for event in events:
            op = op_of(event)
            t0 = clock()
            if op == "tick":
                wal.append(op, event.time)
            else:
                wal.append(op, event.time, tenant=event.tenant,
                           resource=event.resource)
            t1 = clock()
            wal.flush()
            t2 = clock()
            tracer.record("wal.append", parent, t0, t1)
            tracer.record("wal.flush", parent, t1, t2)
            append_ns += t1 - t0
            flush_ns += t2 - t1
    finally:
        wal.close()
    tracer.record("layer.wal", 0, start, clock(), span_id=parent)
    size = wal.log_path.stat().st_size
    shutil.rmtree(directory, ignore_errors=True)
    count = len(events)
    return {
        "append_us": append_ns / count / 1000.0,
        "flush_us": flush_ns / count / 1000.0,
        "bytes_per_event": size / count,
    }


def histogram_p50_us(text: str, family: str) -> float:
    """p50 of a latency histogram family in a Prometheus exposition,
    summed over every label set, in microseconds."""
    parsed = parse_exposition(text).get(family)
    if parsed is None:
        raise RuntimeError(f"metrics exposition has no {family} family")
    cumulative: dict[float, float] = {}
    for name, labels, value in parsed.samples:
        if name.endswith("_bucket"):
            bound = float(labels["le"])
            cumulative[bound] = cumulative.get(bound, 0.0) + value
    bounds = sorted(cumulative)
    hist = Histogram(tuple(b for b in bounds if b != float("inf")))
    previous = 0.0
    for index, bound in enumerate(bounds):
        hist.counts[index] = int(cumulative[bound] - previous)
        previous = cumulative[bound]
    hist.count = int(previous)
    return hist.quantile(0.5) * 1e6


def subtraction_table(server_cpu_us: float, broker_us: float, codec_us: float,
                      wal_us: float) -> list[tuple[str, float, float]]:
    """Rows (layer, µs per event, share of server CPU per event).

    Every share has the same base: ``server_cpu_us_per_event``.  The
    residual row is what no timed layer accounts for (dispatch, sockets,
    event loop, metrics, recording).
    """
    residual = server_cpu_us - broker_us - codec_us - wal_us
    rows = [("broker", broker_us), ("codec", codec_us), ("wal", wal_us),
            ("residual plumbing", residual)]
    return [(name, us, us / server_cpu_us) for name, us in rows]
