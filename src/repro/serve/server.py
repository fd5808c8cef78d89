"""Asyncio lease-serving server: shard brokers behind a wire protocol.

:class:`LeaseServer` puts the synchronous, single-threaded
:class:`~repro.engine.broker.LeaseBroker` behind an asyncio TCP and
unix-socket front end that multiplexes any number of concurrent tenants.

**Ownership and threading contract.**  A broker is single-owner state:
nothing in it is locked, and its clock must advance monotonically.  The
server partitions the resource space into the same contiguous shard
ranges the engine's intra-scenario sharding uses (:func:`shard_ranges`)
and gives each shard its *own* broker.  One event loop owns every
shard, and every broker call runs synchronously on that loop between
two awaits, so no two calls ever interleave.  :class:`ServerThread`
wraps the loop in a daemon thread for synchronous callers (the sync
client, CLI tests), which talk to it only over sockets.

**Read-batch dispatch.**  Each connection runs one loop: read up to
:data:`READ_BYTES`, decode every complete frame, and handle the frames
in read order.  A mutation (acquire / renew / release / tick) is
applied to its resource's shard broker right there — a tick to every
shard — and a read (``stats`` / ``report`` / ``trace`` / ``leases`` /
``metrics``) folds the shards as they stand.  Each reply is encoded as
it is produced; at the end of the batch every dirty WAL gets one
group-commit chance, the replies go out in one ``writelines``, and one
``drain`` waits for the transport.  Applying frames in the order they
are read is a valid serialization because a resource's lease decisions
depend only on that resource's own demands; it is exactly the applied
trace ``record=True`` keeps.  Reads are barriers for free: every frame
read before them, on any connection, has already been applied.  The
drain is also the per-connection write-buffer bound: a peer that stops
reading its replies stops being read.

**Backpressure.**  A tenant's window counts its mutations applied in
the current read batch whose replies have not been flushed yet; a frame
past the window draws a ``backpressure`` error frame.  Closed-loop
tenants (one request outstanding) never hit it.

**Clock ratcheting.**  Tenants are independent closed loops, so their
simulated days drift: a request can arrive carrying a ``time`` older
than what its shard broker has already seen.  The server ratchets such
times up to the broker clock (``now = max(time, clock)``) — semantically
"this request reaches the server *now*; its day is at least today" —
and, when recording, logs the *applied* event, so a replay of the
recorded trace through fresh brokers reproduces the server's state
exactly (the serialized-trace equivalence the tests pin down).

**Observability.**  A server optionally carries a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.TraceSink`.  With metrics on, every applied
mutation samples its latency (frame decoded to reply, the registry's
injectable monotonic clock) into a histogram keyed by op kind, the read
loop counts bytes in/out, and the session registry counts backpressure
refusals and idle expiries.  The ``metrics`` protocol verb is a
*scrape*: it folds the per-shard broker counters and gauges into a
fresh registry (:mod:`repro.obs.export`) and appends the live
registry's rendering — so broker state costs nothing on the hot path
and the exposition is valid Prometheus text either way.  With tracing
on, every applied mutation also emits one JSONL dispatch span.  Neither
touches broker state or any served payload, so aggregate reports stay
byte-identical to inline replay with instrumentation on or off
(CI-gated).

**Drain and shutdown.**  ``drain`` moves the server to a mode where new
acquires are refused with a ``draining`` error frame while renews and
releases — completing the lifecycle of grants already held — are still
served.  Within a pipelined batch the frames ahead of a ``drain`` are
applied before it and the frames behind it after it, deterministically.
``shutdown`` stops accepting connections, folds every WAL into a final
snapshot, closes the connections, and wakes
:meth:`LeaseServer.run_until_stopped`; a mutation read after the state
flips draws an ``unavailable`` error frame.
"""

from __future__ import annotations

import asyncio
import bisect
import threading
import time as _time
from pathlib import Path

from ..core.lease import LeaseSchedule
from ..engine.broker import LeaseBroker, PolicyFactory
from ..engine.events import (
    Acquire,
    Event,
    Release,
    Tick,
    event_from_payload,
    event_to_payload,
)
from ..engine.scenarios import shard_ranges as _shard_ranges
from ..errors import ModelError
from ..obs.export import export_sessions, export_shards
from ..obs.history import MetricsHistory
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.trace import NULL_TRACE, TraceSink
from ..obs.tracetree import (
    build_trace_trees,
    new_id,
    trace_tree_payload,
)
from .protocol import (
    CODEC_JSON,
    MUTATION_OPS,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    ServeError,
    encode_frame,
    error,
    negotiate_codec,
    ok,
    parse_trace,
)
from .session import SessionRegistry, TenantSession

#: Server lifecycle states, in order.
STATES = ("serving", "draining", "stopped")

#: Bytes one read of a connection may take; every complete frame in
#: them is applied and answered as one batch.
READ_BYTES = 64 * 1024


# ----------------------------------------------------------------------
# Envelope field validation — shared by the server and the cluster router
# ----------------------------------------------------------------------
def field_time(payload: dict) -> int:
    """The envelope's ``time`` field, validated."""
    when = payload.get("time")
    if not isinstance(when, int) or isinstance(when, bool) or when < 0:
        raise ServeError("protocol", f"time must be an int >= 0, got {when!r}")
    return when


def field_tenant(payload: dict) -> str:
    """The envelope's ``tenant`` field, validated."""
    tenant = payload.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ServeError(
            "protocol", f"tenant must be a non-empty string, got {tenant!r}"
        )
    return tenant


def field_resource(payload: dict, num_resources: int) -> int:
    """The envelope's ``resource`` field, validated against ``[0, N)``."""
    resource = payload.get("resource")
    if (
        not isinstance(resource, int)
        or isinstance(resource, bool)
        or not 0 <= resource < num_resources
    ):
        raise ServeError(
            "protocol",
            f"resource must be an int in [0, {num_resources}), "
            f"got {resource!r}",
        )
    return resource


def shard_ranges(num_resources: int, num_shards: int) -> tuple[tuple[int, int], ...]:
    """The engine's shard partition, with empty server shards rejected.

    Delegates to :func:`repro.engine.scenarios.shard_ranges` — one
    formula shared with ``Scenario.build_shard`` — so a served workload
    and an intra-scenario sharded replay agree on which broker owns
    which resource.  Unlike replay merging, a server has no use for a
    shard that owns zero resources, so oversubscription is an error.
    """
    if num_shards > num_resources:
        raise ModelError(
            f"num_shards ({num_shards}) cannot exceed num_resources "
            f"({num_resources})"
        )
    return _shard_ranges(num_resources, num_shards)


class _Shard:
    """One shard: its broker, applied log, and WAL."""

    __slots__ = (
        "index", "lo", "hi", "broker", "applied", "wal", "applied_keys",
    )

    def __init__(
        self, index: int, lo: int, hi: int, broker: LeaseBroker, record: bool
    ):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.broker = broker
        self.applied: list[Event] | None = [] if record else None
        #: Per-shard WAL, None when the server runs without durability.
        self.wal: ShardWal | None = None
        #: Applied-event identity keys for retry dedup (WAL + record
        #: servers only): ``(kind, tenant, resource, applied_time)``.
        self.applied_keys: set[tuple] | None = None


def _applied_key(
    op: str, tenant: str | None, resource: int | None, now: int
) -> tuple:
    """The dedup identity of one applied event.

    ``acquire`` covers renewals — both record an ``Acquire`` in the
    applied stream, so a retried renew matches the acquire key its
    original application left behind.
    """
    if op == "tick":
        return ("tick", None, None, now)
    kind = "acquire" if op in ("acquire", "renew") else "release"
    return (kind, tenant, resource, now)


def _grant_payload(grant) -> dict:
    return {
        "grant_id": grant.grant_id,
        "tenant": grant.tenant,
        "resource": grant.resource,
        "acquired_at": grant.acquired_at,
        "expires_at": grant.expires_at,
        "released_at": grant.released_at,
    }


def _shard_stats(shard: _Shard) -> dict:
    broker = shard.broker
    return {
        "index": shard.index,
        "lo": shard.lo,
        "hi": shard.hi,
        "clock": broker.clock,
        "num_active": broker.num_active,
        "stats": broker.stats.as_dict(),
        "stats_full": broker.stats.full_dict(),
        "grant_table": broker.num_grants,
        "expiry_heap": broker.heap_size,
    }


def _shard_report(shard: _Shard) -> dict:
    broker = shard.broker
    leases = broker.leases
    return {
        "index": shard.index,
        "cost": sum(lease.cost for lease in leases),
        "leases": [
            [
                lease.resource,
                lease.type_index,
                lease.start,
                lease.length,
                lease.cost,
            ]
            for lease in leases
        ],
        "stats": broker.stats.mergeable(),
        "num_active": broker.num_active,
        "num_demands": broker.stats.acquires + broker.stats.renewals,
    }


def _shard_trace(shard: _Shard) -> dict:
    if shard.applied is None:
        raise ServeError(
            "unavailable",
            "server was started without record=True; no applied trace is "
            "kept",
        )
    return {
        "index": shard.index,
        "lo": shard.lo,
        "hi": shard.hi,
        "events": [event_to_payload(e) for e in shard.applied],
    }


def _shard_leases(shard: _Shard) -> dict:
    # Lease ids are "<shard>:<grant_id>" — stable handles for the admin
    # plane's force-release.
    return {
        "index": shard.index,
        "clock": shard.broker.clock,
        "leases": [
            dict(
                _grant_payload(grant),
                lease_id=f"{shard.index}:{grant.grant_id}",
            )
            for grant in shard.broker.active_leases()
        ],
    }


def trace_context(payload: dict) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` hex words from an envelope, if any.

    Shared by the server and the cluster router.  Malformed contexts
    decode to ``None`` — tracing is observation and must never fail the
    op that carried it.
    """
    raw = payload.get("trace")
    if raw is None:
        return None
    parsed = parse_trace(raw)
    if parsed is None:
        return None
    return f"{parsed[0]:016x}", f"{parsed[1]:016x}"


class LeaseServer:
    """A lease broker served over asyncio TCP and/or unix sockets.

    Args:
        schedule: lease types backing every shard broker.
        num_resources: size of the resource id space ``[0, num_resources)``.
        num_shards: contiguous resource shards (one broker each); must
            not exceed ``num_resources``.
        policy_factory: per-resource policy override, passed through to
            each shard's :class:`~repro.engine.broker.LeaseBroker`.
        record: keep a per-shard log of *applied* events (clock-ratcheted
            times) for the ``trace`` op and serialized-replay checks.
        session_window: per-tenant bound on mutations applied in one
            read batch whose replies are not yet flushed.
        idle_timeout: seconds before an idle tenant session is reaped.
        sweep_interval: seconds between reaper sweeps.
        metrics: live instrumentation registry; ``None`` (the default)
            serves with a disabled registry — null instruments, no
            per-op sampling, nothing rendered into the ``metrics`` verb
            beyond the scrape-time broker/session export.
        trace: per-op JSONL span sink; ``None`` disables tracing.
        wal_dir: root directory for per-shard write-ahead logs
            (``<wal_dir>/shard-<i>/``).  When set, every applied
            mutation is logged before its reply and, on startup, each
            shard recovers snapshot + WAL into a byte-identical broker
            before the listeners open.  ``None`` disables durability.
        fsync: WAL durability policy — ``off`` / ``batch`` (fsync at
            read-batch boundaries) / ``always`` (fsync per append; the
            only mode under which an acked op survives ``kill -9``).
        snapshot_every: applied events between automatic grant-table
            snapshots (each snapshot truncates the shard's WAL).
    """

    def __init__(
        self,
        schedule: LeaseSchedule,
        num_resources: int,
        num_shards: int = 1,
        policy_factory: PolicyFactory | None = None,
        record: bool = False,
        session_window: int = 64,
        idle_timeout: float = 60.0,
        sweep_interval: float = 5.0,
        metrics: MetricsRegistry | None = None,
        trace: TraceSink | None = None,
        wal_dir: str | Path | None = None,
        fsync: str = "batch",
        snapshot_every: int | None = None,
        history: MetricsHistory | None = None,
        profiler: SamplingProfiler | None = None,
    ):
        # Imported lazily: repro.durable.wal itself imports the wire
        # protocol from this package, so a module-level import here
        # would close an import cycle whenever repro.durable loads
        # first.
        from ..durable.wal import DEFAULT_SNAPSHOT_EVERY, require_fsync_mode

        if num_resources < 1:
            raise ModelError("num_resources must be >= 1")
        self.schedule = schedule
        self.num_resources = num_resources
        self.ranges = shard_ranges(num_resources, num_shards)
        self._shard_los = [lo for lo, _ in self.ranges]
        self._shards = [
            _Shard(
                index,
                lo,
                hi,
                LeaseBroker(schedule, policy_factory=policy_factory),
                record,
            )
            for index, (lo, hi) in enumerate(self.ranges)
        ]
        self._record = record
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self.trace = trace if trace is not None else NULL_TRACE
        #: Sample timestamps at all? One flag read per applied mutation.
        self._sample = self.metrics.enabled or self.trace.enabled
        self._obs_clock = (
            self.metrics.clock if self.metrics.enabled else self.trace.clock
        )
        self._latency: dict[str, Histogram] = {}
        # None (not a null counter) when disabled: the read loop skips
        # the call entirely instead of invoking a no-op.
        self._bytes_in = (
            self.metrics.counter(
                "serve_bytes_in_total",
                help="Request bytes received, frame headers included.",
            )
            if self.metrics.enabled
            else None
        )
        self._bytes_out = (
            self.metrics.counter(
                "serve_bytes_out_total",
                help="Response bytes written, frame headers included.",
            )
            if self.metrics.enabled
            else None
        )
        self.sessions = SessionRegistry(
            window=session_window,
            idle_timeout=idle_timeout,
            refusal_counter=self.metrics.counter(
                "serve_backpressure_refusals_total",
                help="Requests refused because a tenant window was full.",
            ),
            expiry_counter=self.metrics.counter(
                "serve_session_expiries_total",
                help="Idle tenant sessions reaped by the sweeper.",
            ),
        )
        #: WAL records replayed by the last startup recovery.
        self.recovered_events = 0
        self._wal_dir = None if wal_dir is None else Path(wal_dir)
        self._fsync = require_fsync_mode(fsync)
        if snapshot_every is None:
            snapshot_every = DEFAULT_SNAPSHOT_EVERY
        if snapshot_every < 1:
            raise ModelError("snapshot_every must be >= 1")
        self._snapshot_every = snapshot_every
        self._recovered = False
        self._dedup_hits = (
            self.metrics.counter(
                "serve_retry_dedup_total",
                help="Retry-marked mutations answered from the applied log.",
            )
            if self.metrics.enabled
            else None
        )
        self._sweep_interval = sweep_interval
        # History rides the live registry (disabled registry -> disabled
        # ring); the profiler is always mountable but costs nothing
        # until a capture starts it.
        self.history = (
            history if history is not None else MetricsHistory(self.metrics)
        )
        self.profiler = (
            profiler if profiler is not None else SamplingProfiler()
        )
        self._profile_lock = asyncio.Lock()
        self._history_task: asyncio.Task | None = None
        # The one deferred WAL flush armed when a batch boundary leaves
        # a batch-fsync log dirty inside its sync interval.
        self._flush_timer: asyncio.TimerHandle | None = None
        self._started = False
        self._state = "serving"
        self._servers: list[asyncio.base_events.Server] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._reaper: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current lifecycle state: serving, draining, or stopped."""
        return self._state

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        if self._wal_dir is not None and not self._recovered:
            self._recover()
        self._reaper = asyncio.create_task(
            self._sweep_sessions(), name="serve-session-reaper"
        )
        if self.history.enabled:
            self._history_task = asyncio.create_task(
                self._sample_history(), name="serve-history-sampler"
            )

    # ------------------------------------------------------------------
    # Durable recovery: replay snapshot + WAL before accepting traffic
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild every shard broker from its snapshot + WAL.

        Runs synchronously before the first listener opens — no request
        is ever applied against un-recovered state.  Restoring a
        snapshot and replaying the log's tail reproduces the
        pre-crash broker byte for byte (the :mod:`repro.durable`
        invariant the tests pin down); the applied-event log and the
        retry-dedup key set are rebuilt alongside so the ``trace`` op
        and exactly-once retries survive the restart too.
        """
        from ..durable.wal import ShardWal, recover_shard

        self._recovered = True
        recovered_total = 0
        hist = (
            self.metrics.histogram(
                "durable_recovery_seconds",
                help="Per-shard snapshot+WAL recovery time.",
            )
            if self.metrics.enabled
            else None
        )
        for shard in self._shards:
            started = _time.perf_counter()
            directory = self._wal_dir / f"shard-{shard.index}"
            recovery = recover_shard(directory)
            if recovery.state is not None:
                shard.broker.restore_state(recovery.state)
            if shard.applied is not None and recovery.applied is not None:
                shard.applied.extend(
                    event_from_payload(payload)
                    for payload in recovery.applied
                )
            broker = shard.broker
            applied = shard.applied
            for record in recovery.records:
                op = record["op"]
                when = record["time"]
                if op == "acquire":
                    broker._acquire(record["tenant"], record["resource"], when)
                    if applied is not None:
                        applied.append(
                            Acquire(
                                time=when,
                                tenant=record["tenant"],
                                resource=record["resource"],
                            )
                        )
                elif op == "release":
                    broker._release(record["tenant"], record["resource"], when)
                    if applied is not None:
                        applied.append(
                            Release(
                                time=when,
                                tenant=record["tenant"],
                                resource=record["resource"],
                            )
                        )
                elif op == "tick":
                    broker.tick(when)
                    if applied is not None:
                        applied.append(Tick(time=when))
            shard.wal = ShardWal(
                directory,
                fsync=self._fsync,
                metrics=self.metrics if self.metrics.enabled else None,
                shard=shard.index,
            )
            shard.wal.seq = recovery.last_seq
            if applied is not None:
                shard.applied_keys = {
                    _applied_key(
                        "acquire" if isinstance(event, Acquire) else
                        "release" if isinstance(event, Release) else "tick",
                        getattr(event, "tenant", None),
                        getattr(event, "resource", None),
                        event.time,
                    )
                    for event in applied
                }
            recovered_total += recovery.events
            if self.metrics.enabled:
                self.metrics.counter(
                    "wal_recovered_events_total",
                    help="WAL records replayed at startup.",
                    shard=str(shard.index),
                ).inc(recovery.events)
            if hist is not None:
                hist.observe(_time.perf_counter() - started)
        self.recovered_events = recovered_total

    async def start_unix(self, path: str) -> None:
        """Start serving on a unix socket at ``path``."""
        self._ensure_started()
        server = await asyncio.start_unix_server(
            self._handle_connection, path=path
        )
        self._servers.append(server)

    async def start_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> int:
        """Start serving on TCP; returns the bound port.

        ``reuse_port=True`` binds with ``SO_REUSEPORT`` so replicas can
        share a port (the cluster router uses this for its control
        plane; a lone lease server rarely wants it).
        """
        self._ensure_started()
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            reuse_port=reuse_port or None,
        )
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    def drain(self) -> str:
        """Refuse new acquires; keep serving renews and releases."""
        if self._state == "serving":
            self._state = "draining"
        return self._state

    def undrain(self) -> str:
        """Resume admitting acquires after a drain (stopped stays stopped)."""
        if self._state == "draining":
            self._state = "serving"
        return self._state

    async def shutdown(self) -> None:
        """Graceful stop: close listeners, snapshot WALs, close connections."""
        if self._state == "stopped":
            await self._stopped.wait()
            return
        # Every mutation read from here on draws `unavailable`, so no
        # broker or WAL is touched after this line.
        self._state = "stopped"
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        for shard in self._shards:
            if shard.wal is not None:
                # Graceful stop: fold the tail into a final snapshot so
                # the next start recovers without replaying the log.
                if shard.wal.appended_since_snapshot:
                    self._maybe_snapshot_now(shard)
                shard.wal.close()
        for periodic in (self._reaper, self._history_task):
            if periodic is not None:
                periodic.cancel()
                try:
                    await periodic
                except asyncio.CancelledError:
                    pass
        self.profiler.stop()
        for writer in tuple(self._writers):
            writer.close()
        # Let every connection handler notice its closed transport and
        # unwind before the loop is torn down under it.
        lingering = [
            task
            for task in tuple(self._conn_tasks)
            if task is not asyncio.current_task()
        ]
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self.trace.flush()
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Shard application: the only code that touches a broker
    # ------------------------------------------------------------------
    def _latency_hist(self, op: str) -> Histogram:
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = self.metrics.histogram(
                "serve_op_latency_seconds",
                help="Per-op latency from frame decoded to applied, by op.",
                op=op,
            )
        return hist

    def _dispatch(
        self,
        shard: _Shard,
        op: str,
        tenant: str | None,
        resource: int | None,
        when: int,
        req_id,
        retry: bool,
        t_enq: float,
        trace_ctx: tuple[str, str] | None,
    ) -> dict:
        """Apply one mutation to one shard, sampling its latency and span.

        Broker rejections surface as a ``model`` :class:`ServeError`, so
        every caller answers them with an error frame.
        """
        t_disp = self._obs_clock() if self._sample else 0.0
        try:
            return self._apply_to_shard(
                shard, op, tenant, resource, when, retry
            )
        except ServeError:
            raise
        except ModelError as exc:
            raise ServeError("model", str(exc)) from None
        except Exception as exc:  # pragma: no cover - defensive
            raise ServeError("model", f"{type(exc).__name__}: {exc}") from exc
        finally:
            if self._sample:
                t_reply = self._obs_clock()
                self._latency_hist(op).observe(t_reply - t_enq)
                if trace_ctx is None:
                    self.trace.span(
                        op=op,
                        tenant=tenant,
                        resource=resource,
                        request_id=req_id,
                        t_enq=t_enq,
                        t_disp=t_disp,
                        t_reply=t_reply,
                    )
                else:
                    # The dispatch span inherits the envelope's trace
                    # context: same trace id, parented to the hop that
                    # forwarded the frame here.
                    self.trace.span(
                        op=op,
                        tenant=tenant,
                        resource=resource,
                        request_id=req_id,
                        t_enq=t_enq,
                        t_disp=t_disp,
                        t_reply=t_reply,
                        trace=trace_ctx[0],
                        span_id=new_id(),
                        parent=trace_ctx[1],
                        kind="dispatch",
                    )

    def _flush_wals(self) -> None:
        """Read-batch boundary: give every dirty WAL a group commit.

        A batch-fsync log synced less than the interval ago skips its
        fsync; arm one deferred flush for when the interval lapses, or
        the tail of a burst followed by silence would never be synced.
        """
        due = None
        for shard in self._shards:
            wait = None if shard.wal is None else shard.wal.flush()
            if wait is not None and (due is None or wait < due):
                due = wait
        if due is not None and self._flush_timer is None:
            self._flush_timer = asyncio.get_running_loop().call_later(
                due, self._deferred_flush
            )

    def _deferred_flush(self) -> None:
        self._flush_timer = None
        self._flush_wals()

    def _maybe_snapshot(self, shard: _Shard) -> None:
        if shard.wal.appended_since_snapshot >= self._snapshot_every:
            self._maybe_snapshot_now(shard)

    def _maybe_snapshot_now(self, shard: _Shard) -> None:
        applied = (
            None
            if shard.applied is None
            else [event_to_payload(event) for event in shard.applied]
        )
        shard.wal.write_snapshot(
            shard.broker.snapshot_state(), applied=applied
        )

    def _dedup_reply(
        self,
        broker: LeaseBroker,
        op: str,
        tenant: str | None,
        resource: int | None,
        now: int,
    ) -> dict:
        """Synthesize the reply for an already-applied retried mutation.

        The broker is left untouched — the whole point — so the reply is
        reconstructed from current state: an acquire/renew reports the
        tenant's live grant (if it still has one), a release reports the
        grant as already gone.
        """
        if self._dedup_hits is not None:
            self._dedup_hits.inc()
        if op == "tick":
            return {"applied_time": now}
        if op == "release":
            return {"grant": None, "applied_time": now}
        grants = broker.active_leases(resource=resource, tenant=tenant)
        grant = _grant_payload(grants[0]) if grants else None
        return {"grant": grant, "applied_time": now}

    def _apply_to_shard(
        self,
        shard: _Shard,
        op: str,
        tenant: str | None,
        resource: int | None,
        when: int,
        retry: bool = False,
    ) -> dict:
        broker = shard.broker
        # Ratchet stale times to the shard clock: the request reaches
        # this broker *now*, whatever day its tenant believes it is.
        now = when if when >= broker.clock else broker.clock
        keys = shard.applied_keys
        key = None
        if keys is not None:
            # Exactly-once under crash-retry: a retry-marked frame
            # whose applied identity is already in the log was
            # applied before the sender lost the reply — answer it
            # without touching the broker.  Unmarked traffic never
            # consults the set, so legitimate repeats (same-day
            # re-acquires) behave exactly as without a WAL.
            key = _applied_key(op, tenant, resource, now)
            if retry and key in keys:
                return self._dedup_reply(broker, op, tenant, resource, now)
        wal = shard.wal
        if op == "acquire":
            grant = broker.acquire(tenant, resource, now)
            if keys is not None:
                keys.add(key)
            if shard.applied is not None:
                shard.applied.append(
                    Acquire(time=now, tenant=tenant, resource=resource)
                )
            if wal is not None:
                wal.append("acquire", now, tenant=tenant, resource=resource)
                self._maybe_snapshot(shard)
            return {"grant": _grant_payload(grant), "applied_time": now}
        if op == "renew":
            grant = broker.renew(tenant, resource, now)
            if keys is not None:
                keys.add(key)
            if shard.applied is not None:
                shard.applied.append(
                    Acquire(time=now, tenant=tenant, resource=resource)
                )
            if wal is not None:
                # Renewals enter the WAL as acquires, mirroring the
                # applied-trace stream: replay reproduces the same
                # acquire-or-renew classification from broker state.
                wal.append("acquire", now, tenant=tenant, resource=resource)
                self._maybe_snapshot(shard)
            return {"grant": _grant_payload(grant), "applied_time": now}
        if op == "release":
            grant = broker.release(tenant, resource, now)
            if keys is not None:
                keys.add(key)
            if shard.applied is not None:
                shard.applied.append(
                    Release(time=now, tenant=tenant, resource=resource)
                )
            if wal is not None:
                wal.append("release", now, tenant=tenant, resource=resource)
                self._maybe_snapshot(shard)
            return {
                "grant": None if grant is None else _grant_payload(grant),
                "applied_time": now,
            }
        # op == "tick"
        broker.tick(now)
        if keys is not None:
            keys.add(key)
        if shard.applied is not None:
            shard.applied.append(Tick(time=now))
        if wal is not None:
            wal.append("tick", now)
            self._maybe_snapshot(shard)
        return {"applied_time": now}

    async def _sweep_sessions(self) -> None:
        while True:
            await asyncio.sleep(self._sweep_interval)
            self.sessions.expire_idle()

    async def _sample_history(self) -> None:
        # asyncio.sleep paces the loop; the sample's own timestamp comes
        # from the ring's injectable clock, so sleep jitter never skews
        # the recorded rates.
        while True:
            await asyncio.sleep(self.history.interval)
            self.history.sample()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _shard_of(self, resource: int) -> _Shard:
        # Ranges are contiguous and exhaustive over [0, num_resources),
        # so the owning shard is the last one starting at or before the
        # resource — one bisect on the range starts.
        where = bisect.bisect_right(self._shard_los, resource) - 1
        return self._shards[where]

    def _apply(
        self,
        op: str,
        payload: dict,
        held: list[TenantSession] | None = None,
        t_enq: float = 0.0,
    ) -> dict:
        """Apply one mutation envelope now, in read order.

        ``held`` collects the tenant session slot the mutation claims,
        to be released once the read batch's replies are flushed;
        ``None`` (an admin call, answered at once) releases it here.
        """
        when = field_time(payload)
        retry = payload.get("retry") is True
        trace = trace_context(payload)
        if self._state == "stopped":
            raise ServeError("unavailable", "server is stopped")
        req_id = payload.get("id")
        if op == "tick":
            return {
                "applied_time": max(
                    self._dispatch(
                        shard, "tick", None, None, when, req_id, retry,
                        t_enq, trace,
                    )["applied_time"]
                    for shard in self._shards
                )
            }
        tenant = field_tenant(payload)
        resource = field_resource(payload, self.num_resources)
        if op == "acquire" and self._state != "serving":
            raise ServeError(
                "draining", "server is draining; new acquires are refused"
            )
        session = self.sessions.try_acquire(tenant)
        if session is None:
            raise ServeError(
                "backpressure",
                f"tenant {tenant!r} exceeded its in-flight window "
                f"({self.sessions.window})",
            )
        try:
            return self._dispatch(
                self._shard_of(resource), op, tenant, resource, when,
                req_id, retry, t_enq, trace,
            )
        finally:
            if held is None:
                self.sessions.release(session)
            else:
                held.append(session)

    def _hello(self) -> dict:
        return {
            "server": "repro.serve",
            "protocol": PROTOCOL_VERSION,
            "trace": True,
            "state": self._state,
            "record": self._record,
            "wal": self._wal_dir is not None,
            "fsync": self._fsync if self._wal_dir is not None else None,
            "num_resources": self.num_resources,
            "num_shards": self.num_shards,
            "ranges": [list(r) for r in self.ranges],
            "schedule": {
                "num_types": self.schedule.num_types,
                "lengths": [t.length for t in self.schedule],
                "costs": [t.cost for t in self.schedule],
            },
        }

    def _control(self, op: str, payload: dict) -> dict:
        # `hello` and `shutdown` never reach here: the read loop answers
        # them (codec negotiation and the hang-up live there).
        if op == "route":
            # In the protocol for the cluster router's handshake; a
            # lone server has no fleet to hand out.
            raise ServeError(
                "protocol",
                "route needs a cluster router; this is a single lease "
                "server — dial it directly",
            )
        if op == "stats":
            return {
                "state": self._state,
                "sessions": self.sessions.snapshot(),
                "shards": [_shard_stats(shard) for shard in self._shards],
            }
        if op == "report":
            return {"shards": [_shard_report(shard) for shard in self._shards]}
        if op == "trace":
            return {"shards": [_shard_trace(shard) for shard in self._shards]}
        if op == "metrics":
            return {"text": self.admin_metrics()}
        if op == "leases":
            return {"shards": [_shard_leases(shard) for shard in self._shards]}
        if op == "spans":
            return {"spans": self.spans(payload.get("trace"))}
        if op == "drain":
            return {"state": self.drain()}
        if op == "undrain":
            return {"state": self.undrain()}
        raise ServeError(
            "protocol", f"unknown op {op!r}; known: {', '.join(OPS)}"
        )

    def spans(self, trace_id: str | None = None) -> list[dict]:
        """This process's live spans (the ``spans`` verb's answer).

        Flushed-buffer-plus-file, via :meth:`TraceSink.live_spans` — so
        the answer includes spans a pre-crash incarnation wrote.  With
        ``trace_id``, only that trace's spans.
        """
        spans = self.trace.live_spans()
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace") == trace_id]
        return spans

    # ------------------------------------------------------------------
    # Admin backend — the surface repro.admin.AdminPlane mounts over HTTP
    # ------------------------------------------------------------------
    def admin_metrics(self) -> str:
        """The process's Prometheus text exposition (``GET /metrics``).

        Scrape-time families (broker counters/gauges, session totals)
        are folded into a fresh registry from the shards as they stand;
        the live registry's families (latency histograms, byte and
        refusal counters) are appended when metrics are enabled.  The
        two renders use disjoint family names, so the concatenation is
        itself a valid exposition.
        """
        registry = MetricsRegistry(clock=self.metrics.clock)
        export_shards(
            registry, [_shard_stats(shard) for shard in self._shards]
        )
        export_sessions(registry, self.sessions.snapshot())
        text = registry.render_prometheus()
        if self.metrics.enabled:
            text += self.metrics.render_prometheus()
        return text

    def admin_health(self) -> dict:
        """Liveness: the process is up and can say what state it is in.

        Carries the per-tenant session rows (in-flight, served,
        rejected, idle seconds) so one curl answers both "is it up" and
        "who is talking to it".
        """
        return {
            "state": self._state,
            "shards": self.num_shards,
            "wal": self._wal_dir is not None,
            "recovered_events": self.recovered_events,
            "sessions": self.sessions.tenant_snapshot(),
        }

    def admin_ready(self) -> tuple[bool, dict]:
        """Readiness: recovery complete and every shard accepting work.

        Readiness is stricter than liveness: a WAL'd server that has not
        finished recovery, or one that is draining or stopped, is alive
        but not ready — a load balancer should not send it acquires.
        """
        started = self._started
        recovered = self._wal_dir is None or self._recovered
        ready = started and recovered and self._state == "serving"
        return ready, {
            "ready": ready,
            "state": self._state,
            "workers_up": started,
            "recovered": recovered,
        }

    def admin_leases(
        self, tenant: str | None = None, resource: int | None = None
    ) -> list[dict]:
        """The live lease book, folded across shards, filtered, sorted.

        Computed at call time from the shard brokers, so the book
        reflects every mutation read before the call.  Sorted by
        (resource, tenant, lease_id) — a stable order for pagination.
        """
        book = [
            lease
            for shard in self._shards
            for lease in _shard_leases(shard)["leases"]
            if (tenant is None or lease["tenant"] == tenant)
            and (resource is None or lease["resource"] == resource)
        ]
        book.sort(key=lambda l: (l["resource"], l["tenant"], l["lease_id"]))
        return book

    def admin_force_release(self, lease_id: str) -> dict | None:
        """Durably force-release one lease by its ``<shard>:<grant_id>`` id.

        The mutation is applied through the same path as a client's —
        an ordinary ``release`` envelope with ``time=0``
        (clock-ratcheted to the owning shard's today) — so it rides the
        WAL, lands in the applied trace as a replayable
        :class:`Release`, and carries the same retry-dedup identity as
        any client release.  Returns the reply payload, or ``None`` when
        no live lease has that id.
        """
        book = self.admin_leases()
        lease = next((l for l in book if l["lease_id"] == lease_id), None)
        if lease is None:
            return None
        result = self._apply(
            "release",
            {"tenant": lease["tenant"], "resource": lease["resource"],
             "time": 0},
            t_enq=self._obs_clock() if self._sample else 0.0,
        )
        if self._wal_dir is not None:
            self._flush_wals()
        return {"lease_id": lease_id, "released": dict(lease), **result}

    def admin_drain(self, worker: int) -> str | None:
        """Drain this process (a single server is worker 0, only)."""
        if worker != 0:
            return None
        return self.drain()

    def admin_undrain(self, worker: int) -> str | None:
        if worker != 0:
            return None
        return self.undrain()

    def admin_trace(self, trace_id: str) -> list[dict] | None:
        """The span tree for one trace id from this process's sink.

        Flushes the sink first so spans emitted moments ago are visible.
        Returns the nested payload, or ``None`` when tracing is off or
        the id has left no spans here.
        """
        if not self.trace.enabled:
            return None
        trees = build_trace_trees(self.spans(trace_id))
        roots = trees.get(trace_id)
        if not roots:
            return None
        return trace_tree_payload(roots)

    def admin_history(
        self, family: str | None = None, window: float | None = None
    ) -> dict:
        """``GET /metrics/history``: windowed deltas/rates from the ring."""
        return self.history.query(family=family, window=window)

    async def admin_profile(self, seconds: float) -> dict:
        """``GET /profile?seconds=``: capture and aggregate stacks.

        Starts the sampler only if it is not already running (an
        externally driven capture keeps its window), sleeps out the
        requested capture, and returns the aggregated snapshot.
        Serialized: concurrent captures queue rather than clobbering
        each other's windows.
        """
        async with self._profile_lock:
            started_here = not self.profiler.running
            if started_here:
                self.profiler.clear()
                self.profiler.start()
            try:
                await asyncio.sleep(seconds)
            finally:
                if started_here:
                    self.profiler.stop()
            return self.profiler.snapshot()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        decoder = FrameDecoder()
        # `hello` may renegotiate the codec mid-batch: each reply is
        # encoded with the codec in force when it is produced (receivers
        # decode both codecs, so the cutover point is free).
        codec = CODEC_JSON
        sample = self._sample
        try:
            while True:
                try:
                    data = await reader.read(READ_BYTES)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                if self._bytes_in is not None:
                    self._bytes_in.inc(len(data))
                replies: list[bytes] = []
                held: list[TenantSession] = []
                hangup = stopping = False
                try:
                    for payload in decoder.frames(data):
                        t_enq = self._obs_clock() if sample else 0.0
                        request_id = payload.get("id")
                        op = payload.get("op")
                        try:
                            if op in MUTATION_OPS:
                                result = self._apply(op, payload, held, t_enq)
                            elif op == "hello":
                                # An explicit `codec` field renegotiates
                                # (unknown values settle on JSON); a hello
                                # without it is plain introspection and
                                # leaves the codec untouched.
                                if "codec" in payload:
                                    codec = negotiate_codec(payload["codec"])
                                result = self._hello()
                                result["codec"] = codec
                            elif op == "shutdown":
                                result = {"state": "stopped"}
                                hangup = stopping = True
                            else:
                                result = self._control(op, payload)
                            frame = ok(request_id, result)
                        except ServeError as exc:
                            frame = error(request_id, exc.kind, exc.message)
                        replies.append(encode_frame(frame, codec))
                        if hangup:
                            break  # frames behind a shutdown go unanswered
                except ProtocolError as exc:
                    # The byte stream is unparseable from here on: the
                    # frames ahead of the violation are answered, then
                    # it is named and the connection hung up rather than
                    # resynchronised.
                    replies.append(
                        encode_frame(error(None, "protocol", str(exc)), codec)
                    )
                    hangup = True
                if self._wal_dir is not None:
                    self._flush_wals()
                try:
                    writer.writelines(replies)
                    if self._bytes_out is not None:
                        self._bytes_out.inc(sum(map(len, replies)))
                    await writer.drain()
                except (ConnectionError, RuntimeError, OSError):
                    hangup = True  # the peer went away mid-reply
                finally:
                    for session in held:
                        self.sessions.release(session)
                if stopping:
                    self._shutdown_task = asyncio.create_task(self.shutdown())
                if hangup:
                    break
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass


class ServerThread:
    """Host a :class:`LeaseServer`'s event loop in a daemon thread.

    The synchronous world's handle on the server: start it, read the
    bound addresses, and stop it — everything else happens over sockets.
    The thread owns the loop and the server outright (the ownership
    contract above); the creating thread must not touch the server
    object after :meth:`start`.
    """

    def __init__(
        self,
        server: LeaseServer,
        unix_path: str | None = None,
        tcp: tuple[str, int] | None = None,
    ):
        if unix_path is None and tcp is None:
            raise ModelError("ServerThread needs a unix path or a TCP address")
        self._server = server
        self._unix_path = unix_path
        self._tcp = tcp
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.tcp_port: int | None = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ModelError("serve thread failed to start in time")
        if self._error is not None:
            raise ModelError(f"serve thread failed: {self._error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        try:
            if self._unix_path is not None:
                await self._server.start_unix(self._unix_path)
            if self._tcp is not None:
                self.tcp_port = await self._server.start_tcp(*self._tcp)
            self._loop = asyncio.get_running_loop()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._server.run_until_stopped()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._server.shutdown(), self._loop
            )
            try:
                future.result(timeout)
            except Exception:
                pass
        self._thread.join(timeout)
