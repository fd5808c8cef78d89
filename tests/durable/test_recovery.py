"""Server-level durability: crash mid-stream, restart, recover — the
report a recovered server produces must be indistinguishable from one
that never crashed, and retry-marked resends must apply exactly once."""

import asyncio

from repro.core import LeaseSchedule
from repro.engine.events import Release, Tick, generate_resource_trace
from repro.serve import (
    AsyncLeaseClient,
    LeaseServer,
    merge_shard_payloads,
    replay_applied,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


def _events(horizon=48, seed=11):
    return list(
        generate_resource_trace(
            "markov", horizon, seed=seed,
            num_resources=6, tenants_per_resource=2,
        )
    )


async def _apply(client, event):
    if type(event) is Tick:
        return await client.tick(event.time)
    if type(event) is Release:
        return await client.release(event.tenant, event.resource, event.time)
    return await client.acquire(event.tenant, event.resource, event.time)


def _server(wal_dir=None, **kwargs):
    extra = {} if wal_dir is None else {"wal_dir": wal_dir}
    extra.update(kwargs)
    return LeaseServer(
        SCHEDULE, num_resources=6, num_shards=3, record=True, **extra
    )


def _drive(sock_path, events, wal_dir=None, crash=False, **kwargs):
    """Drive ``events`` through a fresh server; maybe crash at the end.

    ``crash=True`` abandons the server without ``shutdown()`` — the
    closing event loop tears down listeners and dispatchers mid-flight,
    the in-process stand-in for an abrupt death.  A crashed drive
    returns ``recovered`` only; a clean one also fetches report + trace.
    """

    async def main():
        server = _server(wal_dir=wal_dir, **kwargs)
        await server.start_unix(sock_path)
        client = await AsyncLeaseClient.open_unix(sock_path)
        for event in events:
            await _apply(client, event)
        if crash:
            await client.close()
            return server.recovered_events, None, None
        report = await client.report()
        trace = await client.trace()
        await client.close()
        await server.shutdown()
        return server.recovered_events, report, trace

    return asyncio.run(main())


class TestCrashRecovery:
    def test_mid_stream_crash_recovers_byte_identically(self, sock_path):
        """Crash halfway with fsync=always, restart on the same WAL,
        finish the stream: the report must equal an uncrashed control
        run's byte for byte, and both must equal the inline replay."""
        events = _events()
        half = len(events) // 2
        wal_dir = sock_path + ".wal"

        _drive(sock_path, events[:half], wal_dir=wal_dir,
               fsync="always", crash=True)
        recovered, report, trace = _drive(
            sock_path, events[half:], wal_dir=wal_dir, fsync="always"
        )
        assert recovered > 0  # the restart actually replayed a WAL tail

        _, control_report, control_trace = _drive(sock_path + ".b", events)
        assert report["shards"] == control_report["shards"]
        assert trace["shards"] == control_trace["shards"]

        served = merge_shard_payloads(report["shards"])
        replayed = replay_applied(SCHEDULE, trace)
        assert served.cost == replayed.cost
        assert tuple(served.leases) == tuple(replayed.leases)
        assert served.detail["broker_stats"] == replayed.detail["broker_stats"]

    def test_clean_shutdown_snapshots_then_recovers_without_replay(
        self, sock_path
    ):
        """A clean shutdown snapshots every shard, so the next startup
        restores state from snapshots alone — zero WAL records — and
        still reports the same world."""
        events = _events(horizon=32, seed=3)
        wal_dir = sock_path + ".wal"

        _, report, trace = _drive(sock_path, events, wal_dir=wal_dir)
        recovered, report2, trace2 = _drive(
            sock_path, [], wal_dir=wal_dir
        )
        assert recovered == 0
        assert report2["shards"] == report["shards"]
        assert trace2["shards"] == trace["shards"]

    def test_periodic_snapshots_bound_the_replayed_tail(self, sock_path):
        """With snapshot_every=4 the WAL is repeatedly truncated, so a
        crash replays only the short tail since the last snapshot —
        never the whole history — and recovery still lands exactly."""
        events = _events(horizon=40, seed=7)
        wal_dir = sock_path + ".wal"

        _drive(sock_path, events, wal_dir=wal_dir, fsync="always",
               snapshot_every=4, crash=True)
        recovered, report, trace = _drive(
            sock_path, [], wal_dir=wal_dir, fsync="always", snapshot_every=4
        )
        # 3 shards x at most 3 un-snapshotted events each.
        assert 0 <= recovered < len(events)
        assert recovered <= 3 * 3

        _, control_report, _ = _drive(sock_path + ".b", events)
        assert report["shards"] == control_report["shards"]

    def test_batch_fsync_recovers_after_quiesce(self, sock_path):
        """fsync=batch flushes at read-batch boundaries: once the stream
        has quiesced, even an abrupt death loses nothing."""
        events = _events(horizon=32, seed=5)
        wal_dir = sock_path + ".wal"

        async def drive_and_quiesce():
            server = _server(wal_dir=wal_dir, fsync="batch")
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            for event in events:
                await _apply(client, event)
            # All replies are in, so every batch boundary's flush has
            # run; give the loop one beat.
            await asyncio.sleep(0.05)
            await client.close()

        asyncio.run(drive_and_quiesce())
        recovered, report, _ = _drive(sock_path, [], wal_dir=wal_dir)
        assert recovered > 0
        _, control_report, _ = _drive(sock_path + ".b", events)
        assert report["shards"] == control_report["shards"]

    def test_idle_batch_tail_is_synced_by_a_deferred_flush(
        self, sock_path, monkeypatch
    ):
        """A burst landing inside the sync interval and then going idle
        is still fsynced once the interval lapses: the batch boundary
        arms one deferred flush.  The WAL runs on a fake clock, so no
        sleep here is as long as the interval."""
        import repro.durable.wal as wal_module
        from repro.obs.metrics import MetricsRegistry

        now = [0.0]
        real_wal = wal_module.ShardWal
        monkeypatch.setattr(
            wal_module,
            "ShardWal",
            lambda *args, **kwargs: real_wal(
                *args, clock=lambda: now[0], **kwargs
            ),
        )
        registry = MetricsRegistry()

        def fsyncs():
            family = registry.snapshot().get("wal_fsyncs_total")
            return 0 if family is None else sum(
                entry["value"] for entry in family["series"]
            )

        async def main():
            server = _server(
                wal_dir=sock_path + ".wal", fsync="batch", metrics=registry
            )
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            # The logs opened at t=0: this batch ends 50 ms short of the
            # interval, so its boundary must skip the fsync.
            now[0] = wal_module.BATCH_SYNC_INTERVAL - 0.05
            await client.acquire("t0", 0, 0)
            at_reply = fsyncs()
            # Nothing else arrives; the interval lapses.
            now[0] = wal_module.BATCH_SYNC_INTERVAL
            await asyncio.sleep(0.1)
            after_idle = fsyncs()
            await client.close()
            await server.shutdown()
            return at_reply, after_idle

        at_reply, after_idle = asyncio.run(main())
        assert at_reply == 0
        assert after_idle == 1


class TestRetryDedup:
    def test_retry_marked_resend_applies_exactly_once(self, sock_path):
        """The router's crash-retry contract: a retry=True resend of an
        already-applied mutation is answered from the applied log and
        the broker sees it once."""

        async def main():
            server = _server(wal_dir=sock_path + ".wal", fsync="always")
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            first = await client.acquire("t0", 0, 5)
            again = await client.call(
                "acquire", tenant="t0", resource=0, time=5, retry=True
            )
            report = await client.report()
            trace = await client.trace()
            await client.close()
            await server.shutdown()
            return first, again, report, trace

        first, again, report, trace = asyncio.run(main())
        assert again["applied_time"] == first["applied_time"]
        assert again["grant"] == first["grant"]
        # Exactly one acquire reached the brokers.
        applied = [
            payload
            for shard in trace["shards"]
            for payload in shard["events"]
        ]
        assert len(applied) == 1

    def test_unapplied_retry_applies_normally(self, sock_path):
        """A retry whose original never landed is not in the applied
        log, so it must apply for real — retries are at-least-once on
        the wire, exactly-once on the broker."""

        async def main():
            server = _server(wal_dir=sock_path + ".wal", fsync="always")
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            reply = await client.call(
                "acquire", tenant="t0", resource=1, time=2, retry=True
            )
            trace = await client.trace()
            await client.close()
            await server.shutdown()
            return reply, trace

        reply, trace = asyncio.run(main())
        assert reply["grant"] is not None
        applied = [
            payload
            for shard in trace["shards"]
            for payload in shard["events"]
        ]
        assert len(applied) == 1

    def test_retry_flag_is_inert_without_a_wal(self, sock_path):
        """No WAL means no dedup log; retry-marked frames are applied
        like any other traffic instead of crashing the server."""

        async def main():
            server = _server()
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t0", 0, 0)
            reply = await client.call(
                "acquire", tenant="t0", resource=0, time=0, retry=True
            )
            await client.close()
            await server.shutdown()
            return reply

        reply = asyncio.run(main())
        assert reply["grant"] is not None
