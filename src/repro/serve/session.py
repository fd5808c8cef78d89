"""Per-tenant sessions: backpressure windows and idle expiry.

The server keys a :class:`TenantSession` by tenant name — not by
connection, since a tenant may spread its traffic over a pooled set of
sockets.  A session does two jobs:

* **Backpressure.**  Each tenant gets a bounded in-flight *window*: at
  most ``window`` mutations applied but not yet answered at once — for
  the server, its mutations in the current read batch whose replies
  have not been flushed.  A request beyond the window is refused
  immediately with a ``backpressure`` error frame — the client's cue
  to await some responses before pipelining more.  Closed-loop clients
  (one in-flight request per tenant) never hit the window.
* **Idle expiry.**  Sessions are bookkeeping, and tenants come and go; a
  reaper sweep drops sessions that have been idle (no request, nothing
  in flight) longer than ``idle_timeout`` seconds of wall clock.  Expiry
  forgets only counters — grants and leases live in the brokers and are
  untouched.

The registry is deliberately loop-agnostic pure Python (the clock is an
injectable callable), so its semantics are unit-testable without a
server or a socket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .._validation import require_positive_int


@dataclass(slots=True)
class TenantSession:
    """One tenant's serving-side state: window accounting and counters."""

    tenant: str
    window: int
    inflight: int = 0
    served: int = 0
    rejected: int = 0
    last_active: float = 0.0

    def try_acquire(self, now: float) -> bool:
        """Claim one in-flight slot; ``False`` when the window is full."""
        self.last_active = now
        if self.inflight >= self.window:
            self.rejected += 1
            return False
        self.inflight += 1
        return True

    def release(self, now: float) -> None:
        """Return one in-flight slot after its response was produced."""
        self.inflight -= 1
        self.served += 1
        self.last_active = now


class SessionRegistry:
    """All live tenant sessions, with window checks and an idle reaper.

    Args:
        window: per-tenant in-flight request bound (>= 1).
        idle_timeout: seconds of inactivity before :meth:`expire_idle`
            drops a session with nothing in flight.
        clock: monotonic-seconds source; injectable for tests.
        refusal_counter: anything with ``.inc()``, bumped once per
            backpressure refusal (the server passes its registry's
            ``serve_backpressure_refusals_total``); ``None`` = no call.
        expiry_counter: likewise, bumped by the number of sessions each
            :meth:`expire_idle` sweep reaps.
    """

    def __init__(
        self,
        window: int = 64,
        idle_timeout: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        refusal_counter=None,
        expiry_counter=None,
    ):
        require_positive_int(window, "window")
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 seconds")
        self.window = window
        self.idle_timeout = idle_timeout
        self._clock = clock
        self._refusal_counter = refusal_counter
        self._expiry_counter = expiry_counter
        self._sessions: dict[str, TenantSession] = {}
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, tenant: str) -> TenantSession:
        """The tenant's session, created (and touched) on first sight."""
        record = self._sessions.get(tenant)
        if record is None:
            record = TenantSession(tenant=tenant, window=self.window)
            self._sessions[tenant] = record
        record.last_active = self._clock()
        return record

    def try_acquire(self, tenant: str) -> TenantSession | None:
        """Claim an in-flight slot for ``tenant``; ``None`` = backpressure."""
        record = self.session(tenant)
        if not record.try_acquire(self._clock()):
            if self._refusal_counter is not None:
                self._refusal_counter.inc()
            return None
        return record

    def release(self, record: TenantSession) -> None:
        """Return a slot claimed by :meth:`try_acquire`."""
        record.release(self._clock())

    def expire_idle(self) -> tuple[str, ...]:
        """Drop every session idle past the timeout with nothing in flight."""
        now = self._clock()
        doomed = tuple(
            tenant
            for tenant, record in self._sessions.items()
            if record.inflight == 0
            and now - record.last_active > self.idle_timeout
        )
        for tenant in doomed:
            del self._sessions[tenant]
        self.expired_total += len(doomed)
        if doomed and self._expiry_counter is not None:
            self._expiry_counter.inc(len(doomed))
        return doomed

    def snapshot(self) -> dict:
        """JSON-ready registry view for the ``stats`` op."""
        return {
            "tenants": len(self._sessions),
            "window": self.window,
            "idle_timeout": self.idle_timeout,
            "expired_total": self.expired_total,
            "inflight": sum(s.inflight for s in self._sessions.values()),
            "served": sum(s.served for s in self._sessions.values()),
            "rejected": sum(s.rejected for s in self._sessions.values()),
        }

    def tenant_snapshot(self) -> list[dict]:
        """JSON-ready per-tenant rows for the admin health endpoint.

        One row per live session, sorted by tenant name so the output
        is stable across calls; ``idle_sec`` is seconds since the
        tenant's last request on the injected clock.
        """
        now = self._clock()
        return [
            {
                "tenant": record.tenant,
                "inflight": record.inflight,
                "served": record.served,
                "rejected": record.rejected,
                "idle_sec": round(now - record.last_active, 3),
            }
            for record in sorted(
                self._sessions.values(), key=lambda record: record.tenant
            )
        ]
