"""Workload shapes: which program runs, on which generated inputs, how driven.

Every workload draws its inputs from ``generate_resource_trace`` (markov
demand days) with the seed given on the command line; the program under
test only ever receives the generated events.  Rates are events per
second, times are seconds, latencies are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: p99 latency limit, from intended send time, that a ladder step must
#: meet for its rate to count towards ``max_rate_at_slo``.
SLO_P99_US = 50_000.0

#: Worker processes ``engine cluster`` runs by default.
CLUSTER_WORKERS = 2

#: One read (alternately ``stats`` and ``leases``) per this many
#: mutations on workloads that mix reads in.
READ_EVERY = 50


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``replay`` (inline, no sockets), ``serve`` (one
    ``engine serve`` process) or ``cluster`` (one ``engine cluster``
    router and its worker processes).  ``closed_loop`` workloads drive
    day-barriered passes over the trace and are checked byte for byte
    against inline replay; the open-loop workload instead offers seeded
    Poisson load, first at ``reference_rate`` and then at each rate of
    ``ladder``.  ``yardstick_work`` sizes the served yardstick's
    per-request work so that a request costs it about what an event costs
    the program here (see ``perfbench/yardstick.py``); ``yardstick_ref_us``
    is what a yardstick request (on ``replay``, an event through
    ``bench.replay_yardstick``) costs on the reference host, the 2-vCPU
    Intel Xeon VM the benchmark was written on.
    """

    name: str
    kind: str
    resources: int
    horizon: int
    ladder: tuple[int, ...] = ()
    reference_rate: int = 0
    tenants_per_resource: int = 2
    num_types: int = 4
    cost_growth: float = 2.0
    closed_loop: bool = True
    codec: str | None = None
    wal: bool = False
    reads: bool = False
    flags: tuple[str, ...] = ()
    yardstick_work: int = 0
    yardstick_ref_us: float = 0.0

    def argv(self, socket: str, wal_dir: str | None) -> list[str]:
        """``python -m repro`` arguments: CLI defaults plus named flags."""
        argv = ["engine", self.kind, "--socket", socket, *self.flags]
        if self.wal:
            argv += ["--wal-dir", wal_dir]
        return argv

    def yardstick_argv(self, socket: str, log: str) -> list[str]:
        """``perfbench/yardstick.py`` arguments: a stand-in of the same
        shape, with a WAL-like log and worker relays where this has them."""
        argv = [socket, "--work", str(self.yardstick_work)]
        if self.wal:
            argv += ["--log", log]
        if self.kind == "cluster":
            argv += ["--workers", str(CLUSTER_WORKERS)]
        return argv


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="replay",
            kind="replay",
            resources=64,
            horizon=4096,
            yardstick_ref_us=0.5,
        ),
        Workload(
            name="serve-json",
            kind="serve",
            resources=16,
            horizon=1024,
            flags=("--resources", "16"),
            yardstick_work=300,
            yardstick_ref_us=130.0,
        ),
        Workload(
            name="serve-open-wal",
            kind="serve",
            resources=16,
            horizon=2048,
            ladder=(500, 1_000, 1_500, 2_000, 2_500, 3_000, 4_000, 5_000,
                    6_000),
            reference_rate=1_000,
            num_types=6,
            cost_growth=1.5,
            closed_loop=False,
            codec="bin",
            wal=True,
            reads=True,
            flags=(
                "--resources", "16", "--fsync", "batch",
                "--num-types", "6", "--cost-growth", "1.5",
            ),
            yardstick_work=400,
            yardstick_ref_us=290.0,
        ),
        # Router + 2 workers x 2 shards, binary codec on the links and
        # the routed topology: the defaults of ``engine cluster``.
        Workload(
            name="cluster-routed",
            kind="cluster",
            resources=16,
            horizon=1024,
            flags=("--resources", "16"),
            yardstick_work=0,
            yardstick_ref_us=250.0,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at test size: short traces, a two-step ladder."""
    return replace(
        workload,
        resources=4,
        horizon=96,
        ladder=workload.ladder[:2],
        reference_rate=min(workload.ladder, default=0),
        flags=tuple(
            "4" if previous == "--resources" else flag
            for previous, flag in zip(("",) + workload.flags, workload.flags)
        ),
    )
