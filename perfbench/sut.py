"""The system under test as users deploy it: ``python -m repro`` processes.

Spawning, readiness, shutdown, and the ``/proc`` readings the benchmark
takes from the outside: CPU time (``schedstat``, nanoseconds, summed
over every thread) and peak RSS (``VmHWM``).  Nothing here imports the
serving stack; the processes are black boxes reached over their socket.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Seconds a spawned process gets to print its listening banner.
READY_TIMEOUT = 60.0


def fingerprint() -> dict:
    """The machine a result was measured on; absolute numbers only compare
    between results that carry the same fingerprint."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def cpu_ns(pid: int) -> int:
    """On-CPU nanoseconds of every thread of ``pid`` (user + system)."""
    total = 0
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the thread exited between listing and reading
    return total


def steal_ticks() -> tuple[int, int]:
    """(stolen, total) clock ticks of all CPUs since boot, from /proc/stat.

    Stolen time is time a virtual CPU wanted to run but the hypervisor
    ran something else; its share over a window says how much of the
    window the machine was not ours.
    """
    first = Path("/proc/stat").read_text().split("\n", 1)[0]
    fields = [int(x) for x in first.split()[1:]]
    return fields[7], sum(fields)


def children(pid: int) -> list[int]:
    """Every live descendant of ``pid``, from ``/proc/<pid>/task/*/children``."""
    found = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            direct = [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
        for child in direct:
            found.append(child)
            found.extend(children(child))
    return found


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class ServingProcess:
    """One serving process and the worker processes it spawns:
    ``python -m repro engine serve`` or ``engine cluster``, or the
    benchmark's own yardstick.

    ``command`` is everything after the interpreter.  Paths in it are
    relative to ``cwd`` so unix-socket paths stay short wherever the
    checkout is.  The process leads a process group of its own, so its
    workers can be killed with it.
    """

    def __init__(self, command: list[str], cwd: Path, src: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self.command = command
        self.process = subprocess.Popen(
            [sys.executable, *command],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )

    def wait_ready(self) -> str:
        """Block until the listening banner; returns it."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{' '.join(self.command[:4])} exited before listening "
                    f"(code {self.process.poll()})"
                )
            if "listening on" in line:
                return line.strip()
        raise RuntimeError("serving process never printed its banner")

    def cpu_ns(self) -> tuple[int, int]:
        """On-CPU nanoseconds of (this process, all its workers)."""
        pid = self.process.pid
        return cpu_ns(pid), sum(cpu_ns(child) for child in children(pid))

    def peak_rss_mib(self) -> float:
        """Peak RSS summed over this process and its workers."""
        pid = self.process.pid
        return sum(peak_rss_mib(p) for p in (pid, *children(pid)))

    def stop(self, timeout: float = 15.0) -> None:
        """Wait for a process already told to shut down; kill if it hangs."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        finally:
            self.process.stdout.close()
        self._wait_group()

    def kill(self) -> None:
        """Kill the process and its workers now (error paths); reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=15.0)
        self._wait_group()

    def _wait_group(self, timeout: float = 15.0) -> None:
        """Wait until no process of the group is left; kill stragglers."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
