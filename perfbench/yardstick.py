"""A stand-in server built from the standard library alone: the yardstick.

It answers newline-delimited JSON requests over a unix socket along the
path ``engine serve`` takes, minus the lease logic: each request is
read and decoded, handed through an ``asyncio.Queue`` to a dispatch
task, given a fixed amount of pure-Python work, optionally appended to a
log file with one ``write`` call (as a WAL append is), and answered.
With ``--workers N`` it plays ``engine cluster``'s router instead: it
spawns N yardsticks of its own and relays each request to one of them
by resource (a tick to all), as the routed topology does.

The benchmark drives it with the same client code and the same schedule
as the program and divides the program's CPU per event by the
yardstick's CPU per request.  Both pay the same wake-ups, system calls,
cold caches and batching when a shared host slows or takes away a core,
yet none of the program's code runs in the yardstick, so the ratio
moves with the program and not with the host.

Run as ``python3 perfbench/yardstick.py SOCKET [--work N] [--log FILE]
[--workers N]``; it prints one ``listening on`` line when ready and
exits on SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import signal
import sys


class YardstickClient:
    """``call(op, **fields)`` over the yardstick's protocol, the method
    the load generators use on ``AsyncLeaseClient``; replies are matched
    to requests by id, so calls may be pipelined."""

    def __init__(self, reader, writer):
        self.writer = writer
        self.waiting: dict[int, asyncio.Future] = {}
        self.ids = itertools.count()
        self.reading = asyncio.ensure_future(self._read(reader))

    @classmethod
    async def open_unix(cls, path: str) -> "YardstickClient":
        return cls(*await asyncio.open_unix_connection(path))

    async def _read(self, reader) -> None:
        while line := await reader.readline():
            reply = json.loads(line)
            self.waiting.pop(reply["id"]).set_result(reply)
        for future in self.waiting.values():
            future.set_exception(ConnectionError("the yardstick hung up"))

    async def call(self, op: str, **fields) -> dict:
        request_id = next(self.ids)
        future = asyncio.get_running_loop().create_future()
        self.waiting[request_id] = future
        self.writer.write(json.dumps(
            {"id": request_id, "op": op, **fields}
        ).encode() + b"\n")
        return await future

    async def close(self) -> None:
        self.writer.close()
        self.reading.cancel()


def work(scratch: dict, iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        scratch[i & 255] = (acc, i)
        acc = (acc * 31 + len(scratch)) & 0xFFFF
    return acc


async def spawn_workers(socket_path: str, args) -> list:
    """Start ``args.workers`` plain yardsticks beside this one."""
    children = []
    for index in range(args.workers):
        path = f"{socket_path}.w{index}"
        child = await asyncio.create_subprocess_exec(
            sys.executable, __file__, path, "--work", str(args.work),
            stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL,
        )
        if b"listening on" not in await child.stdout.readline():
            raise RuntimeError("a yardstick worker did not start")
        children.append((child, path))
    return children


async def serve(socket_path: str, args) -> None:
    queue: asyncio.Queue = asyncio.Queue()
    log = None if args.log is None else os.open(
        args.log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    book: dict = {}
    scratch: dict = {}
    children = await spawn_workers(socket_path, args)
    links = [await YardstickClient.open_unix(path) for _, path in children]
    relays: set = set()

    def answer(writer, request) -> None:
        writer.write(json.dumps({
            "ok": True, "id": request["id"], "held": len(book),
        }).encode() + b"\n")

    async def relay(writer, request) -> None:
        fields = {k: v for k, v in request.items() if k not in ("id", "op")}
        resource = request.get("resource")
        targets = links if resource is None else [links[resource % len(links)]]
        await asyncio.gather(*(
            link.call(request["op"], **fields) for link in targets
        ))
        answer(writer, request)

    async def dispatch() -> None:
        while True:
            writer, request = await queue.get()
            book[request.get("tenant"), request.get("resource")] = \
                request.get("time")
            work(scratch, args.work)
            if log is not None:
                os.write(log, json.dumps(request).encode() + b"\n")
            if links:
                task = asyncio.ensure_future(relay(writer, request))
                relays.add(task)
                task.add_done_callback(relays.discard)
            else:
                answer(writer, request)

    async def handle(reader, writer) -> None:
        while line := await reader.readline():
            await queue.put((writer, json.loads(line)))
        writer.close()

    worker = asyncio.ensure_future(dispatch())
    server = await asyncio.start_unix_server(handle, socket_path)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"yardstick listening on {socket_path}", flush=True)
    await stop.wait()
    server.close()
    worker.cancel()
    for link in links:
        await link.close()
    for child, _ in children:
        child.terminate()
        await child.wait()
    if log is not None:
        os.close(log)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("socket")
    parser.add_argument("--work", type=int, default=0,
                        help="pure-Python loop iterations per request")
    parser.add_argument("--log", default=None,
                        help="append every request to this file")
    parser.add_argument("--workers", type=int, default=0,
                        help="relay to this many yardsticks of its own")
    args = parser.parse_args()
    asyncio.run(serve(args.socket, args))


if __name__ == "__main__":
    main()
