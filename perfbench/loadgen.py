"""Open-loop HTTP load generator: one asyncio thread, few keep-alive sockets.

Requests are due on a fixed schedule (``i / rate`` after the phase
starts) whatever the server does, so a stall shows up as latency of the
requests due during it instead of as fewer requests sent.  Each request
is timed from its due time to the last byte of its response; the gap
between due time and the moment its bytes are written (waiting for the
schedule to catch up or for a free connection) is the generator's
lateness, reported alongside.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

import workloads

__all__ = ["OpenLoopClient", "Result", "due_times"]


@dataclass
class Result:
    """One request as the client saw it (times are ``loop.time()``)."""

    rid: int
    query: str
    user: str | None
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    suggestions: list | None = None
    error: str | None = None
    mismatch: bool = False

    @property
    def ok(self) -> bool:
        """Answered 200 with a suggestion list and not found wrong."""
        return (
            self.error is None
            and self.status == 200
            and self.suggestions is not None
            and not self.mismatch
        )


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Due times of *count* requests sent at *rate* per second from *start*.

    ``rate`` of ``inf`` makes every request due at *start* (a burst).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(count)]


class _Connection:
    """One HTTP/1.1 keep-alive connection carrying one request at a time."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader = None
        self._writer = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def get(self, path: str) -> tuple[int, bytes]:
        self._writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length)
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


class OpenLoopClient:
    """Sends scheduled ``GET /suggest`` requests over *connections* sockets."""

    def __init__(
        self,
        host: str,
        port: int,
        connections: int = 2,
        timeout: float = 10.0,
    ) -> None:
        self._host = host
        self._port = port
        self._n_connections = connections
        self._timeout = timeout
        self._free: asyncio.Queue | None = None
        self._open: list[_Connection] = []

    async def start(self) -> None:
        self._free = asyncio.Queue()
        for _ in range(self._n_connections):
            connection = _Connection(self._host, self._port)
            await connection.open()
            self._open.append(connection)
            self._free.put_nowait(connection)

    async def close(self) -> None:
        for connection in self._open:
            await connection.close()
        self._open = []

    async def run(self, requests, rate: float, stop: asyncio.Event | None = None):
        """Send *requests* at *rate*; stop sending early once *stop* is set.

        Returns one :class:`Result` per request sent, in schedule order,
        after every sent request has completed or failed.
        """
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.01
        tasks = []
        for rid, ((query, user), due) in enumerate(
            zip(requests, due_times(start, rate, len(requests)))
        ):
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if stop is not None and stop.is_set():
                break
            result = Result(rid=rid, query=query, user=user, due=due)
            tasks.append(asyncio.ensure_future(self._send(result)))
        return list(await asyncio.gather(*tasks))

    async def _send(self, result: Result) -> Result:
        loop = asyncio.get_running_loop()
        connection = await self._free.get()
        result.sent = loop.time()
        try:
            status, body = await asyncio.wait_for(
                connection.get(workloads.request_path(result.query, result.user)),
                self._timeout,
            )
            result.done = loop.time()
            result.status = status
            if status == 200:
                result.suggestions = json.loads(body)["suggestions"]
            else:
                result.error = body.decode("utf-8", "replace")[:200]
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError,
                ValueError, KeyError) as exc:
            result.done = loop.time()
            result.error = f"{type(exc).__name__}: {exc}"
            # The socket may still carry a late reply: replace it.
            await connection.close()
            self._open.remove(connection)
            connection = _Connection(self._host, self._port)
            await connection.open()
            self._open.append(connection)
        self._free.put_nowait(connection)
        return result
