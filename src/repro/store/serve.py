"""``repro serve`` — an asyncio HTTP front end over a local store.

Protocol (deliberately tiny; :class:`~repro.store.backend.RemoteStore`
and :class:`~repro.store.jobs.JobClient` are the only intended
clients, but any HTTP client works):

- ``GET /a/<key>`` — ``200`` with the artifact bytes, or ``404``;
- ``PUT /a/<key>`` — store the request body, reply ``204``;
- ``GET /stats`` — JSON counters of the backing store, plus per-queue
  depth/lease/miss counters for every job queue;
- ``GET /healthz`` — liveness probe (``200`` with uptime-ish JSON) so
  smoke jobs and operators can poll readiness instead of sleeping;
- ``POST /jobs/<queue>/submit|lease|complete|fail`` and
  ``GET /jobs/<queue>/job/<id>`` — the work-queue protocol of
  :mod:`repro.store.jobs` (JSON bodies; an empty lease answers
  ``204``).

The server is a plain :func:`asyncio.start_server` loop — no external
web framework — parsing just enough HTTP/1.1 to move opaque artifact
blobs and small JSON job envelopes.  Connections are handled
concurrently; the backing store's own locking and the job board's
single lock make the handlers safe.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from .backend import BaseStore, store_from_spec
from .jobs import JobBoard

__all__ = ["StoreServer", "serve"]

_MAX_HEADER = 64 * 1024
_MAX_BODY = 512 * 1024 * 1024

#: cap on how long one lease request may long-poll, whatever the client
#: asked for (bounded parked connections, and clients keep their socket
#: timeouts comfortably above the wait)
_MAX_LEASE_WAIT = 30.0

#: how often a parked lease request re-checks the queue
_LEASE_POLL_S = 0.01


def _response(status: str, body: bytes = b"",
              content_type: str = "application/octet-stream") -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(payload: object, status: str = "200 OK") -> bytes:
    return _response(
        status, json.dumps(payload).encode("utf-8"), "application/json"
    )


class StoreServer:
    """Serve a local store (and a job board) over HTTP until cancelled."""

    def __init__(self, store: BaseStore, host: str = "127.0.0.1",
                 port: int = 7357, board: Optional[JobBoard] = None):
        self.store = store
        self.host = host
        self.port = port
        self.board = board if board is not None else JobBoard()
        self.requests = 0
        self._server: Optional[asyncio.base_events.Server] = None

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError):
            return None
        if len(head) > _MAX_HEADER:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return None
        if length < 0 or length > _MAX_BODY:
            return None
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
        return method, target, body

    async def _handle(self, method: str, target: str, body: bytes) -> bytes:
        self.requests += 1
        if target == "/healthz" and method == "GET":
            return _json_response(
                {"status": "ok", "requests": self.requests}
            )
        if target == "/stats" and method == "GET":
            return _json_response({
                **self.store.counters(),
                "requests": self.requests,
                "queues": self.board.status(),
            })
        if target.startswith("/jobs/"):
            return await self._handle_jobs(method, target, body)
        if not target.startswith("/a/"):
            return _response("404 Not Found")
        key = target[3:]
        if not key or "/" in key or len(key) > 256:
            return _response("400 Bad Request")
        if method == "GET":
            payload = self.store.get(key)
            if payload is None:
                return _response("404 Not Found")
            return _response("200 OK", payload)
        if method == "PUT":
            self.store.put(key, body)
            return _response("204 No Content")
        return _response("405 Method Not Allowed")

    async def _handle_jobs(
        self, method: str, target: str, body: bytes
    ) -> bytes:
        parts = [p for p in target[len("/jobs/"):].split("/")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            return _response("404 Not Found")
        queue, verb = parts[0], parts[1]
        if verb == "job":
            if method != "GET" or len(parts) != 3 or not parts[2]:
                return _response("404 Not Found")
            job = self.board.job(queue, parts[2])
            if job is None:
                return _response("404 Not Found")
            return _json_response(job)
        if len(parts) != 2:
            return _response("404 Not Found")
        if method != "POST":
            return _response("405 Method Not Allowed")
        try:
            data = json.loads(body) if body else {}
            if not isinstance(data, dict):
                raise ValueError
        except ValueError:
            return _response("400 Bad Request")
        if verb == "submit":
            job_id = data.get("id")
            if not job_id:
                return _response("400 Bad Request")
            return _json_response(self.board.submit(
                queue, data.get("payload") or {}, job_id,
                data.get("result_key"),
            ))
        if verb == "lease":
            worker = data.get("worker") or "anonymous"
            lease_s = float(data.get("lease_s") or 30.0)
            job = self.board.lease(queue, worker, lease_s)
            wait_s = min(
                float(data.get("wait_s") or 0.0), _MAX_LEASE_WAIT
            )
            if job is None and wait_s > 0:
                # long poll: park the request until something becomes
                # leasable (peek is a hint — another worker can win the
                # race, in which case we just keep waiting)
                deadline = asyncio.get_running_loop().time() + wait_s
                while (
                    job is None
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(_LEASE_POLL_S)
                    if self.board.peek(queue):
                        job = self.board.lease(queue, worker, lease_s)
            if job is None:
                return _response("204 No Content")
            return _json_response(job)
        if verb == "complete":
            job_id = data.get("id")
            if not job_id:
                return _response("400 Bad Request")
            return _json_response(self.board.complete(
                queue, job_id, data.get("worker"), data.get("result_key")
            ))
        if verb == "fail":
            job_id = data.get("id")
            if not job_id:
                return _response("400 Bad Request")
            return _json_response(self.board.fail(
                queue, job_id, data.get("worker"), data.get("error")
            ))
        return _response("404 Not Found")

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.CancelledError:
                    # the server stopped while this keep-alive connection
                    # was idle.  Return instead of re-raising: Python
                    # 3.11's stream protocol calls ``task.exception()`` on
                    # a finished handler, which raises for a cancelled
                    # one and is logged as an error on every shutdown
                    break
                if request is None:
                    break
                writer.write(await self._handle(*request))
                await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port, limit=_MAX_HEADER
        )
        addr = self._server.sockets[0].getsockname()
        self.port = addr[1]

    async def run_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def stats_line(self) -> str:
        """One line of store + per-queue counters (depth/leased/done and
        lease misses), printed by ``repro serve`` on shutdown."""
        counters = self.store.counters()
        bits = [
            f"store: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['puts']} puts, {self.requests} requests"
        ]
        for name, q in sorted(self.board.status().items()):
            bits.append(
                f"{name}: depth {q['depth']}, leased {q['leased']}, "
                f"done {q['done']}, misses {q['lease_misses']}, "
                f"expired {q['expired']}, workers {q['workers']}"
            )
        return "; ".join(bits)


def serve(spec: str, host: str = "127.0.0.1", port: int = 7357,
          announce=print) -> None:
    """Blocking entry point used by ``repro serve``."""
    store = store_from_spec(spec)
    server = StoreServer(store, host, port)

    async def main() -> None:
        await server.start()
        announce(
            f"repro store server on http://{server.host}:{server.port} "
            f"backed by {store!r}"
        )
        await server.run_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        announce("repro store server stopped")
        announce(server.stats_line())
