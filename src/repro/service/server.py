"""JSON-lines campaign server over asyncio streams (stdlib only).

Wire format: one JSON object per ``\\n``-terminated line, both ways.
Every request carries an ``op``; every response carries ``ok``.  The
``submit`` op can *stream*: the server emits one line per job event
(``{"ok": true, "event": ...}``) as it happens and finishes with a
``{"ok": true, "done": true, "job": {...}}`` line carrying the result
payload — live progress over a protocol you can drive with netcat.

Operations:

``ping``
    liveness probe → ``{"ok": true, "pong": true}``.
``submit``
    ``{kind, params?, priority?, stream?, include_result?}`` →
    validation errors and queue-full backpressure come back as one-line
    ``{"ok": false, "error": ...}`` responses (``"rejected": true``
    marks backpressure so clients can distinguish retryable shed from
    a bad request).
``job`` / ``jobs``
    inspect one job (optionally ``wait`` for it to finish) or list all
    (with the fleet snapshot and journal/recovery counters).  A
    finished job's ``result`` is read from the result cache; once the
    cache has evicted it from every layer it reads ``null``.
``attach``
    re-subscribe to a job's event stream by id: replays every event
    from the beginning, then streams live ones until the job ends and
    a final ``done`` line carries the job view (and result, unless
    ``include_result`` is off).  The recovery companion of ``submit``
    — a client that lost its connection (or a server that lost its
    process) re-attaches instead of losing the handle.
``metrics``
    the live metrics snapshot plus cache statistics.
``cancel``
    best-effort cancellation of a queued job.
``worker_register``
    a fleet worker announcing itself (``repro worker``).  This op
    *consumes the connection*: after a one-line ack the stream switches
    to the binary frame protocol (:mod:`repro.service.codec`) and is
    handed to the :class:`~repro.service.fleet.FleetCoordinator` for
    lease dispatch until the worker disconnects.
``shutdown``
    ack, then trigger the same graceful drain as SIGTERM.

Shutdown discipline (exercised by the CI smoke test): on SIGTERM or
``shutdown`` the listener closes first (no new connections), the
scheduler drains every accepted job to a terminal state, and the
end-of-run metrics summary is printed.  Submissions racing the drain
get an explicit ``service is draining`` error, never a silent drop.

Array payloads ride the codec's base64 encoding and can reach tens of
megabytes, so connections raise the stream reader limit well above
asyncio's 64 KiB default.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
from typing import Dict, Optional, Tuple

from repro.service.jobs import JobSpec, JobState, QueueFullError
from repro.service.scheduler import (
    CampaignScheduler,
    SchedulerClosedError,
)
from repro.util.errors import ReproError

__all__ = [
    "CampaignServer",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "STREAM_LIMIT",
]

DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``repro serve`` (pass ``--port 0`` for ephemeral).
DEFAULT_PORT = 7341

#: Per-connection reader buffer limit.  One response line carries a
#: whole encoded result payload (e.g. 500k float64 trace samples), so
#: the default 64 KiB limit is far too small.
STREAM_LIMIT = 2 ** 27  # 128 MiB

#: How long the drain waits for closed connections' handlers to return.
DRAIN_CLOSE_S = 5.0


class CampaignServer:
    """Serves one :class:`CampaignScheduler` over TCP JSON lines."""

    def __init__(
        self,
        scheduler: CampaignScheduler,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start the scheduler workers, return ``(host, port)``."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=STREAM_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Flag the serve loop to begin the graceful drain."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain cleanly."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        assert self._server is not None
        # Stop accepting connections first, then let every accepted
        # job reach a terminal state before tearing workers down.  Last,
        # close the connections still open (a fleet worker waiting for
        # its next frame, an idle client): each pending read sees EOF
        # and its handler returns before the loop ends.
        self._server.close()
        await self._server.wait_closed()
        await self.scheduler.stop()
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(self._connections, timeout=DRAIN_CLOSE_S)

    async def close(self) -> None:
        """Immediate teardown for tests: close listener, stop workers."""
        self.request_shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    await self._send(
                        writer,
                        {"ok": False, "error": "bad request: %s" % exc},
                    )
                    continue
                if request.get("op") == "worker_register":
                    # The fleet owns this connection from here on: the
                    # stream flips to binary frames, so it must never
                    # come back to the JSON line loop.
                    await self.scheduler.fleet.serve_worker(
                        request.get("worker") or {}, reader, writer
                    )
                    return
                if not await self._dispatch(request, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.pop(task, None)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, object]
    ) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(
        self,
        request: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle one request; returns False to end the connection."""
        op = request.get("op")
        try:
            if op == "ping":
                await self._send(writer, {"ok": True, "pong": True})
            elif op == "submit":
                await self._op_submit(request, writer)
            elif op == "job":
                await self._op_job(request, writer)
            elif op == "attach":
                await self._op_attach(request, writer)
            elif op == "jobs":
                await self._op_jobs(writer)
            elif op == "metrics":
                await self._op_metrics(writer)
            elif op == "cancel":
                await self._op_cancel(request, writer)
            elif op == "shutdown":
                await self._send(
                    writer, {"ok": True, "shutting_down": True}
                )
                self.request_shutdown()
                return False
            else:
                await self._send(
                    writer,
                    {"ok": False, "error": "unknown op %r" % (op,)},
                )
        except ReproError as exc:
            await self._send(writer, {"ok": False, "error": str(exc)})
        return True

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_submit(
        self,
        request: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            spec = JobSpec.create(
                str(request.get("kind")),
                request.get("params"),  # type: ignore[arg-type]
                priority=request.get("priority", 10),  # type: ignore[arg-type]
            )
            state = self.scheduler.submit(spec)
        except QueueFullError as exc:
            await self._send(
                writer,
                {
                    "ok": False,
                    "rejected": True,
                    "error": str(exc),
                    "depth": exc.depth,
                    "limit": exc.limit,
                },
            )
            return
        except (ReproError, SchedulerClosedError) as exc:
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        if not request.get("stream", True):
            await self._send(
                writer,
                {
                    "ok": True,
                    "job_id": state.job_id,
                    "status": state.status,
                },
            )
            return
        # No await since submit(): a result the cache could evict
        # before the terminal line still reaches this client.
        handoff = (
            self.scheduler.result_future(state)
            if request.get("include_result", True)
            else None
        )
        await self._stream(writer, state, handoff)

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        state: JobState,
        handoff: Optional["asyncio.Future"],
    ) -> None:
        """Stream every event of a job, then its terminal line (with
        the result ``handoff`` resolved to, when there is one)."""
        async for event in state.stream():
            await self._send(writer, {"ok": True, "event": event})
        await self._send_job(writer, state, handoff, done=True)

    async def _send_job(
        self,
        writer: asyncio.StreamWriter,
        state: JobState,
        handoff: Optional["asyncio.Future"],
        **message: object,
    ) -> None:
        """Send ``{"ok": true, **message, "job": view}``.  With a
        ``handoff``, the view's ``result`` is the text it resolved to
        (null until it has), spliced in verbatim: the event loop never
        parses or re-encodes a result."""
        parts = [
            json.dumps(dict({"ok": True}, **message))[:-1],
            ', "job": ',
            json.dumps(state.as_dict())[:-1],
        ]
        if handoff is not None:
            text = handoff.result() if handoff.done() else None
            parts += [', "result": ', "null" if text is None else text]
        parts.append("}}\n")
        for part in parts:
            writer.write(part.encode("utf-8"))
        await writer.drain()

    async def _op_job(
        self,
        request: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        job_id = str(request.get("job_id"))
        state = self.scheduler.job(job_id)
        if state is None:
            await self._send(
                writer,
                {"ok": False, "error": "unknown job %r" % job_id},
            )
            return
        wait = request.get("wait")
        handoff = None
        if request.get("include_result", False):
            if wait:
                handoff = self.scheduler.result_future(state)
            else:
                # A view, not a wait: resolved now, so it adds no waiter.
                handoff = asyncio.get_running_loop().create_future()
                handoff.set_result(self.scheduler.result(state))
        if wait:
            async for _event in state.stream():
                pass
        await self._send_job(writer, state, handoff)

    async def _op_attach(
        self,
        request: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        job_id = str(request.get("job_id"))
        state = self.scheduler.job(job_id)
        if state is None:
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": "unknown job %r — it may predate the "
                    "journal window; `repro jobs` lists live ids"
                    % job_id,
                },
            )
            return
        handoff = (
            self.scheduler.result_future(state)
            if request.get("include_result", True)
            else None
        )
        # Same streaming shape as submit: the event log replays from
        # the beginning (JobState.stream always starts at event 0), so
        # a re-attaching client sees the full history, then lives.
        await self._stream(writer, state, handoff)

    async def _op_jobs(self, writer: asyncio.StreamWriter) -> None:
        await self._send(
            writer,
            {
                "ok": True,
                "accepting": self.scheduler.accepting,
                "fleet": self.scheduler.fleet.snapshot(),
                "recovery": self.scheduler.recovery_snapshot(),
                "jobs": [
                    state.as_dict()
                    for state in self.scheduler.list_jobs()
                ],
            },
        )

    async def _op_metrics(self, writer: asyncio.StreamWriter) -> None:
        await self._send(
            writer,
            {
                "ok": True,
                "metrics": self.scheduler.metrics.snapshot(),
                "cache": self.scheduler.cache.stats.as_dict(),
                "fleet": self.scheduler.fleet.snapshot(),
            },
        )

    async def _op_cancel(
        self,
        request: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        job_id = str(request.get("job_id"))
        await self._send(
            writer,
            {
                "ok": True,
                "job_id": job_id,
                "cancelled": self.scheduler.cancel(job_id),
            },
        )


async def serve_forever(
    scheduler: CampaignScheduler,
    host: str = DEFAULT_HOST,
    port: int = 0,
    ready_line: bool = True,
) -> None:
    """Run a server until SIGTERM/SIGINT, then drain and summarize.

    The ``repro serve`` CLI entry point.  Prints a parseable readiness
    line (``repro-service listening on HOST:PORT``) so scripts — and
    the CI smoke test — can wait for the bound port, and the metrics
    summary after the drain so every run ends with an account of what
    the service did.
    """
    server = CampaignServer(scheduler, host, port)
    bound_host, bound_port = await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, server.request_shutdown)
    if ready_line:
        recovery = scheduler.recovery_snapshot()
        if recovery.get("journal_enabled") and recovery.get(
            "journal_replays"
        ):
            print(
                "journal: replayed %d records, recovered %d job(s)"
                % (
                    recovery.get("journal_records", 0),
                    recovery.get("jobs_recovered", 0),
                ),
                flush=True,
            )
        print(
            "repro-service listening on %s:%d" % (bound_host, bound_port),
            flush=True,
        )
    await server.serve_until_shutdown()
    print(scheduler.metrics.summary(), file=sys.stderr, flush=True)
