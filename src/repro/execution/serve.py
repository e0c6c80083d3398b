"""``repro serve``: the sweep daemon, on nothing but the stdlib.

A small asyncio HTTP/1.1 service in front of a
:class:`~repro.execution.jobs.JobManager`: clients submit scenario
matrices (or whole campaign-TOML files) as jobs, watch their typed
event streams as NDJSON, fetch results, and cancel mid-flight.  No
web framework — the repo's no-new-dependencies rule holds for the
daemon too, so request parsing is a deliberately minimal hand-rolled
HTTP subset (request line, headers, ``Content-Length`` bodies; no
chunked requests, no keep-alive).

Endpoints
---------
``GET  /healthz``
    Liveness plus manager counters (jobs, dedup builds/hits).
``POST /jobs``
    Submit a job.  The JSON body is either a matrix::

        {"benchmarks": ["adpcm"], "configurations": ["sync", "mcd_base"],
         "seeds": [1], "scale": 0.05,
         "backend": "thread", "workers": 2, "batch": 1, "label": "demo"}

    or a campaign file shipped verbatim::

        {"campaign": "<campaign TOML text>"}

    (the campaign's matrix and execution knobs are used; its journal
    and result files are not — the daemon's streams replace them).
    Responds 201 with the job's status payload, including its ``id``.
``GET  /jobs``
    Every job's status payload, in submission order.
``GET  /jobs/{id}``
    One job's status payload (the shape ``repro campaign status
    --json`` shares).
``GET  /jobs/{id}/events[?offset=N]``
    The job's event stream as NDJSON, one ``JobEvent.to_dict`` per
    line, replayed from ``offset`` and then followed live until a
    terminal event (``job_finished``/``job_cancelled``) is sent.
``GET  /jobs/{id}/results``
    The finished job's ``ResultSet`` JSON; 409 until it finishes.
``DELETE /jobs/{id}``
    Fire the job's cancel token; the stream terminates with
    ``job_cancelled`` once the orchestrator unwinds (backends
    cancelled, shared memory unlinked).

Concurrent identical submissions share one warm execution through the
manager's dedup context — see :mod:`repro.execution.jobs`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import tomllib
from typing import Mapping

from repro.errors import CampaignError, ExperimentError
from repro.execution.jobs import Job, JobManager
from repro.version import __version__

logger = logging.getLogger(__name__)

#: How often a live NDJSON stream polls its job's buffer for news.
STREAM_POLL_S = 0.05

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """An error response to send instead of a handler result."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _suite_from_body(body: Mapping) -> tuple[object, dict]:
    """Resolve a POST /jobs body to ``(Suite, execution kwargs)``."""
    from repro.experiments.scenario import Suite

    if "campaign" in body:
        spec = _campaign_spec(body["campaign"])
        return spec.suite(), {
            "backend": spec.backend,
            "workers": spec.workers,
            "batch": spec.batch,
            "start_method": spec.start_method,
            "label": spec.name,
        }
    benchmarks = body.get("benchmarks")
    configurations = body.get("configurations")
    if not benchmarks or not configurations:
        raise _HttpError(
            400,
            "job body needs 'benchmarks' and 'configurations' lists "
            "(or a 'campaign' TOML string)",
        )
    try:
        suite = Suite(
            benchmarks=list(benchmarks),
            configurations=list(configurations),
            seeds=[int(s) for s in body.get("seeds", [1])],
            overrides=[dict(o) for o in body.get("overrides", [{}])],
            scale=body.get("scale"),
            name=str(body.get("label", "job")),
        )
    except (TypeError, ValueError) as exc:
        raise _HttpError(400, f"malformed job matrix: {exc}") from None
    return suite, {
        "backend": body.get("backend"),
        "workers": body.get("workers"),
        "batch": body.get("batch"),
        "start_method": body.get("start_method"),
        "label": str(body.get("label", "job")),
    }


def _campaign_spec(toml_text: object):
    """Parse a campaign file shipped as the request body's string."""
    from repro.campaigns.spec import CampaignSpec

    if not isinstance(toml_text, str) or not toml_text.strip():
        raise _HttpError(400, "'campaign' must be the TOML file's text")
    try:
        data = tomllib.loads(toml_text)
    except ValueError as exc:
        raise _HttpError(400, f"campaign body is not valid TOML: {exc}") from None
    try:
        return CampaignSpec.from_dict(data, source="<request>")
    except CampaignError as exc:
        raise _HttpError(400, f"invalid campaign: {exc}") from None


class ReproServer:
    """The asyncio HTTP server over one :class:`JobManager`.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports
    the bound one after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8023,
        manager: JobManager | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = manager if manager is not None else JobManager()
        self._server: asyncio.AbstractServer | None = None

    # --- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("repro serve listening on %s:%d", self.host, self.port)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and cancel every live job."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.manager.shutdown()

    # --- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
                await self._dispatch(writer, method, path, query, body)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ConnectionError,
            ):
                return  # client went away or spoke garbage: nothing to answer
            except Exception:  # noqa: BLE001 - the daemon must not die
                logger.exception("request handling failed")
                await self._send_json(
                    writer, 500, {"error": "internal server error"}
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, dict | None]:
        """Parse one request: (method, path, query params, JSON body)."""
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        path, _, raw_query = target.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        body = None
        length = int(headers.get("content-length", 0) or 0)
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"body is not valid JSON: {exc}") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "body must be a JSON object")
        return method.upper(), path, query, body

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: dict | None,
    ) -> None:
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"status": "ok", "version": __version__, **self.manager.stats()},
            )
            return
        if segments[:1] == ["jobs"]:
            if len(segments) == 1:
                if method == "POST":
                    await self._submit(writer, body)
                    return
                if method == "GET":
                    await self._send_json(
                        writer,
                        200,
                        {"jobs": [j.status_payload() for j in self.manager.jobs()]},
                    )
                    return
                raise _HttpError(405, f"{method} not allowed on /jobs")
            job = self.manager.get(segments[1])
            if job is None:
                raise _HttpError(404, f"unknown job {segments[1]!r}")
            if len(segments) == 2:
                if method == "GET":
                    await self._send_json(writer, 200, job.status_payload())
                    return
                if method == "DELETE":
                    self.manager.cancel(job.id)
                    await self._send_json(
                        writer, 200, {"id": job.id, "cancelled": True}
                    )
                    return
                raise _HttpError(405, f"{method} not allowed on /jobs/{{id}}")
            if len(segments) == 3 and method == "GET":
                if segments[2] == "events":
                    await self._stream_events(writer, job, query)
                    return
                if segments[2] == "results":
                    await self._send_results(writer, job)
                    return
        raise _HttpError(404, f"no route for {method} {path}")

    # --- handlers -----------------------------------------------------------
    async def _submit(self, writer: asyncio.StreamWriter, body: dict | None) -> None:
        if body is None:
            raise _HttpError(400, "POST /jobs needs a JSON body")
        suite, knobs = _suite_from_body(body)
        label = knobs.pop("label")
        try:
            # Matrix expansion and knob validation happen synchronously
            # in submit(); push them off the event loop.
            job = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.manager.submit(suite, label=label, **knobs)
            )
        except (ExperimentError, CampaignError) as exc:
            raise _HttpError(400, f"cannot submit job: {exc}") from None
        await self._send_json(writer, 201, job.status_payload())

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job, query: dict
    ) -> None:
        try:
            offset = max(0, int(query.get("offset", 0)))
        except ValueError:
            raise _HttpError(400, f"malformed offset {query.get('offset')!r}") from None
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        terminal_sent = False
        while not terminal_sent:
            events = job.events_since(offset)
            if not events:
                if job.finished:
                    break  # offset already past the terminal event
                await asyncio.sleep(STREAM_POLL_S)
                continue
            offset += len(events)
            for event in events:
                line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
                writer.write(line.encode())
                terminal_sent = terminal_sent or event.kind in (
                    "job_finished",
                    "job_cancelled",
                )
            await writer.drain()

    async def _send_results(self, writer: asyncio.StreamWriter, job: Job) -> None:
        results = job.results
        if results is None:
            state = job.state
            raise _HttpError(
                409,
                f"job {job.id!r} has no results (state {state!r})"
                + ("" if state == "running" else "; it did not finish"),
            )
        await self._send_json(
            writer, 200, {"id": job.id, "results": results.to_dict()}
        )

    # --- response plumbing --------------------------------------------------
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()


class BackgroundServer:
    """A :class:`ReproServer` on its own event-loop thread (tests).

    ``with BackgroundServer() as server:`` yields a bound, running
    server whose :attr:`port` is routable from the test's own thread;
    exit stops the loop and cancels every job.
    """

    def __init__(self, manager: JobManager | None = None, host: str = "127.0.0.1") -> None:
        self.server = ReproServer(host=host, port=0, manager=manager)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def __enter__(self) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            self._started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):  # pragma: no cover - startup hang
            raise RuntimeError("serve thread failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is None:  # pragma: no cover - never entered
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), loop).result(30.0)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(10.0)
        loop.close()
