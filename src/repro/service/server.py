"""Stdlib-only asyncio HTTP front end for the sweep service.

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no frameworks, no threads per connection.  Endpoints:

``POST /sweep``
    Body: one experiment-request JSON object (see
    :mod:`repro.service.requests`).  Response: ``application/x-ndjson``
    streamed as the sweep progresses and closed at the end —

    * one ``accepted`` line (cell counts, dedupe/warm split),
    * with ``"progress": true``: ``progress`` lines for this request's
      cells — scheduler lifecycle events (``stage`` of ``cell_dispatch``
      / ``cell``) forwarded live from the obs event tap,
    * one ``result`` line per cell **in canonical cell order** — each
      byte-identical to the line ``results/run_all.py --cells`` prints
      for the same cell — or a ``cell_failed`` line for cells that
      exhausted their retries,
    * one closing ``done`` line.

    Framing: the response head and the ``accepted`` line go out in one
    write.  Lines of cells that have already resolved are buffered until
    the stream has to wait on an unresolved cell, or until ``done`` — so
    a memo-warm request is two writes, cold results still stream as
    they land, and the bytes on the wire are the same either way.

``GET /healthz``
    Liveness: ``{"ok": true}``.

``GET /stats``
    Operational snapshot: outstanding and in-flight cells, client
    budgets, admission limits, and the ``service.*``/``sched.*``/
    ``cache.*`` counters (the artifact store's hits, misses, puts and
    evictions, the sweep workers' merged in).

``GET /metrics``
    Prometheus text exposition (v0.0.4) of the metrics registry — every
    sample labelled with its stability tag (``det``/``sched``/``wall``),
    the ``cache.*`` counters among them — plus two operational gauges:
    outstanding and in-flight cells.

``POST /shutdown``
    Graceful stop (enabled by default; disable with
    ``allow_shutdown=False`` for exposed deployments).

Tracing: every ``/sweep`` request opens a deterministic trace (see
:mod:`repro.obs.tracing`); progress lines are routed to their owning
request by trace id, so two overlapping streams never see each other's
progress.  With ``REPRO_TRACE=1`` every streamed line additionally
carries its trace/span ids; with tracing off those fields are stripped
and the stream is byte-identical to an untraced server's.

Errors are JSON: 400 for malformed requests, 404 unknown path, 429 from
admission control, 500 otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.cache import RESULT_CACHE_ENV, get_cache
from repro.obs import (
    add_listener, emit_span, env_int, get_registry, remove_listener,
    render_prometheus, trace_enabled,
)
from repro.service.cells import failure_line, result_line
from repro.service.jobs import AdmissionError, SweepService
from repro.service.requests import RequestError

#: Default bind host/port (port 0 = ephemeral, reported after start).
SERVICE_HOST_ENV = "REPRO_SERVICE_HOST"
SERVICE_PORT_ENV = "REPRO_SERVICE_PORT"

_MAX_BODY = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100


class _HttpError(Exception):
    def __init__(self, status, reason, message):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                429: "Too Many Requests", 500: "Internal Server Error"}


def _json_line(payload):
    return json.dumps(payload, sort_keys=True,
                      default=str).encode("utf-8") + b"\n"


def _head(status, content_type, extra=()):
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
             f"Content-Type: {content_type}", "Connection: close",
             *extra, "", ""]
    return "\r\n".join(lines).encode("ascii")


class SweepServer:
    """One listening socket over one :class:`SweepService`."""

    def __init__(self, host=None, port=None, service=None,
                 allow_shutdown=True, **service_kwargs):
        self.host = host if host is not None else \
            os.environ.get(SERVICE_HOST_ENV, "127.0.0.1")
        self.port = port if port is not None else \
            env_int(SERVICE_PORT_ENV, default=0)
        self.service = service or SweepService(**service_kwargs)
        self.allow_shutdown = allow_shutdown
        self._server = None
        self._stopping = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind, start the service, and begin accepting connections.
        Memoization is forced on for this process: a sweep server without
        the result cache would recompute every warm cell."""
        os.environ.setdefault(RESULT_CACHE_ENV, "1")
        self._stopping = asyncio.Event()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self):
        """Run until :meth:`stop` (or ``POST /shutdown``)."""
        await self._stopping.wait()

    # -- request plumbing ----------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send_error(writer, exc)
                return
            try:
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                await self._send_error(writer, exc)
            except (RequestError, json.JSONDecodeError) as exc:
                await self._send_error(writer, _HttpError(
                    400, "bad request", str(exc)))
            except AdmissionError as exc:
                await self._send_error(writer, _HttpError(
                    429, "rejected", str(exc)))
            except Exception as exc:
                await self._send_error(writer, _HttpError(
                    500, "internal error", f"{type(exc).__name__}: {exc}"))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                      # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, "bad request",
                             f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "bad request", "too many headers")
        body = b""
        length = headers.get("content-length")
        if length:
            try:
                length = int(length)
            except ValueError:
                raise _HttpError(400, "bad request",
                                 "bad Content-Length") from None
            if length > _MAX_BODY:
                raise _HttpError(413, "too large",
                                 f"body over {_MAX_BODY} bytes")
            body = await reader.readexactly(length)
        return method, path.split("?", 1)[0], body

    async def _send_error(self, writer, exc):
        writer.write(_head(exc.status, "application/json") + _json_line(
            {"error": exc.reason, "message": exc.message}))
        await writer.drain()

    async def _send_json(self, writer, payload):
        writer.write(_head(200, "application/json") + _json_line(payload))
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(self, method, path, body, writer):
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, {"ok": True})
        elif path == "/stats" and method == "GET":
            await self._send_json(writer, self.service.stats())
        elif path == "/metrics" and method == "GET":
            await self._send_metrics(writer)
        elif path == "/sweep" and method == "POST":
            payload = json.loads(body.decode("utf-8") or "{}")
            await self._stream_sweep(payload, writer)
        elif path == "/shutdown" and method == "POST":
            if not self.allow_shutdown:
                raise _HttpError(404, "not found", "shutdown disabled")
            await self._send_json(writer, {"stopping": True})
            asyncio.get_running_loop().create_task(self.stop())
        elif path in ("/healthz", "/stats", "/metrics", "/sweep",
                      "/shutdown"):
            raise _HttpError(405, "method not allowed",
                             f"{method} not allowed on {path}")
        else:
            raise _HttpError(404, "not found", f"no route for {path}")

    async def _send_metrics(self, writer):
        """``GET /metrics``: Prometheus text rendering of the registry
        plus the outstanding / in-flight cell gauges."""
        service = self.service
        extra = {
            "service.outstanding_cells": service._outstanding,
            "service.inflight_cells": len(service._inflight),
        }
        text = render_prometheus(get_registry(), extra_gauges=extra)
        writer.write(_head(200, "text/plain; version=0.0.4"))
        writer.write(text.encode("utf-8"))
        await writer.drain()

    # -- the sweep stream ----------------------------------------------------

    async def _stream_sweep(self, payload, writer):
        job = self.service.admit(payload)     # may raise 400/429 pre-headers
        request = job.request
        root = job.trace
        traced = trace_enabled()
        loop = asyncio.get_running_loop()
        progress_token = None
        started = time.time()
        t0 = time.perf_counter()
        completed = failed = 0
        try:
            accepted = {
                "event": "accepted", "client": request.client,
                "cells": request.cell_count, "deduped": job.deduped,
                "scheduled": len(job.new_keys)}
            if traced:
                accepted["trace"] = {"trace_id": root.trace_id,
                                     "span_id": root.span_id}
            writer.write(_head(200, "application/x-ndjson")
                         + _json_line(accepted))
            await writer.drain()
            if request.progress:
                progress_token = self._tap_progress(job, writer, loop,
                                                    traced)
            # Resolved cells' lines wait in ``lines`` for the next write;
            # waiting on an unresolved cell flushes them first, so cold
            # results still stream as they land (see "Framing" above).
            lines = []
            for spec, ctx, future in zip(request.cells, job.cell_traces,
                                         job.futures):
                if not future.done():
                    if lines:
                        writer.write(b"".join(lines))
                        lines.clear()
                        await writer.drain()
                    await asyncio.shield(future)
                status, value = future.result()
                trace = ctx if traced else None
                if status == "failed":
                    failed += 1
                    line = failure_line(spec, value, trace=trace)
                else:
                    completed += 1
                    line = result_line(spec, value, trace=trace)
                lines.append(line.encode("utf-8") + b"\n")
            done = {
                "event": "done", "cells": request.cell_count,
                "completed": completed, "failed": failed}
            if traced:
                done["trace"] = {"trace_id": root.trace_id,
                                 "span_id": root.span_id}
            lines.append(_json_line(done))
            writer.write(b"".join(lines))
            await writer.drain()
        finally:
            if progress_token is not None:
                remove_listener(progress_token)
            job.close()
            emit_span(root, "service.request", started,
                      time.perf_counter() - t0, client=request.client,
                      cells=request.cell_count, deduped=job.deduped,
                      completed=completed, failed=failed)

    def _tap_progress(self, job, writer, loop, traced):
        """Forward this request's scheduler lifecycle events into the
        stream, routed by trace id: only events carrying the request's
        own ``trace_id`` are forwarded, so two overlapping streams never
        receive each other's progress lines (a deduped cell's progress
        belongs to the request that scheduled it).  With tracing off the
        trace fields are stripped from the payload, keeping the stream
        byte-identical to an untraced server's.  The tap fires on the
        executor thread (scheduler side), so writes hop to the loop; a
        closed writer ends the tap's output harmlessly."""
        trace_id = job.trace.trace_id

        def write_progress(record):
            if record.get("event") not in ("cell_dispatch", "cell"):
                return
            if record.get("trace_id") != trace_id:
                return
            payload = dict(record)
            payload["stage"] = payload.pop("event")
            payload["event"] = "progress"
            if not traced:
                for field in ("trace_id", "span_id", "parent_span_id"):
                    payload.pop(field, None)
            line = json.dumps(payload, sort_keys=True, default=str)

            def push():
                try:
                    writer.write(line.encode("utf-8") + b"\n")
                except (ConnectionError, RuntimeError):
                    pass
            loop.call_soon_threadsafe(push)

        return add_listener(write_progress)


async def run_server(host=None, port=None, **kwargs):
    """Start a server and run until stopped; returns after shutdown."""
    server = SweepServer(host=host, port=port, **kwargs)
    await server.start()
    print(f"sweep service listening on http://{server.host}:{server.port} "
          f"(cache at {get_cache().root})", flush=True)
    try:
        await server.serve_until_stopped()
    finally:
        await server.stop()
