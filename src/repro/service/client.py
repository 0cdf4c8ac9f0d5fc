"""Minimal stdlib client for the sweep service.

Thin wrappers over :mod:`http.client` used by the CLI smoke mode and
the tests.  :func:`request_lines` streams a sweep and yields raw JSONL
lines (bytes, no trailing newline) so callers can compare them
byte-for-byte against the direct path; :func:`request_sweep` parses
them into dicts for convenience.
"""

from __future__ import annotations

import http.client
import json


class ServiceError(RuntimeError):
    """A non-200 response from the sweep service."""

    def __init__(self, status, payload):
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


def _connect(host, port, timeout):
    return http.client.HTTPConnection(host, port, timeout=timeout)


def request_lines(host, port, payload, timeout=600.0):
    """POST one sweep request; yield each raw JSONL line as bytes."""
    conn = _connect(host, port, timeout)
    try:
        body = json.dumps(payload).encode("utf-8")
        conn.request("POST", "/sweep", body=body,
                     headers={"Content-Type": "application/json",
                              "Content-Length": str(len(body))})
        response = conn.getresponse()
        if response.status != 200:
            raise ServiceError(response.status,
                               response.read().decode("utf-8", "replace"))
        buffer = b""
        while True:
            chunk = response.read(65536)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line:
                    yield line
        if buffer:
            yield buffer
    finally:
        conn.close()


def request_sweep(host, port, payload, timeout=600.0):
    """POST one sweep request; return the parsed event dicts."""
    return [json.loads(line)
            for line in request_lines(host, port, payload, timeout=timeout)]


def get_text(host, port, path, timeout=30.0):
    """GET a plain-text endpoint (``/metrics``)."""
    conn = _connect(host, port, timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read().decode("utf-8", "replace")
        if response.status != 200:
            raise ServiceError(response.status, data)
        return data
    finally:
        conn.close()


def get_json(host, port, path, timeout=30.0):
    """GET a JSON endpoint (``/healthz``, ``/stats``)."""
    conn = _connect(host, port, timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read().decode("utf-8", "replace")
        if response.status != 200:
            raise ServiceError(response.status, data)
        return json.loads(data)
    finally:
        conn.close()


def post_shutdown(host, port, timeout=30.0):
    """Ask the server to stop; returns its acknowledgement."""
    conn = _connect(host, port, timeout)
    try:
        conn.request("POST", "/shutdown",
                     headers={"Content-Length": "0"})
        response = conn.getresponse()
        data = response.read().decode("utf-8", "replace")
        if response.status != 200:
            raise ServiceError(response.status, data)
        return json.loads(data)
    finally:
        conn.close()
