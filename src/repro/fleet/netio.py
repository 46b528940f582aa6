"""Tiny asyncio HTTP/1.1 JSON client (stdlib only).

A fleet worker's lease loop (:func:`repro.fleet.worker.lease_loop`)
and its report path run on the worker's event loop, which must never
block (the repo-wide ASYNC-BLOCKING-CALL rule), so they cannot use
:mod:`http.client` the way :class:`repro.service.client.ServiceClient`
does.  This module is the async counterpart: one connection per request
(matching the service's ``Connection: close`` replies), JSON in and
out, a hard per-request timeout, and every transport failure folded
into one exception type so a worker can treat "the coordinator is
unreachable" uniformly.  The coordinator itself makes no outbound
requests: workers come to it.

It deliberately implements only what the fleet needs - talking to a
:mod:`repro.service.server` instance on the local network - not a
general HTTP client.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

#: Largest response body the fleet will buffer (a matrix result payload
#: is well under this; anything bigger means a protocol violation).
MAX_RESPONSE_BYTES = 16 * 1024 * 1024


class TransportError(RuntimeError):
    """The peer was unreachable, hung up early, or spoke garbage."""


def split_url(base_url: str) -> Tuple[str, int]:
    """``http://host:port`` -> ``(host, port)``."""
    split = urlsplit(base_url)
    if split.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme in {base_url!r}")
    return split.hostname or "127.0.0.1", split.port or 80


async def request_json(base_url: str, method: str, path: str,
                       payload: Optional[Dict] = None,
                       headers: Optional[Dict[str, str]] = None,
                       timeout: float = 30.0,
                       ) -> Tuple[int, Dict[str, str], object]:
    """One HTTP request; returns ``(status, headers, parsed body)``.

    The body parses as JSON when the peer says so, otherwise it comes
    back as text (the ``/metrics`` endpoint).  Raises
    :class:`TransportError` on connection failure, timeout, or a
    malformed response - never a bare :class:`OSError`.
    """
    host, port = split_url(base_url)
    body = b""
    request_headers = {"Host": f"{host}:{port}", "Connection": "close"}
    if headers:
        request_headers.update(headers)
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        request_headers["Content-Type"] = "application/json"
    request_headers["Content-Length"] = str(len(body))
    head = [f"{method} {path} HTTP/1.1"]
    head.extend(f"{name}: {value}"
                for name, value in request_headers.items())
    raw_request = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    try:
        return await asyncio.wait_for(
            _roundtrip(host, port, raw_request), timeout=timeout)
    except asyncio.TimeoutError:
        raise TransportError(
            f"{method} {base_url}{path} timed out after {timeout:.1f}s"
        ) from None
    except (ConnectionError, OSError, EOFError, ValueError,
            UnicodeDecodeError) as exc:
        raise TransportError(
            f"{method} {base_url}{path} failed: {exc}") from exc


async def _roundtrip(host: str, port: int, raw_request: bytes
                     ) -> Tuple[int, Dict[str, str], object]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw_request)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ValueError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0") or "0")
        if length > MAX_RESPONSE_BYTES:
            raise ValueError(f"response body of {length} bytes")
        raw_body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise EOFError("peer hung up mid-response") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    content_type = response_headers.get("content-type", "")
    if content_type.startswith("application/json"):
        data: object = json.loads(raw_body.decode("utf-8"))
    else:
        data = raw_body.decode("utf-8", errors="replace")
    return status, response_headers, data
