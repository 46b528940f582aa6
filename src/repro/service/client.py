"""Retrying HTTP client for the simulation service.

A thin stdlib (:mod:`http.client`) client with the retry discipline the
scheduler's admission control expects from well-behaved callers:

* **Load sheds (429/503)** honour the server's ``Retry-After`` hint -
  the server computes it from its observed job latency and backlog, so
  sleeping that long converts overload into queueing delay.  The hint
  is a *floor*, not the whole answer: the capped exponential term for
  the current attempt rides on top (repeat sheds spread out instead of
  re-arriving at hint boundaries), plus a jitter proportional to the
  whole delay so a herd of shed clients desynchronises.
* **Transport errors** (connection refused/reset mid-handshake) retry
  with capped exponential backoff plus the same jitter.
* Both retry loops share one attempt budget; exhausting it raises
  :class:`ServiceSaturated` (sheds) or :class:`ServiceUnavailable`
  (transport), keeping the failure cause diagnosable.
* **Completion** is pushed, not polled: :meth:`ServiceClient.wait`
  holds ``GET /v1/jobs/<id>?wait=`` open for up to half the socket
  timeout, and the server answers the moment the job is terminal.

Randomness comes from a per-instance ``random.Random`` seeded from
``(seed, client_id)`` - deterministic per identity (the repo-wide
``LINT-RANDOM`` rule, so a load test's retry timing is reproducible)
yet distinct across clients, which is what actually breaks the herd:
with a shared stream every client sharing a default seed would draw
the *same* jitter and re-arrive in lockstep anyway.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """Base error for client-visible service failures."""


class ServiceSaturated(ServiceError):
    """Submission kept being shed (429/503) past the retry budget."""


class ServiceUnavailable(ServiceError):
    """The server could not be reached within the retry budget."""


class JobFailed(ServiceError):
    """The job reached a terminal ``failed`` state server-side."""


class ServiceClient:
    """One logical client (quota identity) talking to one service."""

    def __init__(self, base_url: str, client_id: str = "anonymous",
                 timeout: float = 30.0, max_attempts: int = 8,
                 backoff_base: float = 0.2, backoff_cap: float = 5.0,
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.client_id = client_id
        self.timeout = timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        # Seeded per (seed, identity): reproducible for a given client,
        # distinct across clients even when they share the default seed.
        self._rng = random.Random(f"{seed}:{client_id}")
        #: Observability for load tests: sheds seen and seconds slept.
        self.sheds_seen = 0
        self.transport_retries = 0
        self.backoff_slept = 0.0

    # -- raw transport ---------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None
                 ) -> Tuple[int, Dict[str, str], object]:
        body = None
        headers = {"X-Client": self.client_id}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            response_headers = {name.lower(): value
                                for name, value in response.getheaders()}
            content_type = response_headers.get("content-type", "")
            if content_type.startswith("application/json"):
                data: object = json.loads(raw.decode("utf-8"))
            else:
                data = raw.decode("utf-8", errors="replace")
            return response.status, response_headers, data
        finally:
            connection.close()

    def _backoff(self, attempt: int,
                 retry_after: Optional[float] = None) -> None:
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** attempt))
        if retry_after is not None:
            # The server hint is a floor the exponential term rides on
            # top of; jitter below is drawn from the combined delay so
            # its spread scales with the hint rather than staying a
            # fixed sliver of the (possibly much smaller) base.
            delay += max(0.0, retry_after)
        pause = delay + self._rng.uniform(0.0, delay / 2.0)
        self.backoff_slept += pause
        self._sleep(pause)

    def _resilient(self, method: str, path: str,
                   payload: Optional[Dict] = None
                   ) -> Tuple[int, Dict[str, str], object]:
        """One request with transport-level retries only."""
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            try:
                return self._request(method, path, payload)
            except (ConnectionError, OSError, http.client.HTTPException) \
                    as exc:
                last_error = exc
                self.transport_retries += 1
                self._backoff(attempt)
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.max_attempts} "
            f"attempt(s): {last_error}") from last_error

    # -- API -------------------------------------------------------------

    def submit(self, request: Dict) -> Dict:
        """Submit a job, riding out load sheds with Retry-After backoff.

        Returns the job record (already terminal if the result store
        short-circuited).  Raises :class:`ServiceError` on a 400,
        :class:`ServiceSaturated` when every attempt was shed.
        """
        for attempt in range(self.max_attempts):
            status, headers, data = self._resilient(
                "POST", "/v1/jobs", request)
            if status in (200, 202) and isinstance(data, dict):
                return data
            if status in (429, 503):
                self.sheds_seen += 1
                retry_after = _retry_after_seconds(headers, data)
                self._backoff(attempt, retry_after=retry_after)
                continue
            raise ServiceError(_error_text(status, data))
        raise ServiceSaturated(
            f"submission shed {self.max_attempts} time(s); the service "
            f"is saturated")

    def job(self, job_id: str, wait: Optional[float] = None) -> Dict:
        """The job's record; with ``wait``, the server holds the reply
        until the job is terminal or ``wait`` seconds pass."""
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:.3f}"
        status, _headers, data = self._resilient("GET", path)
        if status == 200 and isinstance(data, dict):
            return data
        raise ServiceError(_error_text(status, data))

    def cancel(self, job_id: str) -> Dict:
        status, _headers, data = self._resilient(
            "DELETE", f"/v1/jobs/{job_id}")
        if status == 200 and isinstance(data, dict):
            return data
        raise ServiceError(_error_text(status, data))

    def healthz(self) -> Dict:
        status, _headers, data = self._resilient("GET", "/healthz")
        if status == 200 and isinstance(data, dict):
            return data
        raise ServiceError(_error_text(status, data))

    def metrics(self) -> str:
        status, _headers, data = self._resilient("GET", "/metrics")
        if status == 200 and isinstance(data, str):
            return data
        raise ServiceError(_error_text(status, data))

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict:
        """Hold GETs until the job is terminal; returns the final
        record.  Each hold lasts at most half the socket timeout, so
        the reply always beats the socket."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            record = self.job(job_id,
                              wait=min(remaining, self.timeout / 2.0))
            if record.get("state") in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record.get('state')!r} after "
                    f"{timeout:.0f}s")

    def submit_and_wait(self, request: Dict,
                        timeout: float = 600.0) -> Dict:
        """Submit then wait; raises :class:`JobFailed` on a failed job."""
        record = self.submit(request)
        if record.get("state") not in ("done", "failed", "cancelled"):
            record = self.wait(record["id"], timeout=timeout)
        if record.get("state") == "failed":
            raise JobFailed(
                f"job {record.get('id')} failed: {record.get('error')}")
        return record


def _retry_after_seconds(headers: Dict[str, str],
                         data: object) -> Optional[float]:
    value: object = headers.get("retry-after")
    if value is None and isinstance(data, dict):
        value = data.get("retry_after")
    try:
        return max(0.0, float(value))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _error_text(status: int, data: object) -> str:
    detail = data.get("error") if isinstance(data, dict) else data
    return f"service replied {status}: {detail}"
