"""Tiny stdlib client of the study service (``urllib.request`` only).

Used by the tests, the CI smoke script and the examples; doubles as living
documentation of the wire protocol::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8517")
    job = client.submit(study_name="sweep", config=config.to_dict(),
                        configurations=[{"hidden_size": 8}, {"hidden_size": 32}])
    for event in client.stream(job["id"]):
        print(event["event"], event.get("run", ""))
    results = client.result(job["id"])        # StudyResults payload

Every method raises :class:`ServiceError` (carrying the HTTP status and the
server's ``error`` message) on non-2xx responses.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request the server rejected (carries ``status`` and ``message``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Blocking JSON client over one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------ plumbing
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, self._error_message(exc)) from exc

    @staticmethod
    def _error_message(exc: urllib.error.HTTPError) -> str:
        try:
            return json.loads(exc.read().decode()).get("error", str(exc))
        except Exception:  # noqa: BLE001 - best-effort error decoding
            return str(exc)

    # ------------------------------------------------------------ endpoints
    def health(self) -> Dict[str, Any]:
        """Server liveness: ``status``, ``version``, ``uptime_s``,
        ``queue_depth``, worker count and per-state job counters."""
        return self._request("GET", "/v1/health")

    def metrics(self) -> str:
        """The server's ``/v1/metrics`` Prometheus text exposition, raw."""
        request = urllib.request.Request(self.base_url + "/v1/metrics")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, self._error_message(exc)) from exc

    def submit(
        self,
        study_name: str,
        config: Dict[str, Any],
        configurations: Optional[List[Dict[str, Any]]] = None,
        name_key: Optional[str] = None,
        backend: Optional[str] = None,
        max_workers: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit a study; returns the job record (``deduplicated`` flags an
        identical submission that mapped onto an existing job).

        ``backend=None`` sends no backend, so the service's default applies:
        the ``process`` backend, whose ``run_finished`` events arrive in
        completion order.  ``"serial"`` runs the study in the service process.
        """
        payload: Dict[str, Any] = {
            "study_name": study_name,
            "config": config,
            "configurations": configurations if configurations is not None else [{}],
        }
        if name_key is not None:
            payload["name_key"] = name_key
        if backend is not None:
            payload["backend"] = backend
        if max_workers is not None:
            payload["max_workers"] = max_workers
        if checkpoint_every is not None:
            payload["checkpoint_every"] = checkpoint_every
        return self._request("POST", "/v1/jobs", payload)

    def submit_campaign(self, campaign: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a campaign spec document (``docs/CAMPAIGNS.md`` format).

        The returned job record is a normal job — poll/stream/result through
        the same endpoints; ``deduplicated`` flags a spec whose campaign
        fingerprint matched an existing job.
        """
        return self._request("POST", "/v1/campaigns", campaign)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = -1) -> List[Dict[str, Any]]:
        """Polling fallback: progress events with ``seq > since``."""
        return self._request("GET", f"/v1/jobs/{job_id}/events?since={since}")["events"]

    def stream(self, job_id: str, since: int = -1) -> Iterator[Dict[str, Any]]:
        """Yield progress events live from the chunked JSONL stream.

        The iterator ends when the server closes the stream — after a
        terminal event (``done``/``failed``/``cancelled``) or on server
        shutdown.  ``urllib`` undoes the chunked transfer-encoding, so each
        iteration reads one JSON line.
        """
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/stream?since={since}"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, self._error_message(exc)) from exc

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's StudyResults payload (``409`` until done)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    # ----------------------------------------------------------- synchrony
    def wait(
        self, job_id: str, timeout: float = 300.0, poll_seconds: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its record.

        Raises :class:`TimeoutError` if the job is still live after
        ``timeout`` seconds — it keeps running server-side regardless.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout:.0f}s"
                )
            time.sleep(poll_seconds)
