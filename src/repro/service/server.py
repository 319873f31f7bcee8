"""The study service: a stdlib HTTP front-end over the job store + workers.

No third-party dependencies — :class:`http.server.ThreadingHTTPServer` serves
the API, so every request (including long-lived streams) gets its own thread
while the :class:`~repro.service.worker.WorkerPool` drains the queue in the
background.

API (all JSON; errors are ``{"error": ...}`` with a 4xx/5xx status):

========  ==============================  ========================================
method    path                            effect
========  ==============================  ========================================
GET       ``/v1/health``                  server liveness + queue counters
GET       ``/v1/jobs``                    list all jobs (oldest first)
POST      ``/v1/campaigns``               submit a campaign DAG (same dedupe and
                                          job lifecycle; see docs/CAMPAIGNS.md)
POST      ``/v1/jobs``                    submit a study (``201``; ``200`` +
                                          ``deduplicated: true`` for an identical
                                          resubmission)
GET       ``/v1/jobs/<id>``               inspect one job
GET       ``/v1/jobs/<id>/events``        polling fallback: progress events,
                                          ``?since=SEQ`` filters to newer ones
GET       ``/v1/jobs/<id>/stream``        chunked JSONL progress stream; one event
                                          per line, closed after a terminal event
                                          (``?since=SEQ`` replays from there)
GET       ``/v1/jobs/<id>/result``        final StudyResults JSON (``409`` until
                                          the job is done)
POST      ``/v1/jobs/<id>/cancel``        cancel (queued: immediate; running: at
                                          the next run boundary)
========  ==============================  ========================================

:class:`StudyService` composes the pieces and owns the lifecycle: on
:meth:`~StudyService.start` it removes any stale shutdown marker, *recovers*
jobs a dead server left ``running`` (they re-queue and resume from their
checkpoints), then starts workers and the HTTP listener; on
:meth:`~StudyService.stop` it stops accepting, lets workers reach a run
boundary, and writes ``shutdown.marker`` so operators can tell a clean stop
from a crash.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import __version__, telemetry
from repro.service.schemas import (
    TERMINAL_EVENTS,
    SubmissionError,
    validate_campaign_submission,
    validate_submission,
)
from repro.service.store import JobStore, UnknownJobError
from repro.service.worker import DEFAULT_CHECKPOINT_EVERY, WorkerPool
from repro.utils.durable import atomic_write
from repro.utils.logging import get_logger

__all__ = ["SHUTDOWN_MARKER", "StudyService"]

_LOGGER = get_logger("service")

#: file the service writes on clean shutdown (absent after a crash)
SHUTDOWN_MARKER = "shutdown.marker"

#: seconds between progress-file polls while a stream has nothing new to send
_STREAM_POLL_SECONDS = 0.05

#: how often the listener looks for a shutdown request: ``stop()`` waits this out
_SHUTDOWN_POLL_SECONDS = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`StudyService` (``self.service``)."""

    # chunked transfer-encoding (the stream endpoint) needs HTTP/1.1 framing
    protocol_version = "HTTP/1.1"
    service: "StudyService"  # injected by StudyService via a subclass

    # ------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOGGER.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SubmissionError("empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SubmissionError(f"request body is not valid JSON: {exc}") from exc

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # ------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, query = self._route()
        try:
            if path == "/v1/health":
                return self._send_json(self.service.health())
            if path == "/v1/metrics":
                return self._send_metrics()
            if path == "/v1/jobs":
                return self._send_json(
                    {"jobs": [r.to_dict() for r in self.service.store.list()]}
                )
            parts = path.split("/")
            # /v1/jobs/<id>[/events|/stream|/result]
            if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "jobs":
                job_id = parts[3]
                tail = parts[4] if len(parts) > 4 else ""
                if tail == "":
                    payload = self.service.store.get(job_id).to_dict()
                    payload["metrics"] = self.service.store.read_metrics(job_id)
                    return self._send_json(payload)
                if tail == "events":
                    since = int(query.get("since", -1))
                    events = self.service.store.events(job_id, since=since)
                    state = self.service.store.get(job_id).state
                    return self._send_json({"job": job_id, "state": state, "events": events})
                if tail == "stream":
                    return self._stream(job_id, since=int(query.get("since", -1)))
                if tail == "result":
                    return self._result(job_id)
            return self._send_error_json(f"no such endpoint: {path}", 404)
        except UnknownJobError as exc:
            return self._send_error_json(f"unknown job: {exc.args[0]}", 404)
        except (ValueError, SubmissionError) as exc:
            return self._send_error_json(str(exc), 400)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _ = self._route()
        try:
            if path == "/v1/jobs":
                spec = validate_submission(self._read_body())
                record, deduplicated = self.service.store.submit(spec)
                payload = dict(record.to_dict(), deduplicated=deduplicated)
                return self._send_json(payload, status=200 if deduplicated else 201)
            if path == "/v1/campaigns":
                # A campaign is a job whose spec carries the DAG; it shares
                # the store, queue, progress stream and result endpoints.
                spec = validate_campaign_submission(self._read_body())
                record, deduplicated = self.service.store.submit(spec)
                payload = dict(record.to_dict(), deduplicated=deduplicated)
                return self._send_json(payload, status=200 if deduplicated else 201)
            parts = path.split("/")
            if len(parts) == 5 and parts[1] == "v1" and parts[2] == "jobs" and parts[4] == "cancel":
                record = self.service.store.request_cancel(parts[3])
                return self._send_json(record.to_dict())
            return self._send_error_json(f"no such endpoint: {path}", 404)
        except UnknownJobError as exc:
            return self._send_error_json(f"unknown job: {exc.args[0]}", 404)
        except SubmissionError as exc:
            return self._send_error_json(str(exc), 400)

    # ------------------------------------------------------------ endpoints
    def _send_metrics(self) -> None:
        """Prometheus text exposition of the process-wide registry."""
        body = self.service.metrics_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _result(self, job_id: str) -> None:
        record = self.service.store.get(job_id)
        if record.state != "done":
            return self._send_error_json(
                f"job {job_id} is {record.state}, not done — no result yet"
                + (f" (error: {record.error})" if record.error else ""),
                409,
            )
        body = self.service.store.result_path(job_id).read_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream(self, job_id: str, since: int = -1) -> None:
        """Chunked JSONL progress stream, closed after a terminal event.

        Existing events (``seq > since``) are replayed first, then the
        progress file is tailed; each event is one ``\\n``-terminated JSON
        line in its own chunk, so clients see it the moment it is flushed.
        """
        store = self.service.store
        store.get(job_id)  # 404 before committing to a stream
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = since
        try:
            while True:
                events = store.events(job_id, since=cursor)
                for event in events:
                    cursor = max(cursor, int(event.get("seq", cursor)))
                    self._write_chunk((json.dumps(event) + "\n").encode())
                    if event.get("event") in TERMINAL_EVENTS:
                        self._write_chunk(b"")
                        return
                if self.service.stopping.is_set():
                    self._write_chunk(b"")
                    return
                time.sleep(_STREAM_POLL_SECONDS)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-stream; nothing to clean up

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()


class StudyService:
    """One running study server: store + worker pool + HTTP listener."""

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 1,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        enable_metrics: bool = True,
    ) -> None:
        self.root = Path(root)
        #: switch telemetry metrics on at start() so /v1/metrics is live and
        #: per-run counter deltas flow into job metrics snapshots
        self.enable_metrics = enable_metrics
        self.store = JobStore(self.root)
        self.pool = WorkerPool(self.store, n_workers=n_workers, checkpoint_every=checkpoint_every)
        self.stopping = threading.Event()
        self._started_at: Optional[float] = None
        self._owns_metrics = False

        handler = type("BoundHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._http_thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- address
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when ``port=0`` was asked."""
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "StudyService":
        """Recover interrupted jobs, start workers and the HTTP listener."""
        marker = self.root / SHUTDOWN_MARKER
        if marker.exists():
            marker.unlink()
        if self.enable_metrics and not telemetry.metrics_enabled():
            # export_env=True (the default) so executor worker *processes*
            # (process backend) inherit the switch and attribute per-run
            # counters; stop() undoes exactly what this enabled.
            telemetry.configure(metrics=True)
            self._owns_metrics = True
        recovered = self.store.recover()
        self._started_at = time.time()
        # server.json advertises the bound address so out-of-process tooling
        # (the smoke script, operators) can find a --port 0 server
        atomic_write(
            self.root / "server.json",
            json.dumps(
                {"url": self.url, "host": self.address[0], "port": self.address[1],
                 "version": __version__, "started_at": self._started_at,
                 "recovered_jobs": recovered},
                indent=2,
            ),
        )
        self.pool.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_SECONDS},
            name="service-http",
            daemon=True,
        )
        self._http_thread.start()
        _LOGGER.info("study service listening on %s (root=%s)", self.url, self.root)
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish the current checkpoint.

        Workers exit at the next run boundary (their in-flight job re-queues
        with all completed runs checkpointed); then the clean-shutdown marker
        is written.  Idempotent.
        """
        if self.stopping.is_set():
            return
        self.stopping.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.pool.stop(timeout=timeout)
        if self._owns_metrics:
            telemetry.configure(metrics=False)
            self._owns_metrics = False
        atomic_write(
            self.root / SHUTDOWN_MARKER,
            json.dumps({"stopped_at": time.time(), "clean": True}) + "\n",
        )
        _LOGGER.info("study service stopped cleanly (marker: %s)", self.root / SHUTDOWN_MARKER)

    def wait(self, poll_seconds: float = 0.2) -> None:
        """Block until :meth:`stop` is called (the CLI serve loop)."""
        while not self.stopping.is_set():
            self.stopping.wait(poll_seconds)

    # ------------------------------------------------------------- health
    def health(self) -> Dict[str, Any]:
        records = self.store.list()
        by_state: Dict[str, int] = {}
        for record in records:
            by_state[record.state] = by_state.get(record.state, 0) + 1
        uptime = 0.0 if self._started_at is None else time.time() - self._started_at
        return {
            "status": "stopping" if self.stopping.is_set() else "ok",
            "version": __version__,
            "url": self.url,
            "root": str(self.root),
            "workers": len(self.pool.workers),
            "jobs": {"total": len(records), **by_state},
            "uptime_seconds": uptime,
            "uptime_s": uptime,
            "queue_depth": by_state.get("queued", 0),
        }

    def metrics_text(self) -> str:
        """The registry in Prometheus text form, service gauges refreshed.

        Queue/uptime gauges are point-in-time observations set at scrape
        time; everything else in the registry (session, reservoir, transport,
        checkpoint series) accumulates as the in-process workers run studies.
        """
        registry = telemetry.metrics()
        health = self.health()
        registry.gauge(
            "repro_service_uptime_seconds", help="seconds since the service started"
        ).set(health["uptime_s"])
        registry.gauge(
            "repro_service_queue_depth", help="jobs waiting in the queue"
        ).set(health["queue_depth"])
        registry.gauge(
            "repro_service_workers", help="worker threads draining the queue"
        ).set(health["workers"])
        jobs_gauge = registry.gauge("repro_service_jobs", help="jobs by state")
        for state, count in health["jobs"].items():
            if state != "total":
                jobs_gauge.labels(state=state).set(count)
        return registry.render_prometheus()
