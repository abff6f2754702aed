"""``ppcmem2 serve``: the long-running envelope-checking daemon.

A stdlib-only HTTP service (``http.server.ThreadingHTTPServer``) in
front of one ``EnvelopeEngine`` with a persistent ``VerdictCache``:

* ``POST /v1/jobs`` submits a batch -- litmus sources and/or a generator
  spec -- onto an async job queue; a background scheduler thread drains
  the queue, running each batch through ``EnvelopeEngine.run_batch``
  (which fans cache misses across worker processes, one per test);
* ``GET /v1/jobs/<id>`` polls status, ``GET /v1/jobs/<id>/results``
  fetches the verdicts once done;
* ``POST /v1/query`` answers one test synchronously (a cache hit
  returns in microseconds -- the "millionth user asking about MP+syncs"
  path);
* ``GET /v1/health`` / ``GET /v1/stats`` report liveness, cache
  hit/miss counters and queue depths.

Shutdown is graceful: SIGTERM/SIGINT stop the HTTP loop, drain-stop the
scheduler, and terminate-and-join any in-flight corpus worker pools via
``concurrency.parallel.shutdown_active_pools`` -- the same handler that
keeps Ctrl-C from leaking exploration children at the CLI.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from ..concurrency.search import SearchConfig
from ..isa.assembler import AssemblerError
from ..litmus.parser import LitmusSyntaxError, parse_litmus
from .cache import SCHEMA_VERSION, VerdictCache
from .engine import EngineRequest, EnvelopeEngine

#: Default bind address of the service.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest request body the daemon accepts; a longer declared
#: ``Content-Length`` is refused with 413 before any of it is read.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest generated suite one ``gen`` spec may ask for.
MAX_GEN_SIZE = 1000

#: Largest thread count and internal-edge run a ``gen`` spec may ask
#: for: the caps the solver-backed oracle is validated on.  The
#: generator's sampling populations grow linearly with both.
MAX_GEN_THREADS = 6
MAX_GEN_RUN = 4

#: The fields of a ``gen`` spec and their defaults.
_GEN_DEFAULTS = {"seed": 0, "size": 20, "max_threads": 4, "max_run": 2}


class BadRequest(Exception):
    """A request body the daemon refuses: HTTP ``status`` plus a message.

    ``close`` is set when the body was left unread: the connection
    cannot be reused, since the unread bytes would parse as the next
    request.
    """

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.close = close


def _json_object(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _source_of(item: Dict[str, Any], what: str) -> str:
    """The litmus ``source`` of a request item, or ``ValueError``."""
    if "source" not in item:
        raise ValueError(f'{what} has no "source"')
    return item["source"]


def _generated_tests(gen: Any) -> list:
    """The suite a ``gen`` spec describes, or ``ValueError`` refusing it."""
    from ..litmus.diy import generate

    gen = _json_object(gen, '"gen"')
    unknown = set(gen) - set(_GEN_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown gen fields: {sorted(unknown)}")
    spec = dict(_GEN_DEFAULTS, **gen)
    for name, value in spec.items():
        # ``bool`` is an ``int`` subclass: ``true`` would run as 1.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"gen {name} must be an integer, not {value!r}")
    if not 1 <= spec["size"] <= MAX_GEN_SIZE:
        raise ValueError(
            f"gen size must be between 1 and {MAX_GEN_SIZE}, "
            f"not {spec['size']}"
        )
    for name, ceiling in (("max_threads", MAX_GEN_THREADS),
                          ("max_run", MAX_GEN_RUN)):
        if spec[name] > ceiling:
            raise ValueError(
                f"gen {name} must be at most {ceiling}, not {spec[name]}"
            )
    try:
        return generate(
            spec["seed"],
            spec["size"],
            max_threads=spec["max_threads"],
            max_run=spec["max_run"],
        )
    except RuntimeError as exc:  # the caps admit too few distinct shapes
        raise ValueError(f"gen spec cannot be satisfied: {exc}") from None


@dataclass
class Job:
    """One submitted batch and its lifecycle."""

    id: str
    state: str = "queued"  # queued | running | done | failed
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    test_count: int = 0
    requests: List[EngineRequest] = field(default_factory=list)
    verdicts: List[dict] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    jobs_used: int = 0
    error: Optional[str] = None

    def summary(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "tests": self.test_count,
        }
        if self.state in ("done", "failed"):
            info["seconds"] = round(
                (self.finished or 0.0) - (self.started or 0.0), 6
            )
            info["cache_hits"] = self.hits
            info["cache_misses"] = self.misses
            info["workers"] = self.jobs_used
        if self.error:
            info["error"] = self.error
        return info


class ServiceDaemon:
    """Engine + cache + job queue behind an HTTP front-end."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        cache_path: str = ":memory:",
        jobs: Optional[int] = None,
    ):
        self.cache = VerdictCache(cache_path)
        self.engine = EnvelopeEngine(cache=self.cache)
        self.worker_budget = jobs
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._job_counter = 0
        self._stop = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        self._server = _Server((host, port), _Handler)
        self._server.daemon_ref = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self):
        """The bound (host, port) -- port is resolved when 0 was asked."""
        return self._server.server_address[:2]

    def start_scheduler(self) -> None:
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="ppcmem2-scheduler", daemon=True
        )
        self._scheduler.start()

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT (blocking; the CLI entry point)."""
        if install_signal_handlers:
            # The handler must not call the blocking ``shutdown`` from
            # the thread running ``serve_forever`` (it would deadlock),
            # so it hands off to a one-shot thread.
            def _on_signal(signum, frame):
                threading.Thread(target=self.shutdown, daemon=True).start()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start_scheduler()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the HTTP loop, the scheduler, and any worker children."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._scheduler is not None and self._scheduler.is_alive():
            self._scheduler.join(timeout=10)
        from ..concurrency.parallel import shutdown_active_pools

        shutdown_active_pools()
        self.cache.close()

    # ------------------------------------------------------------------
    # Job queue
    # ------------------------------------------------------------------

    def submit(self, body: Dict[str, Any]) -> Job:
        """Queue a batch from a decoded ``POST /v1/jobs`` body."""
        requests = self._requests_from_body(body)
        if not requests:
            raise ValueError("empty job: no tests and no gen spec")
        with self._jobs_lock:
            self._job_counter += 1
            job = Job(
                id=f"job-{self._job_counter}",
                submitted=time.time(),
                test_count=len(requests),
                requests=requests,
            )
            self._jobs[job.id] = job
        self._queue.put(job.id)
        return job

    def _requests_from_body(self, body: Dict[str, Any]) -> List[EngineRequest]:
        # Validated before anything is generated or queued: a bad option
        # is the submitter's 400, not a failed job.
        search = SearchConfig.from_options(
            _json_object(body.get("options") or {}, '"options"')
        )
        tests = body.get("tests") or []
        if not isinstance(tests, list):
            raise ValueError('"tests" must be a JSON array')
        requests: List[EngineRequest] = []
        for index, item in enumerate(tests):
            what = f"tests[{index}]"
            item = _json_object(item, what)
            request = EngineRequest(
                _source_of(item, what), item.get("name"), search
            )
            try:
                parse_litmus(request.source)
            except LitmusSyntaxError as exc:
                raise ValueError(f"{what}: bad litmus source: {exc}") from None
            requests.append(request)
        gen = body.get("gen")
        if gen:
            requests.extend(
                EngineRequest(test.source, test.name, search)
                for test in _generated_tests(gen)
            )
        return requests

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def job_counts(self) -> Dict[str, int]:
        with self._jobs_lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self.job(job_id)
            if job is None:  # pragma: no cover - jobs are never deleted
                continue
            job.state = "running"
            job.started = time.time()
            try:
                batch = self.engine.run_batch(
                    job.requests, jobs=self.worker_budget
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                continue
            job.verdicts = [
                dict(verdict.to_payload(), cached=verdict.cached)
                for verdict in batch.verdicts
            ]
            job.hits = batch.hits
            job.misses = batch.misses
            job.jobs_used = batch.jobs
            job.state = "done"
            job.finished = time.time()

    # ------------------------------------------------------------------
    # Synchronous query
    # ------------------------------------------------------------------

    def query(self, body: Dict[str, Any]) -> Dict[str, Any]:
        request = EngineRequest.from_options(
            source=_source_of(body, "query"),
            name=body.get("name"),
            options=_json_object(body.get("options") or {}, '"options"'),
        )
        try:
            verdict = self.engine.run_request(request)
        except (LitmusSyntaxError, AssemblerError) as exc:
            raise ValueError(f"bad litmus source: {exc}") from None
        return dict(verdict.to_payload(), cached=verdict.cached)

    def stats(self) -> Dict[str, Any]:
        return {
            "cache": self.cache.stats(),
            "jobs": self.job_counts(),
            "queue_depth": self._queue.qsize(),
            "worker_budget": self.worker_budget,
        }


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    daemon_ref: Optional[ServiceDaemon] = None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the second
    # waits for the client's delayed ACK on every keep-alive response.
    disable_nagle_algorithm = True

    # Quiet by default: the daemon logs submissions, not every poll.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def daemon(self) -> ServiceDaemon:
        return self.server.daemon_ref  # type: ignore[attr-defined]

    def _send(
        self, code: int, payload: Dict[str, Any], close: bool = False
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        """The request body as a JSON object, or ``BadRequest``.

        A malformed or negative ``Content-Length`` is a 400 and one above
        ``MAX_BODY_BYTES`` a 413, both refused without reading the body.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise BadRequest(
                400, f"bad Content-Length {declared!r}", close=True
            )
        if length > MAX_BODY_BYTES:
            raise BadRequest(
                413,
                f"body of {length} bytes exceeds {MAX_BODY_BYTES} bytes",
                close=True,
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # includes JSON and UTF-8 decode errors
            raise BadRequest(400, f"bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise BadRequest(400, "request body must be a JSON object")
        return body

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "health"]:
            self._send(
                200,
                {
                    "ok": True,
                    "schema": SCHEMA_VERSION,
                    "cache_entries": len(self.daemon.cache),
                },
            )
            return
        if parts == ["v1", "stats"]:
            self._send(200, self.daemon.stats())
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.daemon.job(parts[2])
            if job is None:
                self._send(404, {"error": f"no such job {parts[2]!r}"})
                return
            if len(parts) == 3:
                self._send(200, job.summary())
                return
            if parts[3] == "results":
                if job.state != "done":
                    self._send(
                        409, dict(job.summary(), error="job not done")
                    )
                    return
                self._send(
                    200, dict(job.summary(), verdicts=job.verdicts)
                )
                return
        self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            body = self._read_body()
        except BadRequest as exc:
            self._send(exc.status, {"error": str(exc)}, close=exc.close)
            return
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts == ["v1", "jobs"]:
                job = self.daemon.submit(body)
                self._send(202, job.summary())
                return
            if parts == ["v1", "query"]:
                self._send(200, self.daemon.query(body))
                return
        except (KeyError, ValueError, TypeError) as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(404, {"error": f"unknown path {self.path!r}"})


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_path: str = ":memory:",
    jobs: Optional[int] = None,
) -> int:
    """CLI entry point: run the daemon until SIGTERM/SIGINT."""
    daemon = ServiceDaemon(
        host=host,
        port=port,
        cache_path=cache_path,
        jobs=jobs,
    )
    bound_host, bound_port = daemon.address
    print(
        f"ppcmem2 serve: listening on http://{bound_host}:{bound_port} "
        f"(cache {cache_path}, schema v{SCHEMA_VERSION})",
        flush=True,
    )
    daemon.serve_forever()
    print("ppcmem2 serve: shut down cleanly", flush=True)
    return 0
