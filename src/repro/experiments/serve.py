"""Long-running campaign service behind ``repro serve``.

The service turns the one-shot campaign runner into a local job queue:
scenario/sweep JSON documents are submitted over HTTP and executed
through the existing cost-aware campaign engine, which writes their
finished points to the sharded
:class:`~repro.experiments.store.ResultCache` the same way a foreground
run does: one coalesced ``put_many`` (one directory fsync, written in
the background) per drain round of
:meth:`~repro.experiments.campaign.Campaign.run`.

Endpoints (all JSON, bound to localhost by default):

- ``POST /jobs`` -- submit a scenario or sweep document; returns the
  job id (idempotent: resubmitting the same document returns the same
  job).
- ``GET  /status`` -- service identity, store path, and every known
  job's summary.
- ``GET  /jobs/<id>`` -- one job's progress: state, done/total points,
  an ETA from the campaign cost model, error when failed.
- ``GET  /jobs/<id>/report`` -- a schema-3 report of the points
  completed *so far* (a strict subset while the job runs; ``repro
  diff``/``plot`` align on the intersection).
- ``POST /shutdown`` -- stop the server loop (used by tests and CI).

Durability contract: every submitted job writes an atomic manifest
under ``<shards>/jobs/``, and every finished point reaches the shard
directory while the next drain round runs.  On boot the service
reconciles manifests against shard contents and requeues only the
missing points -- the campaign engine's cache-hit scan skips
everything already on disk -- so a SIGKILL mid-campaign loses at most
the round being written plus the round being drained, and never
recomputes a written point.

Reports served by the service contain scalar metrics only: its
campaigns record no trajectories.  A later foreground ``repro
scenario`` run on the same store reuses those metrics and simulates
each point's replication 0 once to store its series.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping

from repro import __version__
from repro.core.config import PAPER_CONFIG
from repro.experiments.campaign import Campaign, PointResult, PointSpec, _CostModel
from repro.experiments.diff import campaign_report
from repro.experiments.scenario import Scenario
from repro.experiments.store import ResultCache

#: default service port (unassigned range; override with --port)
DEFAULT_PORT = 8037

#: keys accepted by a ``{"kind": "sweep"}`` submission document
_SWEEP_KEYS = frozenset({
    "kind", "name", "workloads", "loads", "allocs", "scheds", "scale",
    "network_mode",
})

_JOB_STATES = ("queued", "running", "done", "failed")


def job_id(doc: Mapping) -> str:
    """The job id for a submission document: a content hash, so
    resubmitting the same document is idempotent."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def build_campaign(doc: Mapping) -> tuple[str, str, Campaign]:
    """Validate a submission document and build its campaign.

    A document with ``"kind": "sweep"`` describes a full-factorial grid
    (``workloads``/``loads`` required, ``allocs``/``scheds``/``scale``/
    ``network_mode`` optional; a missing or ``null`` ``network_mode``
    keeps the config default); anything else must be a scenario
    document (:meth:`Scenario.from_dict`, which rejects unknown keys --
    a scenario sets its network mode under ``config``).

    Returns:
        ``(name, kind, campaign)`` where ``kind`` is ``"scenario"`` or
        ``"sweep"``.

    Raises:
        ValueError: on any malformed document.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("submission must be a JSON object")
    if doc.get("kind") == "sweep":
        unknown = set(doc) - _SWEEP_KEYS
        if unknown:
            raise ValueError(
                f"unknown sweep key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SWEEP_KEYS)}"
            )
        missing = {"workloads", "loads"} - set(doc)
        if missing:
            raise ValueError(f"sweep is missing required key(s) {sorted(missing)}")
        try:
            loads = tuple(float(x) for x in doc["loads"])
        except (TypeError, ValueError):
            raise ValueError(f"bad sweep loads {doc['loads']!r}") from None
        # a sweep document has no ``config`` block: its optional
        # ``network_mode`` is the one config override it carries
        mode = doc.get("network_mode")
        campaign = Campaign.sweep(
            workloads=tuple(doc["workloads"]),
            loads=loads,
            allocs=tuple(doc.get("allocs", ("GABL",))),
            scheds=tuple(doc.get("scheds", ("FCFS",))),
            scale=doc.get("scale", "smoke"),
            config=PAPER_CONFIG if mode is None
            else PAPER_CONFIG.with_(network_mode=mode),
        )
        return str(doc.get("name", "sweep")), "sweep", campaign
    scenario = Scenario.from_dict(doc)
    return scenario.name, "scenario", scenario.campaign()


@dataclass
class Job:
    """One submitted campaign and its live progress."""

    id: str
    name: str
    kind: str  # "scenario" | "sweep"
    doc: dict
    campaign: Campaign
    state: str = "queued"  # one of _JOB_STATES
    error: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    done: int = 0
    #: per-spec results as they land (cache hits and fresh completions)
    results: dict[PointSpec, PointResult] = field(default_factory=dict)
    #: completed work so far in cost-model base units
    cost_done: float = 0.0

    @property
    def total(self) -> int:
        """The job's point count (after campaign dedup)."""
        return len(self.campaign.points)

    def eta_seconds(self) -> float | None:
        """Remaining wall-clock estimate from the campaign cost model.

        ``None`` until at least one point has completed (no observed
        rate yet) and once the job has left the running state.
        """
        if self.state != "running" or self.started_at is None:
            return None
        if self.done == 0 or self.cost_done <= 0.0:
            return None
        elapsed = max(time.time() - self.started_at, 1e-9)
        model = _CostModel()
        cost_total = sum(model.base(s) for s in self.campaign.points)
        rate = self.cost_done / elapsed  # base units per second
        return max(cost_total - self.cost_done, 0.0) / max(rate, 1e-12)

    def summary(self) -> dict:
        """The JSON progress summary served at ``GET /jobs/<id>``."""
        out = {
            "id": self.id,
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "eta_seconds": self.eta_seconds(),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class CampaignService:
    """The job queue: one worker thread over the campaign engine.

    Jobs run one at a time (each campaign fans out internally over
    ``jobs`` workers and writes its finished points to the service's
    store).  All public methods are thread-safe -- the HTTP handler
    pool calls them concurrently with the worker.

    Raises ``ValueError`` when ``store`` exists and is not a directory.
    """

    def __init__(
        self,
        store: Path | str | None = None,
        jobs: int = 1,
        executor: str | None = None,
    ) -> None:
        self.cache = ResultCache(Path(store) if store is not None else None)
        path = self.cache.path
        if path.exists() and not path.is_dir():
            raise ValueError(f"result store {path} is not a directory")
        self.jobs = jobs
        self.executor = executor
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []  # FIFO of queued job ids
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._recover()
        self._worker.start()

    # ------------------------------------------------------------ manifests
    @property
    def jobs_dir(self) -> Path:
        """Where job manifests live (inside the shard directory, so one
        ``--store`` flag moves both)."""
        return self.cache.path / "jobs"

    def _write_manifest(self, job: Job) -> None:
        if not self.cache.disk:
            return
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "id": job.id,
            "name": job.name,
            "kind": job.kind,
            "doc": job.doc,
            "submitted_at": job.submitted_at,
        }
        tmp = self.jobs_dir / f".{job.id}.tmp"
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self.jobs_dir / f"{job.id}.json")

    def _recover(self) -> None:
        """Boot reconciliation: re-admit every manifest, mark jobs whose
        points are all in the store as done, requeue the rest.

        Requeued jobs re-enter the campaign engine, whose cache-hit
        scan skips every point already written -- only missing points
        recompute.
        """
        if not self.cache.disk:
            return
        try:
            manifests = sorted(self.jobs_dir.glob("*.json"))
        except OSError:
            return
        for path in manifests:
            try:
                payload = json.loads(path.read_text())
                doc = payload["doc"]
                name, kind, campaign = build_campaign(doc)
            except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
                continue  # an unreadable manifest never blocks boot
            job = Job(
                id=payload.get("id") or job_id(doc),
                name=name, kind=kind, doc=dict(doc), campaign=campaign,
                submitted_at=float(payload.get("submitted_at", 0.0)),
            )
            missing = [
                s for s in campaign.points
                if PointResult.from_payload(self.cache.get(s.key())) is None
            ]
            if not missing:
                job.state = "done"
                job.done = job.total
                job.finished_at = job.submitted_at
            self._jobs[job.id] = job
            if missing:
                self._queue.append(job.id)

    # ------------------------------------------------------------ public API
    def submit(self, doc: Mapping) -> Job:
        """Admit a submission document; returns its (possibly already
        existing) job.

        Raises:
            ValueError: when the document is malformed.
        """
        jid = job_id(doc)
        with self._lock:
            known = self._jobs.get(jid)
            if known is not None and known.state != "failed":
                return known
        name, kind, campaign = build_campaign(doc)  # may raise ValueError
        job = Job(
            id=jid, name=name, kind=kind, doc=dict(doc), campaign=campaign,
            submitted_at=time.time(),
        )
        self._write_manifest(job)
        with self._wakeup:
            self._jobs[jid] = job
            self._queue.append(jid)
            self._wakeup.notify()
        return job

    def job(self, jid: str) -> Job | None:
        """The job with this id, or ``None``."""
        with self._lock:
            return self._jobs.get(jid)

    def status(self) -> dict:
        """The ``GET /status`` payload."""
        with self._lock:
            jobs = [j.summary() for j in self._jobs.values()]
        return {
            "service": "repro-serve",
            "version": __version__,
            "store": str(self.cache.path),
            "uptime_seconds": time.time() - self.started_at,
            "jobs": jobs,
        }

    def job_report(self, jid: str) -> dict | None:
        """A schema-3 report of the job's completed points so far.

        While the job runs this is a strict subset of the final grid;
        ``repro diff``/``plot`` align on the intersection (warn, never
        exit 2).  Served points come from the in-memory result map
        first, then the store, so a reconciled ``done`` job reports
        from its shards without recomputing anything.
        """
        job = self.job(jid)
        if job is None:
            return None
        completed: dict[PointSpec, PointResult] = {}
        with self._lock:
            known = dict(job.results)
        for spec in job.campaign.points:
            hit = known.get(spec)
            if hit is None:
                hit = PointResult.from_payload(self.cache.get(spec.key()))
            if hit is not None:
                completed[spec] = hit
        report = campaign_report(
            tuple(completed), completed, name=job.name, kind=job.kind,
        )
        report["job"] = job.summary()
        return report

    def close(self) -> None:
        """Stop the worker after its current job."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        self._worker.join(timeout=30.0)

    # --------------------------------------------------------------- worker
    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                job = self._jobs[self._queue.pop(0)]
                job.state = "running"
                job.started_at = time.time()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        model = _CostModel()

        def on_point(
            spec: PointSpec, result: PointResult, done: int, total: int
        ) -> None:
            with self._lock:
                job.results[spec] = result
                job.done = done
                job.cost_done += model.base(spec)

        try:
            job.campaign.run(
                jobs=self.jobs,
                cache=self.cache,
                executor_kind=self.executor,
                on_point=on_point,
            )
            with self._lock:
                job.state = "done"
                job.finished_at = time.time()
        except Exception as exc:  # noqa: BLE001 - a job must not kill the worker
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the service; JSON in, JSON out."""

    # set by make_server()/serve(): the shared CampaignService
    service: CampaignService
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:  # noqa: D102 - stdlib hook
        pass  # route access logs to /dev/null; the CLI prints its own

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: D102 - stdlib dispatch name
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["status"]:
            self._reply(200, self.service.status())
            return
        if len(parts) >= 2 and parts[0] == "jobs":
            jid = parts[1]
            if len(parts) == 2:
                job = self.service.job(jid)
                if job is None:
                    self._reply(404, {"error": f"unknown job {jid!r}"})
                    return
                self._reply(200, job.summary())
                return
            if len(parts) == 3 and parts[2] == "report":
                report = self.service.job_report(jid)
                if report is None:
                    self._reply(404, {"error": f"unknown job {jid!r}"})
                    return
                self._reply(200, report)
                return
        self._reply(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: D102 - stdlib dispatch name
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["shutdown"]:
            self._reply(200, {"ok": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if parts != ["jobs"]:
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up;
                # the body cannot be framed, so drop the connection too
                self.close_connection = True
                raise ValueError(f"negative Content-Length {length}")
            doc = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        try:
            job = self.service.submit(doc)
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, job.summary())


def make_server(
    service: CampaignService | None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port``, routing to ``service``.

    The caller owns the loop: run ``serve_forever()`` (blocking) or on
    a thread, and ``server_close()`` + ``service.close()`` afterwards.
    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  With ``service=None`` the socket binds
    first and the service is attached afterwards as
    ``server.RequestHandlerClass.service`` (what :func:`serve` does).
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(
    store: Path | str | None = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    jobs: int = 1,
    executor: str | None = None,
    progress=None,
    ready: "threading.Event | None" = None,
) -> None:
    """Run the campaign service until interrupted (the CLI entry point).

    The socket is bound before the service recovers or starts any job,
    so an address it cannot listen on raises ``ValueError`` having
    started no work.  ``ready`` (when given) is set once the socket is
    bound and the boot reconciliation has run -- tests use it to avoid
    polling for startup.
    """
    try:
        server = make_server(None, host=host, port=port)
    except (OSError, OverflowError) as exc:
        raise ValueError(f"cannot listen on {host}:{port}: {exc}") from None
    try:
        service = CampaignService(store=store, jobs=jobs, executor=executor)
    except BaseException:
        server.server_close()
        raise
    server.RequestHandlerClass.service = service
    note = progress if progress is not None else (lambda _msg: None)
    bound_host, bound_port = server.server_address[:2]
    note(
        f"repro-serve {__version__} listening on "
        f"http://{bound_host}:{bound_port} (store: {service.cache.path})"
    )
    queued = [j for j in service.status()["jobs"] if j["state"] == "queued"]
    if queued:
        note(f"recovered {len(queued)} unfinished job(s); resuming")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        note("interrupted; shutting down (finished points are already stored)")
    finally:
        server.server_close()
        service.close()
