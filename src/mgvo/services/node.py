"""A grid-box node: one service per hospital site.

The node owns the site's store, anonymizes every file on ingest (raw ids
never reach the log), answers federated queries by executing its residual
locally and forwarding the rest, and runs algorithm tasks against its own
pixels. The only things that ever leave the box are anonymized metadata
rows, result counts, and files a clinician explicitly retrieves.

Transports are pluggable: real TCP in production, an in-process simulated
network in tests. A transport exposes ``call(address, request, timeout_ms)``
and a ``concurrent`` flag saying whether the node may use threads of its
own: to fan a query out, and to drain a job in the background. Without it
the caller drains jobs (``drain_job``), so the simulator's virtual clock
sees one call at a time.
"""

from __future__ import annotations

import collections
import datetime
import hashlib
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from . import auth, wire
from .registry import SiteDescriptor
from .. import dicom, federation, mgql
from ..algorithms import (
    JOB_DISPATCHED,
    JOB_RUNNING,
    TASK_FAILED,
    TASK_PENDING,
    TASK_RUNNING,
    AlgorithmDescriptor,
    JobRecord,
    advance_job,
    check_task_outcome,
    new_job_id,
    run_task,
    schedule_job,
    validate_descriptor,
)
from ..errors import (
    BadFrame,
    BadParams,
    ConnectionRefused,
    DicomError,
    InvariantViolation,
    MgError,
    NotFound,
    ParseError,
    RemoteError,
    RemoteUnreachable,
    Timeout,
    UnknownAlgorithm,
    UnknownImage,
)
from ..model import (
    SITE_ID_RE,
    GlobalFileId,
    ImageRecord,
    PatientRecord,
    derive_age,
    parse_gfid,
    pseudonymize,
)
from ..store import BlobRef, SiteStore

_REQUIRED_CONFIG = ("site_id", "listen", "registry", "data_dir", "site_secret", "vo_secret")

#: How many finished jobs a node keeps for ``JobStatus``, the most recently
#: finished first; unfinished jobs are always kept. Older finished jobs answer
#: ``NotFound``, and their records stay in the site's log.
RETAINED_FINISHED_JOBS = 1024

#: The value of each optional config key that a config leaves out.
CONFIG_DEFAULTS = {
    "query_timeout_ms": 5000,
    "poll_interval_s": 10,
    "token_ttl_s": auth.DEFAULT_TTL_S,
    "public": True,
}


def _as_bool(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


class Node:
    def __init__(self, config: dict, transport, clock=None, rng=None):
        for key in _REQUIRED_CONFIG:
            if not config.get(key):
                raise InvariantViolation(f"node config lacks {key!r}")
        config = {**CONFIG_DEFAULTS, **config}
        self.site_id = str(config["site_id"])
        if not SITE_ID_RE.match(self.site_id):
            raise InvariantViolation(f"bad site_id {self.site_id!r}")
        self.listen = str(config["listen"])
        self.registry_address = str(config["registry"])
        self.site_secret = _as_bytes(config["site_secret"])
        self.vo_secret = _as_bytes(config["vo_secret"])
        self.query_timeout_ms = int(config["query_timeout_ms"])
        self.token_ttl_s = int(config["token_ttl_s"])
        self.display_name = str(config.get("display_name") or self.site_id)
        self.public = _as_bool(config["public"])

        self.store = SiteStore(config["data_dir"])
        self.transport = transport
        self.clock = clock or auth.SystemClock()
        self.rng = rng if rng is not None else random.SystemRandom()

        self._topo_lock = threading.RLock()
        self._jobs_lock = threading.RLock()
        self.topology: dict = {self.site_id: self._own_descriptor()}
        self.algorithms: dict = {}
        self.jobs: dict = {}
        self._finished: collections.deque = collections.deque()  # job ids, oldest first
        # Unfinished first, then by finish time; the log lists jobs oldest
        # first, and the sort is stable, so of jobs that finished in the same
        # millisecond the older counts as finished first.
        jobs = [JobRecord.from_dict(data) for data in self.store.jobs().values()]
        for job in sorted(jobs, key=lambda j: (j.finished_at_ms is not None,
                                               j.finished_at_ms or 0)):
            self._keep(job)
        self._token: Optional[str] = None
        self._token_expires_s = 0

    def _own_descriptor(self) -> SiteDescriptor:
        return SiteDescriptor(self.site_id, self.display_name, self.listen, self.public)

    # --- registry traffic -------------------------------------------------------

    def _service_token(self) -> str:
        """The node's own identity for node-to-node and node-to-registry calls."""
        now_s = self.clock.now_ms() // 1000
        if self._token is None or now_s >= self._token_expires_s - 60:
            self._token = auth.issue_token(self.vo_secret, f"node:{self.site_id}",
                                           ["clinician"], self.clock.now_ms(),
                                           self.token_ttl_s)
            self._token_expires_s = now_s + self.token_ttl_s
        return self._token

    def _call(self, address: str, op: str, body: dict,
              session: Optional[str] = None) -> dict:
        request = wire.make_request(op, session or self._service_token(), body)
        return wire.unwrap(self.transport.call(address, request,
                                               timeout_ms=self.query_timeout_ms))

    def register_with_registry(self) -> None:
        self._call(self.registry_address, "RegisterSite", {
            "site_id": self.site_id, "display_name": self.display_name,
            "address": self.listen, "public": self.public,
        })
        self.refresh_topology()

    def refresh_topology(self) -> bool:
        """Pull the site directory and algorithm catalog.

        Keeps the cache when the registry does not answer or any entry of its
        answer is malformed.
        """
        try:
            body = self._call(self.registry_address, "ListSites", {})
        except MgError:
            return False
        try:
            sites = [SiteDescriptor.from_dict(entry) for entry in body.get("sites", [])]
            algorithms = {entry["algo_id"]: AlgorithmDescriptor.from_dict(entry)
                          for entry in body.get("algorithms", [])}
        except (KeyError, TypeError, MgError):
            return False
        with self._topo_lock:
            topology = {self.site_id: self._own_descriptor()}
            topology.update((desc.site_id, desc) for desc in sites)
            self.topology = topology
            self.algorithms = algorithms
        return True

    def _topology_snapshot(self) -> list:
        with self._topo_lock:
            return list(self.topology.values())

    # --- wire entrypoint ------------------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        try:
            wire.check_request(request)
            op = request["op"]
            # No operation runs, and no body is even inspected, without a
            # valid session.
            claims = auth.require_session(request.get("session"), self.vo_secret,
                                          self.clock.now_ms())
            body = request["body"]
            if op == "Add":
                return wire.ok_response(self._op_add(claims, body))
            if op == "Retrieve":
                return wire.ok_response(self._op_retrieve(claims, body))
            if op == "Query":
                return wire.ok_response(self._op_query(claims, body))
            if op == "AddAlgorithm":
                return wire.ok_response(self._op_add_algorithm(request.get("session"), body))
            if op == "ExecuteAlgorithm":
                return wire.ok_response(self._op_execute_algorithm(claims, body))
            if op == "JobStatus":
                return wire.ok_response(self._op_job_status(claims, body))
            if op == "RunTask":
                return wire.ok_response(self._op_run_task(claims, body))
            return wire.error_response("UnknownOp", f"a node does not serve op {op!r}")
        except MgError as exc:
            return wire.response_for(exc)
        except Exception as exc:  # keep the service alive on programming errors
            return wire.response_for(exc)

    # --- Add ------------------------------------------------------------------------

    def _op_add(self, claims: dict, body: dict) -> dict:
        data = wire.from_b64(str(body.get("file_b64", "")))
        try:
            ts = dicom.parse_dicom(data)
            meta = dicom.extract_metadata(ts)
        except DicomError as exc:
            raise ParseError(f"{exc.code}: {exc}") from None

        pid = pseudonymize(meta.patient_id_raw, self.site_secret)
        ts.remove(dicom.PATIENT_NAME)
        ts.put_text(dicom.PATIENT_ID, "LO", pid)
        anonymized = dicom.write_dicom(ts)

        # Validate everything up front so a bad file leaves no partial state.
        age = derive_age(meta.birth_date, meta.study_date)
        year_now = datetime.datetime.fromtimestamp(
            self.clock.now_ms() / 1000, tz=datetime.timezone.utc).year
        patient = PatientRecord(pid=pid, sex=meta.sex,
                                birth_year=int(meta.birth_date[:4]),
                                height_m=meta.height_m, weight_kg=meta.weight_kg)
        patient.validate(current_year=year_now)

        blob = BlobRef(hashlib.sha256(anonymized).hexdigest(), len(anonymized))
        local_id, duplicate = self.store.add_image(anonymized, patient, ImageRecord(
            local_id=0, pid=pid, modality=meta.modality,
            laterality=meta.laterality, view=meta.view,
            study_date=meta.study_date, age_at_study=age,
            rows=meta.rows, cols=meta.cols, blob=blob))
        return {"gfid": str(GlobalFileId(self.site_id, local_id)), "duplicate": duplicate}

    # --- Retrieve ----------------------------------------------------------------------

    def _op_retrieve(self, claims: dict, body: dict) -> dict:
        gfid = parse_gfid(str(body.get("gfid", "")))
        if gfid.site_id == self.site_id:
            try:
                blob = self.store.blob(gfid.local_id)
            except UnknownImage as exc:
                raise NotFound(str(exc)) from None
            return {"gfid": str(gfid), "file_b64": wire.to_b64(self.store.get_blob(blob))}
        desc = self._site_or_refresh(gfid.site_id)
        if desc is None:
            raise NotFound(f"no site {gfid.site_id!r} in the VO")
        try:
            return self._call(desc.address, "Retrieve", {"gfid": str(gfid)})
        except (Timeout, ConnectionRefused) as exc:
            raise RemoteUnreachable(f"{gfid.site_id}: {exc}") from None
        except RemoteError as exc:
            if exc.code == "NotFound":
                raise NotFound(str(exc)) from None
            raise

    def _site_or_refresh(self, site_id: str):
        with self._topo_lock:
            desc = self.topology.get(site_id)
        if desc is None and self.refresh_topology():
            with self._topo_lock:
                desc = self.topology.get(site_id)
        return desc

    # --- Query ---------------------------------------------------------------------------

    def _op_query(self, claims: dict, body: dict) -> dict:
        query = mgql.parse_query(str(body.get("query", "")))
        if body.get("local_only"):
            if query.exec_algo is not None:
                raise BadFrame("an EXEC query cannot be local_only")
            part = federation.execute_local(self.store, self.site_id, query)
            return {"part": federation.to_part(part)}
        if query.exec_algo is not None:
            selector = mgql.Query("images", query.expr)
            job = self._schedule_job(query.exec_algo, selector)
            self.drain_job(job.job_id)
            return {"resultset_xml": self._federated(selector), "job_id": job.job_id}
        return {"resultset_xml": self._federated(query)}

    def _federated(self, query: mgql.Query) -> str:
        topology = self._topology_snapshot()
        decomposed = federation.analyze(query, self.site_id, topology)
        addresses = {d.site_id: d.address for d in topology}
        parts = []
        if decomposed.local is not None:
            parts.append(federation.execute_local(self.store, self.site_id,
                                                  decomposed.local))
        failed = []

        def ask(site_id: str, subquery: mgql.Query):
            body = {"query": mgql.print_query(subquery), "local_only": True}
            reply = self._call(addresses[site_id], "Query", body)
            return federation.from_part(reply.get("part"), site_id, subquery.target)

        def outcome(site_id: str, subquery: mgql.Query):
            try:
                return ask(site_id, subquery), None
            except Timeout:
                return None, (site_id, "timeout")
            except ConnectionRefused:
                return None, (site_id, "unreachable")
            except RemoteError as exc:
                return None, (site_id, f"error {exc.code}")
            except MgError:
                return None, (site_id, "bad response")

        remote = decomposed.remote
        if self.transport.concurrent and len(remote) > 1:
            with ThreadPoolExecutor(max_workers=len(remote)) as pool:
                results = list(pool.map(lambda sq: outcome(*sq), remote))
        else:
            results = [outcome(site_id, subquery) for site_id, subquery in remote]
        for part, failure in results:
            if part is not None:
                parts.append(part)
            else:
                failed.append(failure)

        merged = federation.merge(parts, failed, target=query.target)
        return federation.to_xml(merged).decode("utf-8")

    # --- algorithms and jobs ------------------------------------------------------------

    def _op_add_algorithm(self, session: Optional[str], body: dict) -> dict:
        # Forwarded verbatim under the caller's own session: the registry is
        # the one place that checks the admin role and catalog uniqueness.
        out = self._call(self.registry_address, "AddAlgorithm", body, session=session)
        self.refresh_topology()
        return out

    def _op_execute_algorithm(self, claims: dict, body: dict) -> dict:
        selector = mgql.parse_query(str(body.get("selector", "")))
        if selector.exec_algo is not None or selector.target != "images":
            raise BadParams("a job selector must be SELECT images WHERE ...")
        job = self._schedule_job(str(body.get("algo_id", "")), selector)
        if self.transport.concurrent and job.state == JOB_DISPATCHED:
            threading.Thread(target=self.drain_job, args=(job.job_id,),
                             daemon=True).start()
        return {"job_id": job.job_id, "state": job.state}

    def _op_job_status(self, claims: dict, body: dict) -> dict:
        job_id = str(body.get("job_id", ""))
        with self._jobs_lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise NotFound(f"no job {job_id!r} at {self.site_id}")
            return {"job": job.to_dict()}

    def _keep(self, job: JobRecord) -> None:
        """Hold a new or just-finished job, dropping the oldest finished past the cap.

        Called under ``_jobs_lock``, once when a job is scheduled and once
        when it finishes.
        """
        self.jobs[job.job_id] = job
        if job.finished_at_ms is not None:
            self._finished.append(job.job_id)
            while len(self._finished) > RETAINED_FINISHED_JOBS:
                del self.jobs[self._finished.popleft()]

    def _schedule_job(self, algo_id: str, selector: mgql.Query) -> JobRecord:
        algo = self.algorithms.get(algo_id)
        if algo is None:
            self.refresh_topology()
            algo = self.algorithms.get(algo_id)
        if algo is None:
            raise UnknownAlgorithm(f"no algorithm {algo_id!r} in the catalog")
        job = schedule_job(algo, selector, self.site_id, self._topology_snapshot(),
                           new_job_id(self.clock.now_ms(), self.rng),
                           self.clock.now_ms())
        with self._jobs_lock:
            self.store.upsert_job(job.to_dict())
            self._keep(job)
        return job

    def drain_job(self, job_id: str) -> None:
        """Run every unfinished task of one job to a terminal state."""
        with self._jobs_lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise NotFound(f"no job {job_id!r} at {self.site_id}")
            if job.state not in (JOB_DISPATCHED, JOB_RUNNING):
                return
            claimed = [t for t in job.tasks if t.state in (TASK_PENDING, TASK_RUNNING)]
            for task in claimed:
                task.state = TASK_RUNNING
            job.state = JOB_RUNNING
            self.store.upsert_job(job.to_dict())
        algo = self.algorithms.get(job.algo_id)

        for task in claimed:
            self._apply_task_result(job, task.site_id, self._task_outcome(job, task, algo))

    def _task_outcome(self, job: JobRecord, task, algo) -> dict:
        """One claimed task's outcome: run here, or the checked reply of its site."""
        if algo is None:
            return _failed_task(f"unknown algorithm {job.algo_id}")
        if task.site_id == self.site_id:
            return run_task(self.store, self.site_id, algo,
                            mgql.parse_query(task.selector), job_id=job.job_id)
        desc = self._site_or_refresh(task.site_id)
        if desc is None:
            return _failed_task(f"unknown site {task.site_id}")
        try:
            reply = self._call(desc.address, "RunTask", {
                "job_id": job.job_id, "algo": algo.to_dict(), "selector": task.selector,
            })
            check_task_outcome(reply.get("state"), reply.get("images_selected"),
                               reply.get("derived_written"), reply.get("error"))
        except (Timeout, ConnectionRefused, RemoteError) as exc:
            reason = exc.code if isinstance(exc, RemoteError) else str(exc)
            return _failed_task(f"dispatch failed: {reason}")
        except MgError:
            return _failed_task("bad response")
        return reply

    def _apply_task_result(self, job: JobRecord, site_id: str, result: dict) -> None:
        with self._jobs_lock:
            advance_job(job, site_id, result["state"], result["images_selected"],
                        result["derived_written"], result.get("error"),
                        self.clock.now_ms())
            self.store.upsert_job(job.to_dict())
            if job.finished_at_ms is not None:
                self._keep(job)

    def _op_run_task(self, claims: dict, body: dict) -> dict:
        # The reply is the outcome; the node calls no one while serving it.
        algo = AlgorithmDescriptor.from_dict(body.get("algo") or {})
        validate_descriptor(algo)
        selector = mgql.parse_query(str(body.get("selector", "")))
        return run_task(self.store, self.site_id, algo, selector,
                        job_id=str(body.get("job_id", "")))


def _failed_task(error: str) -> dict:
    return {"state": TASK_FAILED, "images_selected": 0, "derived_written": 0, "error": error}


def _as_bytes(value) -> bytes:
    return value if isinstance(value, bytes) else str(value).encode("utf-8")
