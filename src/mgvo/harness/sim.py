"""One VO harness on two backends: a simulated network and loopback TCP.

``_VO`` is the client side of a whole VO. It boots the registry and one node
per topology site, registers every site that is up and has each poll the
registry. It then runs the client actions of a script (login, add, query,
algorithms and jobs, retrieve, faults) and keeps the transcript: one entry
per tapped frame or action, in a single sequence. A backend supplies the
clock, the tap, the client's transport, and how nodes are built, started
and stopped, so a script behaves the same on both.

``SimVO`` runs in one process on a simulated network. Time is virtual:
every call advances a shared clock by the link latency, so latency and
timeout behavior is exact and repeatable, a full three-site session runs in
milliseconds, and transcripts are byte-deterministic. The network taps
every frame (both directions, with virtual timestamps) and counts sends and
receives per endpoint. Taps are what the anonymization and data-locality
audits scan: if a raw patient id or a pixel block ever crossed a link, it
is in here.

``RealVO`` runs the same scripts over loopback TCP for protocol
conformance. Nodes drain their jobs on their own threads, time is wall
time, and only the client's frames are tapped.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Optional

from .config import Topology, parse_params, parse_script, parse_topology
from .. import federation
from ..errors import BadValue, ConnectionRefused, MgError, Timeout
from ..services import auth, wire
from ..services.node import Node
from ..services.registry import Registry
from ..services.tcp import Server, TcpTransport

# 2005-08-05T00:00:00Z, a fixed epoch so virtual timestamps are stable.
DEFAULT_START_MS = 1_123_200_000_000

DEFAULT_USERS = (
    ("alice", "alice-pw", ("clinician", "admin")),
    ("bob", "bob-pw", ("clinician",)),
)


class VirtualClock:
    def __init__(self):
        self._now_ms = DEFAULT_START_MS

    def now_ms(self) -> int:
        return self._now_ms

    def advance(self, ms: int) -> None:
        self._now_ms += ms


class Tap:
    """Recorded frames; their sequence numbers also order the transcript's events."""

    def __init__(self, clock):
        self.clock = clock
        self.frames: list = []  # transcript frame entries, in tap order
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record(self, link: str, payload: bytes) -> None:
        self.frames.append({
            "kind": "frame",
            "seq": self.next_seq(),
            "t_ms": self.clock.now_ms(),
            "link": link,
            "bytes_b64": wire.to_b64(wire.frame_bytes(payload)),
        })


class SimNet(Tap):
    """In-process network: named endpoints, per-site latency, frame taps."""

    def __init__(self, clock: VirtualClock):
        super().__init__(clock)
        self.handlers: dict = {}
        self.addresses: dict = {}  # address -> endpoint name
        self.latency: dict = {}
        self.down: set = set()
        self.counters: dict = {}  # (endpoint, "sent"|"recv") -> int

    def add_endpoint(self, name: str, address: str, handler, latency_ms: int = 0) -> None:
        self.handlers[name] = handler
        self.addresses[address] = name
        self.latency[name] = latency_ms

    def transport_for(self, name: str) -> "SimTransport":
        return SimTransport(self, name)

    def _bump(self, endpoint: str, direction: str) -> None:
        key = (endpoint, direction)
        self.counters[key] = self.counters.get(key, 0) + 1

    def _tap(self, src: str, dst: str, payload: bytes) -> None:
        self.record(f"{src}->{dst}", payload)
        self._bump(src, "sent")
        self._bump(dst, "recv")

    def call(self, src: str, address: str, request: dict,
             timeout_ms: Optional[int] = None) -> dict:
        dst = self.addresses.get(address)
        if dst is None:
            raise ConnectionRefused(f"nothing listens on {address}")
        one_way = self.latency.get(src, 0) + self.latency.get(dst, 0)
        if dst in self.down:
            self.clock.advance(one_way)
            raise ConnectionRefused(f"{dst} ({address}) is down")
        started = self.clock.now_ms()
        request_payload = wire.encode_payload(request)
        self._tap(src, dst, request_payload)
        self.clock.advance(one_way)
        handler = self.handlers[dst]
        response = handler(json.loads(request_payload))
        response_payload = wire.encode_payload(response)
        self._tap(dst, src, response_payload)
        self.clock.advance(one_way)
        if timeout_ms is not None and self.clock.now_ms() - started > timeout_ms:
            # The answer exists (and was tapped) but arrived too late.
            raise Timeout(f"{address} answered after the {timeout_ms} ms deadline")
        return json.loads(response_payload)


class SimTransport:
    concurrent = False  # fan-out must stay sequential for the virtual clock

    def __init__(self, net: SimNet, src: str):
        self.net = net
        self.src = src

    def call(self, address: str, request: dict, timeout_ms: Optional[int] = None) -> dict:
        return self.net.call(self.src, address, request, timeout_ms=timeout_ms)


class _VO:
    """A whole VO in one object, driven either by tests or by a script.

    A backend sets ``clock``, ``net`` (a ``Tap``) and ``client`` (the
    client's transport) before this boots. It provides ``_make_node``,
    ``drain``, and ``_is_up``/``_set_up`` for an endpoint named by its site
    id or ``"registry"``.
    """

    def __init__(self, topology: Topology, workdir, seed: int):
        self.topology = topology
        self.workdir = Path(workdir)
        self.seed = seed
        self.vo_secret = f"vo-{seed:08d}-0123456789abcdef".encode("ascii")

        self.registry = Registry(self.workdir / "registry", self.vo_secret,
                                 clock=self.clock)
        for user, password, roles in DEFAULT_USERS:
            self.registry.add_user(user, password, roles)

        self.nodes: dict = {}
        self._configs: dict = {}
        self._generation: dict = {}
        for site in topology.sites:
            self._configs[site.site_id] = {
                "site_id": site.site_id,
                "listen": site.address,
                "registry": topology.registry_address,
                "data_dir": str(self.workdir / site.site_id),
                "site_secret": f"site-{site.site_id}-{seed:08d}-0123456789abcdef",
                "vo_secret": self.vo_secret,
            }
            self._new_node(site.site_id)
        self._set_up("registry", True)
        for site in topology.sites:
            self._set_up(site.site_id, not site.drop)
            if not site.drop:
                try:
                    self.nodes[site.site_id].register_with_registry()
                except MgError:
                    pass  # a pathologically slow site still boots
        self.poll_all()

        self.token: Optional[str] = None
        self.last_job_id: Optional[str] = None
        self.events: list = []

    def _new_node(self, site_id: str) -> Node:
        generation = self._generation.get(site_id, 0)
        node = self._make_node(self._configs[site_id],
                               random.Random(f"{self.seed}:{site_id}:{generation}"))
        self.nodes[site_id] = node
        return node

    def _handler(self, name: str):
        """The endpoint's handler, looked up per request so a restarted node takes over."""
        if name == "registry":
            return lambda request: self.registry.handle_request(request)
        return lambda request: self.nodes[name].handle_request(request)

    def close(self) -> None:
        for node in self.nodes.values():
            node.store.close()

    # --- transcript ----------------------------------------------------------

    def _event(self, action: str, detail: dict, ok: bool = True) -> None:
        self.events.append({
            "kind": "event", "seq": self.net.next_seq(),
            "t_ms": self.clock.now_ms(), "action": action, "ok": ok,
            "detail": detail,
        })

    def transcript(self) -> list:
        return sorted(self.net.frames + self.events, key=lambda e: e["seq"])

    def frames(self) -> list:
        return list(self.net.frames)

    # --- client actions ----------------------------------------------------------

    def _addr(self, site_id: str) -> str:
        site = self.topology.site(site_id)
        if site is None:
            raise BadValue(f"no site {site_id!r} in the topology")
        return site.address

    def _check_site(self, site_id: str) -> None:
        """BadValue, as for a client call, when an action names a site the topology lacks."""
        self._addr(site_id)

    def _call(self, address: str, op: str, body: dict) -> dict:
        request = wire.make_request(op, self.token, body)
        return wire.unwrap(self.client.call(address, request))

    def login(self, user: str, password: str) -> list:
        body = self._call(self.topology.registry_address, "Authenticate",
                          {"user": user, "password": password})
        self.token = body["session"]
        self._event("login", {"user": user, "roles": body["roles"]})
        return body["roles"]

    def add(self, site_id: str, data: bytes):
        body = self._call(self._addr(site_id), "Add",
                          {"file_b64": wire.to_b64(data)})
        self._event("add", {"site": site_id, "gfid": body["gfid"],
                            "duplicate": body["duplicate"]})
        return body["gfid"], body["duplicate"]

    def _query(self, site_id: str, text: str):
        """(answer body, its decoded result set); logs the query event."""
        body = self._call(self._addr(site_id), "Query", {"query": text})
        xml = body["resultset_xml"]
        rs = federation.from_xml(xml)
        detail = {"site": site_id, "rows": len(rs.rows), "complete": rs.complete,
                  "xml_sha256": _sha16(xml)}
        if "job_id" in body:
            self.last_job_id = body["job_id"]
            detail["job_id"] = body["job_id"]
        self._event("query", detail)
        return body, rs

    def query_body(self, site_id: str, text: str) -> dict:
        return self._query(site_id, text)[0]

    def query_xml(self, site_id: str, text: str) -> str:
        return self.query_body(site_id, text)["resultset_xml"]

    def query(self, site_id: str, text: str):
        return self._query(site_id, text)[1]

    def algo_add(self, site_id: str, algo_id: str, kind: str,
                 params: Optional[dict] = None) -> None:
        self._call(self._addr(site_id), "AddAlgorithm",
                   {"algo_id": algo_id, "kind": kind, "params": params or {}})
        self._event("algo-add", {"site": site_id, "algo_id": algo_id, "kind": kind})

    def algo_exec(self, site_id: str, algo_id: str, selector: str) -> str:
        body = self._call(self._addr(site_id), "ExecuteAlgorithm",
                          {"algo_id": algo_id, "selector": selector})
        self.last_job_id = body["job_id"]
        self._event("algo-exec", {"site": site_id, "algo_id": algo_id,
                                  "job_id": body["job_id"], "state": body["state"]})
        return body["job_id"]

    def job_status(self, site_id: str, job_id: str) -> dict:
        body = self._call(self._addr(site_id), "JobStatus", {"job_id": job_id})
        self._event("job-status", {"site": site_id, "job_id": job_id,
                                   "state": body["job"]["state"]})
        return body["job"]

    def retrieve(self, site_id: str, gfid: str) -> bytes:
        body = self._call(self._addr(site_id), "Retrieve", {"gfid": gfid})
        data = wire.from_b64(body["file_b64"])
        self._event("retrieve", {"site": site_id, "gfid": gfid,
                                 "bytes": len(data), "sha256": _sha16(data)})
        return data

    def sites(self) -> list:
        body = self._call(self.topology.registry_address, "ListSites", {})
        self._event("sites", {"count": len(body["sites"])})
        return body["sites"]

    # --- fault injection -----------------------------------------------------------

    def poll(self, site_id: str) -> None:
        self._check_site(site_id)
        self.nodes[site_id].refresh_topology()
        self._event("poll", {"site": site_id})

    def poll_all(self) -> None:
        for site in self.topology.sites:
            if self._is_up(site.site_id):
                try:
                    self.nodes[site.site_id].refresh_topology()
                except MgError:
                    pass  # too slow to hear the answer in time; keep booting

    def site_down(self, site_id: str) -> None:
        self._check_site(site_id)
        self._set_up(site_id, False)
        self._event("site-down", {"site": site_id})

    def site_up(self, site_id: str) -> None:
        self._check_site(site_id)
        self._set_up(site_id, True)
        self._event("site-up", {"site": site_id})

    def registry_down(self) -> None:
        self._set_up("registry", False)
        self._event("registry-down", {})

    def registry_up(self) -> None:
        self._set_up("registry", True)
        self._event("registry-up", {})

    def restart(self, site_id: str) -> None:
        self._check_site(site_id)
        self.nodes[site_id].store.close()
        self._generation[site_id] = self._generation.get(site_id, 0) + 1
        node = self._new_node(site_id)
        if self._is_up(site_id):
            try:
                node.register_with_registry()
            except MgError:
                pass  # registry might be down; the node keeps its own identity
        self._event("restart", {"site": site_id})


class SimVO(_VO):
    """The VO on the simulated network, in virtual time."""

    def __init__(self, topology: Topology, workdir, seed: int = 0):
        self.clock = VirtualClock()
        self.net = SimNet(self.clock)
        self.client = self.net.transport_for("client")
        self.net.add_endpoint("registry", topology.registry_address,
                              self._handler("registry"))
        for site in topology.sites:
            self.net.add_endpoint(site.site_id, site.address,
                                  self._handler(site.site_id), site.latency_ms)
        super().__init__(topology, workdir, seed)

    def _make_node(self, config: dict, rng: random.Random) -> Node:
        return Node(config, self.net.transport_for(config["site_id"]),
                    clock=self.clock, rng=rng)

    def _is_up(self, name: str) -> bool:
        return name not in self.net.down

    def _set_up(self, name: str, up: bool) -> None:
        if up:
            self.net.down.discard(name)
        else:
            self.net.down.add(name)

    def drain(self, site_id: str) -> None:
        self._check_site(site_id)
        node = self.nodes[site_id]
        for job_id, job in sorted(node.jobs.items()):
            if job.state in ("DISPATCHED", "RUNNING"):
                node.drain_job(job_id)
        self._event("drain", {"site": site_id})


class _TappedTransport:
    """The client's TCP transport, recording each request and answer in a tap."""

    def __init__(self, inner: TcpTransport, tap: Tap):
        self.inner = inner
        self.tap = tap

    def call(self, address: str, request: dict) -> dict:
        self.tap.record(f"client->{address}", wire.encode_payload(request))
        response = self.inner.call(address, request)
        self.tap.record(f"{address}->client", wire.encode_payload(response))
        return response


class RealVO(_VO):
    """The VO over loopback TCP: one server per endpoint, auto-draining nodes, wall time."""

    def __init__(self, topology: Topology, workdir, seed: int = 0):
        self.clock = auth.SystemClock()
        self.net = Tap(self.clock)
        self.client = _TappedTransport(TcpTransport(default_timeout_ms=60_000), self.net)
        self.servers: dict = {}
        super().__init__(topology, workdir, seed)

    def _make_node(self, config: dict, rng: random.Random) -> Node:
        return Node(config, TcpTransport(), clock=self.clock, rng=rng)

    def _is_up(self, name: str) -> bool:
        return name in self.servers

    def _set_up(self, name: str, up: bool) -> None:
        if up and name not in self.servers:
            address = (self.topology.registry_address if name == "registry"
                       else self._addr(name))
            self.servers[name] = Server(self._handler(name), address).start()
        elif not up and name in self.servers:
            self.servers.pop(name).stop()

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()
        super().close()

    def drain(self, site_id: str) -> None:
        self._check_site(site_id)
        # Nodes drain on their own; draining here means waiting them out.
        node = self.nodes[site_id]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with node._jobs_lock:
                busy = [j.job_id for j in node.jobs.values()
                        if j.state in ("DISPATCHED", "RUNNING")]
            if not busy:
                break
            time.sleep(0.02)
        self._event("drain", {"site": site_id})


# --- scripted runs ----------------------------------------------------------------

def _sha16(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _load_add_paths(path: Path) -> list:
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == ".dcm")
    return [path]


def run_script(vo, commands, base_dir=".") -> None:
    """Execute parsed script commands; failures become not-ok events."""
    base = Path(base_dir)
    for command in commands:
        try:
            _run_one(vo, command, base)
        except MgError as exc:
            vo._event(command.name, {"args": list(command.args),
                                     "error": exc.code, "msg": str(exc)}, ok=False)


def _run_one(vo, command, base: Path) -> None:
    name, args, rest = command.name, command.args, command.rest
    if name == "login":
        vo.login(args[0], args[1])
    elif name == "add":
        target = Path(args[1])
        if not target.is_absolute():
            target = base / target
        for file_path in _load_add_paths(target):
            vo.add(args[0], file_path.read_bytes())
    elif name == "query":
        vo.query_body(args[0], rest)
    elif name == "algo-add":
        vo.algo_add(args[0], args[1], args[2], parse_params(rest.split()))
    elif name == "algo-exec":
        vo.algo_exec(args[0], args[1], rest)
    elif name == "drain":
        vo.drain(args[0])
    elif name == "job-status":
        job_id = vo.last_job_id if args[1] == "last" else args[1]
        vo.job_status(args[0], job_id or "")
    elif name == "retrieve":
        vo.retrieve(args[0], args[1])
    elif name == "sites":
        vo.sites()
    elif name == "poll":
        if args[0] == "all":
            vo.poll_all()
        else:
            vo.poll(args[0])
    elif name == "site-down":
        vo.site_down(args[0])
    elif name == "site-up":
        vo.site_up(args[0])
    elif name == "registry-down":
        vo.registry_down()
    elif name == "registry-up":
        vo.registry_up()
    elif name == "restart":
        vo.restart(args[0])
    else:  # parse_script only emits known names
        raise AssertionError(f"unhandled command {name}")


def sim_run(topology_text: str, script_text: str, workdir, seed: int = 0,
            real_sockets: bool = False, base_dir: str = ".") -> list:
    """Boot a VO from a topology, run a script, return the transcript."""
    topology = parse_topology(topology_text)
    commands = parse_script(script_text)
    vo = (RealVO if real_sockets else SimVO)(topology, workdir, seed=seed)
    try:
        run_script(vo, commands, base_dir)
        return vo.transcript()
    finally:
        vo.close()


def transcript_text(entries: list) -> str:
    return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)


def corpus_split(manifest: dict, files: dict, site_ids: list) -> dict:
    """Deal patients round-robin to sites: {site_id: [(filename, bytes), ...]}.

    All of a patient's images land at one site, the way hospitals hold their
    own patients' files.
    """
    split: dict = {site: [] for site in site_ids}
    home: dict = {}
    for entry in manifest["files"]:
        raw = entry["raw_patient_id"]
        if raw not in home:
            home[raw] = site_ids[len(home) % len(site_ids)]
        split[home[raw]].append((entry["filename"], files[entry["filename"]]))
    return split
