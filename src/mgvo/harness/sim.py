"""Deterministic multi-node simulation.

``SimVO`` boots a whole VO — registry plus one node per topology site — in
one process on a simulated network. Time is virtual: every call advances a
shared clock by the link latency, so latency and timeout behavior is exact
and repeatable, and a full three-site session runs in milliseconds.

The network records a tap of every frame (both directions, with virtual
timestamps) plus per-endpoint send/receive counters. Taps are what the
anonymization and data-locality audits scan: if a raw patient id or a pixel
block ever crossed a link, it is in here.

``RealVO`` drives the same script surface over loopback TCP for protocol
conformance; only client-side frames are tapped there, and transcripts are
not byte-deterministic (wall time).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Optional

from .config import Topology, parse_script, parse_topology
from .. import federation
from ..errors import BadValue, ConnectionRefused, MgError, Timeout
from ..services import wire
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
    def __init__(self, start_ms: int = DEFAULT_START_MS):
        self._now_ms = start_ms

    def now_ms(self) -> int:
        return self._now_ms

    def advance(self, ms: int) -> None:
        self._now_ms += ms


class SimNet:
    """In-process network: named endpoints, per-site latency, frame taps."""

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.handlers: dict = {}
        self.addresses: dict = {}  # address -> endpoint name
        self.latency: dict = {}
        self.down: set = set()
        self.frames: list = []  # transcript frame entries, in tap order
        self.counters: dict = {}  # (endpoint, "sent"|"recv") -> int
        self._seq = 0

    def add_endpoint(self, name: str, address: str, handler, latency_ms: int = 0) -> None:
        self.handlers[name] = handler
        self.addresses[address] = name
        self.latency[name] = latency_ms

    def set_handler(self, name: str, handler) -> None:
        self.handlers[name] = handler

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def transport_for(self, name: str) -> "SimTransport":
        return SimTransport(self, name)

    def _bump(self, endpoint: str, direction: str) -> None:
        key = (endpoint, direction)
        self.counters[key] = self.counters.get(key, 0) + 1

    def _tap(self, src: str, dst: str, payload: bytes) -> None:
        self.frames.append({
            "kind": "frame",
            "seq": self.next_seq(),
            "t_ms": self.clock.now_ms(),
            "link": f"{src}->{dst}",
            "bytes_b64": wire.to_b64(wire.frame_bytes(payload)),
        })
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


class SimVO:
    """A whole VO in one object, driven either by tests or by a script."""

    def __init__(self, topology: Topology, workdir, seed: int = 0,
                 users=DEFAULT_USERS, start_ms: int = DEFAULT_START_MS):
        self.topology = topology
        self.workdir = Path(workdir)
        self.seed = seed
        self.clock = VirtualClock(start_ms)
        self.net = SimNet(self.clock)
        self.vo_secret = f"vo-{seed:08d}-0123456789abcdef".encode("ascii")

        self.registry = Registry(self.workdir / "registry", self.vo_secret,
                                 clock=self.clock)
        for user, password, roles in users:
            self.registry.add_user(user, password, roles)
        self.net.add_endpoint("registry", topology.registry_address,
                              self.registry.handle_request)
        self.net.add_endpoint("client", "client:0", None)

        self.nodes: dict = {}
        self._configs: dict = {}
        self._generation: dict = {}
        for site in topology.sites:
            config = {
                "site_id": site.site_id,
                "listen": site.address,
                "registry": topology.registry_address,
                "data_dir": str(self.workdir / site.site_id),
                "site_secret": f"site-{site.site_id}-{seed:08d}-0123456789abcdef",
                "vo_secret": self.vo_secret,
            }
            self._configs[site.site_id] = config
            self.nodes[site.site_id] = self._make_node(site.site_id)
            self.net.add_endpoint(site.site_id, site.address,
                                  self.nodes[site.site_id].handle_request,
                                  site.latency_ms)
            if site.drop:
                self.net.down.add(site.site_id)
        for site in topology.sites:
            if site.site_id not in self.net.down:
                try:
                    self.nodes[site.site_id].register_with_registry()
                except MgError:
                    pass  # a pathologically slow site still boots
        self.poll_all()

        self.token: Optional[str] = None
        self.last_job_id: Optional[str] = None
        self.events: list = []

    def _make_node(self, site_id: str) -> Node:
        generation = self._generation.get(site_id, 0)
        return Node(self._configs[site_id], self.net.transport_for(site_id),
                    clock=self.clock,
                    rng=random.Random(f"{self.seed}:{site_id}:{generation}"))

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

    def _call(self, address: str, op: str, body: dict,
              timeout_ms: Optional[int] = None) -> dict:
        request = wire.make_request(op, self.token, body)
        return wire.unwrap(self.net.call("client", address, request,
                                         timeout_ms=timeout_ms))

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

    def drain(self, site_id: str) -> None:
        node = self.nodes[site_id]
        for job_id, job in sorted(node.jobs.items()):
            if job.state in ("DISPATCHED", "RUNNING"):
                node.drain_job(job_id)
        self._event("drain", {"site": site_id})

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
        self.nodes[site_id].refresh_topology()
        self._event("poll", {"site": site_id})

    def poll_all(self) -> None:
        for site in self.topology.sites:
            if site.site_id not in self.net.down:
                try:
                    self.nodes[site.site_id].refresh_topology()
                except MgError:
                    pass  # too slow to hear the answer in time; keep booting

    def site_down(self, site_id: str) -> None:
        self.net.down.add(site_id)
        self._event("site-down", {"site": site_id})

    def site_up(self, site_id: str) -> None:
        self.net.down.discard(site_id)
        self._event("site-up", {"site": site_id})

    def registry_down(self) -> None:
        self.net.down.add("registry")
        self._event("registry-down", {})

    def registry_up(self) -> None:
        self.net.down.discard("registry")
        self._event("registry-up", {})

    def restart(self, site_id: str) -> None:
        self.nodes[site_id].store.close()
        self._generation[site_id] = self._generation.get(site_id, 0) + 1
        node = self._make_node(site_id)
        self.nodes[site_id] = node
        self.net.set_handler(site_id, node.handle_request)
        if site_id not in self.net.down:
            try:
                node.register_with_registry()
            except MgError:
                pass  # registry might be down; the node keeps its own identity
        self._event("restart", {"site": site_id})


class _TappedTransport:
    """Client-side taps for real-socket runs."""

    concurrent = True

    def __init__(self, inner: TcpTransport, vo: "RealVO"):
        self.inner = inner
        self.vo = vo

    def call(self, address: str, request: dict, timeout_ms: Optional[int] = None) -> dict:
        self.vo.record_frame(f"client->{address}", request)
        response = self.inner.call(address, request, timeout_ms=timeout_ms)
        self.vo.record_frame(f"{address}->client", response)
        return response


class RealVO:
    """The SimVO surface over loopback TCP (auto-draining nodes, wall time)."""

    def __init__(self, topology: Topology, workdir, seed: int = 0,
                 users=DEFAULT_USERS):
        self.topology = topology
        self.workdir = Path(workdir)
        self.seed = seed
        self.vo_secret = f"vo-{seed:08d}-0123456789abcdef".encode("ascii")

        self.registry = Registry(self.workdir / "registry", self.vo_secret)
        for user, password, roles in users:
            self.registry.add_user(user, password, roles)
        self.servers: dict = {}
        self.servers["registry"] = Server(self.registry.handle_request,
                                          topology.registry_address).start()
        self.nodes: dict = {}
        self._configs: dict = {}
        for site in topology.sites:
            config = {
                "site_id": site.site_id,
                "listen": site.address,
                "registry": topology.registry_address,
                "data_dir": str(self.workdir / site.site_id),
                "site_secret": f"site-{site.site_id}-{seed:08d}-0123456789abcdef",
                "vo_secret": self.vo_secret,
            }
            self._configs[site.site_id] = config
            node = Node(config, TcpTransport(), auto_drain=True,
                        rng=random.Random(f"{seed}:{site.site_id}:0"))
            self.nodes[site.site_id] = node
            if not site.drop:
                self.servers[site.site_id] = Server(node.handle_request,
                                                    site.address).start()
        for site in topology.sites:
            if site.site_id in self.servers:
                self.nodes[site.site_id].register_with_registry()

        self._transport = _TappedTransport(TcpTransport(), self)
        self.token: Optional[str] = None
        self.last_job_id: Optional[str] = None
        self.events: list = []
        self._frames: list = []
        self._seq = 0

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()

    # --- transcript ---

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record_frame(self, link: str, message: dict) -> None:
        self._frames.append({
            "kind": "frame", "seq": self._next_seq(),
            "t_ms": time.time_ns() // 1_000_000, "link": link,
            "bytes_b64": wire.to_b64(wire.encode_frame(message)),
        })

    def _event(self, action: str, detail: dict, ok: bool = True) -> None:
        self.events.append({
            "kind": "event", "seq": self._next_seq(),
            "t_ms": time.time_ns() // 1_000_000, "action": action, "ok": ok,
            "detail": detail,
        })

    def transcript(self) -> list:
        return sorted(self._frames + self.events, key=lambda e: e["seq"])

    def frames(self) -> list:
        return list(self._frames)

    # --- client actions (same shapes as SimVO) ---

    def _addr(self, site_id: str) -> str:
        site = self.topology.site(site_id)
        if site is None:
            raise BadValue(f"no site {site_id!r} in the topology")
        return site.address

    def _call(self, address: str, op: str, body: dict,
              timeout_ms: Optional[int] = None) -> dict:
        request = wire.make_request(op, self.token, body)
        return wire.unwrap(self._transport.call(address, request,
                                                timeout_ms=timeout_ms))

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
        body = self._call(self._addr(site_id), "Query", {"query": text},
                          timeout_ms=60_000)
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

    def drain(self, site_id: str) -> None:
        # Nodes auto-drain in real mode; draining means waiting them out.
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

    def poll(self, site_id: str) -> None:
        self.nodes[site_id].refresh_topology()
        self._event("poll", {"site": site_id})

    def poll_all(self) -> None:
        for site in self.topology.sites:
            if site.site_id in self.servers:
                self.nodes[site.site_id].refresh_topology()

    def site_down(self, site_id: str) -> None:
        server = self.servers.pop(site_id, None)
        if server is not None:
            server.stop()
        self._event("site-down", {"site": site_id})

    def site_up(self, site_id: str) -> None:
        if site_id not in self.servers:
            node = self.nodes[site_id]
            self.servers[site_id] = Server(node.handle_request,
                                           self._addr(site_id)).start()
        self._event("site-up", {"site": site_id})

    def registry_down(self) -> None:
        server = self.servers.pop("registry", None)
        if server is not None:
            server.stop()
        self._event("registry-down", {})

    def registry_up(self) -> None:
        if "registry" not in self.servers:
            self.servers["registry"] = Server(self.registry.handle_request,
                                              self.topology.registry_address).start()
        self._event("registry-up", {})

    def restart(self, site_id: str) -> None:
        was_up = site_id in self.servers
        if was_up:
            self.servers.pop(site_id).stop()
        self.nodes[site_id].store.close()
        node = Node(self._configs[site_id], TcpTransport(), auto_drain=True,
                    rng=random.Random(f"{self.seed}:{site_id}:r"))
        self.nodes[site_id] = node
        if was_up:
            self.servers[site_id] = Server(node.handle_request,
                                           self._addr(site_id)).start()
            try:
                node.register_with_registry()
            except MgError:
                pass
        self._event("restart", {"site": site_id})


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
        params = {}
        for pair in rest.split():
            key, _, value = pair.partition("=")
            params[key] = float(value) if "." in value else int(value)
        vo.algo_add(args[0], args[1], args[2], params)
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
    if real_sockets:
        vo = RealVO(topology, workdir, seed=seed)
        try:
            run_script(vo, commands, base_dir)
            return vo.transcript()
        finally:
            vo.close()
    vo = SimVO(topology, workdir, seed=seed)
    run_script(vo, commands, base_dir)
    return vo.transcript()


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
