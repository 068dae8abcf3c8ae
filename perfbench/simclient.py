"""The simulated VO the benchmark drives, and its one closed-loop client.

Three sites and a registry on ``SimNet``; ``site_c`` sits behind a 25 ms
one-way link, as a cross-border site would. The client talks the wire
protocol itself and decodes each answer once, as ``mgvo query`` does (the
``SimVO`` client actions decode a query answer twice and log an event per
call, which is not what a user's client pays for).
"""

from __future__ import annotations

import base64
import time

from mgvo import federation
from mgvo.harness.config import parse_topology
from mgvo.harness.sim import SimVO
from mgvo.services import wire

TOPOLOGY_TEXT = """\
registry = registry.sim:7400
site = site_a a.sim:7401
site = site_b b.sim:7402
site = site_c c.sim:7403 latency=25
"""
SITES = ("site_a", "site_b", "site_c")
HOME = "site_a"  # the client's own site, where it submits queries and jobs
USER = ("alice", "alice-pw")  # clinician + admin in SimVO's default users


class Client:
    def __init__(self, vo: SimVO):
        self.vo = vo
        self.token = None

    def call(self, address: str, op: str, body: dict) -> dict:
        request = wire.make_request(op, self.token, body)
        return wire.unwrap(self.vo.net.call("client", address, request))

    def address(self, site_id: str) -> str:
        return self.vo.topology.site(site_id).address

    def login(self) -> None:
        body = self.call(self.vo.topology.registry_address, "Authenticate",
                         {"user": USER[0], "password": USER[1]})
        self.token = body["session"]

    def query(self, site_id: str, text: str):
        """(result XML, decoded ResultSet) of one federated query."""
        xml = self.call(self.address(site_id), "Query", {"query": text})["resultset_xml"]
        return xml, federation.from_xml(xml)

    def add(self, site_id: str, data: bytes) -> dict:
        return self.call(self.address(site_id), "Add", {"file_b64": wire.to_b64(data)})

    def retrieve(self, site_id: str, gfid: str) -> bytes:
        body = self.call(self.address(site_id), "Retrieve", {"gfid": gfid})
        return wire.from_b64(body["file_b64"])

    def add_algorithm(self, algo_id: str, kind: str, params: dict) -> None:
        self.call(self.address(HOME), "AddAlgorithm",
                  {"algo_id": algo_id, "kind": kind, "params": params})

    def run_job(self, site_id: str, algo_id: str, selector: str) -> dict:
        """Submit a job, let the origin node run it to the end, read its record.

        In the simulator the node's background worker is ``drain_job``,
        called synchronously, as ``SimVO.drain`` does.
        """
        job_id = self.call(self.address(site_id), "ExecuteAlgorithm",
                           {"algo_id": algo_id, "selector": selector})["job_id"]
        self.vo.nodes[site_id].drain_job(job_id)
        return self.call(self.address(site_id), "JobStatus", {"job_id": job_id})["job"]


def boot(workdir, seed: int):
    """Boot the VO over ``workdir`` and log in: (vo, client, seconds taken)."""
    started = time.perf_counter()
    vo = SimVO(parse_topology(TOPOLOGY_TEXT), workdir, seed=seed)
    client = Client(vo)
    client.login()
    elapsed = time.perf_counter() - started
    take_frames(vo)
    return vo, client, elapsed


def shut(vo: SimVO) -> None:
    for node in vo.nodes.values():
        node.store.close()


def take_frames(vo: SimVO) -> list:
    """Empty the network tap and the event log; returns the frames taken."""
    frames = vo.net.frames
    vo.net.frames = []
    vo.events.clear()
    return frames


def frame_size(frame: dict) -> int:
    """Bytes of one tapped frame (length prefix included), from its base64 length."""
    text = frame["bytes_b64"]
    return len(text) // 4 * 3 - text[-2:].count("=")


def frame_payload(frame: dict) -> bytes:
    return base64.b64decode(frame["bytes_b64"])[4:]
