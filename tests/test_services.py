"""Auth tokens, wire framing, registry and node services, and real sockets."""

import hashlib
import json
import re
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from mgvo import dicom, federation
from mgvo.algorithms import AlgorithmDescriptor
from mgvo.errors import (
    AuthFailure,
    BadCredentials,
    BadFrame,
    BadSignature,
    ConnectionRefused,
    DuplicateAddress,
    Expired,
    FrameTooLarge,
    IntegrityError,
    InvariantViolation,
    PortClash,
    RemoteError,
    Timeout,
    UserUnknown,
)
from mgvo.harness.config import parse_topology
from mgvo.harness.sim import SimVO
from mgvo.services import auth, wire
from mgvo.services.node import Node
from mgvo.services.registry import Registry
from mgvo.services.tcp import Server, TcpTransport

from test_dicom import make_full_tagset

VO_SECRET = b"vo-testing-secret-0123456789"
NOW_MS = 1_100_000_000_000

TOPOLOGY = parse_topology("""
registry = registry.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002
""")


class FakeClock:
    def __init__(self, now_ms=NOW_MS):
        self._now = now_ms

    def now_ms(self):
        return self._now

    def advance(self, ms):
        self._now += ms


# --- tokens -------------------------------------------------------------------

def test_token_round_trip():
    token = auth.issue_token(VO_SECRET, "alice", ["admin", "clinician"], NOW_MS)
    claims = auth.validate_token(token, VO_SECRET, NOW_MS)
    assert claims["user"] == "alice"
    assert claims["roles"] == ["admin", "clinician"]
    assert claims["issued_at"] == NOW_MS // 1000
    assert claims["expires_at"] == NOW_MS // 1000 + auth.DEFAULT_TTL_S


def test_token_expiry():
    token = auth.issue_token(VO_SECRET, "alice", ["clinician"], NOW_MS, ttl_s=60)
    auth.validate_token(token, VO_SECRET, NOW_MS + 59_000)
    with pytest.raises(Expired):
        auth.validate_token(token, VO_SECRET, NOW_MS + 61_000)


def test_token_tamper_and_wrong_secret():
    token = auth.issue_token(VO_SECRET, "alice", ["clinician"], NOW_MS)
    with pytest.raises(BadSignature):
        auth.validate_token(token, b"some-other-vo-secret-xxxx", NOW_MS)
    claims_b64, _, sig = token.partition(".")
    flipped = ("A" if sig[0] != "A" else "B") + sig[1:]
    with pytest.raises(BadSignature):
        auth.validate_token(claims_b64 + "." + flipped, VO_SECRET, NOW_MS)
    with pytest.raises(BadSignature):
        auth.validate_token("no-dot-in-here", VO_SECRET, NOW_MS)
    with pytest.raises(BadSignature):
        auth.validate_token("!!!." + sig, VO_SECRET, NOW_MS)
    with pytest.raises(BadSignature):
        auth.validate_token(None, VO_SECRET, NOW_MS)


def test_require_session_collapses_to_auth_failure():
    with pytest.raises(AuthFailure):
        auth.require_session(None, VO_SECRET, NOW_MS)
    with pytest.raises(AuthFailure):
        auth.require_session("garbage.token", VO_SECRET, NOW_MS)
    stale = auth.issue_token(VO_SECRET, "alice", ["clinician"], NOW_MS, ttl_s=1)
    with pytest.raises(AuthFailure):
        auth.require_session(stale, VO_SECRET, NOW_MS + 2_000)


def test_require_role():
    claims = {"user": "bob", "roles": ["clinician"]}
    auth.require_role(claims, "clinician")
    with pytest.raises(AuthFailure):
        auth.require_role(claims, "admin")


def test_users_file(tmp_path):
    path = tmp_path / "users.txt"
    auth.add_user(path, "alice", "pw-one", ("clinician", "admin"))
    auth.add_user(path, "bob", "pw-two", ("clinician",))
    users = auth.load_users(path)
    assert sorted(auth.check_password(users, "alice", "pw-one")) == ["admin", "clinician"]
    with pytest.raises(BadCredentials):
        auth.check_password(users, "alice", "wrong")
    with pytest.raises(UserUnknown):
        auth.check_password(users, "mallory", "pw")
    # later lines win: a re-add rotates the password
    auth.add_user(path, "alice", "pw-three", ("clinician",))
    users = auth.load_users(path)
    assert auth.check_password(users, "alice", "pw-three") == ("clinician",)
    with pytest.raises(BadCredentials):
        auth.check_password(users, "alice", "pw-one")


def test_users_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "users.txt"
    auth.add_user(path, "alice", "pw-one", ("clinician",))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("# a comment\n\nbob:onlyone\n")
    with pytest.raises(IntegrityError) as err:
        auth.load_users(path)
    assert str(path) in str(err.value) and "line 4" in str(err.value)


# --- framing ------------------------------------------------------------------

def test_payload_canonical_json():
    frame = wire.encode_payload({"b": 1, "a": {"z": [1, 2], "y": "x"}})
    assert frame == b'{"a":{"y":"x","z":[1,2]},"b":1}'
    assert wire.decode_payload(frame) == {"a": {"y": "x", "z": [1, 2]}, "b": 1}


def test_frame_bytes_length_prefix():
    payload = wire.encode_payload({"op": "x"})
    assert wire.frame_bytes(payload) == struct.pack(">I", len(payload)) + payload
    assert wire.encode_frame({"op": "x"}) == wire.frame_bytes(payload)


def test_payload_rejects_oversize():
    with pytest.raises(FrameTooLarge):
        wire.encode_payload({"x": "a" * wire.MAX_FRAME})


def test_decode_rejects_garbage():
    for blob in (b"not json", b"[1,2]", b'"str"', b"\xff\xfe"):
        with pytest.raises(BadFrame):
            wire.decode_payload(blob)


def test_b64_helpers():
    assert wire.from_b64(wire.to_b64(b"\x00\x01\xff")) == b"\x00\x01\xff"
    for bad in ("not base64!!", "AB\nCD", "A"):
        with pytest.raises(BadFrame):
            wire.from_b64(bad)


def test_check_request_shapes():
    good = wire.make_request("Query", "tok", {"query": "x"})
    wire.check_request(good)
    bad = [
        {"op": "Query", "session": None, "body": {}},           # missing version
        {"mg": 2, "op": "Query", "session": None, "body": {}},  # wrong version
        {"mg": 1, "session": None, "body": {}},                 # no op
        {"mg": 1, "op": "Query", "session": 5, "body": {}},     # bad session type
        {"mg": 1, "op": "Query", "session": None, "body": []},  # bad body
    ]
    for req in bad:
        with pytest.raises(BadFrame):
            wire.check_request(req)


def test_unwrap():
    assert wire.unwrap(wire.ok_response({"x": 1})) == {"x": 1}
    with pytest.raises(RemoteError) as err:
        wire.unwrap(wire.error_response("NotFound", "no such thing"))
    assert err.value.code == "NotFound"
    assert "no such thing" in str(err.value)


# --- registry ----------------------------------------------------------------

def make_registry(tmp_path, clock=None):
    reg = Registry(tmp_path / "registry", VO_SECRET, clock=clock or FakeClock())
    reg.add_user("alice", "alice-pw", ("clinician", "admin"))
    reg.add_user("bob", "bob-pw", ("clinician",))
    return reg


def ask(service, op, session, body):
    return wire.unwrap(service.handle_request(wire.make_request(op, session, body)))


def ask_error(service, op, session, body):
    with pytest.raises(RemoteError) as err:
        ask(service, op, session, body)
    return err.value.code


def login(reg, user="alice", password="alice-pw"):
    return ask(reg, "Authenticate", None, {"user": user, "password": password})["session"]


def test_registry_authenticate(tmp_path):
    reg = make_registry(tmp_path)
    body = ask(reg, "Authenticate", None, {"user": "alice", "password": "alice-pw"})
    assert body["roles"] == ["admin", "clinician"]
    claims = auth.validate_token(body["session"], VO_SECRET, NOW_MS)
    assert claims["user"] == "alice"
    assert ask_error(reg, "Authenticate", None,
                     {"user": "alice", "password": "nope"}) == "BadCredentials"
    assert ask_error(reg, "Authenticate", None,
                     {"user": "x", "password": "y"}) == "UserUnknown"


def test_registry_names_a_malformed_users_file(tmp_path):
    reg = make_registry(tmp_path)
    with reg.users_path.open("a", encoding="utf-8") as fh:
        fh.write("bob:onlyone\n")
    assert ask_error(reg, "Authenticate", None,
                     {"user": "alice", "password": "alice-pw"}) == "IntegrityError"


def test_registry_requires_session(tmp_path):
    reg = make_registry(tmp_path)
    assert ask_error(reg, "ListSites", None, {}) == "AuthFailure"
    assert ask_error(reg, "ListSites", "bad.token", {}) == "AuthFailure"


def test_registry_session_expiry(tmp_path):
    clock = FakeClock()
    reg = make_registry(tmp_path, clock=clock)
    token = login(reg)
    ask(reg, "ListSites", token, {})
    clock.advance((auth.DEFAULT_TTL_S + 1) * 1000)
    assert ask_error(reg, "ListSites", token, {}) == "AuthFailure"


def test_registry_register_and_list(tmp_path):
    reg = make_registry(tmp_path)
    token = login(reg)
    ask(reg, "RegisterSite", token,
        {"site_id": "site_a", "display_name": "A", "address": "a.sim:7001"})
    ask(reg, "RegisterSite", token,
        {"site_id": "site_b", "display_name": "B", "address": "b.sim:7002"})
    listed = ask(reg, "ListSites", token, {})
    assert [d["site_id"] for d in listed["sites"]] == ["site_a", "site_b"]
    assert listed["algorithms"] == []

    # same site again is idempotent (a node re-registers on every boot)
    ask(reg, "RegisterSite", token, {"site_id": "site_a", "address": "a.sim:7001"})
    assert len(ask(reg, "ListSites", token, {})["sites"]) == 2

    assert ask_error(reg, "RegisterSite", token,
                     {"site_id": "site_c", "address": "a.sim:7001"}) == "DuplicateAddress"
    assert ask_error(reg, "RegisterSite", token,
                     {"site_id": "Bad Site", "address": "c.sim:7003"}) == "UnknownSite"
    assert ask_error(reg, "RegisterSite", token,
                     {"site_id": "site_c", "address": ""}) == "DuplicateAddress"



def test_a_site_id_with_a_trailing_newline_is_refused(tmp_path):
    reg = make_registry(tmp_path)
    assert ask_error(reg, "RegisterSite", login(reg),
                     {"site_id": "site_a\n", "address": "a.sim:7001"}) == "UnknownSite"
    with pytest.raises(InvariantViolation):
        Node({"site_id": "site_a\n", "listen": "127.0.0.1:1", "registry": "127.0.0.1:2",
              "data_dir": str(tmp_path / "site_a"),
              "site_secret": "site-a-secret-0123456789abcdef", "vo_secret": VO_SECRET},
             TcpTransport())

def test_registry_algorithms_need_admin(tmp_path):
    reg = make_registry(tmp_path)
    admin = login(reg)
    clinician = login(reg, "bob", "bob-pw")
    descriptor = {"algo_id": "density-v1", "kind": "density", "params": {}}
    assert ask_error(reg, "AddAlgorithm", clinician, descriptor) == "AuthFailure"
    ask(reg, "AddAlgorithm", admin, descriptor)
    assert ask_error(reg, "AddAlgorithm", admin, descriptor) == "DuplicateAlgoId"
    assert ask_error(reg, "AddAlgorithm", admin,
                     {"algo_id": "UPPER", "kind": "density"}) == "BadParams"
    listed = ask(reg, "ListSites", admin, {})
    assert [a["algo_id"] for a in listed["algorithms"]] == ["density-v1"]


def test_registry_persists_across_restart(tmp_path):
    reg = make_registry(tmp_path)
    token = login(reg)
    ask(reg, "RegisterSite", token, {"site_id": "site_a", "address": "a.sim:7001"})
    ask(reg, "AddAlgorithm", token, {"algo_id": "density-v1", "kind": "density"})

    again = Registry(tmp_path / "registry", VO_SECRET, clock=FakeClock())
    token2 = login(again)
    listed = ask(again, "ListSites", token2, {})
    assert [d["site_id"] for d in listed["sites"]] == ["site_a"]
    assert [a["algo_id"] for a in listed["algorithms"]] == ["density-v1"]


def test_registry_unknown_op(tmp_path):
    reg = make_registry(tmp_path)
    token = login(reg)
    assert ask_error(reg, "Add", token, {}) == "UnknownOp"


@pytest.mark.parametrize("edit", [
    lambda state: state["sites"][0].pop("display_name"),
    lambda state: state["sites"].append("site_b"),
    lambda state: state["algorithms"][0].pop("kind"),
], ids=["site without display_name", "site not an object", "algorithm without kind"])
def test_a_malformed_registry_file_is_an_integrity_error(tmp_path, edit):
    reg = make_registry(tmp_path)
    token = login(reg)
    ask(reg, "RegisterSite", token, {"site_id": "site_a", "address": "a.sim:7001"})
    ask(reg, "AddAlgorithm", token, {"algo_id": "density-v1", "kind": "density"})
    state = json.loads(reg.state_path.read_text(encoding="utf-8"))
    edit(state)
    reg.state_path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(IntegrityError, match="registry.json"):
        Registry(tmp_path / "registry", VO_SECRET, clock=FakeClock())


# --- node service over the simulated network -----------------------------------

def sample_file(patient="MRN0000001", **kw) -> bytes:
    ts = make_full_tagset(**kw)
    ts.put_text(dicom.PATIENT_ID, "LO", patient)
    return dicom.write_dicom(ts)


@pytest.fixture
def vo(tmp_path):
    vo = SimVO(TOPOLOGY, tmp_path / "vo")
    vo.login("alice", "alice-pw")
    yield vo
    vo.close()


def node_token(vo, roles=("clinician",)):
    return auth.issue_token(vo.vo_secret, "tester", roles, vo.clock.now_ms())


def test_add_assigns_gfid_and_detects_duplicates(vo):
    gfid, dup = vo.add("site_a", sample_file())
    assert gfid == "site_a:1" and dup is False
    gfid2, dup2 = vo.add("site_a", sample_file())
    assert gfid2 == "site_a:1" and dup2 is True
    gfid3, dup3 = vo.add("site_b", sample_file())
    assert gfid3 == "site_b:1" and dup3 is False


def test_add_anonymizes_before_storing(vo):
    raw = sample_file(patient="MRN7777777")
    gfid, _ = vo.add("site_a", raw)
    stored = vo.retrieve("site_a", gfid)
    assert stored != raw
    ts = dicom.parse_dicom(stored)
    assert dicom.PATIENT_NAME not in ts
    pid = ts.text(dicom.PATIENT_ID)
    assert len(pid) == 16 and int(pid, 16) >= 0  # 16 hex chars
    assert b"MRN7777777" not in stored
    assert b"DOE^JANE" not in stored
    # pixels survive anonymization untouched
    assert ts.get(dicom.PIXEL_DATA) == (("OB", dicom.pad_value("OB", b"\x00\x01\x02\x03")))


def test_add_rejects_malformed_files(vo):
    with pytest.raises(RemoteError) as err:
        vo.add("site_a", b"not a dicom file at all")
    assert err.value.code == "ParseError"
    # structurally valid but semantically broken metadata is also a parse error
    ts = make_full_tagset()
    ts.put_text(dicom.PATIENT_SEX, "CS", "Q")
    with pytest.raises(RemoteError) as err:
        vo.add("site_a", dicom.write_dicom(ts))
    assert err.value.code == "ParseError"
    # nothing was stored along the way
    assert vo.nodes["site_a"].store.site_stats().num_image_files == 0


def test_retrieve_local_remote_and_not_found(vo):
    data_a = sample_file(patient="P-A")
    data_b = sample_file(patient="P-B")
    gfid_a, _ = vo.add("site_a", data_a)
    gfid_b, _ = vo.add("site_b", data_b)

    direct = vo.retrieve("site_a", gfid_a)
    proxied = vo.retrieve("site_a", gfid_b)  # crosses to site_b
    assert direct == vo.retrieve("site_b", gfid_a)  # same bytes either way
    assert proxied == vo.retrieve("site_b", gfid_b)
    assert dicom.parse_dicom(proxied).text(dicom.MODALITY) == "MG"

    with pytest.raises(RemoteError) as err:
        vo.retrieve("site_a", "site_a:999")
    assert err.value.code == "NotFound"
    with pytest.raises(RemoteError) as err:
        vo.retrieve("site_a", "site_zz:1")
    assert err.value.code == "NotFound"
    with pytest.raises(RemoteError) as err:
        vo.retrieve("site_a", "not a gfid")
    assert err.value.code == "BadGfid"


def test_retrieve_remote_down_is_unreachable(vo):
    gfid_b, _ = vo.add("site_b", sample_file())
    vo.site_down("site_b")
    with pytest.raises(RemoteError) as err:
        vo.retrieve("site_a", gfid_b)
    assert err.value.code == "RemoteUnreachable"


def test_auth_checked_before_any_effect(vo):
    node = vo.nodes["site_a"]
    request = wire.make_request("Add", None, {"file_b64": wire.to_b64(sample_file())})
    response = node.handle_request(request)
    with pytest.raises(RemoteError) as err:
        wire.unwrap(response)
    assert err.value.code == "AuthFailure"
    assert node.store.site_stats().num_image_files == 0

    stale = auth.issue_token(vo.vo_secret, "x", ["clinician"], vo.clock.now_ms(),
                             ttl_s=0)
    vo.clock.advance(1_000)
    request = wire.make_request("Add", stale, {"file_b64": wire.to_b64(sample_file())})
    with pytest.raises(RemoteError):
        wire.unwrap(node.handle_request(request))
    assert node.store.site_stats().num_image_files == 0


def test_node_unknown_op(vo):
    node = vo.nodes["site_a"]
    request = wire.make_request("Frobnicate", node_token(vo), {})
    with pytest.raises(RemoteError) as err:
        wire.unwrap(node.handle_request(request))
    assert err.value.code == "UnknownOp"


def test_registry_unknown_op_is_answered_as_a_node_answers(vo):
    request = wire.make_request("Frobnicate", node_token(vo), {})
    for service in (vo.registry, vo.nodes["site_a"]):
        with pytest.raises(RemoteError) as err:
            wire.unwrap(service.handle_request(request))
        assert err.value.code == "UnknownOp"


def test_node_does_not_serve_task_result(vo):
    # a remote task's outcome is its RunTask reply; no callback op exists
    node = vo.nodes["site_a"]
    request = wire.make_request("TaskResult", node_token(vo), {
        "job_id": "x", "site": "site_b", "state": "DONE",
        "images_selected": 0, "derived_written": 0})
    with pytest.raises(RemoteError) as err:
        wire.unwrap(node.handle_request(request))
    assert err.value.code == "UnknownOp"


REGISTRY_OPS = ("Authenticate", "ListSites", "RegisterSite")


def readme_ops():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Ops:\s*(.*?)\.\n", text, re.S)
    assert listing, "README lists no ops"
    return re.findall(r"`(\w+)`", listing.group(1))


def test_readme_ops_are_served(vo):
    ops = readme_ops()
    assert set(REGISTRY_OPS) <= set(ops) and "RunTask" in ops
    for op in ops:
        service = vo.registry if op in REGISTRY_OPS else vo.nodes["site_a"]
        response = service.handle_request(wire.make_request(op, node_token(vo), {}))
        error = response.get("error") or {}
        assert error.get("code") != "UnknownOp", op
        assert "does not serve" not in error.get("msg", ""), op


def test_query_local_only_stays_local(vo):
    vo.add("site_a", sample_file(patient="P-A"))
    vo.add("site_b", sample_file(patient="P-B"))
    node = vo.nodes["site_a"]
    request = wire.make_request("Query", node_token(vo), {
        "query": "SELECT images WHERE patient.age > 0", "local_only": True})
    body = wire.unwrap(node.handle_request(request))
    rs = federation.from_part(body["part"], "site_a", "images")
    assert [r.site_id for r in rs.rows] == ["site_a"]
    # EXEC cannot ride a local-only subquery
    request = wire.make_request("Query", node_token(vo), {
        "query": "EXEC density-v1 WHERE patient.age > 0", "local_only": True})
    with pytest.raises(RemoteError) as err:
        wire.unwrap(node.handle_request(request))
    assert err.value.code == "BadFrame"


@pytest.mark.parametrize("reply", [
    {},
    {"part": "<resultset target=\"images\" complete=\"true\"/>"},
    {"part": {"target": "patients", "columns": [], "rows": []}},
    {"part": {"target": "images", "columns": ["patient.id"], "rows": [["site_b:1", "x"]]}},
    {"part": {"target": "images", "columns": list(federation.IMAGE_COLUMNS),
              "rows": [["site_a:1"] + [""] * len(federation.IMAGE_COLUMNS)]}},
], ids=["no part", "xml", "wrong target", "wrong columns", "row of another site"])
def test_malformed_peer_part_is_a_bad_response(vo, monkeypatch, reply):
    vo.add("site_a", sample_file(patient="P-A"))
    vo.add("site_b", sample_file(patient="P-B"))
    monkeypatch.setattr(vo.nodes["site_b"], "_op_query", lambda claims, body: reply)
    xml = vo.query_xml("site_a", "SELECT images WHERE patient.age > 0")
    rs = federation.from_xml(xml)
    assert xml.startswith('<resultset target="images" complete="false">')
    assert rs.missing == (("site_b", "bad response"),)
    assert [r.row_id for r in rs.rows] == ["site_a:1"]


def test_add_stores_the_blob_under_its_content_hash(vo):
    gfid, _ = vo.add("site_a", sample_file(patient="P-A"))
    store = vo.nodes["site_a"].store
    ref = store.blob(int(gfid.split(":")[1]))
    path = store._blob_path(ref.sha256)
    assert path.name == ref.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert ref.size_bytes == path.stat().st_size
    assert store.get_blob(ref) == path.read_bytes()


def test_query_syntax_errors_propagate(vo):
    with pytest.raises(RemoteError) as err:
        vo.query("site_a", "SELECT nothing WHERE patient.age > 0")
    assert err.value.code == "SyntaxError"
    with pytest.raises(RemoteError) as err:
        vo.query("site_a", "SELECT images WHERE patient.nope > 0")
    assert err.value.code == "UnknownField"


def test_query_bad_number_is_a_syntax_error(vo):
    for text in ("SELECT images WHERE patient.age > 1.2.3",
                 "SELECT images WHERE patient.age IN [1..2, 3]"):
        with pytest.raises(RemoteError) as err:
            vo.query("site_a", text)
        assert err.value.code == "SyntaxError", text


SELECT_ALL = "SELECT images WHERE patient.age > 0"


@pytest.mark.parametrize("service, op, body", [
    ("site_a", "AddAlgorithm", {"algo_id": "d-v1", "kind": "density", "params": "abc"}),
    ("registry", "AddAlgorithm", {"algo_id": "d-v1", "kind": "density", "params": "abc"}),
    ("site_a", "RunTask", {"job_id": "j", "algo": "density", "selector": SELECT_ALL}),
    ("site_a", "RunTask", {"job_id": "j", "selector": SELECT_ALL,
                           "algo": {"algo_id": "d-v1", "kind": "density", "params": "abc"}}),
    ("site_a", "RunTask", {"job_id": "j", "selector": SELECT_ALL,
                           "algo": {"algo_id": "d-v1", "kind": "density", "params": []}}),
], ids=["node params text", "registry params text", "run-task algo text",
        "run-task params text", "run-task params list"])
def test_malformed_descriptor_is_bad_params(vo, service, op, body):
    target = vo.registry if service == "registry" else vo.nodes[service]
    session = node_token(vo, roles=("clinician", "admin"))
    response = target.handle_request(wire.make_request(op, session, body))
    assert response["status"] == "error"
    assert response["error"]["code"] == "BadParams"


def test_node_on_tcp_drains_a_job_on_its_own_thread(tmp_path):
    node = Node({
        "site_id": "site_a", "listen": "127.0.0.1:1", "registry": "127.0.0.1:2",
        "data_dir": str(tmp_path / "site_a"),
        "site_secret": "site-a-secret-0123456789abcdef", "vo_secret": VO_SECRET,
    }, TcpTransport())
    node.algorithms["density-v1"] = AlgorithmDescriptor("density-v1", "density")
    session = auth.issue_token(VO_SECRET, "alice", ["clinician"], int(time.time() * 1000))

    def ask(op, body):
        return wire.unwrap(node.handle_request(wire.make_request(op, session, body)))

    try:
        ask("Add", {"file_b64": wire.to_b64(sample_file())})
        job_id = ask("ExecuteAlgorithm", {"algo_id": "density-v1",
                                          "selector": SELECT_ALL})["job_id"]
        deadline = time.monotonic() + 10
        while (ask("JobStatus", {"job_id": job_id})["job"]["state"] != "COMPLETED"
               and time.monotonic() < deadline):
            time.sleep(0.01)
        job = ask("JobStatus", {"job_id": job_id})["job"]
        assert job["state"] == "COMPLETED"
        assert [t["derived_written"] for t in job["tasks"]] == [1]
    finally:
        node.store.close()


def test_node_add_algorithm_enforces_registry_admin(vo):
    vo.login("bob", "bob-pw")  # clinician only
    with pytest.raises(RemoteError) as err:
        vo.algo_add("site_a", "density-v1", "density")
    assert err.value.code == "AuthFailure"
    vo.login("alice", "alice-pw")
    vo.algo_add("site_a", "density-v1", "density")
    # the submitting node refreshes at once; the rest learn on their next poll
    assert "density-v1" in vo.nodes["site_a"].algorithms
    vo.poll("site_b")
    assert "density-v1" in vo.nodes["site_b"].algorithms


def test_node_restart_keeps_data(vo):
    vo.add("site_a", sample_file(patient="P-A"))
    before = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    vo.restart("site_a")
    after = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert before == after


def test_queries_survive_registry_outage(vo):
    vo.add("site_a", sample_file(patient="P-A"))
    vo.add("site_b", sample_file(patient="P-B"))
    vo.registry_down()
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.complete and len(rs.rows) == 2  # cached topology carries the VO
    vo.registry_up()


@pytest.mark.parametrize("field, entry", [
    ("sites", {"site_id": "site_z"}),
    ("sites", "site_z"),
    ("algorithms", {"kind": "density", "params": {}}),
    ("algorithms", {"algo_id": "x", "params": []}),
])
def test_malformed_registry_entry_keeps_the_cached_topology(vo, monkeypatch, field, entry):
    node = vo.nodes["site_a"]
    before = (dict(node.topology), dict(node.algorithms))
    list_sites = vo.registry._op_list_sites

    def with_bad_entry():
        body = list_sites()
        body[field].append(entry)
        return body

    monkeypatch.setattr(vo.registry, "_op_list_sites", with_bad_entry)
    assert node.refresh_topology() is False
    assert (node.topology, node.algorithms) == before
    monkeypatch.undo()
    assert node.refresh_topology() is True


def test_site_down_yields_partial_results(vo):
    vo.add("site_a", sample_file(patient="P-A"))
    vo.add("site_b", sample_file(patient="P-B"))
    vo.site_down("site_b")
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert not rs.complete
    assert rs.missing == (("site_b", "unreachable"),)
    assert [r.site_id for r in rs.rows] == ["site_a"]
    vo.site_up("site_b")
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.complete and len(rs.rows) == 2


# --- real sockets ---------------------------------------------------------------

def echo_handler(request: dict) -> dict:
    return wire.ok_response({"echo": request["body"]})


def test_tcp_round_trip():
    server = Server(echo_handler, "127.0.0.1:0")
    server.start()
    try:
        transport = TcpTransport()
        address = f"127.0.0.1:{server.port}"
        response = transport.call(address, wire.make_request("Echo", None, {"n": 1}))
        assert wire.unwrap(response) == {"echo": {"n": 1}}
    finally:
        server.stop()


def test_tcp_port_clash():
    server = Server(echo_handler, "127.0.0.1:0")
    server.start()
    try:
        with pytest.raises(PortClash):
            Server(echo_handler, f"127.0.0.1:{server.port}")
    finally:
        server.stop()


def test_tcp_connection_refused():
    transport = TcpTransport()
    sink = socket.socket()
    sink.bind(("127.0.0.1", 0))
    port = sink.getsockname()[1]
    sink.close()  # nothing listens here now
    with pytest.raises(ConnectionRefused):
        transport.call(f"127.0.0.1:{port}", wire.make_request("Echo", None, {}))
    with pytest.raises(ConnectionRefused):
        transport.call("not-an-address", wire.make_request("Echo", None, {}))


def test_tcp_timeout():
    def slow_handler(request):
        time.sleep(0.5)
        return wire.ok_response({})

    server = Server(slow_handler, "127.0.0.1:0")
    server.start()
    try:
        transport = TcpTransport()
        with pytest.raises(Timeout):
            transport.call(f"127.0.0.1:{server.port}",
                           wire.make_request("Echo", None, {}), timeout_ms=100)
    finally:
        server.stop()


def test_tcp_server_rejects_bad_frames():
    server = Server(echo_handler, "127.0.0.1:0")
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(struct.pack(">I", wire.MAX_FRAME + 1))
            response = wire.recv_frame(sock)
            assert response["error"]["code"] == "FrameTooLarge"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(struct.pack(">I", 7) + b"not js{")
            response = wire.recv_frame(sock)
            assert response["error"]["code"] == "BadFrame"
        # a clean connect-then-close must not wedge the server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5):
            pass
        transport = TcpTransport()
        response = transport.call(f"127.0.0.1:{server.port}",
                                  wire.make_request("Echo", None, {"n": 2}))
        assert wire.unwrap(response) == {"echo": {"n": 2}}
    finally:
        server.stop()


def test_tcp_concurrent_calls():
    lock = threading.Lock()
    seen = []

    def handler(request):
        with lock:
            seen.append(request["body"]["n"])
        return wire.ok_response({"n": request["body"]["n"]})

    server = Server(handler, "127.0.0.1:0")
    server.start()
    try:
        transport = TcpTransport()
        address = f"127.0.0.1:{server.port}"
        threads = []
        results = {}

        def call(n):
            results[n] = wire.unwrap(transport.call(
                address, wire.make_request("Echo", None, {"n": n})))["n"]

        for n in range(8):
            t = threading.Thread(target=call, args=(n,))
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
        assert results == {n: n for n in range(8)}
        assert sorted(seen) == list(range(8))
    finally:
        server.stop()
