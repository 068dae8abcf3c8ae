"""Corpus generation, config parsing, the simulation harness, and the CLI."""

import hashlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from mgvo import cli, dicom, federation
from mgvo.errors import BadParams, BadValue
from mgvo.harness import config as cfg
from mgvo.harness import corpus, oracle
from mgvo.harness.sim import SimVO, corpus_split, sim_run, transcript_text
from mgvo.services import auth
from mgvo.services.node import Node
from mgvo.services.registry import Registry
from mgvo.services.tcp import Server, TcpTransport
from mgvo.store import SiteStore

TOPOLOGY_TEXT = """
# two-site bench
registry = registry.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002
"""

TOPOLOGY = cfg.parse_topology(TOPOLOGY_TEXT)


# --- corpus -----------------------------------------------------------------------

def test_gen_corpus_is_deterministic():
    first_manifest, first_files = corpus.gen_corpus(7, 3, 2, rows=32, cols=32)
    second_manifest, second_files = corpus.gen_corpus(7, 3, 2, rows=32, cols=32)
    assert first_manifest == second_manifest
    assert first_files == second_files
    other_manifest, _ = corpus.gen_corpus(8, 3, 2, rows=32, cols=32)
    assert other_manifest != first_manifest


def test_gen_corpus_counts_and_edges():
    manifest, files = corpus.gen_corpus(1, 0, 5)
    assert manifest["files"] == [] and files == {}
    manifest, files = corpus.gen_corpus(1, 4, 3, rows=16, cols=16)
    assert len(files) == 12
    assert sorted(files) == [f"img_{i:05d}.dcm" for i in range(1, 13)]
    for bad in ((-1, 3, 16, 16), (4, -3, 16, 16), (4, 3, 4, 16), (4, 3, 16, 4)):
        with pytest.raises(BadParams):
            corpus.gen_corpus(1, bad[0], bad[1], rows=bad[2], cols=bad[3])


def test_corpus_files_match_manifest():
    manifest, files = corpus.gen_corpus(9, 4, 2, rows=32, cols=32)
    for entry in manifest["files"]:
        data = files[entry["filename"]]
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        meta = dicom.extract_metadata(dicom.parse_dicom(data))
        assert meta.patient_id_raw == entry["raw_patient_id"]
        assert meta.patient_name_raw == entry["raw_patient_name"]
        assert meta.birth_date == entry["birth_date"]
        assert meta.sex == entry["sex"]
        assert meta.study_date == entry["study_date"]
        assert meta.laterality == entry["laterality"]
        assert meta.view == entry["view"]
        assert meta.height_m == entry["height_m"]
        assert meta.weight_kg == entry["weight_kg"]
        assert (meta.rows, meta.cols) == (32, 32)
        assert meta.modality == "MG"


def test_corpus_images_are_trimodal():
    manifest, files = corpus.gen_corpus(10, 3, 2, rows=64, cols=64)
    for entry in manifest["files"]:
        ts = dicom.parse_dicom(files[entry["filename"]])
        pixels = np.frombuffer(ts.get(dicom.PIXEL_DATA)[1], dtype=np.uint8)
        hist = np.bincount(pixels, minlength=256)
        # background 5..40, dense tissue 120..180, specks 240..255 -- the
        # gaps between the modes must be completely empty
        assert hist[0:5].sum() == 0
        assert hist[41:120].sum() == 0
        assert hist[181:240].sum() == 0
        # the recorded density is literally the fraction brighter than 100
        measured = round(100.0 * float((pixels > 100).sum()) / pixels.size, 2)
        assert measured == entry["planted_dense_fraction"]


def test_corpus_blob_ground_truth():
    from mgvo.algorithms import plugin_microcalc
    manifest, files = corpus.gen_corpus(11, 3, 2, rows=48, cols=48)
    for entry in manifest["files"]:
        ts = dicom.parse_dicom(files[entry["filename"]])
        pixels = np.frombuffer(ts.get(dicom.PIXEL_DATA)[1],
                               dtype=np.uint8).reshape(48, 48)
        count, boxes = plugin_microcalc(pixels, {"threshold": 200})
        assert count == entry["planted_blob_count"]
        assert [list(b) for b in boxes] == entry["planted_blob_bboxes"]


def test_corpus_names_never_look_like_hex():
    # pseudonyms are lowercase hex; raw names must never be mistakable for
    # them in a leak scan, so every name carries a clearly non-hex letter
    for name in corpus.FAMILY_NAMES + corpus.GIVEN_NAMES:
        assert any(c not in "0123456789abcdefABCDEF" for c in name)


def test_write_corpus_round_trip(tmp_path):
    manifest, files = corpus.gen_corpus(2, 2, 1, rows=16, cols=16)
    manifest_path = corpus.write_corpus(manifest, files, tmp_path / "corpus")
    assert corpus.load_manifest(manifest_path) == manifest
    for filename, data in files.items():
        assert (tmp_path / "corpus" / filename).read_bytes() == data


def test_corpus_split_keeps_patients_whole():
    manifest, files = corpus.gen_corpus(3, 7, 3, rows=16, cols=16)
    split = corpus_split(manifest, files, ["site_a", "site_b", "site_c"])
    by_file = {e["filename"]: e["raw_patient_id"] for e in manifest["files"]}
    seen = set()
    patient_site = {}
    for site, items in split.items():
        for filename, data in items:
            assert files[filename] == data
            seen.add(filename)
            assert patient_site.setdefault(by_file[filename], site) == site
    assert seen == set(files)
    # seven patients dealt round-robin over three sites: 3/2/2
    counts = sorted(sum(1 for home in patient_site.values() if home == site)
                    for site in split)
    assert counts == [2, 2, 3]


# --- config, topology, script -------------------------------------------------------

def test_parse_config(tmp_path):
    path = tmp_path / "node.conf"
    path.write_text("""
# a comment
site_id = site_a
listen = 127.0.0.1:7001
registry = 127.0.0.1:7000
data_dir = /tmp/x
site_secret = 0123456789abcdef
vo_secret = fedcba9876543210
query_timeout_ms = 2500
public = false
""", encoding="utf-8")
    conf = cfg.load_config(path)
    assert conf["site_id"] == "site_a"
    assert conf["query_timeout_ms"] == 2500
    assert conf["public"] is False
    assert conf["poll_interval_s"] == 10  # default


def test_parse_config_errors():
    with pytest.raises(BadValue):
        cfg.parse_config_text("just a word\n")
    with pytest.raises(BadValue):
        cfg.parse_config_text("query_timeout_ms = soon\n")
    with pytest.raises(BadValue):
        cfg.parse_config_text(" = naked value\n")


def test_parse_topology():
    topo = cfg.parse_topology("""
registry = r.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002 latency=250 drop=true
""")
    assert topo.registry_address == "r.sim:7000"
    assert [s.site_id for s in topo.sites] == ["site_a", "site_b"]
    assert topo.site("site_b").latency_ms == 250
    assert topo.site("site_b").drop is True
    assert topo.site("site_a").latency_ms == 0
    assert topo.site("site_a").drop is False
    assert topo.site("site_z") is None


def test_parse_topology_errors():
    with pytest.raises(BadValue):
        cfg.parse_topology("site = site_a a.sim:7001\n")  # no registry
    with pytest.raises(BadValue):
        cfg.parse_topology("registry = r.sim:7000\n")  # no sites
    with pytest.raises(BadValue):
        cfg.parse_topology("registry = r.sim:7000\nsite = site_a\n")
    with pytest.raises(BadValue):
        cfg.parse_topology(
            "registry = r.sim:7000\nsite = site_a a.sim:1 latency=fast\n")
    with pytest.raises(BadValue):
        cfg.parse_topology(
            "registry = r.sim:7000\nsite = site_a a.sim:1 color=red\n")
    with pytest.raises(BadValue):
        cfg.parse_topology("registry = r.sim:7000\nwhat = ever\n")


def test_parse_script():
    commands = cfg.parse_script("""
# warm up
login alice alice-pw
add site_a corpus/img_00001.dcm
query site_a SELECT images WHERE patient.age > 40
site-down site_b
sites
drain site_a
""")
    assert [c.name for c in commands] == [
        "login", "add", "query", "site-down", "sites", "drain"]
    assert commands[2].args == ("site_a",)
    assert commands[2].rest == "SELECT images WHERE patient.age > 40"
    assert commands[4].args == ()


def test_parse_script_errors():
    with pytest.raises(BadValue):
        cfg.parse_script("warp site_a\n")  # unknown command
    with pytest.raises(BadValue):
        cfg.parse_script("login alice\n")  # missing argument
    with pytest.raises(BadValue):
        cfg.parse_script("query site_a\n")  # required trailing text missing
    with pytest.raises(BadValue):
        cfg.parse_script("drain site_a please\n")  # no trailing text allowed


# --- simulation --------------------------------------------------------------------

SCRIPT = """
login alice alice-pw
add site_a {corpus_a}
add site_b {corpus_b}
query site_a SELECT images WHERE patient.age > 0
algo-add site_a density-v1 density
algo-exec site_a density-v1 SELECT images WHERE patient.age > 0
drain site_a
job-status site_a last
query site_b SELECT images WHERE derived.density_pct >= 0
retrieve site_b site_a:1
sites
"""


def _script(tmp_path):
    manifest, files = corpus.gen_corpus(4, 2, 2, rows=32, cols=32)
    split = corpus_split(manifest, files, ["site_a", "site_b"])
    dirs = {}
    for site, items in split.items():
        site_dir = tmp_path / f"corpus_{site}"
        site_dir.mkdir()
        for filename, data in items:
            (site_dir / filename).write_bytes(data)
        dirs[site] = site_dir
    return SCRIPT.format(corpus_a=dirs["site_a"], corpus_b=dirs["site_b"])


def test_sim_run_transcript_is_deterministic(tmp_path):
    script = _script(tmp_path)
    first = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run1", seed=5)
    second = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run2", seed=5)
    assert transcript_text(first) == transcript_text(second)
    assert all(e["ok"] for e in first if e["kind"] == "event")
    reseeded = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run3", seed=6)
    assert transcript_text(reseeded) != transcript_text(first)


def _free_ports(n):
    import socket
    holders = [socket.socket() for _ in range(n)]
    try:
        for s in holders:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in holders]
    finally:
        for s in holders:
            s.close()


def test_sim_run_real_sockets_smoke(tmp_path):
    script = _script(tmp_path)
    reg_port, a_port, b_port = _free_ports(3)
    topology = (f"registry = 127.0.0.1:{reg_port}\n"
                f"site = site_a 127.0.0.1:{a_port}\n"
                f"site = site_b 127.0.0.1:{b_port}\n")
    entries = sim_run(topology, script, tmp_path / "real", seed=5,
                      real_sockets=True)
    events = [e for e in entries if e["kind"] == "event"]
    assert events and all(e["ok"] for e in events)
    statuses = [e for e in events if e["action"] == "job-status"]
    assert statuses and statuses[0]["detail"]["state"] == "COMPLETED"

    # both backends boot and poll alike, so the same script gives the same
    # events; job ids and timing differ, and real nodes drain on their own
    simulated = sim_run(TOPOLOGY_TEXT, script, tmp_path / "sim", seed=5)
    assert _comparable(entries) == _comparable(simulated)


def _comparable(entries):
    out = []
    for e in entries:
        if e["kind"] != "event":
            continue
        detail = {k: v for k, v in e["detail"].items() if k != "job_id"}
        if e["action"] == "algo-exec":
            detail.pop("state")
        out.append((e["action"], e["ok"], detail))
    return out


def test_sim_run_closes_every_store(tmp_path, monkeypatch):
    closed = []
    real_close = SiteStore.close

    def counting(store):
        closed.append(store.data_dir.name)
        real_close(store)

    monkeypatch.setattr(SiteStore, "close", counting)
    sim_run(TOPOLOGY_TEXT, "login alice alice-pw\nsites\n", tmp_path / "run")
    assert sorted(closed) == ["site_a", "site_b"]


def test_transcript_entries_are_json_lines(tmp_path):
    script = _script(tmp_path)
    entries = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run", seed=5)
    text = transcript_text(entries)
    lines = text.strip().split("\n")
    assert len(lines) == len(entries)
    parsed = [json.loads(line) for line in lines]
    assert [e["seq"] for e in parsed] == sorted(e["seq"] for e in parsed)
    assert {e["kind"] for e in parsed} == {"frame", "event"}


def test_sim_net_counters_match_frames(tmp_path, closing):
    vo = closing(SimVO(TOPOLOGY, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    vo.query("site_a", "SELECT images WHERE patient.age > 0")
    sent = {}
    recv = {}
    for frame in vo.frames():
        src, _, dst = frame["link"].partition("->")
        sent[src] = sent.get(src, 0) + 1
        recv[dst] = recv.get(dst, 0) + 1
    assert sent.get("client", 0) >= 2  # login plus query, at least
    for (endpoint, direction), count in vo.net.counters.items():
        have = sent if direction == "sent" else recv
        assert have.get(endpoint, 0) == count


def test_sim_query_decodes_the_answer_once(tmp_path, monkeypatch, closing):
    decoded = []
    real = federation.from_xml

    def counting(xml):
        decoded.append(xml)
        return real(xml)

    manifest, files = corpus.gen_corpus(6, 4, 1, rows=32, cols=32)
    vo = closing(SimVO(TOPOLOGY, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    for site, items in corpus_split(manifest, files, ["site_a", "site_b"]).items():
        for _filename, data in items:
            vo.add(site, data)
    monkeypatch.setattr(federation, "from_xml", counting)
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    answer = vo.query_xml("site_a", "SELECT images WHERE patient.age > 0")
    assert rs == real(answer)
    # per query: the client's answer once; the gateway reads peer parts
    # in the node-to-node form and decodes no XML
    assert decoded == [answer, answer]


def test_sim_latency_advances_virtual_time(tmp_path, closing):
    topo = cfg.parse_topology("""
registry = r.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002 latency=100
""")
    vo = closing(SimVO(topo, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    t0 = vo.clock.now_ms()
    vo.query("site_a", "SELECT images WHERE patient.age > 0")
    # client->site_a is free; the nested site_a->site_b exchange costs
    # 100 ms of one-way latency in each direction
    assert vo.clock.now_ms() - t0 == 200


def test_sim_slow_site_times_out(tmp_path, closing):
    topo = cfg.parse_topology("""
registry = r.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002 latency=3000
""")
    vo = closing(SimVO(topo, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    # 3000 ms each way blows the node's 5000 ms subquery deadline
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.missing == (("site_b", "timeout"),)
    assert not rs.complete


def test_sim_dropped_site_starts_invisible(tmp_path, closing):
    topo = cfg.parse_topology("""
registry = r.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002 drop=true
""")
    vo = closing(SimVO(topo, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    # a dropped site never registered, so nobody consults it and the
    # answer is complete without it
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.complete and rs.missing == ()
    assert not any("site_b" in f["link"] for f in vo.frames())
    assert all(d["site_id"] != "site_b" for d in vo.sites())

    vo.site_up("site_b")
    vo.nodes["site_b"].register_with_registry()
    vo.poll("site_a")
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.complete
    assert any(f["link"] == "site_a->site_b" for f in vo.frames())


def test_script_failures_become_events(tmp_path):
    script = ("login alice wrong-password\n"
              "login alice alice-pw\n"
              "query site_a SELECT nonsense\n")
    entries = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run", seed=1)
    events = [e for e in entries if e["kind"] == "event"]
    assert [e["ok"] for e in events] == [False, True, False]
    assert events[0]["detail"]["error"] == "BadCredentials"
    assert events[2]["detail"]["error"] == "SyntaxError"


@pytest.mark.parametrize("bad", ["threshold=abc", "threshold", "threshold=1.2.3"])
def test_script_bad_algo_params_become_events(tmp_path, bad):
    script = ("login alice alice-pw\n"
              f"algo-add site_a density-v1 density {bad}\n"
              "algo-add site_a density-v1 density threshold=100\n")
    entries = sim_run(TOPOLOGY_TEXT, script, tmp_path / "run", seed=1)
    events = [e for e in entries if e["kind"] == "event"]
    assert [(e["action"], e["ok"]) for e in events] == [
        ("login", True), ("algo-add", False), ("algo-add", True)]
    assert events[1]["detail"]["error"] == "BadParams"


@pytest.mark.parametrize("real_sockets", [False, True], ids=["sim", "tcp"])
@pytest.mark.parametrize("line", ["restart site_z", "poll site_z", "drain site_z",
                                  "site-up site_z", "site-down site_z"])
def test_script_unknown_site_is_a_bad_value(tmp_path, line, real_sockets):
    reg_port, a_port = _free_ports(2)
    topology = (f"registry = 127.0.0.1:{reg_port}\n"
                f"site = site_a 127.0.0.1:{a_port}\n")
    script = f"login alice alice-pw\n{line}\nsites\n"
    entries = sim_run(topology, script, tmp_path / "run", seed=1,
                      real_sockets=real_sockets)
    events = [e for e in entries if e["kind"] == "event"]
    assert [(e["action"], e["ok"]) for e in events] == [
        ("login", True), (line.split()[0], False), ("sites", True)]
    assert events[1]["detail"]["error"] == "BadValue"


def test_parse_params():
    assert cfg.parse_params(["threshold=100", "sigma=1.5"]) == {
        "threshold": 100, "sigma": 1.5}
    assert cfg.parse_params([]) == {}
    for bad in ("threshold=abc", "threshold", "threshold=", "x=1.2.3"):
        with pytest.raises(BadParams):
            cfg.parse_params([bad])


# --- the oracle ---------------------------------------------------------------------

def test_oracle_on_handcrafted_rows():
    dumps = {
        "site_b": {"images": [
            {"patient.id": "b" * 16, "patient.sex": "F", "patient.age": 61,
             "image.laterality": "L", "image.view": "CC", "image.modality": "MG",
             "image.study_date": "20040101", "_local_id": 1, "_pid": "b" * 16},
        ], "patients": [
            {"patient.id": "b" * 16, "patient.sex": "F", "_pid": "b" * 16},
        ]},
        "site_a": {"images": [
            {"patient.id": "a" * 16, "patient.sex": "F", "patient.age": 44,
             "image.laterality": "L", "image.view": "MLO", "image.modality": "MG",
             "image.study_date": "20040202", "_local_id": 1, "_pid": "a" * 16},
            {"patient.id": "a" * 16, "patient.sex": "F", "patient.age": 44,
             "image.laterality": "R", "image.view": "CC", "image.modality": "MG",
             "image.study_date": "20040202", "_local_id": 2, "_pid": "a" * 16},
        ], "patients": [
            {"patient.id": "a" * 16, "patient.sex": "F", "_pid": "a" * 16},
        ]},
    }
    columns, rows = oracle.oracle_eval(
        dumps, "SELECT images WHERE patient.age > 50")
    assert columns == ("patient.id", "patient.sex", "patient.age",
                       "image.laterality", "image.view", "image.modality",
                       "image.study_date")
    assert [(site, row_id) for site, row_id, _ in rows] == [("site_b", "site_b:1")]
    assert rows[0][2] == ("b" * 16, "F", "61", "L", "CC", "MG", "20040101")

    # image rows sort by site then numeric local id; patient rows by pid
    _, rows = oracle.oracle_eval(dumps, "SELECT images WHERE patient.sex = 'F'")
    assert [row_id for _, row_id, _ in rows] == ["site_a:1", "site_a:2", "site_b:1"]
    _, rows = oracle.oracle_eval(dumps, "SELECT patients WHERE image.view = 'CC'")
    assert [row_id for _, row_id, _ in rows] == ["a" * 16, "b" * 16]

    # restricting to live sites drops the other site's rows entirely
    _, rows = oracle.oracle_eval(dumps, "SELECT images WHERE patient.sex = 'F'",
                                 sites=["site_b"])
    assert [row_id for _, row_id, _ in rows] == ["site_b:1"]


def test_oracle_agrees_with_a_live_vo(tmp_path, closing):
    manifest, files = corpus.gen_corpus(6, 6, 2, rows=32, cols=32)
    split = corpus_split(manifest, files, ["site_a", "site_b"])
    vo = closing(SimVO(TOPOLOGY, tmp_path / "vo"))
    vo.login("alice", "alice-pw")
    for site, items in split.items():
        for filename, data in items:
            vo.add(site, data)
    dumps = {site: {"images": vo.nodes[site].store.dump_rows("images"),
                    "patients": vo.nodes[site].store.dump_rows("patients")}
             for site in vo.nodes}
    for text in ("SELECT images WHERE patient.age >= 40",
                 "SELECT patients WHERE patient.sex = 'F'",
                 "SELECT images WHERE image.laterality = 'L'"
                 " AND patient.age IN [40, 60]"):
        rs = vo.query("site_a", text)
        assert oracle.resultset_rows(rs) == oracle.oracle_eval(dumps, text)[1]


# --- the command line over loopback --------------------------------------------------

VO_SECRET = "vo-cli-secret-0123456789abcdef"


@pytest.fixture
def cluster(tmp_path):
    """A registry and one node on real sockets, plus a CLI config file."""
    registry = Registry(tmp_path / "registry", VO_SECRET.encode("utf-8"))
    registry.add_user("alice", "alice-pw", ("clinician", "admin"))
    reg_server = Server(registry.handle_request, "127.0.0.1:0").start()

    node = None
    node_server = Server(lambda req: node.handle_request(req), "127.0.0.1:0").start()
    config = {
        "site_id": "site_a",
        "listen": f"127.0.0.1:{node_server.port}",
        "registry": f"127.0.0.1:{reg_server.port}",
        "data_dir": str(tmp_path / "site_a"),
        "site_secret": "site-a-secret-0123456789abcdef",
        "vo_secret": VO_SECRET,
    }
    node = Node(config, TcpTransport())
    node.register_with_registry()

    conf_path = tmp_path / "cli.conf"
    conf_path.write_text(
        "".join(f"{key} = {value}\n" for key, value in config.items()),
        encoding="utf-8")
    try:
        yield {"config": str(conf_path), "node": node}
    finally:
        node_server.stop()
        reg_server.stop()
        node.store.close()


def run_cli(args, **kw):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False, **kw)


def test_cli_walkthrough(cluster, tmp_path):
    conf = cluster["config"]
    out_dir = tmp_path / "corpus"
    result = run_cli(["gen-corpus", "--seed", "3", "--patients", "2",
                      "--per-patient", "1", "--rows", "32", "--cols", "32",
                      "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert "wrote 2 files" in result.output

    result = run_cli(["login", "--config", conf, "-u", "alice",
                      "--password", "alice-pw"])
    assert result.exit_code == 0, result.output
    assert "logged in as alice" in result.output

    files = sorted(str(p) for p in out_dir.glob("*.dcm"))
    result = run_cli(["add", "--config", conf] + files)
    assert result.exit_code == 0, result.output
    assert "site_a:1" in result.output and "site_a:2" in result.output

    result = run_cli(["add", "--config", conf, files[0]])
    assert "(duplicate)" in result.output

    result = run_cli(["query", "--config", conf,
                      "SELECT images WHERE patient.age > 0"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].split("\t")[:2] == ["site", "id"]
    assert len(lines) == 3  # header + two image rows

    result = run_cli(["query", "--config", conf, "--xml",
                      "SELECT images WHERE patient.age > 0"])
    assert result.output.startswith("<resultset")

    out_file = tmp_path / "fetched.dcm"
    result = run_cli(["get", "--config", conf, "site_a:1", "-o", str(out_file)])
    assert result.exit_code == 0, result.output
    stored = dicom.parse_dicom(out_file.read_bytes())
    assert stored.get(dicom.PATIENT_NAME) is None

    result = run_cli(["sites", "--config", conf])
    assert result.exit_code == 0 and "site_a" in result.output

    result = run_cli(["algo", "add", "--config", conf, "--id", "density-v1",
                      "--kind", "density", "--param", "threshold=100"])
    assert result.exit_code == 0, result.output
    assert "registered density-v1" in result.output

    result = run_cli(["algo", "exec", "--config", conf, "--id", "density-v1",
                      "--where", "patient.age > 0"])
    assert result.exit_code == 0, result.output
    job_id = result.output.split()[1]

    deadline = time.time() + 10
    while time.time() < deadline:
        jobs = cluster["node"].jobs
        if jobs and all(j.state not in ("DISPATCHED", "RUNNING")
                        for j in jobs.values()):
            break
        time.sleep(0.05)
    result = run_cli(["job", "status", "--config", conf, job_id])
    assert result.exit_code == 0, result.output
    assert '"state": "COMPLETED"' in result.output

    result = run_cli(["query", "--config", conf,
                      "SELECT images WHERE derived.density_pct >= 0"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 3  # header + two rows


def test_cli_error_exit_codes(cluster, tmp_path):
    conf = cluster["config"]
    run_cli(["login", "--config", conf, "-u", "alice", "--password", "alice-pw"])

    result = run_cli(["query", "--config", conf, "SELECT images WHERE nope = 1"])
    assert result.exit_code == 1
    assert "UnknownField" in result.stderr

    result = run_cli(["get", "--config", conf, "site_a:999",
                      "-o", str(tmp_path / "x.dcm")])
    assert result.exit_code == 2
    assert "NotFound" in result.stderr

    result = run_cli(["login", "--config", conf, "-u", "alice",
                      "--password", "wrong"])
    assert result.exit_code == 1
    assert "BadCredentials" in result.stderr

    result = run_cli(["query", "SELECT images WHERE patient.age > 0"],
                     env={"MGVO_CONFIG": ""})
    assert result.exit_code == 1
    assert "no config" in result.stderr


def test_cli_algo_add_bad_param_is_a_user_error(cluster):
    conf = cluster["config"]
    run_cli(["login", "--config", conf, "-u", "alice", "--password", "alice-pw"])
    for bad in ("threshold=abc", "threshold"):
        result = run_cli(["algo", "add", "--config", conf, "--id", "density-v1",
                          "--kind", "density", "--param", bad])
        assert result.exit_code == 1
        assert "BadParams" in result.stderr


def test_cli_user_add(cluster):
    conf = cluster["config"]
    result = run_cli(["user", "add", "--config", conf, "-u", "carol",
                      "--role", "clinician", "--password", "carol-pw"])
    assert result.exit_code == 0, result.output
    # the command appends to the users file under the configured data_dir
    users = auth.load_users(cfg.load_config(conf)["data_dir"] + "/users.txt")
    assert "carol" in users


def test_cli_sim_command(tmp_path):
    topo_path = tmp_path / "topo.conf"
    topo_path.write_text(TOPOLOGY_TEXT, encoding="utf-8")
    script_path = tmp_path / "script.txt"
    script_path.write_text("login alice alice-pw\nsites\n", encoding="utf-8")
    out_path = tmp_path / "transcript.jsonl"
    result = run_cli(["sim", "--topology", str(topo_path),
                      "--script", str(script_path),
                      "--transcript", str(out_path)])
    assert result.exit_code == 0, result.output
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    events = [json.loads(l) for l in lines if json.loads(l)["kind"] == "event"]
    assert events and all(e["ok"] for e in events)

    result = run_cli(["sim", "--topology", str(topo_path),
                      "--script", str(script_path)])
    assert result.exit_code == 0
    assert result.output == out_path.read_text(encoding="utf-8")
