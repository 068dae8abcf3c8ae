"""End-to-end acceptance gate.

Each test checks one release property of the federation as a whole and
prints a single visible verdict line; the details live in the unit modules.
The properties:

 1. federated answers equal a brute-force oracle over full dumps
 2. every site returns byte-identical XML for the same query
 3. no raw patient identifier survives into logs or onto the wire
 4. pixel data never crosses a link during queries or jobs
 5. retrieval returns byte-exact copies wherever it is asked
 6. losing a site degrades answers honestly, never silently
 7. the three codecs (query text, result XML, DICOM) round-trip exactly
 8. the job state machine admits only legal histories
 9. plugins recover the corpus generator's planted ground truth
10. a local scan of 10,000 images answers well under a second
"""

import base64
import binascii
import hashlib
import itertools
import json
import random
import re
import time
from collections import Counter

import numpy as np
import pytest

from helpers import rand_query, rand_resultset, rand_tagset
from mgvo import algorithms as alg
from mgvo import dicom, federation, mgql
from mgvo.errors import BadState, InvariantViolation
from mgvo.harness import corpus, oracle
from mgvo.harness.config import parse_topology
from mgvo.harness.sim import SimVO, corpus_split
from mgvo.model import ImageRecord, PatientRecord
from mgvo.services import wire
from mgvo.services.registry import SiteDescriptor
from mgvo.store import SiteStore

TOPOLOGY_3 = parse_topology("""
registry = registry.sim:7400
site = site_a a.sim:7401
site = site_b b.sim:7402
site = site_c c.sim:7403
""")
TOPOLOGY_2 = parse_topology("""
registry = registry.sim:7400
site = site_a a.sim:7401
site = site_b b.sim:7402
""")
SITES_3 = ("site_a", "site_b", "site_c")

QUERY_FIELDS = [f for f in mgql.FIELD_TYPES if f != "site.id"]
ALL_IMAGES = "SELECT images WHERE patient.age > 0"


def _verdict(capsys, number: int, label: str, ok: bool, note: str = "") -> None:
    tail = f" ({note})" if note else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number:02d} {label}{tail}")
    assert ok, f"acceptance {number:02d} {label}{tail}"


def _dumps(vo, sites=None) -> dict:
    return {site: {"images": vo.nodes[site].store.dump_rows("images"),
                   "patients": vo.nodes[site].store.dump_rows("patients")}
            for site in (sites or vo.nodes)}


def _by_id_queries(dumps, count=5) -> list:
    pids = sorted({row["patient.id"]
                   for dump in dumps.values() for row in dump["patients"]})
    step = max(len(pids) // count, 1)
    return [f"SELECT images WHERE patient.id = '{pid}'"
            for pid in pids[::step][:count]]


def _build_suite(rng: random.Random, dumps: dict) -> list:
    """>= 200 query texts: the three classic clinical forms plus fuzz.

    site.id predicates are deliberately excluded so every query always
    consults every site -- the degraded-mode check needs that.
    """
    texts = _by_id_queries(dumps)
    texts.append("SELECT patients WHERE patient.sex = 'F'")
    texts.append("SELECT images WHERE patient.age IN [50, 69]"
                 " AND image.laterality = 'L'")
    seen = set(texts)
    while len(texts) < 210:
        text = mgql.print_query(rand_query(rng, fields=QUERY_FIELDS))
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def _ingest(vo, split) -> None:
    for site, items in sorted(split.items()):
        for _filename, data in items:
            vo.add(site, data)


def _matches_oracle(vo, submit_site, text, dumps, sites=None) -> bool:
    rs = vo.query(submit_site, text)
    columns, rows = oracle.oracle_eval(dumps, text, sites=sites)
    if oracle.resultset_rows(rs) != rows:
        return False
    if rs.rows and rs.columns != columns:
        return False
    if sites is None and not (rs.complete and rs.missing == ()):
        return False
    return True


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """The canonical three-site VO: ingest, query suite, one density job.

    The frame tap between ``window`` markers covers the suite (from all
    three sites) plus the whole job -- the traffic the privacy and
    locality audits must clear.
    """
    tmp = tmp_path_factory.mktemp("acceptance")
    manifest, files = corpus.gen_corpus(1, 50, 4)
    split = corpus_split(manifest, files, list(SITES_3))
    vo = SimVO(TOPOLOGY_3, tmp / "vo")
    vo.login("alice", "alice-pw")
    _ingest(vo, split)

    dumps_pre = _dumps(vo)
    suite = _build_suite(random.Random(20050805), dumps_pre)

    window_start = vo.net.next_seq()
    xml = {text: {site: vo.query_xml(site, text) for site in SITES_3}
           for text in suite}
    vo.algo_add("site_a", "density-v1", "density", {})
    job_id = vo.algo_exec("site_a", "density-v1", ALL_IMAGES)
    vo.drain("site_a")
    job = vo.job_status("site_a", job_id)
    window_end = vo.net.next_seq()

    yield {"tmp": tmp, "vo": vo, "manifest": manifest, "suite": suite,
           "dumps_pre": dumps_pre, "xml": xml, "job": job,
           "window": (window_start, window_end)}
    vo.close()


# --- 1: federation vs oracle ----------------------------------------------------------

def test_01_federation_matches_oracle(ctx, tmp_path, capsys):
    started = time.monotonic()
    ok = True
    for seed in (1, 2, 3):
        manifest, files = corpus.gen_corpus(seed, 50, 4)
        for topology in (TOPOLOGY_2, TOPOLOGY_3):
            site_ids = [s.site_id for s in topology.sites]
            split = corpus_split(manifest, files, site_ids)
            vo = SimVO(topology, tmp_path / f"vo_{seed}_{len(site_ids)}")
            try:
                vo.login("alice", "alice-pw")
                _ingest(vo, split)
                dumps = _dumps(vo)
                suite = ctx["suite"] + _by_id_queries(dumps)
                for text in suite:
                    ok = ok and _matches_oracle(vo, site_ids[0], text, dumps)
            finally:
                vo.close()
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _verdict(capsys, 1, "federated answers equal the oracle", ok,
             f"6 corpora x {len(ctx['suite']) + 5} queries in {elapsed:.1f}s")


# --- 2: submission-site transparency --------------------------------------------------

def test_02_any_site_same_bytes(ctx, capsys):
    ok = all(len(set(per_site.values())) == 1 for per_site in ctx["xml"].values())
    _verdict(capsys, 2, "identical XML from every submission site", ok,
             f"{len(ctx['xml'])} queries x 3 sites")


# --- 3: anonymization leak scan --------------------------------------------------------

_B64_RE = re.compile(r"^[A-Za-z0-9+/]+={0,2}$")


def _iter_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _iter_strings(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_strings(item)


def _frame_bytes_deep(frame: dict, skip_upload_payload: bool) -> bytes:
    """A frame's payload plus every base64-decodable string inside it.

    ``skip_upload_payload`` exempts the file body of an Add request: that is
    the client handing its own raw file to its own site for anonymization,
    the one transfer that is raw by definition.
    """
    payload = wire.from_b64(frame["bytes_b64"])[4:]
    message = json.loads(payload)
    upload = None
    if skip_upload_payload and message.get("op") == "Add":
        upload = message.get("body", {}).get("file_b64")
    parts = [payload]
    for text in _iter_strings(message):
        if text is upload or len(text) < 16 or len(text) % 4 or not _B64_RE.match(text):
            continue
        try:
            parts.append(base64.b64decode(text, validate=True))
        except (binascii.Error, ValueError):
            pass
    return b"\x00".join(parts)


def _raw_needles(manifest: dict) -> set:
    needles = set()
    for entry in manifest["files"]:
        needles.add(entry["raw_patient_id"].encode("ascii"))
        name = entry["raw_patient_name"]
        needles.add(name.encode("ascii"))
        needles.update(part.encode("ascii") for part in name.split("^"))
    return needles


def test_03_no_identity_leaks(ctx, capsys):
    vo = ctx["vo"]
    needles = _raw_needles(ctx["manifest"])
    haystacks = [(vo.workdir / site / "meta.log").read_bytes() for site in SITES_3]
    from mgvo.harness.sim import transcript_text
    haystacks.append(transcript_text(vo.transcript()).encode("utf-8"))
    haystacks.append(b"\x00".join(
        _frame_bytes_deep(frame, skip_upload_payload=True)
        for frame in vo.frames()))
    leaks = sum(1 for hay in haystacks for needle in needles if needle in hay)
    # control: without the upload exemption the very same scanner must see
    # the raw identifiers inside the ingest frames, or it proves nothing
    unexempted = b"\x00".join(
        _frame_bytes_deep(frame, skip_upload_payload=False)
        for frame in vo.frames())
    control = sum(1 for needle in needles if needle in unexempted)
    _verdict(capsys, 3, "zero raw identifiers in logs or on the wire",
             leaks == 0 and control == len(needles),
             f"{len(needles)} needles, {len(haystacks)} haystacks")


# --- 4: data locality -------------------------------------------------------------------

def test_04_pixels_never_travel(ctx, capsys):
    vo = ctx["vo"]
    start, end = ctx["window"]
    window = [f for f in vo.frames() if start < f["seq"] < end]
    haystack = b"\x00".join(
        _frame_bytes_deep(frame, skip_upload_payload=False) for frame in window)
    needles = set()
    for site in SITES_3:
        store = vo.nodes[site].store
        for row in store.dump_rows("images"):
            blob = store.get_blob(row["_blob"])
            needles.add(dicom.parse_dicom(blob).get(dicom.PIXEL_DATA)[1][:64])
    hits = sum(1 for needle in needles if needle in haystack)
    # control: the ingest uploads (outside the window) do carry these very
    # pixels, so the needles must light up there or the scan is blind
    uploads = b"\x00".join(
        _frame_bytes_deep(frame, skip_upload_payload=False)
        for frame in vo.frames() if frame["seq"] < start)
    control = sum(1 for needle in needles if needle in uploads)
    _verdict(capsys, 4, "no pixel block on any link during query or job",
             hits == 0 and control == len(needles) and len(window) > 1000,
             f"{len(needles)} blobs vs {len(window)} frames")


# --- 5: retrieve fidelity ---------------------------------------------------------------

def test_05_retrieve_returns_origin_bytes(ctx, capsys):
    vo = ctx["vo"]
    inventory = [(site, row["_local_id"], row["_blob"])
                 for site in SITES_3
                 for row in vo.nodes[site].store.dump_rows("images")]
    rng = random.Random(1812)
    ok = True
    remote = 0
    for index, (home, local_id, ref) in enumerate(rng.sample(inventory, 100)):
        submit = SITES_3[index % 3]
        remote += submit != home
        data = vo.retrieve(submit, f"{home}:{local_id}")
        origin = vo.nodes[home].store.get_blob(ref)
        ok = ok and data == origin
        ok = ok and hashlib.sha256(data).hexdigest() == ref.sha256
    ok = ok and 0 < remote < 100
    _verdict(capsys, 5, "100 retrieves byte-equal their origin blobs", ok,
             f"{remote} remote / {100 - remote} local")


# --- 6: honest degradation --------------------------------------------------------------

def test_06_lost_site_reported_not_hidden(ctx, capsys):
    vo = ctx["vo"]
    vo.site_down("site_c")
    try:
        live = ("site_a", "site_b")
        dumps_live = _dumps(vo, live)
        ok = True
        for text in ctx["suite"]:
            rs = vo.query("site_a", text)
            ok = ok and not rs.complete
            ok = ok and rs.missing == (("site_c", "unreachable"),)
            _columns, rows = oracle.oracle_eval(dumps_live, text, sites=list(live))
            ok = ok and oracle.resultset_rows(rs) == rows
    finally:
        vo.site_up("site_c")
    _verdict(capsys, 6, "a lost site leaves complete=false plus its name", ok,
             f"{len(ctx['suite'])} queries")


# --- 7: codec round trips ---------------------------------------------------------------

def test_07_codecs_round_trip(capsys):
    rng = random.Random(7)
    ok = True
    for _ in range(1000):
        query = rand_query(rng)
        ok = ok and mgql.parse_query(mgql.print_query(query)) == query
    for _ in range(1000):
        rs = rand_resultset(rng)
        ok = ok and federation.from_xml(federation.to_xml(rs)) == rs
    for _ in range(300):
        ts = rand_tagset(rng)
        ok = ok and dicom.parse_dicom(dicom.write_dicom(ts)) == ts
    _verdict(capsys, 7, "query/XML/DICOM codecs are identities", ok,
             "1000 + 1000 + 300 round trips")


# --- 8: job state machine ---------------------------------------------------------------

def _job_topology(n: int) -> list:
    return [SiteDescriptor(site_id=f"site_{chr(97 + i)}",
                           display_name=f"Site {i}",
                           address=f"{chr(97 + i)}.sim:7401")
            for i in range(n)]


def _exhaustive_machine_ok() -> bool:
    descriptor = alg.AlgorithmDescriptor(algo_id="density-v1", kind="density",
                                         params={})
    selector = mgql.parse_query(ALL_IMAGES)
    for n in (1, 2, 3):
        topology = _job_topology(n)
        for outcomes in itertools.product((alg.TASK_DONE, alg.TASK_FAILED),
                                          repeat=n):
            for order in itertools.permutations(range(n)):
                job = alg.schedule_job(descriptor, selector, "site_a",
                                       topology, "JOB1", now_ms=1000)
                if job.state != alg.JOB_DISPATCHED or len(job.tasks) != n:
                    return False
                for step, task_index in enumerate(order):
                    site = job.tasks[task_index].site_id
                    outcome = outcomes[task_index]
                    written = 4 if outcome == alg.TASK_DONE else 1
                    alg.advance_job(job, site, outcome, 4, written,
                                    None, now_ms=2000)
                    final = step == n - 1
                    if not final and job.state != alg.JOB_RUNNING:
                        return False
                want = (alg.JOB_COMPLETED if set(outcomes) == {alg.TASK_DONE}
                        else alg.JOB_FAILED if set(outcomes) == {alg.TASK_FAILED}
                        else alg.JOB_PARTIAL)
                if job.state != want or job.finished_at_ms != 2000:
                    return False
                for exc_type, apply_args in (
                        (BadState, (job.tasks[0].site_id, alg.TASK_DONE, 4, 4)),
                        (BadState, ("site_zz", alg.TASK_DONE, 4, 4))):
                    try:
                        alg.advance_job(job, apply_args[0], apply_args[1],
                                        apply_args[2], apply_args[3], None, 3000)
                        return False
                    except exc_type:
                        pass
    # counting invariants on a live (non-terminal) job
    job = alg.schedule_job(descriptor, selector, "site_a", _job_topology(2),
                           "JOB2", now_ms=1000)
    for state, selected, written in ((alg.TASK_DONE, 3, 2),
                                     (alg.TASK_FAILED, 3, 4)):
        try:
            alg.advance_job(job, job.tasks[0].site_id, state,
                            selected, written, None, 2000)
            return False
        except InvariantViolation:
            pass
    return True


def test_08_job_state_machine(tmp_path, capsys):
    ok = _exhaustive_machine_ok()

    # a real two-site job: written counts must equal the oracle's selection
    manifest, files = corpus.gen_corpus(2, 8, 2, rows=32, cols=32)
    split = corpus_split(manifest, files, ["site_a", "site_b"])
    vo = SimVO(TOPOLOGY_2, tmp_path / "jobvo")
    vo.login("alice", "alice-pw")
    _ingest(vo, split)
    selector = "SELECT images WHERE patient.age >= 45"
    _columns, rows = oracle.oracle_eval(_dumps(vo), selector)
    expected = Counter(site for site, _rid, _vals in rows)

    vo.algo_add("site_a", "density-v1", "density", {})
    job_id = vo.algo_exec("site_a", "density-v1", selector)
    vo.drain("site_a")
    job = vo.job_status("site_a", job_id)
    ok = ok and job["state"] == alg.JOB_COMPLETED
    for task in job["tasks"]:
        ok = ok and task["state"] == alg.TASK_DONE
        ok = ok and task["derived_written"] == expected.get(task["site_id"], 0)
        ok = ok and task["images_selected"] == expected.get(task["site_id"], 0)

    # one corrupted blob at site_b turns the next run PARTIAL, not silent
    store_b = vo.nodes["site_b"].store
    sha = store_b.dump_rows("images")[0]["_blob"].sha256
    blob_path = tmp_path / "jobvo" / "site_b" / "blobs" / sha[:2] / sha
    broken = bytearray(blob_path.read_bytes())
    broken[-1] ^= 0xFF
    blob_path.write_bytes(bytes(broken))

    second = vo.algo_exec("site_a", "density-v1", ALL_IMAGES)
    vo.drain("site_a")
    job = vo.job_status("site_a", second)
    by_site = {task["site_id"]: task for task in job["tasks"]}
    ok = ok and job["state"] == alg.JOB_PARTIAL
    ok = ok and by_site["site_a"]["state"] == alg.TASK_DONE
    ok = ok and by_site["site_b"]["state"] == alg.TASK_FAILED
    vo.close()
    _verdict(capsys, 8, "job machine: exhaustive + live + injected failure", ok)


# --- 9: plugins vs planted ground truth ------------------------------------------------

def test_09_plugins_recover_ground_truth(capsys):
    ok = True
    images = 0
    worst_density = 0.0
    for seed in (1, 2, 3):
        manifest, files = corpus.gen_corpus(seed, 50, 4)
        for entry in manifest["files"]:
            ts = dicom.parse_dicom(files[entry["filename"]])
            pixels = np.frombuffer(ts.get(dicom.PIXEL_DATA)[1], dtype=np.uint8)
            pixels = pixels.reshape(entry["rows"], entry["cols"])
            count, boxes = alg.plugin_microcalc(pixels, {"threshold": 200})
            ok = ok and count == entry["planted_blob_count"]
            ok = ok and [list(b) for b in boxes] == entry["planted_blob_bboxes"]
            gap = abs(alg.plugin_density(pixels, {})
                      - entry["planted_dense_fraction"])
            worst_density = max(worst_density, gap)
            ok = ok and gap <= 2.0
            normalized = alg.plugin_normalize(pixels, {})
            ok = ok and abs(float(normalized.mean()) - 128.0) <= 1.0
            images += 1
    _verdict(capsys, 9, "plugins recover planted truth", ok,
             f"{images} images, worst density gap {worst_density:.2f}pp")


# --- 10: local scan speed ---------------------------------------------------------------

def test_10_local_scan_under_a_second(tmp_path, capsys):
    store = SiteStore(tmp_path / "big_site")
    blob = store.put_blob(b"shared acceptance blob bytes")
    pids = [f"{p:016x}" for p in range(500)]
    for pid in pids:
        store.upsert_patient(PatientRecord(pid=pid, sex="F", birth_year=1950))
    expected = 0
    for i in range(10_000):
        laterality = "L" if i % 2 else "R"
        age = 40 + (i % 40)
        store.insert_image(ImageRecord(
            local_id=0, pid=pids[i % 500], modality="MG",
            laterality=laterality, view="CC", study_date="20040102",
            age_at_study=age, rows=8, cols=8, blob=blob))
        expected += laterality == "L" and age > 54
    query = mgql.parse_query(
        "SELECT images WHERE patient.age > 54 AND image.laterality = 'L'")
    started = time.monotonic()
    rs = federation.execute_local(store, "site_a", query)
    elapsed = time.monotonic() - started
    store.close()
    ok = elapsed < 1.0 and len(rs.rows) == expected
    _verdict(capsys, 10, "10,000-image local scan under a second", ok,
             f"{len(rs.rows)} rows in {elapsed * 1000:.0f} ms")
