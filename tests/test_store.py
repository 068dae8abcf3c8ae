"""Durable site store: blobs, the record log, scans, and crash tolerance."""

import hashlib
import json
import random
import sys
import threading

import pytest

from mgvo.errors import (
    IntegrityError,
    NotFound,
    UnknownImage,
    UnknownPatient,
)
from mgvo.model import DerivedRecord, ImageRecord, PatientRecord
from mgvo.store import SiteStore

PID = "0123456789abcdef"
PID2 = "fedcba9876543210"


def make_patient(pid=PID, sex="F", birth_year=1960, **kw):
    return PatientRecord(pid=pid, sex=sex, birth_year=birth_year, **kw)


def make_image(store, pid=PID, data=b"image-bytes-0001", **kw):
    fields = dict(local_id=0, pid=pid, modality="MG", laterality="L", view="CC",
                  study_date="20040102", age_at_study=44, rows=8, cols=8,
                  blob=store.put_blob(data))
    fields.update(kw)
    return ImageRecord(**fields)


def test_blob_round_trip_and_idempotence(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    data = b"some file bytes" * 100
    ref = store.put_blob(data)
    assert ref.sha256 == hashlib.sha256(data).hexdigest()
    assert ref.size_bytes == len(data)
    assert store.put_blob(data) == ref  # second put is a no-op
    assert store.get_blob(ref) == data
    assert store.get_blob(ref.sha256) == data
    assert store.site_stats().blob_storage_size_bytes == len(data)


def test_put_blob_takes_the_callers_digest(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    data = b"anonymized file" * 100
    sha = hashlib.sha256(data).hexdigest()
    ref = store.put_blob(data, sha)
    assert (ref.sha256, ref.size_bytes) == (sha, len(data))
    assert ref == store.put_blob(data)
    path = tmp_path / "blobs" / sha[:2] / sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == path.name
    assert store.get_blob(ref) == data


def test_blob_corruption_detected(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    ref = store.put_blob(b"precious pixels")
    path = tmp_path / "blobs" / ref.sha256[:2] / ref.sha256
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.get_blob(ref)


def test_blob_missing_is_not_found(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    with pytest.raises(NotFound):
        store.get_blob("ab" * 32)


def test_insert_assigns_sequential_ids(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    ids = [store.insert_image(make_image(store, data=f"img{i}".encode()))
           for i in range(3)]
    assert ids == [1, 2, 3]
    assert store.image(2).blob.sha256 == hashlib.sha256(b"img1").hexdigest()
    with pytest.raises(UnknownImage):
        store.image(99)


def test_insert_image_requires_patient(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    with pytest.raises(UnknownPatient):
        store.insert_image(make_image(store, pid=PID2))
    with pytest.raises(UnknownPatient):
        store.patient(PID2)


def test_add_image_stores_a_file_once(tmp_path):
    store = SiteStore(tmp_path)
    data = b"added-once"
    assert store.add_image(data, make_patient(), make_image(store, data=data)) == (1, False)
    log_size = (tmp_path / "meta.log").stat().st_size
    again = make_image(store, pid=PID2, data=data)
    assert store.add_image(data, make_patient(pid=PID2), again) == (1, True)
    assert (tmp_path / "meta.log").stat().st_size == log_size  # a duplicate logs nothing
    with pytest.raises(UnknownPatient):
        store.patient(PID2)
    store.close()


def test_concurrent_adds_of_one_file_store_it_once(tmp_path):
    store = SiteStore(tmp_path)

    def race(data):
        records = [(make_patient(), make_image(store, data=data)) for _ in range(16)]
        start = threading.Barrier(len(records))
        results = []

        def add(patient, image):
            start.wait(timeout=10)
            results.append(store.add_image(data, patient, image))

        threads = [threading.Thread(target=add, args=record) for record in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        return sorted(results)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(1, 6):
            assert race(f"raced-file-{n}".encode()) == [(n, False)] + [(n, True)] * 15
    finally:
        sys.setswitchinterval(interval)
    assert len(store.dump_rows()) == 5
    store.close()


def test_find_image_by_blob(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    local = store.insert_image(make_image(store, data=b"dup-check"))
    sha = hashlib.sha256(b"dup-check").hexdigest()
    assert store.find_image_by_blob(sha) == local
    assert store.find_image_by_blob("00" * 32) is None


def test_latest_derived_wins_and_history_kept(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    img = store.insert_image(make_image(store))
    first = DerivedRecord(0, img, "smf", {"density_pct": 10.0}, "density-v1", "job1")
    second = DerivedRecord(0, img, "smf", {"density_pct": 20.0}, "density-v2", "job2")
    assert store.insert_derived(first) == 1
    assert store.insert_derived(second) == 2
    latest = store.latest_derived(img, "smf")
    assert latest.fields["density_pct"] == 20.0 and latest.algo_id == "density-v2"
    assert len(store.derived_history(img, "smf")) == 2
    assert store.latest_derived(img, "cade") is None
    with pytest.raises(UnknownImage):
        store.insert_derived(DerivedRecord(0, 99, "smf", {"density_pct": 1.0}))


def test_scan_matches_brute_force(tmp_path, closing):
    rng = random.Random(17)
    store = closing(SiteStore(tmp_path))
    records = []  # (pid, sex, age, laterality) kept independently of the store
    for p in range(10):
        pid = f"{rng.getrandbits(64):016x}"
        sex = rng.choice(["F", "M"])
        store.upsert_patient(make_patient(pid=pid, sex=sex))
        for i in range(rng.randrange(1, 5)):
            age = rng.randrange(35, 80)
            lat = rng.choice(["L", "R"])
            local = store.insert_image(make_image(
                store, pid=pid, data=f"{pid}/{i}".encode(),
                age_at_study=age, laterality=lat))
            records.append((local, pid, sex, age, lat))

    def pred(row):
        return row["patient.sex"] == "F" and row["patient.age"] >= 50

    got = [row["_local_id"] for row in store.scan(pred)]
    want = [local for local, pid, sex, age, lat in records if sex == "F" and age >= 50]
    assert got == sorted(want)

    got_pids = [row["patient.id"] for row in store.scan(pred, target="patients")]
    want_pids = sorted({pid for local, pid, sex, age, lat in records
                        if sex == "F" and age >= 50})
    assert got_pids == want_pids

    assert len(store.scan(None)) == len(records)


def test_joined_row_carries_latest_derived(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    img = store.insert_image(make_image(store))
    assert "derived.kind" not in store.dump_rows()[0]
    store.insert_derived(DerivedRecord(0, img, "smf", {"density_pct": 12.5}, "a-v1"))
    store.insert_derived(DerivedRecord(0, img, "cade", {"num_findings": 3}, "b-v1"))
    row = store.dump_rows()[0]
    assert row["derived.kind"] == ("smf", "cade")
    assert row["derived.density_pct"] == 12.5
    assert row["derived.num_findings"] == 3


def test_reopen_replays_everything(tmp_path):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient(height_m=1.62))
    img = store.insert_image(make_image(store))
    store.insert_derived(DerivedRecord(0, img, "smf", {"density_pct": 33.0}, "a-v1"))
    store.upsert_job({"job_id": "J1", "state": "COMPLETED"})
    before = store.dump_rows()
    store.close()

    again = SiteStore(tmp_path)
    assert again.dump_rows() == before
    assert again.patient(PID).height_m == 1.62
    assert again.jobs() == {"J1": {"job_id": "J1", "state": "COMPLETED"}}
    # id sequences continue where they left off
    assert again.insert_image(make_image(again, data=b"later")) == img + 1
    again.close()


def test_replay_reads_past_an_annotation_record(tmp_path):
    # older versions logged annotations; the kind stays readable and is ignored
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    img = store.insert_image(make_image(store))
    before = store.dump_rows()
    store.close()
    note = {"local_id": 1, "image_local_id": img, "author": "bob",
            "region": [1, 1, 4, 4], "text": "spot", "created_at_ms": 5}
    payload = json.dumps({"t": "annotation", "rec": note}).encode("utf-8")
    log = tmp_path / "meta.log"
    log.write_bytes(log.read_bytes() + len(payload).to_bytes(4, "big") + payload)

    again = SiteStore(tmp_path)
    assert again.dump_rows() == before
    assert again.insert_image(make_image(again, data=b"later")) == img + 1
    again.close()
    last = SiteStore(tmp_path)
    assert len(last.dump_rows()) == 2
    last.close()


def test_torn_tail_is_dropped_on_replay(tmp_path):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    store.insert_image(make_image(store))
    store.close()

    log = tmp_path / "meta.log"
    intact = log.read_bytes()

    # an interrupted append: a length prefix promising more than is there
    log.write_bytes(intact + (9999).to_bytes(4, "big") + b'{"t":"patient"')
    again = SiteStore(tmp_path)
    assert len(again.dump_rows()) == 1
    again.close()

    # a partial final record: cut mid-payload
    log.write_bytes(intact[:-7])
    cut = SiteStore(tmp_path)
    assert cut.dump_rows() == []  # the image record was torn off
    assert cut.patient(PID).pid == PID  # but the patient before it survived
    cut.close()


PID3 = "00000000000000aa"


def patients_in(store, pids=(PID, PID2, PID3)):
    found = []
    for pid in pids:
        try:
            found.append(store.patient(pid).pid)
        except UnknownPatient:
            pass
    return found


@pytest.mark.parametrize("declared", [20, 5000])
def test_appends_after_a_torn_tail_survive_reopen(tmp_path, declared):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    store.close()
    log = tmp_path / "meta.log"
    log.write_bytes(log.read_bytes() + declared.to_bytes(4, "big") + b'{"t":"pat')

    again = SiteStore(tmp_path)
    again.upsert_patient(make_patient(pid=PID2, sex="M"))
    again.upsert_patient(make_patient(pid=PID3))
    again.close()

    last = SiteStore(tmp_path)
    assert patients_in(last) == [PID, PID2, PID3]
    last.close()


@pytest.mark.parametrize("payload", [b"not json", b'["t", "rec"]', b'{"rec": {}}',
                                     b"\xff\xfe{}"])
def test_undecodable_whole_record_is_integrity_error(tmp_path, payload):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    store.close()
    log = tmp_path / "meta.log"
    log.write_bytes(log.read_bytes() + len(payload).to_bytes(4, "big") + payload)
    with pytest.raises(IntegrityError):
        SiteStore(tmp_path)


def test_reopen_after_a_crash_at_every_byte(tmp_path):
    """Cut a session's log anywhere: reopen, append and reopen keep a prefix."""
    store = SiteStore(tmp_path)
    job = {"job_id": "J1", "state": "COMPLETED"}
    steps = [
        lambda: store.upsert_patient(make_patient()),
        lambda: store.insert_image(make_image(store)),
        lambda: store.insert_derived(DerivedRecord(0, 1, "smf", {"density_pct": 9.5}, "a-v1")),
        lambda: store.upsert_job(job),
        lambda: store.upsert_patient(make_patient(pid=PID2, sex="M")),
    ]
    # the state after each whole record; jobs() shows jobs as of opening
    expected = [([], [], {}, 0)]
    for i, step in enumerate(steps, 1):
        step()
        jobs = {"J1": job} if i >= 4 else {}
        expected.append((store.dump_rows(), patients_in(store), jobs,
                         store.site_stats().num_derived_files))
    store.close()

    log = tmp_path / "meta.log"
    full = log.read_bytes()
    ends, pos = [], 0
    while pos < len(full):
        pos += 4 + int.from_bytes(full[pos:pos + 4], "big")
        ends.append(pos)
    assert len(ends) == len(steps) and pos == len(full)

    def state(store):
        return (store.dump_rows(), patients_in(store), store.jobs(),
                store.site_stats().num_derived_files)

    for cut in range(len(full) + 1):
        whole = sum(1 for end in ends if end <= cut)
        log.write_bytes(full[:cut])
        reopened = SiteStore(tmp_path)
        assert state(reopened) == expected[whole], cut
        reopened.upsert_patient(make_patient(pid=PID3))
        reopened.close()

        rows, pids, jobs, derived = expected[whole]
        last = SiteStore(tmp_path)
        assert state(last) == (rows, pids + [PID3], jobs, derived), cut
        assert log.read_bytes().startswith(full[:ends[whole - 1] if whole else 0])
        last.close()


def test_site_stats_counts(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    store.upsert_patient(make_patient(pid=PID2, sex="M"))
    img = store.insert_image(make_image(store))
    store.insert_image(make_image(store, pid=PID2, data=b"other"))
    store.insert_derived(DerivedRecord(0, img, "smf", {"density_pct": 1.0}, "a-v1"))
    stats = store.site_stats()
    assert stats.num_patients == 2
    assert stats.num_image_files == 2
    assert stats.num_derived_files == 1
    assert stats.metadata_size_bytes > 0
    assert stats.blob_storage_size_bytes == len(b"image-bytes-0001") + len(b"other")


def test_upsert_patient_replaces(tmp_path, closing):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient(height_m=None))
    store.upsert_patient(make_patient(height_m=1.7))
    assert store.patient(PID).height_m == 1.7
    store.close()
    again = closing(SiteStore(tmp_path))
    assert again.patient(PID).height_m == 1.7
