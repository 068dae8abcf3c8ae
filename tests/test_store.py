"""Durable site store: blobs, the record log, scans, and crash tolerance."""

import hashlib
import json
import math
import random
import sys
import threading
from pathlib import Path

import pytest

from mgvo import mgql
from mgvo.errors import (
    IntegrityError,
    InvariantViolation,
    NotFound,
    UnknownImage,
    UnknownPatient,
)
from mgvo.model import DerivedRecord, ImageRecord, PatientRecord
from mgvo.harness import oracle
from mgvo import store as store_module
from mgvo.store import SiteStore

from helpers import STRING_FIELD_POOL, rand_date, rand_expr

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
    assert store.blob(2).sha256 == hashlib.sha256(b"img1").hexdigest()
    with pytest.raises(UnknownImage):
        store.blob(99)


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



def test_selects_beside_concurrent_inserts_see_a_gap_free_prefix(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    store.insert_image(make_image(store, data=b"first"))
    store.select(None)  # the columns exist before the writers start
    everything = mgql.parse_query("SELECT images WHERE patient.age >= 0").expr
    errors = []

    def write(w):
        for i in range(60):
            local = store.insert_image(make_image(store, data=f"w{w}/{i}".encode()))
            store.insert_derived(DerivedRecord(0, local, "smf", {"density_pct": 1.0}))

    def read():
        # Each select sees one state: the mask and the rows built from the
        # records agree on it.
        for _ in range(60):
            ids = [row["_local_id"] for row in store.select(everything)]
            dense = store.select(_where("derived.kind = 'smf'"))
            bare = store.select(_where("NOT derived.kind = 'smf'"))
            if (ids != list(range(1, len(ids) + 1))
                    or any("derived.kind" not in row for row in dense)
                    or any("derived.kind" in row for row in bare)):
                errors.append(ids)

    threads = ([threading.Thread(target=write, args=(w,)) for w in range(4)]
               + [threading.Thread(target=read) for _ in range(2)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.select(everything) == store.dump_rows()
    assert len(store.select(_where("derived.kind = 'smf'"))) == 240


@pytest.mark.parametrize("kind, fields", [
    ("smf", {"density_pct": 10 ** 400}), ("smf", {"density_pct": math.nan}),
    ("smf", {"density_pct": -math.inf}), ("smf", {"density_pct": 1.0, "x": 2 ** 63}),
    ("cade", {"num_findings": 2.0}),  # a count's column holds ints
])
def test_a_derived_value_no_column_holds_is_refused_before_it_is_logged(tmp_path, kind, fields):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    img = store.insert_image(make_image(store))
    with pytest.raises(InvariantViolation):
        store.insert_derived(DerivedRecord(0, img, kind, fields))
    store.close()
    again = SiteStore(tmp_path)
    assert again.derived_history(img, kind) == [] and again.site_stats().num_derived_files == 0
    again.close()


def test_an_age_past_any_date_span_is_refused_before_it_is_logged(tmp_path):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    with pytest.raises(InvariantViolation):
        store.insert_image(make_image(store, age_at_study=2 ** 63))
    store.close()
    again = SiteStore(tmp_path)
    assert again.dump_rows() == [] and again.insert_image(make_image(again)) == 1
    again.close()


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
    history = store.derived_history(img, "smf")
    assert len(history) == 2
    assert history[-1].fields["density_pct"] == 20.0 and history[-1].algo_id == "density-v2"
    assert store.dump_rows()[0]["derived.density_pct"] == 20.0
    assert store.derived_history(img, "cade") == []
    assert "derived.num_findings" not in store.dump_rows()[0]
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



# --- select: the column mask against the reference semantics ------------------------

def _where(text):
    return mgql.parse_query(f"SELECT images WHERE {text}").expr


def _selected(store, text, target="images"):
    key = "_local_id" if target == "images" else "_pid"
    return [row[key] for row in store.select(_where(text), target)]


def test_missing_fields_collapse_to_false(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())  # no height
    img = store.insert_image(make_image(store, age_at_study=50))
    assert _selected(store, "patient.height_m > 1.5") == []
    assert _selected(store, "patient.height_m != 1.5") == []
    # NOT negates the collapsed value: a missing field is NOT-matched
    assert _selected(store, "NOT patient.height_m > 1.5") == [img]
    assert _selected(store, "NOT patient.height_m != 1.5") == [img]
    assert _selected(store, "patient.height_m > 1.5 OR patient.age > 40") == [img]
    assert _selected(store, "NOT derived.density_pct >= 0.0") == [img]


def test_derived_kind_set_semantics(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    smf, both, none = (store.insert_image(make_image(store, data=f"k{i}".encode()))
                       for i in range(3))
    for img in (smf, both):
        store.insert_derived(DerivedRecord(0, img, "smf", {"density_pct": 10.0}))
    store.insert_derived(DerivedRecord(0, both, "cade", {"num_findings": 1}))
    assert _selected(store, "derived.kind = 'smf'") == [smf, both]
    assert _selected(store, "derived.kind = 'cade'") == [both]
    assert _selected(store, "derived.kind = 'other'") == []
    # != means: some present kind differs (not "smf is absent")
    assert _selected(store, "derived.kind != 'smf'") == [both]
    assert _selected(store, "derived.kind != 'cade'") == [smf, both]
    assert _selected(store, "derived.kind != 'other'") == [smf, both]
    assert _selected(store, "NOT derived.kind = 'smf'") == [none]


def test_range_evaluation_is_inclusive(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient())
    ages = {store.insert_image(make_image(store, data=f"a{age}".encode(), age_at_study=age,
                                          study_date=date)): age
            for age, date in ((39, "20031231"), (40, "20040101"), (49, "20041231"),
                              (50, "20050101"))}
    assert [ages[i] for i in _selected(store, "patient.age IN [40, 49]")] == [40, 49]
    assert [ages[i] for i in _selected(
        store, "image.study_date IN [20040101, 20041231]")] == [40, 49]
    assert [ages[i] for i in _selected(store, "image.study_date < 20040101")] == [39]


def test_unknown_literals_and_literals_past_int64(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    store.upsert_patient(make_patient(height_m=1.6))
    img = store.insert_image(make_image(store))
    assert _selected(store, "image.modality = 'XR'") == []
    assert _selected(store, "image.modality != 'XR'") == [img]
    assert _selected(store, "patient.id = 'ffffffffffffffff'", "patients") == []
    assert _selected(store, f"patient.age < {2 ** 64}") == [img]
    assert _selected(store, f"patient.age >= {2 ** 64}") == []
    assert _selected(store, f"patient.height_m < {10 ** 400}") == [img]
    assert _selected(store, f"patient.height_m > -{10 ** 400}") == [img]
    assert _selected(store, f"patient.height_m = {10 ** 400}") == []


# A store the differential test fills: patient ids from the generators'
# pool, so that equality literals can hit.
_PIDS = list(STRING_FIELD_POOL["patient.id"]) + ["00000000000000aa", "00000000000000bb"]
_STORE_FIELDS = [field for field in mgql.FIELD_TYPES if field != "site.id"]


def _rand_patient(rng, pid):
    return make_patient(pid=pid, sex=rng.choice("FMO"),
                        height_m=rng.choice([None, rng.randrange(2, 11) / 4.0]),
                        weight_kg=rng.choice([None, rng.randrange(4, 801) / 4.0]))


def _rand_writes(store, rng, dates, images, pids):
    """Patients (new or upserted), images, and derived versions, at random.

    ``images`` and ``pids`` collect the ids written.
    """
    for pid in rng.sample(_PIDS, rng.randrange(1, len(_PIDS) + 1)):
        store.upsert_patient(_rand_patient(rng, pid))
        pids.add(pid)
    known = [pid for pid in _PIDS if pid in pids]
    for _ in range(rng.randrange(0, 12)):
        images.append(store.insert_image(make_image(
            store, pid=rng.choice(known), data=f"img{len(images)}".encode(),
            modality=rng.choice(["MG", "CT"]), laterality=rng.choice("LR"),
            view=rng.choice(["CC", "MLO"]), study_date=rng.choice(dates),
            age_at_study=rng.randrange(20, 101))))
    for img in rng.sample(images, min(len(images), rng.randrange(0, 8))):
        if rng.random() < 0.6:
            store.insert_derived(DerivedRecord(
                0, img, "smf", {"density_pct": rng.randrange(0, 401) / 4.0}))
        else:
            store.insert_derived(DerivedRecord(
                0, img, "cade", {"num_findings": rng.randrange(0, 6)}))


def _odd_literals(node, rng):
    """``node`` with some literals swapped for strings no record holds or numbers past int64."""
    if isinstance(node, mgql.Not):
        return mgql.Not(_odd_literals(node.expr, rng))
    if not isinstance(node, mgql.Pred):
        return type(node)(_odd_literals(node.left, rng), _odd_literals(node.right, rng))
    ftype = mgql.FIELD_TYPES[node.field]
    if ftype == "string" and rng.random() < 0.2:
        return mgql.Pred(node.field, node.op, "nowhere")
    if ftype == "number" and rng.random() < 0.2:
        huge = rng.choice([2 ** 63, 2 ** 64 + 1, -(2 ** 63) - 1, 10 ** 400, -(10 ** 400)])
        if node.op == "in":
            lo, hi = node.value
            return mgql.Pred(node.field, "in", (lo, abs(huge)) if rng.random() < 0.5
                             else (-abs(huge), hi))
        return mgql.Pred(node.field, node.op, huge)
    return node


def _check_select_against_oracle(store, rng, exprs):
    images, patients = store.dump_rows("images"), store.dump_rows("patients")
    assert store.select(None) == images
    assert store.select(None, "patients") == patients
    by_pid = {row["_pid"]: row for row in patients}
    for _ in range(exprs):
        expr = _odd_literals(rand_expr(rng, fields=_STORE_FIELDS), rng)
        want = [row for row in images if oracle.ref_eval(expr, row)]
        assert store.select(expr) == want, expr
        pids = sorted({row["_pid"] for row in want})
        assert store.select(expr, "patients") == [by_pid[pid] for pid in pids], expr


def test_select_matches_the_oracle_on_random_stores(tmp_path, closing):
    rng = random.Random(23)
    for trial in range(40):
        store = closing(SiteStore(tmp_path / str(trial)))
        dates = [rand_date(rng) for _ in range(4)]
        images: list = []
        pids: set = set()
        _rand_writes(store, rng, dates, images, pids)
        _check_select_against_oracle(store, rng, 40)
        # Later writes: new images and patients, upserts that change sex,
        # height or weight, and second derived versions.
        for _ in range(2):
            _rand_writes(store, rng, dates, images, pids)
            _check_select_against_oracle(store, rng, 40)


class _Recorder:
    """Passes writes through to a store and keeps the latest record of each."""

    def __init__(self, store):
        self.store = store
        self.patients, self.images, self.derived = {}, {}, {}

    def put_blob(self, data):
        return self.store.put_blob(data)

    def upsert_patient(self, patient):
        self.store.upsert_patient(patient)
        self.patients[patient.pid] = patient

    def insert_image(self, image):
        self.images[self.store.insert_image(image)] = image
        return image.local_id

    def insert_derived(self, derived):
        self.store.insert_derived(derived)
        self.derived[(derived.image_local_id, derived.kind)] = derived

    def expected_rows(self):
        """The joined image rows and patient rows the records written make."""
        images, pids = [], set()
        for local_id, image in sorted(self.images.items()):
            patient = self.patients[image.pid]
            row = {"patient.id": patient.pid, "patient.sex": patient.sex,
                   "patient.age": image.age_at_study, "image.laterality": image.laterality,
                   "image.view": image.view, "image.modality": image.modality,
                   "image.study_date": image.study_date,
                   "_local_id": local_id, "_pid": patient.pid, "_blob": image.blob}
            if patient.height_m is not None:
                row["patient.height_m"] = patient.height_m
            if patient.weight_kg is not None:
                row["patient.weight_kg"] = patient.weight_kg
            kinds = tuple(kind for kind in ("smf", "cade") if (local_id, kind) in self.derived)
            if kinds:
                row["derived.kind"] = kinds
            for kind, field in (("smf", "density_pct"), ("cade", "num_findings")):
                if kind in kinds:
                    row[f"derived.{field}"] = self.derived[(local_id, kind)].fields[field]
            images.append(row)
            pids.add(patient.pid)
        patients = []
        for pid in sorted(pids):
            patient = self.patients[pid]
            row = {"patient.id": pid, "patient.sex": patient.sex, "_pid": pid}
            if patient.height_m is not None:
                row["patient.height_m"] = patient.height_m
            if patient.weight_kg is not None:
                row["patient.weight_kg"] = patient.weight_kg
            patients.append(row)
        return images, patients


def _typed(rows):
    return [{key: (type(value), value) for key, value in row.items()} for row in rows]


def test_rows_equal_the_records_written(tmp_path):
    rng = random.Random(31)
    for trial in range(12):
        path = tmp_path / str(trial)
        recorder = _Recorder(SiteStore(path))
        dates = [rand_date(rng) for _ in range(4)]
        images: list = []
        pids: set = set()
        for _ in range(3):
            _rand_writes(recorder, rng, dates, images, pids)
        want = recorder.expected_rows()
        recorder.store.close()
        for store in (recorder.store, SiteStore(path)):
            assert (store.dump_rows("images"), store.dump_rows("patients")) == want, trial
            # an int stays an int and a float a float, as rows render them
            assert [_typed(store.dump_rows(target)) for target in ("images", "patients")] == [
                _typed(rows) for rows in want], trial
            assert all(store.patient(pid) == patient
                       for pid, patient in recorder.patients.items()), trial
        store.close()


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
                                     b"\xff\xfe{}", b'{"t":"job","rec":{"job_id":"J1"}} x'])
def test_undecodable_whole_record_is_integrity_error(tmp_path, payload):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    store.close()
    log = tmp_path / "meta.log"
    log.write_bytes(log.read_bytes() + len(payload).to_bytes(4, "big") + payload)
    with pytest.raises(IntegrityError):
        SiteStore(tmp_path)


def test_frames_read_what_json_loads_reads():
    # Whitespace inside the value and text that is not ASCII read as json.loads reads them.
    payloads = [b'{"rec":{"job_id":"J1"},"t":"job"}', b'{"t": "job", "rec": {"job_id": "J2"}}',
                b'{"rec":{"job_id":"J3","n":[1,2.5,null]},"t":"job"}',
                '{"t":"job","rec":{"job_id":"zé"}}'.encode("utf-8")]
    data = b"".join(len(p).to_bytes(4, "big") + p for p in payloads)
    got = [(kind, rec) for kind, rec, *_ in store_module._frames(data)]
    assert got == [(json.loads(p)["t"], json.loads(p)["rec"]) for p in payloads]


_IMAGE_REC = {"local_id": 1, "pid": PID, "modality": "MG", "laterality": "L", "view": "CC",
              "study_date": "20040102", "age_at_study": 44, "rows": 8, "cols": 8}


@pytest.mark.parametrize("kind, rec", [
    ("image", _IMAGE_REC),  # no blob
    ("patient", {"pid": PID, "sex": "F", "birth_year": 1960, "height_m": None,
                 "weight_kg": None, "name": "Jane"}),
    ("job", ["J1", "COMPLETED"]),
    ("derived", "smf"),
    ("patient", 5),
    ("image", {**_IMAGE_REC, "blob": {"sha256": "ab" * 32}}),
], ids=["image without blob", "patient with unknown key", "job list", "derived string",
        "patient number", "blob without size"])
def test_replay_rejects_a_record_of_the_wrong_shape(tmp_path, kind, rec):
    payload = json.dumps({"t": kind, "rec": rec}).encode("utf-8")
    frame = len(payload).to_bytes(4, "big") + payload
    (tmp_path / "meta.log").write_bytes(frame)
    with pytest.raises(IntegrityError, match="at byte 0"):
        SiteStore(tmp_path)
    # behind a well-formed patient, so that an image's patient is known
    store = SiteStore(tmp_path / "with_patient")
    store.upsert_patient(make_patient())
    store.close()
    log = tmp_path / "with_patient" / "meta.log"
    good = log.read_bytes()
    log.write_bytes(good + frame)
    with pytest.raises(IntegrityError, match=f"at byte {len(good)}"):
        SiteStore(tmp_path / "with_patient")


@pytest.mark.parametrize("kind, rec", [
    ("patient", {"pid": PID, "sex": "F", "birth_year": 2 ** 70, "height_m": None,
                 "weight_kg": None}),
    ("derived", {"local_id": 1, "image_local_id": 1, "kind": "cade", "algo_id": "",
                 "job_id": "", "fields": {"num_findings": 1.5}}),
    ("image", {**_IMAGE_REC, "local_id": 2, "age_at_study": 2 ** 70,
               "blob": {"sha256": "cd" * 32, "size_bytes": 1}}),
], ids=["int past int64", "fractional count", "age past int64"])
def test_replay_rejects_a_value_its_column_cannot_hold(tmp_path, kind, rec):
    store = SiteStore(tmp_path)
    store.upsert_patient(make_patient())
    store.insert_image(make_image(store))
    store.close()
    log = tmp_path / "meta.log"
    payload = json.dumps({"t": kind, "rec": rec}).encode("utf-8")
    log.write_bytes(log.read_bytes() + len(payload).to_bytes(4, "big") + payload)
    with pytest.raises(IntegrityError):
        SiteStore(tmp_path)


def test_the_benchmark_tracer_finds_every_method_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps SiteStore methods by name; a renamed or
    # removed one fails here, not first in a benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    tracing.uninstall(tracing.install(tracing.Tracer()))


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
