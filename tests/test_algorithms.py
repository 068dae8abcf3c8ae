"""Analysis plugins, job identifiers, and the distributed job state machine."""

import itertools
import json
import random
import struct

import numpy as np
import pytest

from mgvo import algorithms as alg
from mgvo import dicom, mgql
from mgvo.errors import (
    BadParams,
    BadState,
    EmptyImage,
    InvariantViolation,
    RemoteError,
    UnknownPluginKind,
)
from mgvo.harness import corpus
from mgvo.harness.config import parse_topology
from mgvo.harness.sim import SimVO
from mgvo.model import PatientRecord, ImageRecord
from mgvo.services import node as node_module
from mgvo.services import wire
from mgvo.services.registry import SiteDescriptor
from mgvo.store import SiteStore

from test_dicom import make_full_tagset


# --- descriptors ---------------------------------------------------------------

def test_descriptor_validation():
    ok = [
        alg.AlgorithmDescriptor("density-v1", "density"),
        alg.AlgorithmDescriptor("density-v2", "density", {"threshold": 100}),
        alg.AlgorithmDescriptor("norm-v1", "normalize",
                                {"target_mean": 128, "target_std": 32}),
        alg.AlgorithmDescriptor("calc-v10", "microcalc",
                                {"threshold": 200, "min_area": 1, "max_area": 64}),
    ]
    for descriptor in ok:
        alg.validate_descriptor(descriptor)

    with pytest.raises(UnknownPluginKind):
        alg.validate_descriptor(alg.AlgorithmDescriptor("x-v1", "sharpen"))
    bad_ids = ["density", "Density-v1", "density-v", "density-1", "a b-v1", ""]
    for algo_id in bad_ids:
        with pytest.raises(BadParams):
            alg.validate_descriptor(alg.AlgorithmDescriptor(algo_id, "density"))
    with pytest.raises(BadParams):
        alg.validate_descriptor(
            alg.AlgorithmDescriptor("density-v1", "density", {"bogus": 1}))
    with pytest.raises(BadParams):
        alg.validate_descriptor(
            alg.AlgorithmDescriptor("density-v1", "density", {"threshold": -1}))
    with pytest.raises(BadParams):
        alg.validate_descriptor(
            alg.AlgorithmDescriptor("density-v1", "density", {"threshold": True}))
    with pytest.raises(BadParams):
        alg.validate_descriptor(alg.AlgorithmDescriptor("calc-v1", "microcalc"))
    with pytest.raises(BadParams):
        alg.validate_descriptor(alg.AlgorithmDescriptor(
            "calc-v1", "microcalc", {"threshold": 200, "min_area": 9, "max_area": 4}))


def test_an_algo_id_with_a_trailing_newline_is_refused():
    with pytest.raises(BadParams):
        alg.validate_descriptor(alg.AlgorithmDescriptor("density-v1\n", "density"))


def test_descriptor_version():
    assert alg.AlgorithmDescriptor("density-v3", "density").version == 3


# --- plugins --------------------------------------------------------------------

def test_density_trivial_cases():
    flat = np.full((16, 16), 77, dtype=np.uint8)
    assert alg.plugin_density(flat, {}) == 0.0  # nothing to separate
    assert alg.plugin_density(flat, {"threshold": 76}) == 100.0
    assert alg.plugin_density(flat, {"threshold": 77}) == 0.0

    half = np.zeros((16, 16), dtype=np.uint8)
    half[:8] = 255
    assert alg.plugin_density(half, {}) == 50.0

    with pytest.raises(EmptyImage):
        alg.plugin_density(np.zeros((0, 4), dtype=np.uint8), {})


def test_density_rounding():
    img = np.zeros((3, 3), dtype=np.uint8)
    img[0, 0] = 255
    # 1/9 above the cut -> 11.11... -> two decimals
    assert alg.plugin_density(img, {"threshold": 100}) == 11.11


def _otsu_brute(pixels):
    """Reference maximizer, straight from the definition, O(levels * n)."""
    flat = pixels.ravel().astype(np.float64)
    best_t, best_v = None, 0.0
    for t in range(256):
        lo, hi = flat[flat <= t], flat[flat > t]
        if lo.size == 0 or hi.size == 0:
            continue
        v = lo.size * hi.size * (lo.mean() - hi.mean()) ** 2
        if v > best_v:
            best_t, best_v = t, v
    return best_t


def test_otsu_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(40):
        img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        # plant extra bimodality half the time
        if rng.random() < 0.5:
            img[:12] //= 4
        assert alg._otsu_threshold(img) == _otsu_brute(img)
    assert alg._otsu_threshold(np.full((4, 4), 9, dtype=np.uint8)) is None


def test_otsu_prefers_lowest_tied_level():
    # Two separated clusters leave a plateau of equally good cuts between
    # them; the canonical answer is the lowest.
    img = np.array([[10] * 8, [200] * 8], dtype=np.uint8)
    t = alg._otsu_threshold(img)
    assert t == _otsu_brute(img) == 10


def test_normalize_flat_image():
    flat = np.full((8, 8), 200, dtype=np.uint8)
    out = alg.plugin_normalize(flat, {"target_mean": 128, "target_std": 32})
    assert out.dtype == np.uint8
    assert np.all(out == 128)


def test_normalize_hits_target_moments():
    rng = np.random.default_rng(6)
    img = rng.normal(100, 20, size=(64, 64)).clip(0, 255).astype(np.uint8)
    out = alg.plugin_normalize(img, {"target_mean": 128, "target_std": 32})
    assert abs(float(out.mean()) - 128) < 1.0
    assert abs(float(out.std()) - 32) < 1.0
    assert out.dtype == np.uint8


def test_normalize_clamps_at_dtype_edges():
    img = np.zeros((8, 8), dtype=np.uint8)
    img[0, 0] = 255
    out = alg.plugin_normalize(img, {"target_mean": 128, "target_std": 200})
    assert out.min() >= 0 and out.max() <= 255


def test_microcalc_counts_and_boxes():
    img = np.zeros((8, 8), dtype=np.uint8)
    img[1:4, 2:5] = 210  # 3x3 block
    img[6, 6] = 220      # lone pixel
    count, boxes = alg.plugin_microcalc(img, {"threshold": 200})
    assert count == 2
    # (x0, y0, x1, y1), end-exclusive, ordered by (y0, x0)
    assert boxes == [(2, 1, 5, 4), (6, 6, 7, 7)]


def test_microcalc_eight_connectivity():
    img = np.zeros((4, 4), dtype=np.uint8)
    img[0, 0] = 255
    img[1, 1] = 255  # touches diagonally: one component
    count, boxes = alg.plugin_microcalc(img, {"threshold": 100})
    assert count == 1 and boxes == [(0, 0, 2, 2)]


def test_microcalc_area_filters():
    img = np.zeros((10, 10), dtype=np.uint8)
    img[0:3, 0:3] = 255   # area 9
    img[8, 8] = 255       # area 1
    count, boxes = alg.plugin_microcalc(img, {"threshold": 100, "min_area": 2})
    assert count == 1 and boxes == [(0, 0, 3, 3)]
    count, _ = alg.plugin_microcalc(img, {"threshold": 100, "max_area": 3})
    assert count == 1
    with pytest.raises(BadParams):
        alg.plugin_microcalc(img, {"threshold": 100, "min_area": 5, "max_area": 2})
    count, boxes = alg.plugin_microcalc(np.zeros((4, 4), np.uint8), {"threshold": 0})
    assert count == 0 and boxes == []


# --- the run labeller against references ----------------------------------------------

def components(mask):
    """``alg._component_arrays`` as a list of (area, (x0, y0, x1, y1))."""
    area, *box = alg._component_arrays(mask)
    return list(zip(area.tolist(), zip(*(a.tolist() for a in box))))


def flood_fill(mask):
    """Reference labelling: a pixel-by-pixel 8-connected flood fill.

    Same contract as ``components``: (area, (x0, y0, x1, y1)) per
    component, in the row-major order of each component's first pixel.
    """
    height, width = mask.shape
    seen = np.zeros(mask.shape, dtype=bool)
    found = []
    for y, x in np.argwhere(mask):
        if seen[y, x]:
            continue
        seen[y, x] = True
        stack = [(int(y), int(x))]
        area = 0
        min_y = max_y = int(y)
        min_x = max_x = int(x)
        while stack:
            cy, cx = stack.pop()
            area += 1
            min_y, max_y = min(min_y, cy), max(max_y, cy)
            min_x, max_x = min(min_x, cx), max(max_x, cx)
            for ny in range(max(cy - 1, 0), min(cy + 2, height)):
                for nx in range(max(cx - 1, 0), min(cx + 2, width)):
                    if mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
        found.append((area, (min_x, min_y, max_x + 1, max_y + 1)))
    return found


def assert_labels_match(pixels, threshold):
    """The labeller and plugin_microcalc agree with the flood fill exactly."""
    mask = pixels > threshold
    want = flood_fill(mask)
    assert components(mask) == want
    for lo, hi in ((1, 64), (1, max(pixels.size, 1)), (3, 10)):
        boxes = [box for area, box in want if lo <= area <= hi]
        boxes.sort(key=lambda b: (b[1], b[0]))
        params = {"threshold": threshold, "min_area": lo, "max_area": hi}
        assert alg.plugin_microcalc(pixels, params) == (len(boxes), boxes)


def comb(teeth_down: int, width: int) -> np.ndarray:
    """A spine along the top row with a one-pixel tooth under every other column."""
    mask = np.zeros((teeth_down + 1, width), dtype=bool)
    mask[0, :] = True
    mask[:, ::2] = True
    return mask


def serpentine(height: int, width: int) -> np.ndarray:
    """Full rows joined alternately at the right and the left end: one long path."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2, :] = True
    for i, row in enumerate(range(1, height, 2)):
        mask[row, -1 if i % 2 == 0 else 0] = True
    return mask


def test_labeller_matches_flood_fill_on_random_masks():
    rng = np.random.default_rng(7)
    for _ in range(400):
        height, width = (int(v) for v in rng.integers(1, 48, 2))
        pixels = (rng.random((height, width)) * 256).astype(np.uint8)
        assert_labels_match(pixels, int(rng.integers(0, 256)))


def test_labeller_matches_flood_fill_on_corpus_images():
    manifest, files = corpus.gen_corpus(5, 12, 1)
    for entry in manifest["files"]:
        pixels = alg.decode_pixels(files[entry["filename"]])
        for threshold in (100, 150, 200):
            assert_labels_match(pixels, threshold)


def test_labeller_matches_flood_fill_on_edge_shapes():
    checker = (np.indices((33, 31)).sum(axis=0) % 2 == 0)  # joined only diagonally
    masks = [
        np.zeros((9, 7), dtype=bool),
        np.ones((9, 7), dtype=bool),
        np.ones((1, 1), dtype=bool),
        checker,
        ~checker,
        comb(40, 41),
        comb(40, 41)[::-1],
        comb(40, 41).T,
        serpentine(41, 30),
        serpentine(41, 30).T,
        serpentine(41, 30)[:, ::-1],
    ]
    rng = np.random.default_rng(3)
    for length in (1, 2, 57):
        line = rng.random((1, length)) < 0.5
        masks += [line, line.T, np.ones((1, length), bool), np.ones((length, 1), bool)]
    for mask in masks:
        assert_labels_match(mask.astype(np.uint8) * 255, 0)

    assert components(checker) == [(checker.sum(), (0, 0, 31, 33))]
    assert len(components(serpentine(201, 50))) == 1
    assert components(np.zeros((0, 5), dtype=bool)) == []


def test_labeller_matches_flood_fill_on_16_bit_images():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pixels = rng.integers(0, 65536, size=(40, 37), dtype=np.uint16)
        assert_labels_match(pixels, int(rng.integers(30000, 65536)))
    wide = np.zeros((6, 6), dtype="<u2")
    wide[1:3, 1:3] = 60000
    wide[4, 4] = 300  # above an 8-bit range, below the threshold
    assert alg.plugin_microcalc(wide, {"threshold": 40000}) == (1, [(1, 1, 3, 3)])


def test_labeller_matches_scipy_label():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(13)
    masks = [rng.random((int(h), int(w))) < rng.random()
             for h, w in rng.integers(1, 80, size=(100, 2))]
    masks += [comb(60, 61), serpentine(61, 40).T]
    for mask in masks:
        labels, count = ndimage.label(mask, structure=np.ones((3, 3)))
        areas = np.bincount(labels.ravel(), minlength=count + 1)[1:]
        want = [(int(area), (cols.start, rows.start, cols.stop, rows.stop))
                for area, (rows, cols) in zip(areas, ndimage.find_objects(labels))]
        assert components(mask) == want


def test_decode_pixels_8_and_16_bit():
    pixels = bytes(range(16))
    ts = make_full_tagset(pixel=pixels, rows=4, cols=4)
    arr = alg.decode_pixels(dicom.write_dicom(ts))
    assert arr.dtype == np.uint8 and arr.shape == (4, 4)
    assert arr.tobytes() == pixels

    wide = np.arange(12, dtype="<u2") * 1000
    ts = make_full_tagset(pixel=wide.tobytes(), rows=3, cols=4)
    ts.put(dicom.BITS_ALLOCATED, "US", struct.pack("<H", 16))
    arr = alg.decode_pixels(dicom.write_dicom(ts))
    assert arr.dtype == np.dtype("<u2") and arr.shape == (3, 4)
    assert np.array_equal(arr, wide.reshape(3, 4))


def test_decode_pixels_rejects_short_data():
    ts = make_full_tagset(pixel=b"\x00\x01", rows=4, cols=4)  # needs 16
    with pytest.raises(dicom.BadValue):
        alg.decode_pixels(dicom.write_dicom(ts))


# --- job ids ----------------------------------------------------------------------

CROCKFORD = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"


def test_job_ids_format_and_sortability():
    rng = random.Random(8)
    ids = [alg.new_job_id(t_ms, rng) for t_ms in range(10_000, 10_500, 7)]
    for job_id in ids:
        assert len(job_id) == 26
        assert all(c in CROCKFORD for c in job_id)
    assert ids == sorted(ids)  # strictly increasing timestamps sort lexically
    same_ms = {alg.new_job_id(42, rng) for _ in range(100)}
    assert len(same_ms) == 100  # the random tail keeps them distinct


# --- scheduling and the state machine ----------------------------------------------

TOPOLOGY_3 = [SiteDescriptor(s, s, f"{s}.sim:7001") for s in ("site_a", "site_b", "site_c")]
DENSITY = alg.AlgorithmDescriptor("density-v1", "density")


def selector(text="SELECT images WHERE patient.age > 0"):
    return mgql.parse_query(text)


def test_schedule_job_broadcasts():
    job = alg.schedule_job(DENSITY, selector(), "site_a", TOPOLOGY_3, "JOB1", 1000)
    assert job.state == alg.JOB_DISPATCHED
    assert [t.site_id for t in job.tasks] == ["site_a", "site_b", "site_c"]
    assert all(t.state == alg.TASK_PENDING for t in job.tasks)
    assert job.selector == "SELECT images WHERE patient.age > 0"


def test_schedule_job_routes_by_site():
    job = alg.schedule_job(
        DENSITY, selector("SELECT images WHERE site.id = 'site_b'"),
        "site_a", TOPOLOGY_3, "JOB2", 1000)
    assert [t.site_id for t in job.tasks] == ["site_b"]


def test_schedule_job_without_sites_fails():
    contradiction = selector(
        "SELECT images WHERE site.id = 'site_a' AND site.id = 'site_b'")
    job = alg.schedule_job(DENSITY, contradiction, "site_a", TOPOLOGY_3, "JOB3", 1000)
    assert job.state == alg.JOB_FAILED
    assert job.error == "no sites"
    assert job.tasks == [] and job.finished_at_ms == 1000


def _apply(job, site, done, now=2000):
    alg.advance_job(job, site, alg.TASK_DONE if done else alg.TASK_FAILED,
                    images_selected=4, derived_written=4 if done else 1,
                    error=None if done else "boom", now_ms=now)


def test_state_machine_every_order_and_outcome():
    # Exhaustive over jobs of one to three tasks: every DONE/FAILED outcome
    # vector under every arrival order must land on the one correct terminal.
    for n in (1, 2, 3):
        sites = [f"site_{c}" for c in "abc"[:n]]
        topo = TOPOLOGY_3[:n]
        for outcomes in itertools.product([True, False], repeat=n):
            for order in itertools.permutations(range(n)):
                job = alg.schedule_job(DENSITY, selector(), "site_a", topo, "J", 1000)
                assert job.state == alg.JOB_DISPATCHED
                for step, idx in enumerate(order):
                    _apply(job, sites[idx], outcomes[idx])
                    if step < n - 1:
                        assert job.state == alg.JOB_RUNNING
                if all(outcomes):
                    assert job.state == alg.JOB_COMPLETED
                elif not any(outcomes):
                    assert job.state == alg.JOB_FAILED
                else:
                    assert job.state == alg.JOB_PARTIAL
                assert job.finished_at_ms == 2000


def test_state_machine_rejects_illegal_transitions():
    job = alg.schedule_job(DENSITY, selector(), "site_a", TOPOLOGY_3[:2], "J", 1000)
    with pytest.raises(BadState):
        alg.advance_job(job, "site_zz", alg.TASK_DONE, 1, 1, None, 2000)
    with pytest.raises(BadState):
        alg.advance_job(job, "site_a", "HALF_DONE", 1, 1, None, 2000)
    _apply(job, "site_a", True)
    with pytest.raises(BadState):
        _apply(job, "site_a", True)  # already reported
    _apply(job, "site_b", False)
    assert job.state == alg.JOB_PARTIAL
    with pytest.raises(BadState):
        _apply(job, "site_b", True)  # job is terminal


def test_state_machine_counting_invariants():
    job = alg.schedule_job(DENSITY, selector(), "site_a", TOPOLOGY_3[:1], "J", 1000)
    with pytest.raises(InvariantViolation):
        alg.advance_job(job, "site_a", alg.TASK_DONE, 3, 5, None, 2000)
    with pytest.raises(InvariantViolation):
        alg.advance_job(job, "site_a", alg.TASK_DONE, 3, 2, None, 2000)
    # a FAILED task may stop anywhere short of full coverage
    alg.advance_job(job, "site_a", alg.TASK_FAILED, 3, 2, "err", 2000)
    assert job.state == alg.JOB_FAILED


@pytest.mark.parametrize("outcome", [
    (alg.TASK_DONE, "1", 1, None),
    (alg.TASK_FAILED, 1, -1, "x"),
    (alg.TASK_DONE, True, True, None),
    (alg.TASK_DONE, 1.0, 1, None),
    (alg.TASK_FAILED, 1, 0, 7),
], ids=["string count", "negative count", "bool counts", "float count", "error not text"])
def test_state_machine_rejects_malformed_outcomes(outcome):
    job = alg.schedule_job(DENSITY, selector(), "site_a", TOPOLOGY_3[:1], "J", 1000)
    with pytest.raises(InvariantViolation):
        alg.advance_job(job, "site_a", *outcome, 2000)
    assert job.state == alg.JOB_DISPATCHED
    assert job.tasks[0].state == alg.TASK_PENDING


def test_job_record_round_trip():
    job = alg.schedule_job(DENSITY, selector(), "site_a", TOPOLOGY_3, "JOBX", 1000)
    _apply(job, "site_b", True)
    data = job.to_dict()
    back = alg.JobRecord.from_dict(data)
    assert back == job
    assert back.task_for("site_b").state == alg.TASK_DONE
    assert back.task_for("site_zz") is None


# --- task execution against a real store --------------------------------------------

PID = "0123456789abcdef"


def _image_file(pixels: np.ndarray, patient=PID) -> bytes:
    ts = make_full_tagset(pixel=pixels.tobytes(),
                          rows=pixels.shape[0], cols=pixels.shape[1])
    ts.put_text(dicom.PATIENT_ID, "LO", patient)
    return dicom.write_dicom(ts)


def _store_with_images(tmp_path, arrays):
    store = SiteStore(tmp_path)
    store.upsert_patient(PatientRecord(PID, "F", 1960))
    for n, arr in enumerate(arrays):
        data = _image_file(arr)
        store.insert_image(ImageRecord(
            0, PID, "MG", "L", "CC", "20040102", 44,
            arr.shape[0], arr.shape[1], store.put_blob(data)))
    return store


def test_run_task_writes_derived_records(tmp_path, closing):
    dark = np.full((4, 4), 10, dtype=np.uint8)
    bright = np.full((4, 4), 10, dtype=np.uint8)
    bright[:2] = 200
    store = closing(_store_with_images(tmp_path, [dark, bright]))
    algo = alg.AlgorithmDescriptor("density-v1", "density", {"threshold": 100})
    outcome = alg.run_task(store, "site_a", algo, selector(), job_id="JOB9")
    assert outcome == {"state": alg.TASK_DONE, "images_selected": 2,
                       "derived_written": 2, "error": None}
    assert [row["derived.density_pct"] for row in store.dump_rows()] == [0.0, 50.0]
    assert store.derived_history(1, "smf")[-1].fields["density_pct"] == 0.0
    assert store.derived_history(2, "smf")[-1].fields["density_pct"] == 50.0
    assert store.derived_history(2, "smf")[-1].job_id == "JOB9"


def test_run_task_empty_selection_is_done(tmp_path, closing):
    store = closing(_store_with_images(tmp_path, [np.zeros((4, 4), np.uint8)]))
    outcome = alg.run_task(store, "site_a", DENSITY,
                           selector("SELECT images WHERE patient.sex = 'M'"))
    assert outcome == {"state": alg.TASK_DONE, "images_selected": 0,
                       "derived_written": 0, "error": None}


def test_run_task_stops_at_first_bad_image(tmp_path, closing):
    arrays = [np.full((4, 4), n * 40, dtype=np.uint8) for n in range(3)]
    store = closing(_store_with_images(tmp_path, arrays))
    victim = store.blob(2)
    path = tmp_path / "blobs" / victim.sha256[:2] / victim.sha256
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x80
    path.write_bytes(bytes(raw))

    algo = alg.AlgorithmDescriptor("density-v1", "density", {"threshold": 100})
    outcome = alg.run_task(store, "site_a", algo, selector())
    assert outcome["state"] == alg.TASK_FAILED
    assert outcome["images_selected"] == 3
    assert outcome["derived_written"] == 1  # image 1 was already written
    assert outcome["error"].startswith("image site_a:2:")
    assert "hash" in outcome["error"]
    assert store.derived_history(1, "smf") != []
    assert store.derived_history(3, "smf") == []  # never reached
    assert ["derived.kind" in row for row in store.dump_rows()] == [True, False, False]


def test_rerun_supersedes_previous_results(tmp_path, closing):
    img = np.full((4, 4), 10, dtype=np.uint8)
    img[0, 0] = 250
    store = closing(_store_with_images(tmp_path, [img]))
    v1 = alg.AlgorithmDescriptor("density-v1", "density", {"threshold": 0})
    v2 = alg.AlgorithmDescriptor("density-v2", "density", {"threshold": 240})
    alg.run_task(store, "site_a", v1, selector(), job_id="J1")
    alg.run_task(store, "site_a", v2, selector(), job_id="J2")
    latest = store.derived_history(1, "smf")[-1]
    assert latest.algo_id == "density-v2"
    assert latest.fields["density_pct"] == 6.25  # 1 of 16 above 240
    assert len(store.derived_history(1, "smf")) == 2
    row = store.dump_rows()[0]
    assert row["derived.density_pct"] == 6.25


# --- jobs over the simulated VO ------------------------------------------------------

TOPOLOGY = parse_topology("""
registry = registry.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002
""")


@pytest.fixture
def vo(tmp_path):
    vo = SimVO(TOPOLOGY, tmp_path / "vo")
    vo.login("alice", "alice-pw")
    rng = np.random.default_rng(12)
    for site, patient in (("site_a", "RAW-A1"), ("site_a", "RAW-A2"),
                          ("site_b", "RAW-B1")):
        arr = rng.integers(0, 200, size=(8, 8), dtype=np.uint8)
        vo.add(site, _image_file(arr, patient=patient))
    yield vo
    vo.close()


def test_execute_algorithm_end_to_end(vo):
    vo.algo_add("site_a", "density-v1", "density", {"threshold": 100})
    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_COMPLETED
    by_site = {t["site_id"]: t for t in status["tasks"]}
    assert by_site["site_a"]["images_selected"] == 2
    assert by_site["site_b"]["images_selected"] == 1
    assert all(t["derived_written"] == t["images_selected"]
               for t in status["tasks"])
    rs = vo.query("site_a", "SELECT images WHERE derived.kind = 'smf'")
    assert len(rs.rows) == 3


def test_exec_query_form_runs_synchronously(vo):
    vo.algo_add("site_a", "calc-v1", "microcalc", {"threshold": 150})
    body = vo.query_body("site_a", "EXEC calc-v1 WHERE site.id = 'site_b'")
    assert "job_id" in body
    status = vo.job_status("site_a", body["job_id"])
    assert status["state"] == alg.JOB_COMPLETED
    assert [t["site_id"] for t in status["tasks"]] == ["site_b"]
    rs = vo.query("site_a", "SELECT images WHERE derived.num_findings >= 0")
    assert [r.site_id for r in rs.rows] == ["site_b"]


def test_execute_unknown_algorithm(vo):
    with pytest.raises(RemoteError) as err:
        vo.algo_exec("site_a", "mystery-v1", "SELECT images WHERE patient.age > 0")
    assert err.value.code == "UnknownAlgorithm"


def test_execute_requires_image_selector(vo):
    vo.algo_add("site_a", "density-v1", "density")
    with pytest.raises(RemoteError) as err:
        vo.algo_exec("site_a", "density-v1", "SELECT patients WHERE patient.age > 0")
    assert err.value.code == "BadParams"


def test_job_partial_when_remote_site_fails(vo):
    vo.algo_add("site_a", "density-v1", "density")
    # corrupt site_b's only blob on disk
    store = vo.nodes["site_b"].store
    victim = store.blob(1)
    path = vo.workdir / "site_b" / "blobs" / victim.sha256[:2] / victim.sha256
    raw = bytearray(path.read_bytes())
    raw[200] ^= 0xFF
    path.write_bytes(bytes(raw))

    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_PARTIAL
    by_site = {t["site_id"]: t for t in status["tasks"]}
    assert by_site["site_a"]["state"] == alg.TASK_DONE
    assert by_site["site_b"]["state"] == alg.TASK_FAILED
    assert "site_b:1" in by_site["site_b"]["error"]


def test_job_fails_when_target_site_is_down(vo):
    vo.algo_add("site_a", "density-v1", "density")
    vo.site_down("site_b")
    job_id = vo.algo_exec("site_a", "density-v1",
                          "SELECT images WHERE site.id = 'site_b'")
    vo.drain("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_FAILED
    assert "dispatch failed" in status["tasks"][0]["error"]


def test_job_survives_origin_restart(vo):
    vo.algo_add("site_a", "density-v1", "density")
    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    vo.restart("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_COMPLETED



def test_a_node_keeps_only_the_most_recently_finished_jobs(vo, monkeypatch):
    monkeypatch.setattr(node_module, "RETAINED_FINISHED_JOBS", 3)
    vo.algo_add("site_a", "density-v1", "density")
    selector = "SELECT images WHERE patient.age > 0"
    pending = vo.algo_exec("site_a", "density-v1", selector)  # never drained before restart
    finished = []
    for _ in range(5):
        finished.append(vo.algo_exec("site_a", "density-v1", selector))
        vo.nodes["site_a"].drain_job(finished[-1])

    def known(job_id):
        try:
            vo.job_status("site_a", job_id)
        except RemoteError as exc:
            assert exc.code == "NotFound"
            return False
        return True

    assert [known(job_id) for job_id in finished] == [False, False, True, True, True]
    assert known(pending)  # unfinished jobs are always kept, however old
    vo.restart("site_a")  # boot keeps the same jobs
    assert [known(job_id) for job_id in finished] == [False, False, True, True, True]
    assert known(pending)
    vo.drain("site_a")  # the pending job finishes last, so the oldest kept one goes
    assert [known(job_id) for job_id in finished] == [False, False, False, True, True]
    assert vo.job_status("site_a", pending)["state"] == alg.JOB_COMPLETED
    # the log keeps every job
    assert set(vo.nodes["site_a"].store.jobs()) == {pending, *finished}

def _vo_one_image_per_site(tmp_path, topology_text):
    vo = SimVO(parse_topology(topology_text), tmp_path / "vo")
    vo.login("alice", "alice-pw")
    rng = np.random.default_rng(7)
    for site in vo.nodes:
        arr = rng.integers(0, 200, size=(8, 8), dtype=np.uint8)
        vo.add(site, _image_file(arr, patient=f"RAW-{site}"))
    vo.algo_add("site_a", "density-v1", "density")
    return vo


def test_job_task_at_a_slow_site_fails_like_its_subquery(tmp_path, closing):
    vo = closing(_vo_one_image_per_site(tmp_path, """
registry = registry.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002 latency=3000
"""))
    rs = vo.query("site_a", "SELECT images WHERE patient.age > 0")
    assert rs.missing == (("site_b", "timeout"),)

    # 3000 ms each way misses the 5000 ms deadline for the RunTask reply too
    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_PARTIAL
    by_site = {t["site_id"]: t for t in status["tasks"]}
    assert by_site["site_a"]["state"] == alg.TASK_DONE
    assert by_site["site_b"]["state"] == alg.TASK_FAILED
    assert "dispatch failed" in by_site["site_b"]["error"]
    # what the late peer wrote stays: the log does not roll back
    assert vo.nodes["site_b"].store.derived_history(1, "smf")[-1].job_id == job_id


def test_peers_send_no_request_while_running_a_task(tmp_path, closing):
    vo = closing(_vo_one_image_per_site(tmp_path, """
registry = registry.sim:7000
site = site_a a.sim:7001
site = site_b b.sim:7002
site = site_c c.sim:7003
"""))
    start = len(vo.frames())
    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    assert vo.job_status("site_a", job_id)["state"] == alg.JOB_COMPLETED

    def sent(frame):
        src = frame["link"].partition("->")[0]
        return src, json.loads(wire.from_b64(frame["bytes_b64"])[4:])

    frames = [sent(f) for f in vo.frames()[start:]]
    run_tasks = [src for src, payload in frames if payload.get("op") == "RunTask"]
    assert run_tasks == ["site_a", "site_a"]
    assert [src for src, payload in frames
            if src in ("site_b", "site_c") and "op" in payload] == []


@pytest.mark.parametrize("reply", [
    {},
    [],
    {"state": "RUNNING", "images_selected": 1, "derived_written": 1, "error": None},
    {"state": "DONE", "images_selected": "1", "derived_written": 1, "error": None},
    {"state": "FAILED", "images_selected": 1, "derived_written": -1, "error": "x"},
    {"state": "DONE", "images_selected": True, "derived_written": True, "error": None},
    {"state": "DONE", "images_selected": 1.0, "derived_written": 1, "error": None},
    {"state": "DONE", "images_selected": 1, "derived_written": 0, "error": None},
    {"state": "FAILED", "images_selected": 0, "derived_written": 1, "error": "x"},
    {"state": "FAILED", "images_selected": 1, "derived_written": 0, "error": 7},
], ids=["empty", "not an object", "not terminal", "string count", "negative count",
        "bool counts", "float count", "DONE short of selected", "written over selected",
        "error not text"])
def test_malformed_run_task_reply_is_a_bad_response(vo, monkeypatch, reply):
    vo.algo_add("site_a", "density-v1", "density")
    monkeypatch.setattr(vo.nodes["site_b"], "_op_run_task", lambda claims, body: reply)
    job_id = vo.algo_exec("site_a", "density-v1", "SELECT images WHERE patient.age > 0")
    vo.drain("site_a")
    status = vo.job_status("site_a", job_id)
    assert status["state"] == alg.JOB_PARTIAL
    by_site = {t["site_id"]: t for t in status["tasks"]}
    assert by_site["site_a"]["state"] == alg.TASK_DONE
    assert by_site["site_b"]["state"] == alg.TASK_FAILED
    assert by_site["site_b"]["error"] == "bad response"
