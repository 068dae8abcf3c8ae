"""Per-site persistence: content-addressed blobs + an append-only record log.

Blobs live under ``data_dir/blobs/<first 2 hex>/<sha256>`` and are verified on
every read. Metadata records (patients, images, derived results, jobs) are
appended to ``data_dir/meta.log`` as length-prefixed JSON and the whole
index is rebuilt by replaying the log at startup. A torn tail (crash
mid-append) is cut off; a whole record that does not decode raises
``IntegrityError``. Memory holds only the latest derived record per image and
kind; older versions stay in the log. One writer, many readers: a single lock
serializes mutations, and queries build their row list under it so concurrent
writes are invisible mid-query.

Queries (``select``) run over numpy columns, one row per image in local-id
order, built from the in-memory records on the first select and kept current
by every later write. An expression becomes one boolean mask, ``AND``/``OR``/
``NOT`` as ``&``/``|``/``~`` and each predicate as one vector comparison, and
joined rows are built only for the images it selects.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import struct
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (
    IntegrityError,
    InvariantViolation,
    IoFailure,
    NotFound,
    UnknownImage,
    UnknownPatient,
)
from .mgql import And, Expr, Not, Or, Pred
from .model import DERIVED_KINDS, DerivedRecord, ImageRecord, PatientRecord

_LEN = struct.Struct(">I")


@dataclass(frozen=True, slots=True)
class BlobRef:
    sha256: str
    size_bytes: int


@dataclass
class SiteStats:
    num_patients: int
    num_image_files: int
    num_derived_files: int
    metadata_size_bytes: int
    blob_storage_size_bytes: int


def _frames(data: bytes):
    """(kind, record, end offset) of each whole frame of a log, in order.

    Stops at a torn tail: a frame, or a length prefix, cut short by an
    interrupted append. A whole frame that does not decode is corruption.
    """
    pos = 0
    while pos + 4 <= len(data):
        (length,) = _LEN.unpack_from(data, pos)
        end = pos + 4 + length
        if end > len(data):
            return
        try:
            entry = json.loads(data[pos + 4 : end])
            kind, rec = entry["t"], entry["rec"]
        except (ValueError, TypeError, KeyError) as exc:
            raise IntegrityError(f"log record at byte {pos} does not decode: {exc}") from None
        yield kind, rec, end
        pos = end


# --- query columns -------------------------------------------------------------

# One slot per image, in local-id order. Strings are codes into per-store
# dictionaries; "smf" and "cade" say whether the image has that derived kind.
_IMAGE_COLUMNS = (
    ("local_id", np.int64),
    ("patient.id", np.int32),  # the patient's code: its slot in the patient columns
    ("image.laterality", np.int32),
    ("image.view", np.int32),
    ("image.modality", np.int32),
    ("image.study_date", np.int32),  # YYYYMMDD as an int orders as the string does
    ("patient.age", np.int64),
    ("derived.density_pct", np.float64),
    ("derived.num_findings", np.float64),
    ("smf", np.bool_),
    ("cade", np.bool_),
)
# One slot per patient; an upsert rewrites its slot.
_PATIENT_COLUMNS = (
    ("patient.sex", np.int32),
    ("patient.height_m", np.float64),
    ("patient.weight_kg", np.float64),
)
_CODED = ("patient.id", "patient.sex", "image.laterality", "image.view", "image.modality")
# A derived number is present when its kind is; other float columns hold NaN
# for an absent value.
_PRESENT_WITH = {f"derived.{field}": kind for kind, field in DerivedRecord.REQUIRED.items()}
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(values: np.ndarray, op: str, literal) -> np.ndarray:
    """``values <op> literal`` for each value, as Python compares numbers."""
    try:
        return _COMPARE[op](values, literal)
    except OverflowError:  # an int past every float orders like an infinity
        return _COMPARE[op](values, math.inf if literal > 0 else -math.inf)


def _optional(value) -> float:
    return math.nan if value is None else value


def _grow(columns: dict, used: int) -> None:
    """Make room for one more slot, doubling the arrays when they are full."""
    if used < len(columns[next(iter(columns))]):
        return
    for name, array in columns.items():
        bigger = np.empty(max(2 * used, 8), array.dtype)
        bigger[:used] = array[:used]
        columns[name] = bigger


class _Columns:
    """A store's patients, images and latest derived values as numpy columns.

    The first ``n`` image slots and ``len(pids)`` patient slots hold data.
    """

    def __init__(self, patients: dict, images: dict, latest: dict) -> None:
        self.image = {name: np.empty(len(images), dtype) for name, dtype in _IMAGE_COLUMNS}
        self.patient = {name: np.empty(len(patients), dtype) for name, dtype in _PATIENT_COLUMNS}
        self.n = 0
        self.codes: dict = {field: {} for field in _CODED}
        self.pids: list = []  # patient code -> pid
        for patient in patients.values():
            self.set_patient(patient)
        for local_id in sorted(images):
            self.add_image(images[local_id])
        for derived in latest.values():
            self.set_derived(derived)

    def _code(self, field: str, value: str) -> int:
        codes = self.codes[field]
        return codes.setdefault(value, len(codes))

    def set_patient(self, patient: PatientRecord) -> None:
        slot = self.codes["patient.id"].get(patient.pid)
        if slot is None:
            _grow(self.patient, len(self.pids))
            slot = self._code("patient.id", patient.pid)
            self.pids.append(patient.pid)
        self.patient["patient.sex"][slot] = self._code("patient.sex", patient.sex)
        self.patient["patient.height_m"][slot] = _optional(patient.height_m)
        self.patient["patient.weight_kg"][slot] = _optional(patient.weight_kg)

    def add_image(self, image: ImageRecord) -> None:
        """Append an image; its local id is above every id already here."""
        _grow(self.image, self.n)
        values = {
            "local_id": image.local_id,
            "patient.id": self.codes["patient.id"][image.pid],
            "image.laterality": self._code("image.laterality", image.laterality),
            "image.view": self._code("image.view", image.view),
            "image.modality": self._code("image.modality", image.modality),
            "image.study_date": int(image.study_date),
            "patient.age": image.age_at_study,
            "derived.density_pct": math.nan,
            "derived.num_findings": math.nan,
            "smf": False,
            "cade": False,
        }
        for name, value in values.items():
            self.image[name][self.n] = value
        self.n += 1

    def set_derived(self, derived: DerivedRecord) -> None:
        slot = int(np.searchsorted(self.column("local_id"), derived.image_local_id))
        field = DerivedRecord.REQUIRED[derived.kind]
        self.image[derived.kind][slot] = True
        self.image[f"derived.{field}"][slot] = derived.fields[field]

    def column(self, field: str) -> np.ndarray:
        """One value per image; a patient field is read through the image's patient code."""
        if field in self.patient:
            return self.patient[field][self.image["patient.id"][:self.n]]
        return self.image[field][:self.n]

    def mask(self, node: Expr) -> np.ndarray:
        """The images ``node`` selects, as a boolean array."""
        if isinstance(node, And):
            return self.mask(node.left) & self.mask(node.right)
        if isinstance(node, Or):
            return self.mask(node.left) | self.mask(node.right)
        if isinstance(node, Not):
            return ~self.mask(node.expr)
        return self._pred(node)

    def _pred(self, pred: Pred) -> np.ndarray:
        """One predicate; an absent value makes it false."""
        field, op, literal = pred.field, pred.op, pred.value
        if field == "derived.kind":  # = tests membership; != that some other kind is present
            kinds = [self.column(kind) for kind in DERIVED_KINDS
                     if (kind == literal) == (op == "=")]
            return functools.reduce(operator.or_, kinds, np.zeros(self.n, bool))
        values = self.column(field)
        if field in self.codes:
            code = self.codes[field].get(literal)
            if code is None:  # no record holds this string
                return np.full(self.n, op == "!=")
            return _compare(values, op, code)
        if field == "image.study_date":
            literal = tuple(map(int, literal)) if op == "in" else int(literal)
        if op == "in":
            hit = _compare(values, ">=", literal[0]) & _compare(values, "<=", literal[1])
        else:
            hit = _compare(values, op, literal)
        if values.dtype.kind == "f":  # NaN != x is true, so presence is ANDed in
            flag = _PRESENT_WITH.get(field)
            hit &= self.column(flag) if flag else ~np.isnan(values)
        return hit


class SiteStore:
    def __init__(self, data_dir) -> None:
        self.data_dir = Path(data_dir)
        self._blob_dir = self.data_dir / "blobs"
        self._blob_dir.mkdir(parents=True, exist_ok=True)
        self._log_path = self.data_dir / "meta.log"
        self._lock = threading.RLock()

        self._patients: dict[str, PatientRecord] = {}
        self._images: dict[int, ImageRecord] = {}
        self._num_derived = 0
        self._latest: dict[tuple[int, str], DerivedRecord] = {}
        self._image_by_blob: dict[str, int] = {}
        self._jobs: dict[str, dict] = {}
        self._next_image = 1
        self._next_derived = 1
        self._blob_bytes = 0
        self._columns: Optional[_Columns] = None  # built by the first select

        self._replay()
        self._log = open(self._log_path, "ab")
        for path in self._blob_dir.glob("*/*"):
            self._blob_bytes += path.stat().st_size

    def close(self) -> None:
        with self._lock:
            self._log.close()

    # --- blobs ---------------------------------------------------------

    def _blob_path(self, sha: str) -> Path:
        return self._blob_dir / sha[:2] / sha

    def put_blob(self, data: bytes, sha: Optional[str] = None) -> BlobRef:
        """Store ``data`` under its sha256; ``sha`` is that digest if the caller has it."""
        sha = sha or hashlib.sha256(data).hexdigest()
        ref = BlobRef(sha, len(data))
        path = self._blob_path(sha)
        with self._lock:
            if path.exists():
                return ref
            try:
                path.parent.mkdir(exist_ok=True)
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(data)
                os.replace(tmp, path)
            except OSError as exc:
                raise IoFailure(f"writing blob {sha}: {exc}") from exc
            self._blob_bytes += len(data)
        return ref

    def get_blob(self, ref) -> bytes:
        sha = ref if isinstance(ref, str) else ref.sha256
        path = self._blob_path(sha)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no blob {sha}") from None
        except OSError as exc:
            raise IoFailure(f"reading blob {sha}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != sha:
            raise IntegrityError(f"blob {sha} fails its hash check")
        return data

    # --- record log ------------------------------------------------------

    def _append(self, kind: str, rec: dict) -> None:
        payload = json.dumps({"t": kind, "rec": rec}, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        try:
            self._log.write(_LEN.pack(len(payload)) + payload)
            self._log.flush()
        except OSError as exc:
            raise IoFailure(f"appending to {self._log_path}: {exc}") from exc

    def _replay(self) -> None:
        """Rebuild the index from the log, cutting off a torn tail.

        The tail must go before the log reopens for append: a frame appended
        behind it would be read as the rest of the torn one.
        """
        if not self._log_path.exists():
            return
        data = self._log_path.read_bytes()
        good = 0  # the end of the last whole frame
        for kind, rec, good in _frames(data):
            self._apply(kind, rec)
        if good < len(data):
            try:
                os.truncate(self._log_path, good)
            except OSError as exc:
                raise IoFailure(f"cutting the torn tail of {self._log_path}: {exc}") from exc

    def _apply(self, kind: str, rec: dict) -> None:
        if kind == "patient":
            patient = PatientRecord(**rec)
            self._patients[patient.pid] = patient
        elif kind == "image":
            rec = dict(rec, blob=BlobRef(**rec["blob"]))
            image = ImageRecord(**rec)
            self._images[image.local_id] = image
            self._image_by_blob[image.blob.sha256] = image.local_id
            self._next_image = max(self._next_image, image.local_id + 1)
        elif kind == "derived":
            derived = DerivedRecord(**rec)
            self._num_derived += 1
            self._latest[(derived.image_local_id, derived.kind)] = derived
            self._next_derived = max(self._next_derived, derived.local_id + 1)
        elif kind == "job":
            self._jobs[rec["job_id"]] = rec
        elif kind != "annotation":  # older versions logged annotations; nothing reads them
            raise InvariantViolation(f"unknown record kind {kind!r} in log")

    # --- records -----------------------------------------------------------

    def upsert_patient(self, patient: PatientRecord) -> None:
        patient.validate()
        with self._lock:
            self._append("patient", asdict(patient))
            self._patients[patient.pid] = patient
            if self._columns is not None:
                self._columns.set_patient(patient)

    def insert_image(self, image: ImageRecord) -> int:
        with self._lock:
            if image.pid not in self._patients:
                raise UnknownPatient(f"no patient {image.pid}")
            image.local_id = self._next_image
            image.validate()
            self._append("image", asdict(image))
            self._apply_image(image)
            if self._columns is not None:
                self._columns.add_image(image)
            return image.local_id

    def add_image(self, data: bytes, patient: PatientRecord,
                  image: ImageRecord) -> tuple[int, bool]:
        """Store an image file and its records unless its bytes are already here.

        ``image.blob`` is ``data``'s ``BlobRef``. Returns the image's local id
        and whether the file was a duplicate, decided under the store's lock.
        """
        with self._lock:
            existing = self.find_image_by_blob(image.blob.sha256)
            if existing is not None:
                return existing, True
            self.put_blob(data, image.blob.sha256)
            self.upsert_patient(patient)
            return self.insert_image(image), False

    def _apply_image(self, image: ImageRecord) -> None:
        self._images[image.local_id] = image
        self._image_by_blob[image.blob.sha256] = image.local_id
        self._next_image = image.local_id + 1

    def insert_derived(self, derived: DerivedRecord) -> int:
        with self._lock:
            if derived.image_local_id not in self._images:
                raise UnknownImage(f"no image {derived.image_local_id}")
            derived.local_id = self._next_derived
            derived.validate()
            self._append("derived", asdict(derived))
            self._num_derived += 1
            self._latest[(derived.image_local_id, derived.kind)] = derived
            self._next_derived += 1
            if self._columns is not None:
                self._columns.set_derived(derived)
            return derived.local_id

    # --- lookups ---------------------------------------------------------------

    def patient(self, pid: str) -> PatientRecord:
        with self._lock:
            try:
                return self._patients[pid]
            except KeyError:
                raise UnknownPatient(f"no patient {pid}") from None

    def image(self, local_id: int) -> ImageRecord:
        with self._lock:
            try:
                return self._images[local_id]
            except KeyError:
                raise UnknownImage(f"no image {local_id}") from None

    def find_image_by_blob(self, sha256: str) -> Optional[int]:
        with self._lock:
            return self._image_by_blob.get(sha256)

    def latest_derived(self, image_local_id: int, kind: str) -> Optional[DerivedRecord]:
        with self._lock:
            return self._latest.get((image_local_id, kind))

    def derived_history(self, image_local_id: int, kind: str) -> list[DerivedRecord]:
        """Every version of one image's derived record, oldest first, read from the log."""
        with self._lock:
            data = self._log_path.read_bytes()
        return [DerivedRecord(**rec) for entry_kind, rec, _ in _frames(data)
                if entry_kind == "derived" and rec["image_local_id"] == image_local_id
                and rec["kind"] == kind]

    # --- jobs --------------------------------------------------------------------

    def upsert_job(self, job: dict) -> None:
        """Log a job's latest state; the node owns the live record."""
        with self._lock:
            self._append("job", job)

    def jobs(self) -> dict[str, dict]:
        """The latest logged state of each job as of opening the store.

        For the node to rebuild its jobs at boot; ``upsert_job`` calls made
        since are in the log but not in this map.
        """
        with self._lock:
            return dict(self._jobs)

    # --- scans ----------------------------------------------------------------------

    def _joined_row(self, image: ImageRecord) -> dict:
        patient = self._patients[image.pid]
        row = {
            "patient.id": patient.pid,
            "patient.sex": patient.sex,
            "patient.age": image.age_at_study,
            "image.laterality": image.laterality,
            "image.view": image.view,
            "image.modality": image.modality,
            "image.study_date": image.study_date,
            "_local_id": image.local_id,
            "_pid": patient.pid,
            "_blob": image.blob,
        }
        if patient.height_m is not None:
            row["patient.height_m"] = patient.height_m
        if patient.weight_kg is not None:
            row["patient.weight_kg"] = patient.weight_kg
        kinds = []
        smf = self._latest.get((image.local_id, "smf"))
        if smf is not None:
            kinds.append("smf")
            row["derived.density_pct"] = smf.fields["density_pct"]
        cade = self._latest.get((image.local_id, "cade"))
        if cade is not None:
            kinds.append("cade")
            row["derived.num_findings"] = cade.fields["num_findings"]
        if kinds:
            row["derived.kind"] = tuple(kinds)
        return row

    def _patient_row(self, pid: str) -> dict:
        patient = self._patients[pid]
        row = {
            "patient.id": patient.pid,
            "patient.sex": patient.sex,
            "_pid": patient.pid,
        }
        if patient.height_m is not None:
            row["patient.height_m"] = patient.height_m
        if patient.weight_kg is not None:
            row["patient.weight_kg"] = patient.weight_kg
        return row

    def select(self, expr: Optional[Expr], target: str = "images") -> list[dict]:
        """The rows of the images ``expr`` selects; ``None`` selects every image.

        The same rows ``scan`` builds, in the same order, but ``expr`` is
        evaluated as one mask over the columns and rows are built only for
        the images it selects. ``target="patients"`` projects their distinct
        patients. The expression must hold no ``site.id`` predicate.
        """
        with self._lock:
            if self._columns is None:
                self._columns = _Columns(self._patients, self._images, self._latest)
            columns = self._columns
            hit = slice(None) if expr is None else columns.mask(expr)
            if target == "images":
                return [self._joined_row(self._images[local_id])
                        for local_id in columns.column("local_id")[hit].tolist()]
            codes = np.unique(columns.column("patient.id")[hit]).tolist()
            return [self._patient_row(pid) for pid in sorted(columns.pids[c] for c in codes)]

    def scan(self, pred: Optional[Callable[[dict], bool]], target: str = "images") -> list[dict]:
        """Joined rows (patient x image x latest derived per kind) matching pred.

        ``target="patients"`` projects the distinct patients whose joined rows
        matched, ordered by pid; image rows come back in local_id order.
        Queries use ``select``; this row-at-a-time form serves ``dump_rows``.
        """
        with self._lock:
            matched = []
            for local_id in sorted(self._images):
                row = self._joined_row(self._images[local_id])
                if pred is None or pred(row):
                    matched.append(row)
            if target == "images":
                return matched
            pids = sorted({row["_pid"] for row in matched})
            return [self._patient_row(pid) for pid in pids]

    def dump_rows(self, target: str = "images") -> list[dict]:
        return self.scan(None, target)

    def site_stats(self) -> SiteStats:
        with self._lock:
            self._log.flush()
            meta_size = self._log_path.stat().st_size if self._log_path.exists() else 0
            return SiteStats(
                num_patients=len(self._patients),
                num_image_files=len(self._images),
                num_derived_files=self._num_derived,
                metadata_size_bytes=meta_size,
                blob_storage_size_bytes=self._blob_bytes,
            )
