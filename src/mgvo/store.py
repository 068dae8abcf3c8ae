"""Per-site persistence: content-addressed blobs, an append-only record log,
and the numpy columns that are the in-memory index.

Blobs live under ``data_dir/blobs/<first 2 hex>/<sha256>`` and are verified on
every read. Records (patients, images, derived results, jobs) are appended to
``data_dir/meta.log`` as length-prefixed JSON and replayed at startup. A torn
tail (crash mid-append) is cut off; a whole record that does not decode,
lacks its kind's exact keys and JSON types, or holds a value its column
cannot, raises ``IntegrityError``. A single lock serializes writes, and
queries build their rows under it.

The columns follow the field catalog ``model.FIELDS``. Image slot ``i`` is
local id ``i + 1`` with its latest derived value per kind; a patient slot is
the latest version of one patient; strings are codes into per-store
dictionaries. Replay encodes each record into its slot's values as it reads
it and makes one array per column at the end; a later write encodes its one
record the same way and puts it into the arrays. Older derived versions, and an
image's ``rows`` and ``cols``, stay in the log only. A query (``select``)
becomes one boolean mask, and its rows are built column by column.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import struct
import threading
import typing
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
from .model import (DERIVED_FIELDS, DERIVED_KINDS, FIELDS, DerivedRecord, Field, ImageRecord,
                    PatientRecord)

_LEN = struct.Struct(">I")
_DECODE = json.JSONDecoder().raw_decode  # (value, end) of the JSON value a str starts with


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
    """(kind, record, start offset, end offset) of each whole frame of a log, in order.

    Stops at a torn tail: a frame, or a length prefix, cut short by an
    interrupted append. A whole frame that does not decode, or holds more
    than one JSON value, is corruption.
    """
    pos = 0
    while pos + 4 <= len(data):
        (length,) = _LEN.unpack_from(data, pos)
        end = pos + 4 + length
        if end > len(data):
            return
        try:
            text = data[pos + 4 : end].decode()
            entry, stop = _DECODE(text)
            if stop != len(text):
                raise ValueError(f"extra data at {stop}")
            kind, rec = entry["t"], entry["rec"]
        except (ValueError, TypeError, KeyError) as exc:
            raise IntegrityError(f"log record at byte {pos} does not decode: {exc}") from None
        yield kind, rec, pos, end
        pos = end


# --- logged records --------------------------------------------------------------

# The JSON types a logged value may have, for each type hint of a record's fields.
_JSON_TYPES = {str: (str,), int: (int,), Optional[float]: (int, float, type(None)),
               dict: (dict,), BlobRef: (dict,)}
# and for a derived value, by the encoding of its column
_NUMBER = {"int": (int,), "float": (int, float)}


def _shape(cls) -> tuple:
    """How a logged ``cls`` record must look: its number of keys, a getter of
    their values, and every tuple of JSON types those values may have."""
    hints = typing.get_type_hints(cls, localns={"BlobRef": BlobRef})
    types = [_JSON_TYPES[hint] for hint in hints.values()]  # an unmapped hint fails at import
    return len(hints), operator.itemgetter(*hints), set(itertools.product(*types))


_PATIENT, _IMAGE, _DERIVED, _BLOB = map(_shape,
                                         (PatientRecord, ImageRecord, DerivedRecord, BlobRef))


def _shaped(rec, shape: tuple) -> bool:
    """Whether ``rec`` has exactly ``shape``'s keys, with JSON types it allows."""
    size, values, types = shape
    try:
        return type(rec) is dict and len(rec) == size and tuple(map(type, values(rec))) in types
    except KeyError:
        return False


def _require(ok: bool, kind: str, pos: int) -> None:
    if not ok:
        raise IntegrityError(f"log record at byte {pos} is not a well-formed {kind} record")


# --- columns ---------------------------------------------------------------------

_STORED = [field for field in FIELDS.values() if field.record]  # all but site.id
# The columns of a slot. A patient's code is its slot, and it keeps its birth
# year so that ``patient`` can rebuild the record; an image holds its
# patient's code and, after its own fields, its latest derived values.
_PATIENT_SLOT = [f for f in _STORED if f.record == "patient" and f.name != "patient.id"] + [
    Field("birth_year", "number", "patient", "birth_year", "int", False)]
_IMAGE_OWN = [FIELDS["patient.id"]] + [f for f in _STORED if f.record == "image"]
_IMAGE_SLOT = _IMAGE_OWN + [f for f in _STORED if f.record not in ("patient", "image")]
_ABSENT = [math.nan if f.encoding == "float" else 0 for f in _IMAGE_SLOT[len(_IMAGE_OWN):]]
# the fields a row holds besides patient.id, which it starts with
_ROW_FIELDS = {target: [f for f in _STORED if f.name != "patient.id"
                        and (target == "images" or f.record == "patient")]
               for target in ("images", "patients")}
_DTYPES = dict(code=np.int32, int=np.int64, date=np.int32, float=np.float64, kind=np.int8)
# derived.kind is a set of bits, one per kind
_BIT = {kind: 1 << i for i, kind in enumerate(DERIVED_KINDS)}
_KIND_SETS = [tuple(k for k, bit in _BIT.items() if code & bit) for code in range(1 << len(_BIT))]

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(values: np.ndarray, op: str, literal) -> np.ndarray:
    """``values <op> literal`` for each value, as Python compares numbers."""
    try:
        return _COMPARE[op](values, literal)
    except OverflowError:  # an int past every float orders like an infinity
        return _COMPARE[op](values, math.inf if literal > 0 else -math.inf)


def _present(field, raw: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """Which of an optional field's ``raw`` values are present, at images whose
    ``derived.kind`` codes are ``kinds``."""
    if field.record in _BIT:  # a derived number is there when its kind is
        return (kinds & _BIT[field.record]) != 0
    return raw != 0 if field.encoding == "kind" else raw == raw  # NaN is absent


def _arrays(fields: list, slots: list) -> dict:
    """The column of each of ``fields`` for ``slots``, each a list of its values in field order."""
    columns = zip(*slots) if slots else [()] * len(fields)
    return {f.name: np.array(column, _DTYPES[f.encoding]) for f, column in zip(fields, columns)}


def _put(columns: dict, slot: int, values: list) -> None:
    """Write one slot's ``values``, one per column; the slot past the arrays doubles them."""
    if slot == len(next(iter(columns.values()))):
        for name, array in columns.items():
            columns[name] = np.concatenate([array, np.empty(max(slot, 8), array.dtype)])
    for array, value in zip(columns.values(), values):
        array[slot] = value


class SiteStore:
    def __init__(self, data_dir) -> None:
        self.data_dir = Path(data_dir)
        self._blob_dir = self.data_dir / "blobs"
        self._blob_dir.mkdir(parents=True, exist_ok=True)
        self._log_path = self.data_dir / "meta.log"
        self._lock = threading.RLock()

        self._codes: dict = {name: {} for name, f in FIELDS.items() if f.encoding == "code"}
        self._names: dict = {name: [] for name in self._codes}  # code -> string
        self._jobs: dict[str, dict] = {}
        self._blob_bytes = 0

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

    def _append(self, kind: str, rec: dict) -> dict:
        """Log ``rec``, and return it."""
        payload = json.dumps({"t": kind, "rec": rec}, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        try:
            self._log.write(_LEN.pack(len(payload)) + payload)
            self._log.flush()
        except OSError as exc:
            raise IoFailure(f"appending to {self._log_path}: {exc}") from exc
        return rec

    def _replay(self) -> None:
        """Build the columns from the log, checking what the encoders rely on.

        The torn tail is cut before the log reopens for append, or a frame
        appended behind it would be read as the rest of the torn one.
        """
        # The values of each slot, a patient's from its latest record: a dict
        # keeps a pid where its code, given on first sight, puts its slot.
        patients, images = {}, []
        latest = {kind: {} for kind in _BIT}  # kind -> image slot -> its latest value
        self._blobs, self._slot_by_sha, self._next_derived = [], {}, 1
        if self._log_path.exists():
            data = self._log_path.read_bytes()
            good = 0  # the end of the last whole frame
            for kind, rec, pos, good in _frames(data):
                if kind == "patient":
                    _require(_shaped(rec, _PATIENT), kind, pos)
                    slot = self._code("patient.id", rec["pid"])
                    patients[slot] = self._encode(_PATIENT_SLOT, rec)
                elif kind == "image":
                    date = _shaped(rec, _IMAGE) and rec["study_date"]
                    _require(date and len(date) == 8 and date.isascii() and date.isdigit()
                             and _shaped(rec["blob"], _BLOB)
                             and rec["pid"] in self._codes["patient.id"]
                             and rec["local_id"] == len(images) + 1, kind, pos)
                    images.append(self._encode(_IMAGE_OWN, rec) + _ABSENT)
                    blob = rec["blob"]
                    self._add_blob(BlobRef(blob["sha256"], blob["size_bytes"]))
                elif kind == "derived":
                    field = _shaped(rec, _DERIVED) and DERIVED_FIELDS.get(rec["kind"])
                    value = field and rec["fields"].get(field.key)
                    _require(field and rec["local_id"] == self._next_derived
                             and 1 <= rec["image_local_id"] <= len(images)
                             and type(value) in _NUMBER[field.encoding], kind, pos)
                    latest[rec["kind"]][rec["image_local_id"] - 1] = value
                    self._next_derived += 1
                elif kind == "job":
                    _require(type(rec) is dict and type(rec.get("job_id")) is str, kind, pos)
                    self._jobs[rec["job_id"]] = rec
                elif kind != "annotation":  # older versions logged annotations; nothing reads them
                    raise InvariantViolation(f"unknown record kind {kind!r} in log")
            if good < len(data):
                try:
                    os.truncate(self._log_path, good)
                except OSError as exc:
                    raise IoFailure(f"cutting the torn tail of {self._log_path}: {exc}") from exc
        try:
            self._patient = _arrays(_PATIENT_SLOT, list(patients.values()))
            self._image = _arrays(_IMAGE_SLOT, images)
            for kind, values in latest.items():
                self._put_derived(kind, list(values), list(values.values()))
        except OverflowError as exc:  # a logged int past its column's dtype
            raise IntegrityError(f"a logged value does not fit its column: {exc}") from None

    # --- encoders: logged records into columns ----------------------------------------

    def _code(self, name: str, value: str) -> int:
        """``value``'s code in field ``name``'s dictionary, added if it is new."""
        codes = self._codes[name]
        if value not in codes:
            codes[value] = len(codes)
            self._names[name].append(value)
        return codes[value]

    def _encode(self, fields: list, rec: dict) -> list:
        """Logged ``rec``'s values of ``fields``: strings as codes, dates as ints, None as NaN."""
        values = []
        for f in fields:
            value = rec[f.key]
            if f.encoding == "code":
                value = self._code(f.name, value)
            elif f.encoding == "date":
                value = int(value)
            elif value is None:
                value = math.nan
            values.append(value)
        return values

    def _add_blob(self, blob: BlobRef) -> None:
        self._slot_by_sha[blob.sha256] = len(self._blobs)
        self._blobs.append(blob)

    def _put_derived(self, kind: str, slots: list, values: list) -> None:
        """Make ``values`` the latest of ``kind`` at image ``slots``."""
        self._image["derived.kind"][slots] |= _BIT[kind]
        self._image[DERIVED_FIELDS[kind].name][slots] = values

    # --- records -----------------------------------------------------------

    def upsert_patient(self, patient: PatientRecord) -> None:
        patient.validate()
        with self._lock:
            rec = self._append("patient", asdict(patient))
            slot = self._code("patient.id", rec["pid"])
            _put(self._patient, slot, self._encode(_PATIENT_SLOT, rec))

    def insert_image(self, image: ImageRecord) -> int:
        with self._lock:
            if image.pid not in self._codes["patient.id"]:
                raise UnknownPatient(f"no patient {image.pid}")
            image.local_id = len(self._blobs) + 1
            image.validate()
            rec = self._append("image", asdict(image))
            _put(self._image, len(self._blobs), self._encode(_IMAGE_OWN, rec) + _ABSENT)
            self._add_blob(image.blob)
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

    def insert_derived(self, derived: DerivedRecord) -> int:
        with self._lock:
            if not 1 <= derived.image_local_id <= len(self._blobs):
                raise UnknownImage(f"no image {derived.image_local_id}")
            derived.local_id = self._next_derived
            derived.validate()
            self._append("derived", asdict(derived))
            value = derived.fields[DERIVED_FIELDS[derived.kind].key]
            self._put_derived(derived.kind, [derived.image_local_id - 1], [value])
            self._next_derived += 1
            return derived.local_id

    # --- lookups ---------------------------------------------------------------

    def patient(self, pid: str) -> PatientRecord:
        with self._lock:
            slot = self._codes["patient.id"].get(pid)
            if slot is None:
                raise UnknownPatient(f"no patient {pid}")
            got = {f.key: self._decode(f, self._patient[f.name][[slot]])[0] for f in _PATIENT_SLOT}
            return PatientRecord(pid=pid, **{key: None if v != v else v  # NaN: absent
                                             for key, v in got.items()})

    def blob(self, local_id: int) -> BlobRef:
        with self._lock:
            if not 1 <= local_id <= len(self._blobs):
                raise UnknownImage(f"no image {local_id}")
            return self._blobs[local_id - 1]

    def find_image_by_blob(self, sha256: str) -> Optional[int]:
        with self._lock:
            slot = self._slot_by_sha.get(sha256)
            return None if slot is None else slot + 1

    def derived_history(self, image_local_id: int, kind: str) -> list[DerivedRecord]:
        """Every version of one image's derived record, oldest first, read from the log."""
        with self._lock:
            data = self._log_path.read_bytes()
        return [DerivedRecord(**rec) for entry_kind, rec, *_ in _frames(data)
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

    # --- queries ----------------------------------------------------------------------

    def _raw(self, field, slots, patients) -> np.ndarray:
        """``field``'s encoded values at image ``slots``, whose patient codes are ``patients``."""
        if field.name == "patient.id":
            return patients
        if field.record == "patient":
            return self._patient[field.name][patients]
        return self._image[field.name][slots]

    def _decode(self, field, raw: np.ndarray) -> list:
        values = raw.tolist()
        if field.encoding == "code":
            return list(map(self._names[field.name].__getitem__, values))
        if field.encoding == "date":
            return list(map("%08d".__mod__, values))
        if field.encoding == "kind":
            return list(map(_KIND_SETS.__getitem__, values))
        return values

    def _mask(self, node: Expr) -> np.ndarray:
        """The images ``node`` selects, as a boolean array."""
        if isinstance(node, And):
            return self._mask(node.left) & self._mask(node.right)
        if isinstance(node, Or):
            return self._mask(node.left) | self._mask(node.right)
        if isinstance(node, Not):
            return ~self._mask(node.expr)
        return self._pred(node)

    def _pred(self, pred: Pred) -> np.ndarray:
        """One predicate; an absent value makes it false."""
        field, op, literal = FIELDS[pred.field], pred.op, pred.value
        n = len(self._blobs)
        if field.encoding == "kind":  # = tests membership; != that some other kind is present
            bits = sum(bit for kind, bit in _BIT.items() if (kind == literal) == (op == "="))
            return (self._image["derived.kind"][:n] & bits) != 0
        slots = slice(0, n)
        values = self._raw(field, slots, self._image["patient.id"][:n])
        if field.encoding == "code":
            code = self._codes[field.name].get(literal)
            if code is None:  # no record holds this string
                return np.full(n, op == "!=")
            return _compare(values, op, code)
        if field.encoding == "date":
            literal = tuple(map(int, literal)) if op == "in" else int(literal)
        if op == "in":
            hit = _compare(values, ">=", literal[0]) & _compare(values, "<=", literal[1])
        else:
            hit = _compare(values, op, literal)
        if field.optional:
            hit &= _present(field, values, self._image["derived.kind"][:n])
        return hit

    def _one_per_patient(self, slots: np.ndarray) -> np.ndarray:
        """One of image ``slots`` for each distinct patient of those images, in pid order."""
        codes, first = np.unique(self._image["patient.id"][slots], return_index=True)
        pids = [self._names["patient.id"][code] for code in codes.tolist()]
        return slots[first][sorted(range(len(pids)), key=pids.__getitem__)]

    def _rows(self, slots: np.ndarray, target: str) -> list[dict]:
        """The rows of image ``slots``, built column by column; optional keys where present.

        An image row holds every stored field, ``_local_id``, ``_pid`` and ``_blob``;
        a ``"patients"`` row holds the patient's fields and ``_pid``.
        """
        patients = self._image["patient.id"][slots].astype(np.intp)  # int32 indexes slower
        kinds = self._image["derived.kind"][slots]
        pids, blobs = self._decode(FIELDS["patient.id"], patients), self._blobs
        if target == "images":
            rows = [{"_pid": pid, "patient.id": pid, "_local_id": slot + 1, "_blob": blobs[slot]}
                    for pid, slot in zip(pids, slots.tolist())]
        else:
            rows = [{"_pid": pid, "patient.id": pid} for pid in pids]
        for f in _ROW_FIELDS[target]:
            raw = self._raw(f, slots, patients)
            if not f.optional:
                for row, value in zip(rows, self._decode(f, raw)):  # beats dict(zip())
                    row[f.name] = value
                continue
            where = _present(f, raw, kinds).nonzero()[0]
            for i, value in zip(where.tolist(), self._decode(f, raw[where])):
                rows[i][f.name] = value
        return rows

    def select(self, expr: Optional[Expr], target: str = "images") -> list[dict]:
        """The rows of the images ``expr`` selects; ``None`` selects every image.

        ``expr`` is evaluated as one mask over the columns, and rows are built
        only for the images it selects, in local-id order. ``target="patients"``
        projects their distinct patients, in pid order. The expression must
        hold no ``site.id`` predicate.
        """
        with self._lock:
            n = len(self._blobs)
            slots = np.arange(n) if expr is None else np.flatnonzero(self._mask(expr))
            if target == "patients":
                slots = self._one_per_patient(slots)
            return self._rows(slots, target)

    def scan(self, pred: Optional[Callable[[dict], bool]], target: str = "images") -> list[dict]:
        """The rows of ``select(None)`` that ``pred`` accepts; ``None`` accepts all.

        ``target="patients"`` projects the distinct patients whose image rows
        matched, ordered by pid; image rows come back in local-id order.
        Queries use ``select``; this filter serves ``dump_rows``.
        """
        with self._lock:
            rows = [row for row in self.select(None) if pred is None or pred(row)]
            if target == "images":
                return rows
            slots = np.array([row["_local_id"] - 1 for row in rows], np.intp)
            return self._rows(self._one_per_patient(slots), target)

    def dump_rows(self, target: str = "images") -> list[dict]:
        return self.scan(None, target)

    def site_stats(self) -> SiteStats:
        with self._lock:
            self._log.flush()
            meta_size = self._log_path.stat().st_size if self._log_path.exists() else 0
            return SiteStats(
                num_patients=len(self._names["patient.id"]),
                num_image_files=len(self._blobs),
                num_derived_files=self._next_derived - 1,
                metadata_size_bytes=meta_size,
                blob_storage_size_bytes=self._blob_bytes,
            )
