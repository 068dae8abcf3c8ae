"""Domain records shared across the grid, plus site-scoped identity helpers.

A patient is known inside a site only by a pseudonym derived from the site
secret; raw identifiers never enter any record defined here.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import TYPE_CHECKING, Optional

from .errors import BadGfid, BadValue, EmptyId, InvariantViolation, NegativeAge, WeakSecret

if TYPE_CHECKING:  # pragma: no cover - annotation only, no runtime cycle
    from .store import BlobRef

PSEUDONYM_RE = re.compile(r"^[0-9a-f]{16}\Z")
SITE_ID_RE = re.compile(r"^[a-z0-9_]{1,32}\Z")

SEXES = ("F", "M", "O")
LATERALITIES = ("L", "R")
VIEWS = ("CC", "MLO")
DERIVED_KINDS = ("smf", "cade")


@dataclass(frozen=True, slots=True)
class Field:
    """One MGQL field: how a query types it, and how a site's columns hold it."""

    name: str
    type: str  # the MGQL literal type: "string", "number" or "date"
    # The record carrying the value: "patient" (held on the patient slot),
    # "image", "derived" (any kind), one derived kind, or "" (no store holds it).
    record: str
    key: str  # the value's key in that record (for one derived kind, in its ``fields``)
    # "code" into a dictionary, "int", "date" (YYYYMMDD as an int), "float"
    # (NaN when absent) or "kind" (a flag per derived kind); a derived
    # number is present when its kind is
    encoding: str
    optional: bool  # an absent value leaves the row without the key
    results: tuple = ()  # the targets whose result columns include it


FIELDS = {field.name: field for field in (
    Field("patient.id", "string", "patient", "pid", "code", False, ("images", "patients")),
    Field("patient.sex", "string", "patient", "sex", "code", False, ("images", "patients")),
    Field("patient.age", "number", "image", "age_at_study", "int", False, ("images",)),
    Field("patient.height_m", "number", "patient", "height_m", "float", True, ("patients",)),
    Field("patient.weight_kg", "number", "patient", "weight_kg", "float", True, ("patients",)),
    Field("image.laterality", "string", "image", "laterality", "code", False, ("images",)),
    Field("image.view", "string", "image", "view", "code", False, ("images",)),
    Field("image.modality", "string", "image", "modality", "code", False, ("images",)),
    Field("image.study_date", "date", "image", "study_date", "date", False, ("images",)),
    Field("derived.kind", "string", "derived", "kind", "kind", True),
    Field("derived.density_pct", "number", "smf", "density_pct", "float", True),
    Field("derived.num_findings", "number", "cade", "num_findings", "int", True),
    Field("site.id", "string", "", "", "", False),
)}
# the field that holds each derived kind's value, which its records must carry
DERIVED_FIELDS = {f.record: f for f in FIELDS.values() if f.record in DERIVED_KINDS}


def pseudonymize(raw_id: str, site_secret: bytes) -> str:
    """Site-scoped pseudonym: first 16 hex chars of SHA-256(secret||0x00||id)."""
    if not raw_id:
        raise EmptyId("raw patient id is empty")
    if len(site_secret) < 16:
        raise WeakSecret("site_secret must be at least 16 bytes")
    digest = hashlib.sha256(site_secret + b"\x00" + raw_id.encode("utf-8"))
    return digest.hexdigest()[:16]


def parse_ymd(value: str) -> date:
    """Parse a YYYYMMDD date string; BadValue when not a calendar date."""
    if len(value) != 8 or not value.isdigit():
        raise BadValue(f"not a YYYYMMDD date: {value!r}")
    try:
        return datetime.strptime(value, "%Y%m%d").date()
    except ValueError as exc:
        raise BadValue(f"not a calendar date: {value!r}") from exc


def derive_age(birth_date: str, study_date: str) -> int:
    """Completed years between two YYYYMMDD dates, birthday-aware."""
    born = parse_ymd(birth_date)
    study = parse_ymd(study_date)
    if study < born:
        raise NegativeAge(f"study {study_date} precedes birth {birth_date}")
    before_birthday = (study.month, study.day) < (born.month, born.day)
    return study.year - born.year - int(before_birthday)


@dataclass(frozen=True)
class GlobalFileId:
    site_id: str
    local_id: int

    def __str__(self) -> str:
        return f"{self.site_id}:{self.local_id}"


def format_gfid(site_id: str, local_id: int) -> str:
    return f"{site_id}:{local_id}"


def parse_gfid(text: str) -> GlobalFileId:
    site, sep, local = text.partition(":")
    if sep and SITE_ID_RE.match(site) and local.isascii() and local.isdigit():
        try:
            return GlobalFileId(site, int(local))
        except ValueError:  # more digits than int() converts
            pass
    raise BadGfid(f"bad global file id: {text!r}")


@dataclass(slots=True)
class PatientRecord:
    pid: str
    sex: str
    birth_year: int
    height_m: Optional[float] = None
    weight_kg: Optional[float] = None

    def validate(self, current_year: Optional[int] = None) -> None:
        if not PSEUDONYM_RE.match(self.pid):
            raise InvariantViolation(f"pid is not a pseudonym: {self.pid!r}")
        if self.sex not in SEXES:
            raise InvariantViolation(f"bad sex: {self.sex!r}")
        upper = current_year if current_year is not None else date.today().year
        if not 1880 <= self.birth_year <= upper:
            raise InvariantViolation(f"birth_year out of range: {self.birth_year}")
        if self.height_m is not None and not 0.3 <= self.height_m <= 2.5:
            raise InvariantViolation(f"height_m out of range: {self.height_m}")
        if self.weight_kg is not None and not 1.0 <= self.weight_kg <= 400.0:
            raise InvariantViolation(f"weight_kg out of range: {self.weight_kg}")


@dataclass(slots=True)
class ImageRecord:
    local_id: int
    pid: str
    modality: str
    laterality: str
    view: str
    study_date: str
    age_at_study: int
    rows: int
    cols: int
    blob: "BlobRef"

    def validate(self) -> None:
        if not PSEUDONYM_RE.match(self.pid):
            raise InvariantViolation(f"pid is not a pseudonym: {self.pid!r}")
        if self.laterality not in LATERALITIES:
            raise InvariantViolation(f"bad laterality: {self.laterality!r}")
        if self.view not in VIEWS:
            raise InvariantViolation(f"bad view: {self.view!r}")
        parse_ymd(self.study_date)
        if not 0 <= self.age_at_study <= 9999:  # no span of YYYYMMDD dates is longer
            raise InvariantViolation(f"age_at_study out of range: {self.age_at_study}")
        if self.rows < 1 or self.cols < 1:
            raise InvariantViolation("image dimensions must be positive")


@dataclass(slots=True)
class DerivedRecord:
    local_id: int
    image_local_id: int
    kind: str
    fields: dict = field(default_factory=dict)
    algo_id: str = ""
    job_id: str = ""

    def validate(self) -> None:
        if self.kind not in DERIVED_KINDS:
            raise InvariantViolation(f"bad derived kind: {self.kind!r}")
        needed = DERIVED_FIELDS[self.kind]
        if needed.key not in self.fields:
            raise InvariantViolation(f"derived kind {self.kind!r} requires field {needed.key!r}")
        for name, value in self.fields.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvariantViolation(f"derived field {name!r} is not numeric")
            if not -(2 ** 63) < value < 2 ** 63:  # NaN fails too; both column dtypes hold the rest
                raise InvariantViolation(f"derived field {name!r} out of range: {value}")
        if needed.encoding == "int" and not isinstance(self.fields[needed.key], int):
            raise InvariantViolation(f"derived field {needed.key!r} is not an integer")
