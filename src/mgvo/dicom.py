"""Minimal DICOM Part-10 subset codec.

Supported files: 128-byte preamble + ``DICM``, an explicit-VR little-endian
group-0002 file meta whose transfer syntax is 1.2.840.10008.1.2.1, then body
elements restricted to the VRs below. The writer is deterministic and
byte-for-byte stable, so ``parse(write(ts)) == ts`` exactly.

Parsing is total: any byte string yields either a TagSet or a DicomError.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .errors import (
    BadElement,
    BadPreamble,
    BadValue,
    InvariantViolation,
    MissingTag,
    TruncatedElement,
    UnsupportedTransferSyntax,
)
from .model import LATERALITIES, SEXES, VIEWS, parse_ymd

TRANSFER_SYNTAX_LE_EXPLICIT = "1.2.840.10008.1.2.1"

#: VRs the subset accepts in the body; OB/OW use the 4-byte length form.
ACCEPTED_VRS = frozenset({"PN", "LO", "DA", "CS", "DS", "US", "OB", "OW", "UI", "SH"})
LONG_FORM_VRS = frozenset({"OB", "OW"})
TEXT_VRS = frozenset({"PN", "LO", "DA", "CS", "DS", "UI", "SH"})

_MAGIC = b"DICM"
_PREAMBLE_LEN = 128


@dataclass(frozen=True, order=True)
class Tag:
    group: int
    element: int

    def __repr__(self) -> str:
        return f"({self.group:04X},{self.element:04X})"


PATIENT_NAME = Tag(0x0010, 0x0010)
PATIENT_ID = Tag(0x0010, 0x0020)
PATIENT_BIRTH_DATE = Tag(0x0010, 0x0030)
PATIENT_SEX = Tag(0x0010, 0x0040)
PATIENT_SIZE = Tag(0x0010, 0x1020)
PATIENT_WEIGHT = Tag(0x0010, 0x1030)
STUDY_DATE = Tag(0x0008, 0x0020)
MODALITY = Tag(0x0008, 0x0060)
VIEW_POSITION = Tag(0x0018, 0x5101)
IMAGE_LATERALITY = Tag(0x0020, 0x0062)
ROWS = Tag(0x0028, 0x0010)
COLUMNS = Tag(0x0028, 0x0011)
BITS_ALLOCATED = Tag(0x0028, 0x0100)
PIXEL_DATA = Tag(0x7FE0, 0x0010)

_FILE_META_GROUP = 0x0002
_GROUP_LENGTH = Tag(_FILE_META_GROUP, 0x0000)
_TRANSFER_SYNTAX = Tag(_FILE_META_GROUP, 0x0010)


def pad_value(vr: str, value: bytes) -> bytes:
    """Pad an odd-length value per convention: NUL for UI/binary, space for text."""
    if len(value) % 2 == 0:
        return value
    if vr in TEXT_VRS and vr != "UI":
        return value + b" "
    return value + b"\x00"


class TagSet:
    """Ordered tag -> (vr, value) map; iteration is ascending by tag."""

    def __init__(self) -> None:
        self._elems: dict[Tag, Tuple[str, bytes]] = {}

    def put(self, tag: Tag, vr: str, value: bytes) -> None:
        if vr not in ACCEPTED_VRS:
            raise InvariantViolation(f"VR {vr!r} not in the accepted subset")
        if tag.group == _FILE_META_GROUP:
            raise InvariantViolation("group 0002 is reserved for file meta")
        if len(value) % 2 != 0:
            raise InvariantViolation(f"odd value length for {tag}")
        limit = 0xFFFFFFFE if vr in LONG_FORM_VRS else 0xFFFF
        if len(value) > limit:
            raise InvariantViolation(f"value too long for {tag}")
        self._elems[tag] = (vr, bytes(value))

    def put_text(self, tag: Tag, vr: str, text: str) -> None:
        self.put(tag, vr, pad_value(vr, text.encode("ascii")))

    def get(self, tag: Tag) -> Optional[Tuple[str, bytes]]:
        return self._elems.get(tag)

    def text(self, tag: Tag) -> Optional[str]:
        """Decoded text value with insignificant trailing padding removed."""
        got = self._elems.get(tag)
        if got is None:
            return None
        vr, raw = got
        try:
            return raw.decode("ascii").rstrip(" \x00")
        except UnicodeDecodeError as exc:
            raise BadValue(f"non-ascii text in {tag}") from exc

    def remove(self, tag: Tag) -> None:
        self._elems.pop(tag, None)

    def items(self) -> Iterator[Tuple[Tag, str, bytes]]:
        for tag in sorted(self._elems):
            vr, value = self._elems[tag]
            yield tag, vr, value

    def validate(self) -> None:
        if PIXEL_DATA in self._elems:
            top = max(self._elems)
            if top != PIXEL_DATA:
                raise InvariantViolation(f"{top} sorts after pixel data")

    def __contains__(self, tag: Tag) -> bool:
        return tag in self._elems

    def __len__(self) -> int:
        return len(self._elems)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TagSet) and self._elems == other._elems

    def __repr__(self) -> str:
        return f"TagSet({len(self._elems)} elements)"


def _encode_element(tag: Tag, vr: str, value: bytes) -> bytes:
    head = struct.pack("<HH", tag.group, tag.element) + vr.encode("ascii")
    if vr in LONG_FORM_VRS:
        return head + b"\x00\x00" + struct.pack("<I", len(value)) + value
    return head + struct.pack("<H", len(value)) + value


def write_dicom(ts: TagSet) -> bytes:
    """Serialize deterministically; raises InvariantViolation on a bad TagSet."""
    ts.validate()
    uid = pad_value("UI", TRANSFER_SYNTAX_LE_EXPLICIT.encode("ascii"))
    syntax = _encode_element(_TRANSFER_SYNTAX, "UI", uid)
    group_len = _encode_element(_GROUP_LENGTH, "UL", struct.pack("<I", len(syntax)))
    body = b"".join(_encode_element(t, vr, v) for t, vr, v in ts.items())
    return b"\x00" * _PREAMBLE_LEN + _MAGIC + group_len + syntax + body


class _Reader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def peek_group(self) -> Optional[int]:
        if self.remaining() < 2:
            return None
        return struct.unpack_from("<H", self.data, self.pos)[0]

    def read_element(self) -> Tuple[Tag, str, bytes]:
        if self.remaining() < 8:
            raise TruncatedElement(f"element header truncated at byte {self.pos}")
        group, element = struct.unpack_from("<HH", self.data, self.pos)
        tag = Tag(group, element)
        vr_raw = self.data[self.pos + 4 : self.pos + 6]
        if not (vr_raw.isalpha() and vr_raw.isupper()):
            raise BadElement(f"bad VR bytes {vr_raw!r} for {tag}")
        vr = vr_raw.decode("ascii")
        if vr in LONG_FORM_VRS:
            if self.remaining() < 12:
                raise TruncatedElement(f"long element header truncated at {tag}")
            (length,) = struct.unpack_from("<I", self.data, self.pos + 8)
            value_at = self.pos + 12
        else:
            (length,) = struct.unpack_from("<H", self.data, self.pos + 6)
            value_at = self.pos + 8
        if length > len(self.data) - value_at:
            raise TruncatedElement(f"value of {tag} exceeds remaining bytes")
        self.pos = value_at + length
        return tag, vr, self.data[value_at : value_at + length]


# VRs tolerated in the file meta beyond the body subset (group length etc.)
_META_VRS = frozenset({"UL", "UI", "OB", "SH", "AE", "CS"})


def parse_dicom(data: bytes) -> TagSet:
    """Parse a supported file into a TagSet of its body elements."""
    if len(data) < _PREAMBLE_LEN + 4 or data[_PREAMBLE_LEN : _PREAMBLE_LEN + 4] != _MAGIC:
        raise BadPreamble("missing DICM magic after 128-byte preamble")
    rd = _Reader(data, _PREAMBLE_LEN + 4)

    syntax = None
    while rd.peek_group() == _FILE_META_GROUP:
        tag, vr, value = rd.read_element()
        if vr not in _META_VRS:
            raise BadElement(f"bad VR {vr!r} in file meta {tag}")
        if tag == _TRANSFER_SYNTAX:
            syntax = value.decode("ascii", "replace").rstrip(" \x00")
    if syntax != TRANSFER_SYNTAX_LE_EXPLICIT:
        raise UnsupportedTransferSyntax(f"transfer syntax {syntax!r} not supported")

    ts = TagSet()
    prev: Optional[Tag] = None
    while rd.remaining() > 0:
        tag, vr, value = rd.read_element()
        if vr not in ACCEPTED_VRS:
            raise BadElement(f"VR {vr!r} of {tag} not in the accepted subset")
        if tag.group == _FILE_META_GROUP:
            raise BadElement(f"file-meta tag {tag} inside body")
        if prev is not None and tag <= prev:
            raise BadElement(f"{tag} not in ascending order after {prev}")
        if prev == PIXEL_DATA:
            raise BadElement(f"{tag} follows pixel data")
        if len(value) % 2 != 0:
            raise BadElement(f"odd value length for {tag}")
        ts._elems[tag] = (vr, value)
        prev = tag
    return ts


@dataclass
class ImageMeta:
    patient_id_raw: str
    patient_name_raw: Optional[str]
    birth_date: str
    sex: str
    height_m: Optional[float]
    weight_kg: Optional[float]
    modality: str
    laterality: str
    view: str
    study_date: str
    rows: int
    cols: int
    bits_allocated: int


_MANDATORY = (
    PATIENT_ID,
    PATIENT_BIRTH_DATE,
    PATIENT_SEX,
    STUDY_DATE,
    MODALITY,
    VIEW_POSITION,
    IMAGE_LATERALITY,
    ROWS,
    COLUMNS,
    BITS_ALLOCATED,
    PIXEL_DATA,
)


def _ushort(ts: TagSet, tag: Tag) -> int:
    vr, value = ts.get(tag)
    if len(value) != 2:
        raise BadValue(f"US value of {tag} is not 2 bytes")
    return int.from_bytes(value, "little")


def _decimal(ts: TagSet, tag: Tag) -> Optional[float]:
    text = ts.text(tag)
    if text is None or text == "":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise BadValue(f"bad decimal string in {tag}: {text!r}") from exc


def extract_metadata(ts: TagSet) -> ImageMeta:
    """Pull the typed metadata out of a parsed file; raw ids stay raw here."""
    for tag in _MANDATORY:
        if tag not in ts:
            raise MissingTag(f"mandatory tag {tag} absent")

    meta = ImageMeta(
        patient_id_raw=ts.text(PATIENT_ID),
        patient_name_raw=ts.text(PATIENT_NAME),
        birth_date=ts.text(PATIENT_BIRTH_DATE),
        sex=ts.text(PATIENT_SEX),
        height_m=_decimal(ts, PATIENT_SIZE) if PATIENT_SIZE in ts else None,
        weight_kg=_decimal(ts, PATIENT_WEIGHT) if PATIENT_WEIGHT in ts else None,
        modality=ts.text(MODALITY),
        laterality=ts.text(IMAGE_LATERALITY),
        view=ts.text(VIEW_POSITION),
        study_date=ts.text(STUDY_DATE),
        rows=_ushort(ts, ROWS),
        cols=_ushort(ts, COLUMNS),
        bits_allocated=_ushort(ts, BITS_ALLOCATED),
    )

    if not meta.patient_id_raw:
        raise BadValue("empty PatientID")
    parse_ymd(meta.birth_date)
    parse_ymd(meta.study_date)
    if meta.sex not in SEXES:
        raise BadValue(f"bad PatientSex {meta.sex!r}")
    if meta.laterality not in LATERALITIES:
        raise BadValue(f"bad ImageLaterality {meta.laterality!r}")
    if meta.view not in VIEWS:
        raise BadValue(f"bad ViewPosition {meta.view!r}")
    if meta.rows < 1 or meta.cols < 1:
        raise BadValue("image dimensions must be positive")
    if meta.bits_allocated not in (8, 16):
        raise BadValue(f"bits_allocated must be 8 or 16, got {meta.bits_allocated}")
    return meta
