"""Exception vocabulary shared across the grid.

Every error that can cross the wire carries a short code (defaults to the
class name); the services layer serializes ``code`` + ``str(exc)`` verbatim.
"""

from __future__ import annotations


class MgError(Exception):
    """Base class for all declared errors."""

    #: wire code; subclasses override when the protocol name differs
    code: str = ""

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if not cls.__dict__.get("code"):
            cls.code = cls.__name__


class InvariantViolation(MgError):
    """A record or tag set breaks one of its documented invariants."""


# --- DICOM subset codec ---------------------------------------------------

class DicomError(MgError):
    pass


class BadPreamble(DicomError):
    pass


class UnsupportedTransferSyntax(DicomError):
    pass


class TruncatedElement(DicomError):
    pass


class BadElement(DicomError):
    """Structurally invalid element: unknown VR, odd value, order violation."""


class MissingTag(DicomError):
    pass


class BadValue(DicomError):
    pass


# --- identity / model -----------------------------------------------------

class EmptyId(MgError):
    pass


class WeakSecret(MgError):
    pass


class NegativeAge(MgError):
    pass


class BadGfid(MgError):
    pass


# --- store ------------------------------------------------------------------

class IoFailure(MgError):
    pass


class NotFound(MgError):
    pass


class IntegrityError(MgError):
    pass


class UnknownPatient(MgError):
    pass


class UnknownImage(MgError):
    pass


# --- query language ---------------------------------------------------------

class QuerySyntaxError(MgError):
    code = "SyntaxError"

    def __init__(self, msg: str, position: int = 0, expected: str = ""):
        super().__init__(msg)
        self.position = position
        self.expected = expected


class UnknownField(MgError):
    pass


class TypeMismatch(MgError):
    pass


class BadRange(MgError):
    pass


# --- federation --------------------------------------------------------------

class UnknownSite(MgError):
    pass


class MalformedXml(MgError):
    pass


class SchemaViolation(MgError):
    pass


class Timeout(MgError):
    pass


class ConnectionRefused(MgError):
    pass


class RemoteError(MgError):
    """Error response relayed from a remote node; keeps the remote code."""

    def __init__(self, code: str, msg: str = ""):
        super().__init__(msg)
        self.code = code


# --- services ----------------------------------------------------------------

class AuthFailure(MgError):
    pass


class BadCredentials(MgError):
    pass


class UserUnknown(MgError):
    pass


class Expired(MgError):
    pass


class BadSignature(MgError):
    pass


class ParseError(MgError):
    pass


class RemoteUnreachable(MgError):
    pass


class DuplicateAddress(MgError):
    pass


class FrameTooLarge(MgError):
    pass


class BadFrame(MgError):
    pass


class PortClash(MgError):
    pass


# --- algorithms ----------------------------------------------------------------

class UnknownAlgorithm(MgError):
    pass


class UnknownPluginKind(MgError):
    pass


class DuplicateAlgoId(MgError):
    pass


class BadParams(MgError):
    pass


class EmptyImage(MgError):
    pass


class BadState(MgError):
    pass
