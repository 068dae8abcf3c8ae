"""Framed-JSON wire protocol.

Every message on the wire is one frame: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON. Requests look like::

    {"mg": 1, "op": "Query", "session": "<token>"|null, "body": {...}}

and responses like::

    {"mg": 1, "status": "ok", "body": {...}}
    {"mg": 1, "status": "error", "error": {"code": "...", "msg": "..."}, "body": {}}

JSON is serialized with sorted keys and no whitespace so a given message has
exactly one byte representation. Binary payloads travel base64-encoded under
keys named ``*_b64``.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Optional

from ..errors import BadFrame, FrameTooLarge, MgError, RemoteError

PROTOCOL_VERSION = 1
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_payload(message: dict) -> bytes:
    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return payload


def frame_bytes(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


def encode_frame(message: dict) -> bytes:
    return frame_bytes(encode_payload(message))


def decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFrame(f"payload is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise BadFrame("payload must be a JSON object")
    return message


# --- sockets --------------------------------------------------------------------

def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly n bytes; None on clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 16))
        if not chunk:
            if got == 0:
                return None
            raise BadFrame(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; None on clean EOF before a new frame starts."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"declared length {length} exceeds {MAX_FRAME}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise BadFrame("connection closed between length prefix and payload")
    return decode_payload(payload)


# --- envelopes -----------------------------------------------------------------

def make_request(op: str, session: Optional[str], body: dict) -> dict:
    return {"mg": PROTOCOL_VERSION, "op": op, "session": session, "body": body}


def ok_response(body: dict) -> dict:
    return {"mg": PROTOCOL_VERSION, "status": "ok", "body": body}


def error_response(code: str, msg: str) -> dict:
    return {"mg": PROTOCOL_VERSION, "status": "error",
            "error": {"code": code, "msg": msg}, "body": {}}


def response_for(exc: Exception) -> dict:
    if isinstance(exc, MgError):
        return error_response(exc.code, str(exc))
    return error_response("Internal", f"{type(exc).__name__}: {exc}")


def check_request(message: dict) -> None:
    if message.get("mg") != PROTOCOL_VERSION:
        raise BadFrame(f"unsupported protocol version {message.get('mg')!r}")
    if not isinstance(message.get("op"), str):
        raise BadFrame("request has no op")
    session = message.get("session")
    if session is not None and not isinstance(session, str):
        raise BadFrame("session must be a string or null")
    if not isinstance(message.get("body"), dict):
        raise BadFrame("body must be an object")


def unwrap(response: dict) -> dict:
    """Body of an ok response; a remote error becomes a local RemoteError."""
    if response.get("status") == "ok":
        body = response.get("body")
        return body if isinstance(body, dict) else {}
    error = response.get("error") or {}
    raise RemoteError(str(error.get("code", "Internal")), str(error.get("msg", "")))


def to_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def from_b64(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception:
        raise BadFrame("invalid base64 payload") from None
