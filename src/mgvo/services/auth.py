"""Tokens and the flat user database.

Sessions are stateless: the registry (or a node minting its own service
identity) signs a small JSON claims object with the shared VO secret and any
service in the VO validates it locally — no callback to the issuer. A token
is ``base64url(claims_json) + "." + hex(hmac_sha256(vo_secret, claims_json))``.

Users live in a plain text file, one ``name:salt:sha256(salt||password):roles``
line each, roles comma-separated out of {clinician, admin}.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import secrets
import time
from pathlib import Path
from typing import Iterable, Optional

from ..errors import (
    AuthFailure,
    BadCredentials,
    BadSignature,
    Expired,
    IntegrityError,
    UserUnknown,
)

ROLES = ("clinician", "admin")
DEFAULT_TTL_S = 8 * 60 * 60


class SystemClock:
    """Wall clock in milliseconds; the simulation swaps in a virtual one."""

    def now_ms(self) -> int:
        return time.time_ns() // 1_000_000


# --- user file -------------------------------------------------------------------

def _password_hash(salt_hex: str, password: str) -> str:
    return hashlib.sha256(bytes.fromhex(salt_hex) + password.encode("utf-8")).hexdigest()


def add_user(path, username: str, password: str, roles: Iterable[str]) -> None:
    roles = list(roles)
    if not username or ":" in username:
        raise BadCredentials(f"bad username {username!r}")
    bad = [r for r in roles if r not in ROLES]
    if bad or not roles:
        raise BadCredentials(f"roles must be drawn from {ROLES}, got {roles}")
    salt = secrets.token_hex(8)
    line = f"{username}:{salt}:{_password_hash(salt, password)}:{','.join(roles)}\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line)


def load_users(path) -> dict:
    """username -> (salt, password_hash, roles tuple); later lines win."""
    users: dict = {}
    path = Path(path)
    if not path.exists():
        return users
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(":", 3)
        if len(fields) != 4:
            raise IntegrityError(f"{path} line {number}: not name:salt:hash:roles")
        name, salt, digest, roles = fields
        users[name] = (salt, digest, tuple(r for r in roles.split(",") if r))
    return users


def check_password(users: dict, username: str, password: str) -> tuple:
    """Roles for a valid login; UserUnknown/BadCredentials otherwise."""
    entry = users.get(username)
    if entry is None:
        raise UserUnknown(f"no user {username!r}")
    salt, digest, roles = entry
    if not hmac.compare_digest(digest, _password_hash(salt, password)):
        raise BadCredentials("wrong password")
    return roles


# --- tokens -----------------------------------------------------------------------

def issue_token(vo_secret: bytes, user: str, roles: Iterable[str], now_ms: int,
                ttl_s: int = DEFAULT_TTL_S) -> str:
    now_s = now_ms // 1000
    claims = {
        "user": user,
        "roles": sorted(roles),
        "issued_at": now_s,
        "expires_at": now_s + ttl_s,
    }
    raw = json.dumps(claims, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sig = hmac.new(vo_secret, raw, hashlib.sha256).hexdigest()
    return base64.urlsafe_b64encode(raw).decode("ascii") + "." + sig


def validate_token(token: Optional[str], vo_secret: bytes, now_ms: int) -> dict:
    """Claims of a well-signed unexpired token; BadSignature/Expired otherwise."""
    if not token or "." not in token:
        raise BadSignature("malformed token")
    encoded, sig = token.rsplit(".", 1)
    try:
        raw = base64.urlsafe_b64decode(encoded.encode("ascii"))
    except Exception:
        raise BadSignature("malformed token") from None
    expected = hmac.new(vo_secret, raw, hashlib.sha256).hexdigest()
    if not hmac.compare_digest(expected, sig):
        raise BadSignature("signature mismatch")
    claims = json.loads(raw)
    if not isinstance(claims.get("user"), str) or not isinstance(claims.get("roles"), list):
        raise BadSignature("claims are malformed")
    if any(role not in ROLES for role in claims["roles"]):
        raise BadSignature(f"unknown role in {claims['roles']}")
    if now_ms // 1000 >= claims["expires_at"]:
        raise Expired(f"token expired at {claims['expires_at']}")
    return claims


def require_session(token: Optional[str], vo_secret: bytes, now_ms: int) -> dict:
    """validate_token with auth failures collapsed to one wire-facing code."""
    try:
        return validate_token(token, vo_secret, now_ms)
    except (BadSignature, Expired) as exc:
        raise AuthFailure(str(exc)) from None


def require_role(claims: dict, role: str) -> None:
    if role not in claims.get("roles", []):
        raise AuthFailure(f"user {claims.get('user')!r} lacks the {role} role")
