"""The VO registry: logins, the site directory, and the algorithm catalog.

The registry is deliberately small — it never sees image data. It issues
session tokens (the only service that checks passwords), remembers which
sites exist and where they listen, and holds the catalog of registered
algorithm descriptors that nodes pick up when they poll ListSites.

State is a single JSON document rewritten on every change; users live in a
separate flat file so they can be managed with a text editor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from threading import RLock

from . import auth, wire
from ..algorithms import AlgorithmDescriptor, validate_descriptor
from ..errors import DuplicateAddress, DuplicateAlgoId, IntegrityError, MgError, UnknownSite
from ..model import SITE_ID_RE


@dataclass(frozen=True)
class SiteDescriptor:
    site_id: str
    display_name: str
    address: str  # "host:port"
    public: bool = True

    def to_dict(self) -> dict:
        return {"site_id": self.site_id, "display_name": self.display_name,
                "address": self.address, "public": self.public}

    @classmethod
    def from_dict(cls, data: dict) -> "SiteDescriptor":
        return cls(site_id=data["site_id"], display_name=data["display_name"],
                   address=data["address"], public=bool(data["public"]))


class Registry:
    def __init__(self, data_dir, vo_secret: bytes, clock=None,
                 token_ttl_s: int = auth.DEFAULT_TTL_S):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.vo_secret = vo_secret
        self.clock = clock or auth.SystemClock()
        self.token_ttl_s = token_ttl_s
        self.users_path = self.data_dir / "users.txt"
        self.state_path = self.data_dir / "registry.json"
        self._lock = RLock()
        self._sites: dict = {}  # site_id -> SiteDescriptor, registration order
        self._algorithms: dict = {}  # algo_id -> AlgorithmDescriptor, order kept
        self._load()

    # --- persistence ---

    def _load(self) -> None:
        if not self.state_path.exists():
            return
        state = json.loads(self.state_path.read_text(encoding="utf-8"))
        for entry in state.get("sites", []):
            desc = self._entry(SiteDescriptor, entry)
            self._sites[desc.site_id] = desc
        for entry in state.get("algorithms", []):
            algo = self._entry(AlgorithmDescriptor, entry)
            self._algorithms[algo.algo_id] = algo

    def _entry(self, cls, entry):
        """A saved ``cls``: an object with a key for each of its fields."""
        keys = {f.name for f in fields(cls)}
        if not isinstance(entry, dict) or not entry.keys() >= keys:
            raise IntegrityError(f"{self.state_path}: not an object with {sorted(keys)}: {entry!r}")
        return cls.from_dict(entry)

    def _save(self) -> None:
        state = {
            "sites": [d.to_dict() for d in self._sites.values()],
            "algorithms": [a.to_dict() for a in self._algorithms.values()],
        }
        tmp = self.state_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state, indent=2, sort_keys=True), encoding="utf-8")
        tmp.replace(self.state_path)

    # --- wire entrypoint ---

    def handle_request(self, request: dict) -> dict:
        try:
            wire.check_request(request)
            op = request["op"]
            body = request["body"]
            if op == "Authenticate":
                return wire.ok_response(self._op_authenticate(body))
            claims = auth.require_session(request.get("session"), self.vo_secret,
                                          self.clock.now_ms())
            if op == "RegisterSite":
                return wire.ok_response(self._op_register_site(body))
            if op == "ListSites":
                return wire.ok_response(self._op_list_sites())
            if op == "AddAlgorithm":
                return wire.ok_response(self._op_add_algorithm(claims, body))
            return wire.error_response("UnknownOp", f"the registry does not serve op {op!r}")
        except MgError as exc:
            return wire.response_for(exc)
        except Exception as exc:  # keep the service up on programming errors
            return wire.response_for(exc)

    # --- operations ---

    def _op_authenticate(self, body: dict) -> dict:
        users = auth.load_users(self.users_path)
        roles = auth.check_password(users, str(body.get("user", "")),
                                    str(body.get("password", "")))
        token = auth.issue_token(self.vo_secret, body["user"], roles,
                                 self.clock.now_ms(), self.token_ttl_s)
        return {"session": token, "roles": sorted(roles)}

    def _op_register_site(self, body: dict) -> dict:
        desc = SiteDescriptor(
            site_id=str(body.get("site_id", "")),
            display_name=str(body.get("display_name") or body.get("site_id", "")),
            address=str(body.get("address", "")),
            public=bool(body.get("public", True)),
        )
        if not SITE_ID_RE.match(desc.site_id):
            raise UnknownSite(f"bad site_id {desc.site_id!r}")
        if not desc.address:
            raise DuplicateAddress("a site needs an address")
        with self._lock:
            for other in self._sites.values():
                if other.address == desc.address and other.site_id != desc.site_id:
                    raise DuplicateAddress(
                        f"{desc.address} already belongs to {other.site_id}")
            self._sites[desc.site_id] = desc  # idempotent; order of first sight kept
            self._save()
        return {"registered": desc.site_id}

    def _op_list_sites(self) -> dict:
        with self._lock:
            return {
                "sites": [d.to_dict() for d in self._sites.values()],
                "algorithms": [a.to_dict() for a in self._algorithms.values()],
            }

    def _op_add_algorithm(self, claims: dict, body: dict) -> dict:
        auth.require_role(claims, "admin")
        algo = AlgorithmDescriptor.from_dict(body)
        validate_descriptor(algo)
        with self._lock:
            if algo.algo_id in self._algorithms:
                raise DuplicateAlgoId(f"{algo.algo_id} is already registered")
            self._algorithms[algo.algo_id] = algo
            self._save()
        return {"registered": algo.algo_id}

    # --- local (non-wire) helpers ---

    def add_user(self, username: str, password: str, roles) -> None:
        auth.add_user(self.users_path, username, password, roles)
