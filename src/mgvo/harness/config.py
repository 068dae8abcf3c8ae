"""Flat config, topology, and script files.

All three formats are line-oriented plain text so fixtures diff cleanly.

Config files are ``key = value`` pairs (``#`` comments, blank lines ignored)::

    site_id = site_a
    listen = 127.0.0.1:7401
    registry = 127.0.0.1:7400
    data_dir = /var/mgvo/site_a
    site_secret = 0123456789abcdef0123456789abcdef
    vo_secret = fedcba9876543210fedcba9876543210

A key the file leaves out takes its value from the node's
``CONFIG_DEFAULTS`` (``query_timeout_ms``, ``poll_interval_s``,
``token_ttl_s``, ``public``).

Topology files describe a whole VO for the simulator::

    registry = 127.0.0.1:7400
    site = site_a 127.0.0.1:7401 latency=3
    site = site_b 127.0.0.1:7402 latency=5 drop=true

Script files are one command per line; see SCRIPT_COMMANDS for arity. The
final argument of query-like commands is free text and keeps its spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import BadParams, BadValue
from ..services.node import CONFIG_DEFAULTS

_INT_KEYS = ("query_timeout_ms", "poll_interval_s", "token_ttl_s")
_BOOL_KEYS = ("public",)


def parse_config_text(text: str) -> dict:
    """key = value lines to a dict; ints and bools typed for known keys."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadValue(f"config line {lineno} is not key = value: {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise BadValue(f"config line {lineno} has an empty key")
        out[key] = value
    for key in _INT_KEYS:
        if key in out:
            try:
                out[key] = int(out[key])
            except ValueError:
                raise BadValue(f"config key {key} must be an integer, got {out[key]!r}")
    for key in _BOOL_KEYS:
        if key in out and isinstance(out[key], str):
            out[key] = out[key].lower() in ("1", "true", "yes", "on")
    return out


def load_config(path) -> dict:
    merged = dict(CONFIG_DEFAULTS)
    merged.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
    return merged


def parse_params(pairs) -> dict:
    """Algorithm parameters from ``name=value`` words: a value with a ``.`` is a float, else an int."""
    params = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            params[name] = float(value) if "." in value else int(value)
        except ValueError:
            raise BadParams(f"a parameter is name=number, got {pair!r}") from None
    return params


# --- topology ---------------------------------------------------------------------

@dataclass(frozen=True)
class TopologySite:
    site_id: str
    address: str
    latency_ms: int = 0
    drop: bool = False


@dataclass
class Topology:
    registry_address: str
    sites: list = field(default_factory=list)

    def site(self, site_id: str) -> Optional[TopologySite]:
        for site in self.sites:
            if site.site_id == site_id:
                return site
        return None


def parse_topology(text: str) -> Topology:
    registry = None
    sites = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        key, rest = key.strip(), rest.strip()
        if key == "registry":
            registry = rest
        elif key == "site":
            parts = rest.split()
            if len(parts) < 2:
                raise BadValue(f"topology line {lineno}: want site_id and address")
            site_id, address = parts[0], parts[1]
            latency, drop = 0, False
            for option in parts[2:]:
                name, _, value = option.partition("=")
                if name == "latency":
                    try:
                        latency = int(value)
                    except ValueError:
                        raise BadValue(
                            f"topology line {lineno}: latency must be an integer, "
                            f"got {value!r}")
                elif name == "drop":
                    drop = value.lower() in ("1", "true", "yes", "on")
                else:
                    raise BadValue(f"topology line {lineno}: unknown option {name!r}")
            sites.append(TopologySite(site_id, address, latency, drop))
        else:
            raise BadValue(f"topology line {lineno}: unknown directive {key!r}")
    if registry is None:
        raise BadValue("topology file names no registry")
    if not sites:
        raise BadValue("topology file names no sites")
    return Topology(registry, sites)


# --- scripts -----------------------------------------------------------------------

# command -> (fixed argument count, trailing free text: "no"|"opt"|"yes")
SCRIPT_COMMANDS = {
    "login": (2, "no"),          # login <user> <password>
    "add": (2, "no"),            # add <site> <file-or-dir>
    "query": (1, "yes"),         # query <site> <query text>
    "algo-add": (3, "opt"),      # algo-add <site> <algo_id> <kind> [k=v ...]
    "algo-exec": (2, "yes"),     # algo-exec <site> <algo_id> <selector text>
    "drain": (1, "no"),          # drain <site>
    "job-status": (2, "no"),     # job-status <site> <job_id|last>
    "retrieve": (2, "no"),       # retrieve <site> <gfid>
    "sites": (0, "no"),          # sites
    "poll": (1, "no"),           # poll <site|all>
    "site-down": (1, "no"),      # site-down <site>
    "site-up": (1, "no"),        # site-up <site>
    "registry-down": (0, "no"),
    "registry-up": (0, "no"),
    "restart": (1, "no"),        # restart <site>
}


@dataclass(frozen=True)
class ScriptCommand:
    name: str
    args: tuple
    rest: str = ""


def parse_script(text: str) -> list:
    commands = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name = line.split(None, 1)[0]
        if name not in SCRIPT_COMMANDS:
            raise BadValue(f"script line {lineno}: unknown command {name!r}")
        argc, trailing = SCRIPT_COMMANDS[name]
        parts = line.split(None, argc + 1)  # name, argc args, optional rest
        args = parts[1:argc + 1]
        if len(args) != argc:
            raise BadValue(f"script line {lineno}: {name} wants {argc} argument(s)")
        rest = parts[argc + 1].strip() if len(parts) > argc + 1 else ""
        if rest and trailing == "no":
            raise BadValue(f"script line {lineno}: {name} takes no trailing text")
        if trailing == "yes" and not rest:
            raise BadValue(f"script line {lineno}: {name} needs trailing text")
        commands.append(ScriptCommand(name, tuple(args), rest))
    return commands
