"""Operator command line.

Server roles (``registry serve``, ``node serve``) read the same flat config
files the harness uses. Client commands (login, add, query, ...) talk to the
node named by ``listen`` in the config — at desk scale the client sits on
the same box as its site's node — and cache the session token in the node's
data_dir between invocations.

Exit codes: 0 ok, 1 user error, 2 remote error or partial result, 3 internal.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

import click

from . import federation
from .errors import BadParams, MgError
from .harness import corpus as corpus_mod
from .harness.config import load_config, parse_params
from .harness.sim import sim_run, transcript_text
from .services import auth, wire
from .services.node import Node
from .services.registry import Registry
from .services.tcp import Server, TcpTransport

_USER_ERRORS = {
    "SyntaxError", "UnknownField", "TypeMismatch", "BadRange",
    "BadGfid", "BadParams", "BadValue", "BadCredentials", "UserUnknown",
    "UnknownPluginKind", "AuthFailure", "Expired", "BadSignature", "WeakSecret",
    "EmptyId",
}


def _fail(exc: Exception) -> NoReturn:
    if isinstance(exc, MgError):
        click.echo(f"error: {exc.code}: {exc}", err=True)
        sys.exit(1 if exc.code in _USER_ERRORS else 2)
    click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(3)


def _load_cfg(config_path) -> dict:
    if not config_path:
        config_path = os.environ.get("MGVO_CONFIG", "")
    if not config_path:
        click.echo("error: no config file (use --config or MGVO_CONFIG)", err=True)
        sys.exit(1)
    try:
        return load_config(config_path)
    except (OSError, MgError) as exc:
        click.echo(f"error: cannot read config {config_path}: {exc}", err=True)
        sys.exit(1)


def _token_path(cfg: dict) -> Path:
    override = os.environ.get("MGVO_TOKEN_FILE")
    if override:
        return Path(override)
    return Path(cfg["data_dir"]) / "cli_session.token"


def _session(cfg: dict):
    path = _token_path(cfg)
    if path.exists():
        return path.read_text(encoding="utf-8").strip() or None
    return None


def _call(cfg: dict, op: str, body: dict, to_registry: bool = False) -> dict:
    """The answer's body; any failure is reported and ends the command."""
    address = cfg["registry"] if to_registry else cfg["listen"]
    transport = TcpTransport(default_timeout_ms=cfg["query_timeout_ms"] * 6)
    try:
        request = wire.make_request(op, _session(cfg), body)
        return wire.unwrap(transport.call(address, request))
    except Exception as exc:
        _fail(exc)


_CONFIG_OPT = click.option("--config", "config_path", default=None,
                           help="Config file (or MGVO_CONFIG).")


@click.group()
def main() -> None:
    """MammoGrid-style virtual organisation tools."""


# --- servers -----------------------------------------------------------------------

@main.group()
def registry() -> None:
    """Registry service commands."""


@registry.command("serve")
@_CONFIG_OPT
def registry_serve(config_path) -> None:
    """Run the registry until interrupted."""
    cfg = _load_cfg(config_path)
    for key in ("data_dir", "vo_secret", "listen"):
        if key not in cfg:
            click.echo(f"error: registry config lacks {key}", err=True)
            sys.exit(1)
    try:
        reg = Registry(cfg["data_dir"], cfg["vo_secret"].encode("utf-8"),
                       token_ttl_s=cfg["token_ttl_s"])
        server = Server(reg.handle_request, cfg["listen"]).start()
    except MgError as exc:
        _fail(exc)
    click.echo(f"registry listening on {cfg['listen']}")
    _wait_forever(server)


@main.group()
def node() -> None:
    """Site node commands."""


@node.command("serve")
@_CONFIG_OPT
def node_serve(config_path) -> None:
    """Run a site node until interrupted."""
    cfg = _load_cfg(config_path)
    try:
        site = Node(cfg, TcpTransport())
        server = Server(site.handle_request, cfg["listen"]).start()
    except MgError as exc:
        _fail(exc)
    try:
        site.register_with_registry()
        click.echo(f"node {site.site_id} registered with {cfg['registry']}")
    except MgError as exc:
        click.echo(f"warning: registry not reachable yet ({exc})", err=True)
    stop = threading.Event()

    def poll_loop() -> None:
        while not stop.wait(cfg["poll_interval_s"]):
            try:
                site.register_with_registry()
            except MgError:
                pass

    threading.Thread(target=poll_loop, daemon=True).start()
    click.echo(f"node {site.site_id} listening on {cfg['listen']}")
    try:
        _wait_forever(server)
    finally:
        stop.set()


def _wait_forever(server: Server) -> None:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()


# --- client ---------------------------------------------------------------------------

@main.command()
@_CONFIG_OPT
@click.option("-u", "--user", "username", required=True)
@click.option("--password", default=None,
              help="Password (prompted when omitted).")
def login(config_path, username, password) -> None:
    """Authenticate at the registry and cache the session token."""
    cfg = _load_cfg(config_path)
    if password is None:
        password = click.prompt("password", hide_input=True)
    body = _call(cfg, "Authenticate", {"user": username, "password": password},
                 to_registry=True)
    path = _token_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body["session"] + "\n", encoding="utf-8")
    click.echo(f"logged in as {username} roles={','.join(body['roles'])}")


@main.command()
@_CONFIG_OPT
@click.argument("files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
def add(config_path, files) -> None:
    """Ingest DICOM files at this site (anonymized on arrival)."""
    cfg = _load_cfg(config_path)
    for name in files:
        body = _call(cfg, "Add", {"file_b64": wire.to_b64(Path(name).read_bytes())})
        note = " (duplicate)" if body.get("duplicate") else ""
        click.echo(f"{name}: {body['gfid']}{note}")


@main.command()
@_CONFIG_OPT
@click.argument("gfid")
@click.option("-o", "--out", "out_path", required=True, type=click.Path())
def get(config_path, gfid, out_path) -> None:
    """Retrieve one file by global id, wherever it lives."""
    cfg = _load_cfg(config_path)
    body = _call(cfg, "Retrieve", {"gfid": gfid})
    Path(out_path).write_bytes(wire.from_b64(body["file_b64"]))
    click.echo(f"{body['gfid']} -> {out_path}")


@main.command()
@_CONFIG_OPT
@click.argument("query_text")
@click.option("--xml", "want_xml", is_flag=True, help="Print the raw result XML.")
def query(config_path, query_text, want_xml) -> None:
    """Run a federated query from this site."""
    cfg = _load_cfg(config_path)
    body = _call(cfg, "Query", {"query": query_text})
    xml = body["resultset_xml"]
    rs = federation.from_xml(xml)
    if want_xml:
        click.echo(xml)
    else:
        if rs.columns:
            click.echo("\t".join(("site", "id") + rs.columns))
        for row in rs.rows:
            click.echo("\t".join((row.site_id, row.row_id) + row.values))
        for site, reason in rs.missing:
            click.echo(f"missing: {site} ({reason})", err=True)
    if "job_id" in body:
        click.echo(f"job: {body['job_id']}", err=True)
    if not rs.complete:
        sys.exit(2)


@main.group()
def algo() -> None:
    """Algorithm catalog and execution."""


@algo.command("add")
@_CONFIG_OPT
@click.option("--id", "algo_id", required=True)
@click.option("--kind", required=True)
@click.option("--param", "params", multiple=True,
              help="name=value, repeatable.")
def algo_add(config_path, algo_id, kind, params) -> None:
    """Register an algorithm descriptor (admin role)."""
    cfg = _load_cfg(config_path)
    try:
        params = parse_params(params)
    except BadParams as exc:
        _fail(exc)
    _call(cfg, "AddAlgorithm", {"algo_id": algo_id, "kind": kind, "params": params})
    click.echo(f"registered {algo_id}")


@algo.command("exec")
@_CONFIG_OPT
@click.option("--id", "algo_id", required=True)
@click.option("--where", "where", required=True,
              help="Selector expression over image/patient fields.")
def algo_exec(config_path, algo_id, where) -> None:
    """Schedule a data-local job over every site holding matching images."""
    cfg = _load_cfg(config_path)
    body = _call(cfg, "ExecuteAlgorithm", {
        "algo_id": algo_id, "selector": f"SELECT images WHERE {where}"})
    click.echo(f"job {body['job_id']} {body['state']}")


@main.group()
def job() -> None:
    """Job inspection."""


@job.command("status")
@_CONFIG_OPT
@click.argument("job_id")
def job_status(config_path, job_id) -> None:
    """Show one job's state and per-site task outcomes."""
    cfg = _load_cfg(config_path)
    body = _call(cfg, "JobStatus", {"job_id": job_id})
    click.echo(json.dumps(body["job"], indent=2, sort_keys=True))


@main.command()
@_CONFIG_OPT
def sites(config_path) -> None:
    """List the sites known to the registry."""
    cfg = _load_cfg(config_path)
    body = _call(cfg, "ListSites", {}, to_registry=True)
    for desc in body["sites"]:
        vis = "public" if desc["public"] else "private"
        click.echo(f"{desc['site_id']}\t{desc['address']}\t{vis}\t{desc['display_name']}")


@main.group()
def user() -> None:
    """User database maintenance (registry box only)."""


@user.command("add")
@_CONFIG_OPT
@click.option("-u", "--user", "username", required=True)
@click.option("--role", "roles", multiple=True, default=("clinician",),
              show_default=True)
@click.option("--password", default=None)
def user_add(config_path, username, roles, password) -> None:
    """Append a user to the registry's users.txt (local file write)."""
    cfg = _load_cfg(config_path)
    if password is None:
        password = click.prompt("password", hide_input=True, confirmation_prompt=True)
    try:
        auth.add_user(Path(cfg["data_dir"]) / "users.txt", username, password, roles)
    except MgError as exc:
        _fail(exc)
    click.echo(f"added {username} roles={','.join(roles)}")


# --- harness ---------------------------------------------------------------------

@main.command("gen-corpus")
@click.option("--seed", type=int, required=True)
@click.option("--patients", type=int, required=True)
@click.option("--per-patient", "per_patient", type=int, required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--rows", type=int, default=128, show_default=True)
@click.option("--cols", type=int, default=128, show_default=True)
def gen_corpus_cmd(seed, patients, per_patient, out_dir, rows, cols) -> None:
    """Generate a synthetic corpus plus its ground-truth manifest."""
    try:
        manifest, files = corpus_mod.gen_corpus(seed, patients, per_patient,
                                                rows=rows, cols=cols)
    except MgError as exc:
        _fail(exc)
    manifest_path = corpus_mod.write_corpus(manifest, files, out_dir)
    click.echo(f"wrote {len(files)} files and {manifest_path}")


@main.command("sim")
@click.option("--topology", "topology_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--script", "script_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--workdir", default=None, type=click.Path(),
              help="State directory (a temp dir when omitted).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--real-sockets", is_flag=True,
              help="Run over loopback TCP instead of the simulated network.")
@click.option("--transcript", "transcript_path", default=None, type=click.Path(),
              help="Write the JSON-lines transcript here instead of stdout.")
def sim_cmd(topology_path, script_path, workdir, seed, real_sockets,
            transcript_path) -> None:
    """Boot a VO from a topology file and run a script against it."""
    import tempfile

    topology_text = Path(topology_path).read_text(encoding="utf-8")
    script_text = Path(script_path).read_text(encoding="utf-8")
    base_dir = str(Path(script_path).parent)
    try:
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="mgvo-sim-") as tmp:
                entries = sim_run(topology_text, script_text, tmp, seed=seed,
                                  real_sockets=real_sockets, base_dir=base_dir)
        else:
            entries = sim_run(topology_text, script_text, workdir, seed=seed,
                              real_sockets=real_sockets, base_dir=base_dir)
    except MgError as exc:
        _fail(exc)
    text = transcript_text(entries)
    if transcript_path:
        Path(transcript_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {len(entries)} transcript entries to {transcript_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
