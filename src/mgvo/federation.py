"""Federated query engine: decompose, execute where the data lives, merge.

A query submitted at any site is decomposed into a local part and one
residual per peer site (site.id predicates are folded into the routing),
each part executes against that site's store only, and the partial result
sets are merged into one canonically-ordered set. Sites that fail to answer
are recorded as ``missing`` entries instead of poisoning the merge.

A peer answers the submitting node with its part in a compact node-to-node
form, carried in a JSON frame (see ``to_part``)::

    {"target": "images", "columns": ["patient.id", ...],
     "rows": [["udine:42", "a1b2c3d4e5f60718", ...], ...]}

Each row is ``[row_id, *values]``, all strings, in canonical order. The
parts are disjoint per site and each is already ordered, so the merge
orders them by site and concatenates them.

XML is the client-facing dialect only: the submitting node writes the
merged answer once, and clients read it. UTF-8, no namespaces, the five
standard entity escapes, attribute order fixed::

    <resultset target="images" complete="false">
      <row site="udine" id="udine:42">
        <col name="patient.id">a1b2c3d4e5f60718</col>
      </row>
      <missing site="cambridge" reason="timeout"/>
    </resultset>

An empty, complete set is exactly ``<resultset target="..." complete="true"/>``.
The dialect carries no column declaration, so a rowless set decodes with
empty columns.

Clients accept exactly the bytes ``to_xml`` writes: ``from_xml`` reads that
one grammar with no XML parser. Input that is not UTF-8, or not text from a
``<`` to a ``>``, raises MalformedXml; every other departure, from the
grammar or from the row order, row ids and ``complete`` flag that ``merge``
guarantees, raises SchemaViolation. So what decodes re-encodes to the same
bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import MalformedXml, SchemaViolation, UnknownSite
from .model import FIELDS, SITE_ID_RE, format_gfid
from .mgql import And, Expr, Not, Or, Pred, Query

if TYPE_CHECKING:  # pragma: no cover
    from .services.registry import SiteDescriptor
    from .store import SiteStore

IMAGE_COLUMNS, PATIENT_COLUMNS = (
    tuple(name for name, field in FIELDS.items() if target in field.results)
    for target in ("images", "patients"))


@dataclass(frozen=True)
class ResultRow:
    site_id: str
    row_id: str  # "site:local" for images, pid for patients
    values: tuple


@dataclass(frozen=True)
class ResultSet:
    target: str
    columns: tuple
    rows: tuple  # of ResultRow, by site, then local id (images) or pid (patients)
    complete: bool
    missing: tuple  # of (site_id, reason), sorted by site_id


def render_value(value) -> str:
    """Canonical text for one column cell; absent values render empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- decomposition -------------------------------------------------------------

@dataclass
class DecomposedQuery:
    local: Optional[Query]
    remote: list  # of (site_id, Query)


def _site_literals(node: Expr) -> set:
    if isinstance(node, Pred):
        return {node.value} if node.field == "site.id" else set()
    if isinstance(node, Not):
        return _site_literals(node.expr)
    return _site_literals(node.left) | _site_literals(node.right)


def _residual(node: Expr, site_id: str) -> Union[Expr, bool]:
    """Fold site.id predicates for one site; may collapse to a constant."""
    if isinstance(node, Pred):
        if node.field != "site.id":
            return node
        return (site_id == node.value) if node.op == "=" else (site_id != node.value)
    if isinstance(node, Not):
        inner = _residual(node.expr, site_id)
        return (not inner) if isinstance(inner, bool) else Not(inner)
    left = _residual(node.left, site_id)
    right = _residual(node.right, site_id)
    if isinstance(node, And):
        if left is False or right is False:
            return False
        if left is True:
            return right
        if right is True:
            return left
        return And(left, right)
    if left is True or right is True:
        return True
    if left is False:
        return right
    if right is False:
        return left
    return Or(left, right)


def analyze(query: Query, self_site: str, topology: Sequence) -> DecomposedQuery:
    """Route a SELECT query across the topology.

    Every site whose residual is satisfiable gets that residual; a residual
    that folds to constant-true is expressed as the site's own tautology
    ``site.id = '<site>'`` since the grammar has no empty WHERE.
    """
    known = {d.site_id for d in topology}
    unknown = _site_literals(query.expr) - known
    if unknown:
        raise UnknownSite(f"unknown site(s) in query: {', '.join(sorted(unknown))}")

    candidates = [self_site] + sorted(
        d.site_id for d in topology if d.public and d.site_id != self_site)

    local: Optional[Query] = None
    remote = []
    for site_id in candidates:
        folded = _residual(query.expr, site_id)
        if folded is False:
            continue
        if folded is True:
            folded = Pred("site.id", "=", site_id)
        part = Query(target=query.target, expr=folded)
        if site_id == self_site:
            local = part
        else:
            remote.append((site_id, part))
    return DecomposedQuery(local=local, remote=remote)


# --- execution and merge ----------------------------------------------------------

def select(store: "SiteStore", site_id: str, query: Query) -> list:
    """The rows of this site's store that ``query`` selects.

    ``site.id`` is folded to a constant for this site first, so a part that
    cannot match reads nothing and one that matches everything selects every
    image. The rest go to ``SiteStore.select``, which evaluates the residual
    as one mask over the store's columns and builds rows only for matches.
    """
    expr = _residual(query.expr, site_id)
    if expr is False:
        return []
    return store.select(None if expr is True else expr, query.target)


def execute_local(store: "SiteStore", site_id: str, query: Query) -> ResultSet:
    """Run one decomposed part against this site's store."""
    images = query.target == "images"
    columns = IMAGE_COLUMNS if images else PATIENT_COLUMNS
    rows = tuple(
        ResultRow(site_id,
                  format_gfid(site_id, row["_local_id"]) if images else row["_pid"],
                  tuple(render_value(row.get(c)) for c in columns))
        for row in select(store, site_id, query))
    return ResultSet(query.target, columns, rows, True, ())


def merge(parts: Sequence[ResultSet], failed: Sequence, target: str) -> ResultSet:
    """Combine per-site parts; failures become ``missing`` entries.

    Trusts parts already checked by ``execute_local`` or ``from_part``: each
    holds the rows of one site, at most one part a site, in canonical order
    and with the ``target``'s columns. So the rowed parts are ordered by site
    and concatenated; no row is sorted. Rowless parts add nothing, not even
    columns (the XML form drops them).
    """
    rowed = sorted((part for part in parts if part.rows), key=lambda p: p.rows[0].site_id)
    columns = rowed[0].columns if rowed else ()
    rows = tuple(row for part in rowed for row in part.rows)
    missing = tuple(sorted(failed))
    return ResultSet(target, columns, rows, not missing, missing)


# --- XML dialect ------------------------------------------------------------------

def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                .replace('"', "&quot;").replace("'", "&apos;"))


def to_xml(rs: ResultSet) -> bytes:
    attrs = f'target="{_esc(rs.target)}" complete="{"true" if rs.complete else "false"}"'
    if not rs.rows and not rs.missing:
        return f"<resultset {attrs}/>".encode("utf-8")
    out = [f"<resultset {attrs}>"]
    for row in rs.rows:
        head = f'  <row site="{_esc(row.site_id)}" id="{_esc(row.row_id)}"'
        if not rs.columns:
            out.append(head + "/>")
            continue
        out.append(head + ">")
        for name, value in zip(rs.columns, row.values):
            out.append(f'    <col name="{_esc(name)}">{_esc(value)}</col>')
        out.append("  </row>")
    for site, reason in rs.missing:
        out.append(f'  <missing site="{_esc(site)}" reason="{_esc(reason)}"/>')
    out.append("</resultset>")
    return "\n".join(out).encode("utf-8")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise SchemaViolation(what)


def _checked_key(target: str, site: str, row_id: str, prefixes: dict) -> tuple:
    """The sort key of a decoded row; an image row id must be a gfid of ``site``.

    ``prefixes`` maps each site this decode has already checked to its
    ``"<site>:"``, so a site string is checked once and each row id only
    for that prefix and ASCII digits.
    """
    if target != "images":
        return (site, row_id)
    prefix = prefixes.get(site)
    if prefix is None:
        _require(SITE_ID_RE.match(site) is not None, f"bad site {site!r} for row id {row_id!r}")
        prefix = prefixes[site] = site + ":"
    local = row_id[len(prefix):]
    _require(row_id.startswith(prefix) and local.isascii() and local.isdigit(),
             f"row id {row_id!r} is not a gfid of site {site!r}")
    try:
        return (site, int(local))
    except ValueError:  # more digits than int() converts
        raise SchemaViolation(f"row id {row_id!r} has too many digits") from None


# The grammar of what ``to_xml`` writes. A value is a run of any character
# but the five that ``_esc`` escapes, or one of their five entities.
_VALUE = r"""([^<>&"']*(?:&(?:amp|lt|gt|quot|apos);[^<>&"']*)*)"""
_HEAD = re.compile(f'<resultset target="{_VALUE}" complete="{_VALUE}"(/?)>')
_ROW_HEAD = f'\n  <row site="{_VALUE}" id="{_VALUE}"'
_ROW = re.compile(_ROW_HEAD + "(/?)>")
_BARE_ROW = re.compile(_ROW_HEAD + "/>")
_COL = re.compile(f'\n    <col name="{_VALUE}">{_VALUE}</col>')
_ROW_END = "\n  </row>"
_MISSING = re.compile(f'\n  <missing site="{_VALUE}" reason="{_VALUE}"/>')
_TAIL = "\n</resultset>"
_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&"))


def _unesc(text: str) -> str:
    """Undo ``_esc`` on a value the grammar matched; ``&amp;`` goes last."""
    if "&" in text:
        for entity, char in _ENTITIES:
            text = text.replace(entity, char)
    return text


def _row_shape(text: str, pos: int) -> Optional[tuple]:
    """(columns, row pattern) of the row at ``pos``, or None if none is there.

    The pattern matches one whole row with exactly those columns, so the
    first row fixes it for every row after.
    """
    head = _ROW.match(text, pos)
    if head is None:
        return None
    if head.group(3):
        return (), _BARE_ROW
    names = []
    pos = head.end()
    while (col := _COL.match(text, pos)) is not None:
        names.append(col.group(1))
        pos = col.end()
    if not names or not text.startswith(_ROW_END, pos):
        return None
    cols = "".join(f'\n    <col name="{re.escape(name)}">{_VALUE}</col>' for name in names)
    return (tuple(map(_unesc, names)),
            re.compile(_ROW_HEAD + ">" + cols + re.escape(_ROW_END)))


def from_xml(data) -> ResultSet:
    """Decode result XML, ``bytes`` or ``str``, accepting exactly what ``to_xml`` writes.

    Input that is not UTF-8, or not text from a ``<`` to a ``>``, raises
    MalformedXml; any other departure from the canonical bytes, or from the
    order and consistency ``to_xml``'s input keeps, raises SchemaViolation.
    So whatever decodes re-encodes to the same bytes.
    """
    try:
        if isinstance(data, str):
            data.encode("utf-8")  # a lone surrogate has no UTF-8 form
            text = data
        else:
            text = data.decode("utf-8")
    except UnicodeError as exc:
        raise MalformedXml(f"result XML is not UTF-8: {exc}") from exc
    if not (text.startswith("<") and text.endswith(">")):
        raise MalformedXml("result XML is not text from '<' to '>'")

    head = _HEAD.match(text)
    _require(head is not None, "result XML does not open with a canonical resultset tag")
    target, complete_text, empty = head.groups()
    _require(target in ("patients", "images"), f"bad target {target!r}")
    _require(complete_text in ("true", "false"), f"bad complete flag {complete_text!r}")
    pos = head.end()
    columns: tuple = ()
    rows, keys, missing = [], [], []
    if not empty:
        shape = _row_shape(text, pos)
        if shape is not None:
            columns, pattern = shape
            escaped = "&" in text
            prefixes: dict = {}
            while (match := pattern.match(text, pos)) is not None:
                cells = tuple(map(_unesc, match.groups())) if escaped else match.groups()
                keys.append(_checked_key(target, cells[0], cells[1], prefixes))
                rows.append(ResultRow(cells[0], cells[1], cells[2:]))
                pos = match.end()
            _require(_row_shape(text, pos) is None, "rows disagree on column names")
        while (match := _MISSING.match(text, pos)) is not None:
            missing.append(tuple(map(_unesc, match.groups())))
            pos = match.end()
        _require(bool(rows or missing), "an open resultset holds no row or missing entry")
        _require(text.startswith(_TAIL, pos), f"result XML departs from the grammar at {pos}")
        pos += len(_TAIL)
    _require(pos == len(text), f"result XML continues past its end at {pos}")

    _require(all(a < b for a, b in zip(keys, keys[1:])), "rows not strictly ordered")
    _require(missing == sorted(missing), "missing entries not ordered")
    complete = complete_text == "true"
    _require(complete == (not missing), "complete flag contradicts missing entries")
    return ResultSet(target, columns, tuple(rows), complete, tuple(missing))


# --- node-to-node parts -------------------------------------------------------------

def to_part(rs: ResultSet) -> dict:
    """One site's part in the node-to-node form: rows as ``[row_id, *values]``."""
    return {"target": rs.target, "columns": list(rs.columns),
            "rows": [[row.row_id, *row.values] for row in rs.rows]}


def from_part(body, site_id: str, target: str) -> ResultSet:
    """Decode the part ``site_id`` answered for a subquery on ``target``.

    Makes the structural checks ``from_xml`` makes; any failure raises
    SchemaViolation. The rows must carry the canonical columns, each cell a
    string, each image row id a gfid of ``site_id``, in strict
    ``_checked_key`` order.
    """
    _require(isinstance(body, dict), "part is not an object")
    _require(body.get("target") == target,
             f"part target {body.get('target')!r} is not {target!r}")
    columns, rows = body.get("columns"), body.get("rows")
    _require(isinstance(columns, list) and isinstance(rows, list), "part lacks columns/rows")
    canonical = IMAGE_COLUMNS if target == "images" else PATIENT_COLUMNS
    _require(tuple(columns) == canonical or not (columns or rows),
             f"part columns {columns!r} are not the {target} columns")

    width = len(canonical) + 1
    out, keys, prefixes = [], [], {}
    for row in rows:
        _require(isinstance(row, list) and len(row) == width
                 and all(isinstance(cell, str) for cell in row),
                 f"part row is not {width} strings")
        keys.append(_checked_key(target, site_id, row[0], prefixes))
        out.append(ResultRow(site_id, row[0], tuple(row[1:])))
    _require(all(a < b for a, b in zip(keys, keys[1:])), "rows not strictly ordered")
    return ResultSet(target, tuple(columns), tuple(out), True, ())
