"""Query decomposition, local execution, merge, the node-to-node parts and the XML dialect."""

import json
import random

import pytest

from mgvo import federation, mgql
from mgvo.errors import MalformedXml, SchemaViolation, UnknownSite
from mgvo.federation import ResultRow, ResultSet
from mgvo.harness import oracle
from mgvo.model import PatientRecord, ImageRecord
from mgvo.services.registry import SiteDescriptor
from mgvo.store import SiteStore

from helpers import rand_expr, rand_resultset, rand_row


def topo(*site_ids, private=()):
    return [SiteDescriptor(s, s.title(), f"{s}.example:9000", public=s not in private)
            for s in site_ids]


def parts_of(query_text, self_site="site_a", topology=None):
    q = mgql.parse_query(query_text)
    return federation.analyze(q, self_site, topology or topo("site_a", "site_b", "site_c"))


def test_analyze_broadcasts_plain_queries():
    dec = parts_of("SELECT images WHERE patient.age > 40")
    assert mgql.print_query(dec.local) == "SELECT images WHERE patient.age > 40"
    assert [(s, mgql.print_query(q)) for s, q in dec.remote] == [
        ("site_b", "SELECT images WHERE patient.age > 40"),
        ("site_c", "SELECT images WHERE patient.age > 40"),
    ]


def test_analyze_routes_on_site_id():
    dec = parts_of("SELECT images WHERE site.id = 'site_b' AND patient.age > 40")
    assert dec.local is None
    assert [(s, mgql.print_query(q)) for s, q in dec.remote] == [
        ("site_b", "SELECT images WHERE patient.age > 40")]

    # a pure site predicate folds to constant-true; the part carries the
    # site's own tautology since the grammar has no empty WHERE
    dec = parts_of("SELECT images WHERE site.id = 'site_b'")
    assert dec.local is None
    assert [(s, mgql.print_query(q)) for s, q in dec.remote] == [
        ("site_b", "SELECT images WHERE site.id = 'site_b'")]


def test_analyze_folds_negation_and_disjunction():
    dec = parts_of("SELECT images WHERE NOT site.id = 'site_b'")
    assert mgql.print_query(dec.local) == "SELECT images WHERE site.id = 'site_a'"
    assert [s for s, _ in dec.remote] == ["site_c"]

    dec = parts_of("SELECT images WHERE site.id = 'site_a' OR site.id = 'site_c'")
    assert dec.local is not None
    assert [s for s, _ in dec.remote] == ["site_c"]

    dec = parts_of(
        "SELECT images WHERE site.id = 'site_b' OR patient.age > 40")
    # the disjunction keeps every site in play; site_b's residual is true
    assert [s for s, _ in dec.remote] == ["site_b", "site_c"]
    assert mgql.print_query(dict(dec.remote)["site_b"]) == \
        "SELECT images WHERE site.id = 'site_b'"
    assert mgql.print_query(dict(dec.remote)["site_c"]) == \
        "SELECT images WHERE patient.age > 40"


def test_analyze_rejects_unknown_sites():
    with pytest.raises(UnknownSite):
        parts_of("SELECT images WHERE site.id = 'site_x'")


def test_analyze_skips_private_sites_but_not_self():
    topology = topo("site_a", "site_b", "site_c", private=("site_b",))
    dec = parts_of("SELECT images WHERE patient.age > 40", topology=topology)
    assert [s for s, _ in dec.remote] == ["site_c"]
    dec = parts_of("SELECT images WHERE patient.age > 40", self_site="site_b",
                   topology=topology)
    assert dec.local is not None  # a private site still queries itself


def _seeded_store(tmp_path, closing):
    store = closing(SiteStore(tmp_path))
    pids = ["{:016x}".format(0xA0 + n) for n in range(3)]
    store.upsert_patient(PatientRecord(pids[0], "F", 1960, height_m=1.62))
    store.upsert_patient(PatientRecord(pids[1], "M", 1950))
    store.upsert_patient(PatientRecord(pids[2], "F", 1944, weight_kg=61.5))
    specs = [
        (pids[0], "L", "CC", 44), (pids[0], "R", "MLO", 44),
        (pids[1], "L", "MLO", 54), (pids[2], "R", "CC", 60),
    ]
    for n, (pid, lat, view, age) in enumerate(specs):
        store.insert_image(ImageRecord(
            0, pid, "MG", lat, view, "20040102", age, 8, 8,
            store.put_blob(f"blob{n}".encode())))
    return store, pids


def test_execute_local_images(tmp_path, closing):
    store, pids = _seeded_store(tmp_path, closing)
    rs = federation.execute_local(
        store, "site_a", mgql.parse_query("SELECT images WHERE patient.sex = 'F'"))
    assert rs.target == "images"
    assert rs.columns == federation.IMAGE_COLUMNS
    assert rs.complete
    assert [r.row_id for r in rs.rows] == ["site_a:1", "site_a:2", "site_a:4"]
    assert rs.rows[0].values == (pids[0], "F", "44", "L", "CC", "MG", "20040102")


def test_execute_local_patients_projects_distinct(tmp_path, closing):
    store, pids = _seeded_store(tmp_path, closing)
    rs = federation.execute_local(
        store, "site_a", mgql.parse_query("SELECT patients WHERE patient.sex = 'F'"))
    assert rs.columns == federation.PATIENT_COLUMNS
    assert [r.row_id for r in rs.rows] == sorted([pids[0], pids[2]])
    by_id = {r.row_id: r.values for r in rs.rows}
    assert by_id[pids[0]] == (pids[0], "F", "1.62", "")   # missing weight -> empty
    assert by_id[pids[2]] == (pids[2], "F", "", "61.5")


def test_execute_local_sees_own_site_id(tmp_path, closing):
    store, _ = _seeded_store(tmp_path, closing)
    hit = federation.execute_local(
        store, "site_a", mgql.parse_query("SELECT images WHERE site.id = 'site_a'"))
    miss = federation.execute_local(
        store, "site_a", mgql.parse_query("SELECT images WHERE site.id = 'site_b'"))
    assert len(hit.rows) == 4 and len(miss.rows) == 0


class _OneRowStore:
    """A store of one row whose ``select`` records each expression it is given."""

    def __init__(self, row):
        self.row, self.exprs = row, []

    def select(self, expr, target):
        self.exprs.append(expr)
        return [self.row] if expr is None or oracle.ref_eval(expr, self.row) else []


def test_select_folds_site_id_as_evaluation_would():
    rng = random.Random(12)
    constant = 0
    for _ in range(5000):
        expr, row = rand_expr(rng), rand_row(rng)
        row.pop("site.id", None)
        site = rng.choice(("site_a", "site_b", "site_c"))
        store = _OneRowStore(row)
        selected = federation.select(store, site, mgql.Query("images", expr))
        assert bool(selected) == oracle.ref_eval(expr, {**row, "site.id": site})
        if store.exprs in ([], [None]):  # folded to a constant: no expression runs
            constant += 1
            assert bool(selected) == bool(store.exprs)
    assert 0 < constant < 5000


def _rows(target, *entries):
    return tuple(ResultRow(site, rid, tuple(vals)) for site, rid, vals in entries)


def test_merge_combines_and_sorts():
    cols = ("patient.id", "patient.sex")
    a = ResultSet("patients", cols, _rows("patients", ("site_a", "p2", ["p2", "F"]),),
                  True, ())
    b = ResultSet("patients", cols, _rows("patients", ("site_b", "p1", ["p1", "M"]),),
                  True, ())
    merged = federation.merge([a, b], (), "patients")
    assert [r.row_id for r in merged.rows] == ["p2", "p1"]  # site order first
    assert merged.complete and merged.columns == cols


def test_merge_sorts_image_rows_numerically():
    cols = federation.IMAGE_COLUMNS
    vals = [""] * len(cols)
    part = ResultSet("images", cols, _rows(
        "images",
        ("site_a", "site_a:2", vals), ("site_a", "site_a:10", vals)), True, ())
    merged = federation.merge([part], (), "images")
    assert [r.row_id for r in merged.rows] == ["site_a:2", "site_a:10"]


def test_merge_records_failures_sorted():
    merged = federation.merge(
        [ResultSet("images", (), (), True, ())],
        [("site_c", "timeout"), ("site_b", "unreachable")], "images")
    assert merged.missing == (("site_b", "unreachable"), ("site_c", "timeout"))
    assert not merged.complete


def test_merge_takes_columns_from_first_rowed_part():
    cols = ("patient.id", "patient.sex")
    empty = ResultSet("patients", (), (), True, ())
    rowed = ResultSet("patients", cols,
                      _rows("patients", ("site_b", "p1", ["p1", "F"])), True, ())
    for order in ([empty, rowed], [rowed, empty]):
        assert federation.merge(order, (), "patients").columns == cols


def test_merge_concatenates_parts_in_site_order():
    rng = random.Random(7)
    for _ in range(300):
        whole = rand_resultset(rng)
        sites = sorted({r.site_id for r in whole.rows})
        parts = [ResultSet(whole.target, whole.columns,
                           tuple(r for r in whole.rows if r.site_id == site), True, ())
                 for site in sites]
        rng.shuffle(parts)
        merged = federation.merge(parts, whole.missing, target=whole.target)
        assert merged == whole


def test_merge_empty_with_target():
    merged = federation.merge([], (), "images")
    assert merged == ResultSet("images", (), (), True, ())


def test_to_xml_exact_bytes():
    rs = ResultSet(
        "patients", ("patient.id", "patient.sex"),
        _rows("patients", ("site_a", "p<1>", ["p<1>", "F&M"])),
        False, (("site_b", 'say "why"'),))
    expected = "\n".join([
        '<resultset target="patients" complete="false">',
        '  <row site="site_a" id="p&lt;1&gt;">',
        '    <col name="patient.id">p&lt;1&gt;</col>',
        '    <col name="patient.sex">F&amp;M</col>',
        '  </row>',
        '  <missing site="site_b" reason="say &quot;why&quot;"/>',
        '</resultset>',
    ]).encode()
    assert federation.to_xml(rs) == expected


def test_to_xml_empty_is_self_closing():
    rs = ResultSet("images", (), (), True, ())
    assert federation.to_xml(rs) == b'<resultset target="images" complete="true"/>'
    assert federation.from_xml(federation.to_xml(rs)) == rs


def test_from_xml_round_trip_random():
    rng = random.Random(99)
    for _ in range(1000):
        rs = rand_resultset(rng)
        assert federation.from_xml(federation.to_xml(rs)) == rs


def test_from_xml_rejects_malformed():
    with pytest.raises(MalformedXml):
        federation.from_xml(b"this is not xml <")
    bad = [
        b'<wrong target="images" complete="true"/>',
        b'<resultset target="studies" complete="true"/>',
        b'<resultset target="images" complete="yes"/>',
        b'<resultset target="images" complete="true"><blob/></resultset>',
        b'<resultset target="images" complete="true"><row id="site_a:1"/></resultset>',
        b'<resultset target="images" complete="true">'
        b'<row site="site_a" id="oops"/></resultset>',
        b'<resultset target="images" complete="true">'
        b'<row site="site_b" id="site_a:1"/></resultset>',
        b'<resultset target="images" complete="true">'
        b'<missing site="site_b" reason="x"/></resultset>',
        b'<resultset target="images" complete="false"/>',
    ]
    for doc in bad:
        with pytest.raises(SchemaViolation):
            federation.from_xml(doc)


def test_from_xml_rejects_disorder():
    two = (b'<resultset target="images" complete="true">'
           b'<row site="site_a" id="site_a:2"/>'
           b'<row site="site_a" id="site_a:1"/>'
           b'</resultset>')
    with pytest.raises(SchemaViolation):
        federation.from_xml(two)
    dup = (b'<resultset target="images" complete="true">'
           b'<row site="site_a" id="site_a:1"/>'
           b'<row site="site_a" id="site_a:1"/>'
           b'</resultset>')
    with pytest.raises(SchemaViolation):
        federation.from_xml(dup)
    cols = (b'<resultset target="patients" complete="true">'
            b'<row site="site_a" id="p1"><col name="a">x</col></row>'
            b'<row site="site_a" id="p2"><col name="b">y</col></row>'
            b'</resultset>')
    with pytest.raises(SchemaViolation):
        federation.from_xml(cols)
    missing_order = (b'<resultset target="images" complete="false">'
                     b'<missing site="site_c" reason="x"/>'
                     b'<missing site="site_b" reason="x"/>'
                     b'</resultset>')
    with pytest.raises(SchemaViolation):
        federation.from_xml(missing_order)


def test_from_xml_checks_order_and_grammar_on_canonical_bytes():
    row = ResultRow("site_a", "site_a:1", ())
    disordered = [
        ResultSet("images", (), (ResultRow("site_a", "site_a:2", ()), row), True, ()),
        ResultSet("images", (), (row, row), True, ()),
        ResultSet("images", (), (ResultRow("site_b", "site_a:1", ()),), True, ()),
        ResultSet("images", (), (ResultRow("site_a", "site_a:x", ()),), True, ()),
        ResultSet("images", (), (ResultRow("site_a", "site_a:\u00b2", ()),), True, ()),
        ResultSet("images", (), (ResultRow("site_a", "site_a:" + "1" * 5000, ()),), True, ()),
        ResultSet("images", (), (ResultRow("Site_A", "Site_A:1", ()),), True, ()),
        ResultSet("images", (), (ResultRow("site_a\n", "site_a\n:1", ()),), True, ()),
        ResultSet("images", (), (row, ResultRow("site_a", "site_b:2", ())), True, ()),
        ResultSet("images", (), (), False, (("site_c", "x"), ("site_b", "x"))),
        ResultSet("images", (), (row,), False, ()),
        ResultSet("images", (), (), True, (("site_b", "x"),)),
        ResultSet("images", (), (), False, ()),
    ]
    for rs in disordered:
        with pytest.raises(SchemaViolation):
            federation.from_xml(federation.to_xml(rs))
    p1 = federation.to_xml(ResultSet("patients", ("a",), (ResultRow("s", "p1", ("x",)),),
                                     True, ()))
    p2 = federation.to_xml(ResultSet("patients", ("b",), (ResultRow("s", "p2", ("y",)),),
                                     True, ()))
    p3 = federation.to_xml(ResultSet("patients", (), (ResultRow("s", "p3", ()),), True, ()))
    for other in (p2, p3):
        rows = other.split(b"\n", 1)[1]
        spliced = p1.rsplit(b"\n", 1)[0] + b"\n" + rows
        with pytest.raises(SchemaViolation, match="disagree"):
            federation.from_xml(spliced)
    departures = [
        b'<resultset target="images" complete="true">\n</resultset>',  # empty, open form
        b'<resultset target="images" complete="true"/>>',
        p1 + b">",
        p1.replace(b">x<", b">&#120;<"),
        p1.replace(b">x<", b">&#x78;<"),
        p1.replace(b">x<", b">&nbsp;<"),
    ]
    for doc in departures:
        with pytest.raises(SchemaViolation):
            federation.from_xml(doc)


def test_from_xml_is_the_identity_on_awkward_text():
    awkward = "\n\r\t<>&\"' \r\n&amp;&lt;&#10;"
    rs = ResultSet(
        "patients", ("patient.id", "col" + awkward),
        (ResultRow("site" + awkward, "p" + awkward, (awkward, "x\r\ny")),
         ResultRow("site" + awkward, "q" + awkward, ("", awkward * 2))),
        False, (("a\nb", "a\nb"), ("z" + awkward, "reason" + awkward)))
    xml = federation.to_xml(rs)
    assert federation.from_xml(xml) == rs
    assert federation.from_xml(xml.decode("utf-8")) == rs


def test_from_xml_accepts_only_what_re_encodes_to_the_same_bytes():
    """Single-byte edits, insertions and deletions of canonical XML.

    Each mutant is rejected with MalformedXml or SchemaViolation, or decodes
    to a set that ``to_xml`` writes back as exactly the mutant's bytes.
    """
    rng = random.Random(19)
    structural = b'<>&"\'/=;:# \n\r\tacdeilmnopqrstuw_0129' + bytes([0xC3, 0xA9])
    decoded = 0
    for _ in range(2500):
        data = bytearray(federation.to_xml(rand_resultset(rng)))
        byte = rng.choice(structural) if rng.random() < 0.8 else rng.randrange(256)
        kind, at = rng.randrange(3), rng.randrange(len(data))
        if kind == 0:
            data[at] = byte
        elif kind == 1:
            data.insert(at + rng.randrange(2), byte)
        else:
            del data[at]
        try:
            rs = federation.from_xml(bytes(data))
        except (MalformedXml, SchemaViolation):
            continue
        assert federation.to_xml(rs) == bytes(data)
        decoded += 1
    assert decoded > 100


def _part_of(site, target, n):
    """A complete single-site part with n rows, as execute_local makes it."""
    if target == "images":
        columns = federation.IMAGE_COLUMNS
        ids = [f"{site}:{k}" for k in (2, 10, 11)[:n]]  # numeric, not text, order
    else:
        columns = federation.PATIENT_COLUMNS
        ids = [f"{k:016x}" for k in range(n)]
    rows = tuple(ResultRow(site, rid, (rid,) + ("x&<y>",) * (len(columns) - 1))
                 for rid in ids)
    return ResultSet(target, columns, rows, True, ())


@pytest.mark.parametrize("target", ["images", "patients"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_part_round_trip(target, n):
    rs = _part_of("site_b", target, n)
    body = json.loads(json.dumps(federation.to_part(rs)))  # as a frame carries it
    assert body["rows"] == [[r.row_id, *r.values] for r in rs.rows]
    assert federation.from_part(body, "site_b", target) == rs
    # a rowless part may also come without columns
    empty = ResultSet(target, (), (), True, ())
    assert federation.from_part(federation.to_part(empty), "site_b", target) == empty


def test_part_from_execute_local_round_trips(tmp_path, closing):
    store, _ = _seeded_store(tmp_path, closing)
    for text in ("SELECT images WHERE patient.age > 0",
                 "SELECT patients WHERE patient.age > 0",
                 "SELECT images WHERE patient.age > 100"):
        query = mgql.parse_query(text)
        rs = federation.execute_local(store, "site_a", query)
        assert federation.from_part(federation.to_part(rs), "site_a", query.target) == rs


def _bad_parts():
    good = federation.to_part(_part_of("site_b", "images", 3))

    def edited(**changes):
        return {**good, **changes}

    def with_row(k, row):
        rows = [list(r) for r in good["rows"]]
        rows[k] = row
        return edited(rows=rows)

    row = good["rows"][0]
    return {
        "not an object": ["images", [], []],
        "no rows": {"target": "images", "columns": good["columns"]},
        "rows not a list": edited(rows="site_b:2"),
        "wrong target": edited(target="patients"),
        "no target": {"columns": good["columns"], "rows": good["rows"]},
        "wrong columns": edited(columns=list(federation.PATIENT_COLUMNS)),
        "reordered columns": edited(columns=list(reversed(good["columns"]))),
        "no columns with rows": edited(columns=[]),
        "short row": with_row(0, row[:-1]),
        "long row": with_row(0, row + ["extra"]),
        "row not a list": with_row(0, "site_b:2"),
        "number cell": with_row(0, [row[0], 44] + row[2:]),
        "null cell": with_row(0, row[:-1] + [None]),
        "number row id": with_row(0, [2] + row[1:]),
        "row id of another site": with_row(0, ["site_a:2"] + row[1:]),
        "row id not a gfid": with_row(0, ["site_b"] + row[1:]),
        "row id with a superscript digit": with_row(0, ["site_b:\u00b2"] + row[1:]),
        "row id of 5000 digits": with_row(0, ["site_b:" + "1" * 5000] + row[1:]),
        "unordered rows": edited(rows=[good["rows"][1], good["rows"][0], good["rows"][2]]),
        "duplicate rows": edited(rows=[good["rows"][0], good["rows"][0]]),
        "rows ordered as text": edited(rows=sorted(good["rows"])),
    }


@pytest.mark.parametrize("case", sorted(_bad_parts()))
def test_from_part_rejects(case):
    with pytest.raises(SchemaViolation):
        federation.from_part(_bad_parts()[case], "site_b", "images")


def test_from_part_rejects_unordered_patients():
    good = federation.to_part(_part_of("site_b", "patients", 3))
    for rows in (good["rows"][::-1], [good["rows"][0]] * 2):
        with pytest.raises(SchemaViolation):
            federation.from_part({**good, "rows": rows}, "site_b", "patients")


def test_render_value():
    assert federation.render_value(None) == ""
    assert federation.render_value(44) == "44"
    assert federation.render_value(1.62) == "1.62"
    assert federation.render_value("CC") == "CC"
