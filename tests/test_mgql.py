"""Query language: grammar, canonical printing, classification, evaluation."""

import random

import pytest

from mgvo import mgql
from mgvo.errors import BadRange, QuerySyntaxError, TypeMismatch, UnknownField

from helpers import rand_expr, rand_query


def test_parse_reference_forms():
    q = mgql.parse_query("SELECT patients WHERE patient.id = 'deadbeefcafe0123'")
    assert q.target == "patients" and q.exec_algo is None
    assert q.expr == mgql.Pred("patient.id", "=", "deadbeefcafe0123")

    q = mgql.parse_query("SELECT patients WHERE patient.sex = 'F'")
    assert q.expr == mgql.Pred("patient.sex", "=", "F")

    q = mgql.parse_query(
        "SELECT images WHERE patient.age IN [40, 49] AND image.laterality = 'L'")
    assert q.expr == mgql.And(mgql.Pred("patient.age", "in", (40, 49)),
                              mgql.Pred("image.laterality", "=", "L"))

    q = mgql.parse_query("EXEC density-v1 WHERE image.view = 'CC'")
    assert q.exec_algo == "density-v1" and q.target == "images"


def test_keywords_case_and_whitespace_insensitive():
    variants = [
        "SELECT images WHERE patient.age > 40",
        "select IMAGES where patient.age > 40",
        "  Select\timages\nWHERE   patient.age>40  ",
    ]
    parsed = [mgql.parse_query(v) for v in variants]
    assert parsed[0] == parsed[1] == parsed[2]


def test_canonical_print_examples():
    cases = [
        ("select images where patient.age>40 and image.view='CC'",
         "SELECT images WHERE patient.age > 40 AND image.view = 'CC'"),
        ("SELECT patients WHERE not (patient.sex='F' or patient.age<40)",
         "SELECT patients WHERE NOT (patient.sex = 'F' OR patient.age < 40)"),
        ("SELECT images WHERE patient.age IN [ 40 , 49 ]",
         "SELECT images WHERE patient.age IN [40,49]"),
        ("SELECT images WHERE image.study_date >= 20040101",
         "SELECT images WHERE image.study_date >= 20040101"),
        ("EXEC density-v1 WHERE (image.view = 'CC')",
         "EXEC density-v1 WHERE image.view = 'CC'"),
        # precedence: AND binds tighter than OR, parens added only when needed
        ("SELECT images WHERE patient.age > 40 AND (image.view = 'CC' OR image.view = 'MLO')",
         "SELECT images WHERE patient.age > 40 AND (image.view = 'CC' OR image.view = 'MLO')"),
        ("SELECT images WHERE (patient.age > 40 AND image.view = 'CC') OR patient.sex = 'M'",
         "SELECT images WHERE patient.age > 40 AND image.view = 'CC' OR patient.sex = 'M'"),
    ]
    for text, want in cases:
        assert mgql.print_query(mgql.parse_query(text)) == want


def test_parse_print_identity_on_random_asts():
    rng = random.Random(41)
    for _ in range(1000):
        q = rand_query(rng)
        assert mgql.parse_query(mgql.print_query(q)) == q


def test_print_parse_is_a_fixed_point():
    rng = random.Random(42)
    for _ in range(300):
        text = mgql.print_query(rand_query(rng))
        assert mgql.print_query(mgql.parse_query(text)) == text
        # sloppy spacing and keyword case do not change the canonical form
        messy = text.replace(" AND ", " and ").replace("SELECT", "select").replace(" ", "  ")
        assert mgql.print_query(mgql.parse_query(messy)) == text


def test_syntax_errors_carry_positions():
    with pytest.raises(QuerySyntaxError) as err:
        mgql.parse_query("SELECT images patient.age > 40")
    assert err.value.position == 14
    assert err.value.expected == "WHERE"
    assert err.value.code == "SyntaxError"

    with pytest.raises(QuerySyntaxError) as err:
        mgql.parse_query("SELECT images WHERE patient.age > 40 extra")
    assert err.value.position == 37

    with pytest.raises(QuerySyntaxError) as err:
        mgql.parse_query("SELECT images WHERE image.view = 'CC")
    assert "unterminated" in str(err.value)

    with pytest.raises(QuerySyntaxError) as err:
        mgql.parse_query("SELECT images WHERE patient.age > 1.2.3")
    assert err.value.position == 34
    assert err.value.expected == "number"


def test_syntax_error_shapes():
    bad = [
        "",
        "FETCH images WHERE patient.age > 40",
        "SELECT studies WHERE patient.age > 40",
        "SELECT images WHERE",
        "SELECT images WHERE patient.age >",
        "SELECT images WHERE patient.age ! 40",
        "SELECT images WHERE (patient.age > 40",
        "SELECT images WHERE patient.age IN [40 49]",
        "SELECT images WHERE patient.age ? 40",
        "EXEC WHERE patient.age > 40",
        "SELECT images WHERE patient.age > 1.2.3",
        "SELECT images WHERE patient.age IN [1..2, 3]",
    ]
    for text in bad:
        with pytest.raises(QuerySyntaxError):
            mgql.parse_query(text)


def test_type_errors():
    with pytest.raises(UnknownField):
        mgql.parse_query("SELECT images WHERE patient.shoe_size = 9")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE patient.age = 'old'")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE patient.sex = 1")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE patient.sex < 'F'")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE patient.sex IN [1, 2]")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE image.study_date > 123")
    with pytest.raises(BadRange):
        mgql.parse_query("SELECT images WHERE patient.age IN [50, 40]")


def test_date_literals_stay_lexical():
    q = mgql.parse_query("SELECT images WHERE image.study_date >= 20040101")
    assert q.expr.value == "20040101"
    q = mgql.parse_query("SELECT images WHERE image.study_date IN [20040101, 20041231]")
    assert q.expr.value == ("20040101", "20041231")
    with pytest.raises(TypeMismatch):
        mgql.parse_query("SELECT images WHERE image.study_date = 20040230")
