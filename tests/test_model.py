"""Identity, pseudonymization and record validation."""

import random

import pytest

from mgvo import model
from mgvo.errors import (
    BadGfid,
    BadValue,
    EmptyId,
    InvariantViolation,
    NegativeAge,
    WeakSecret,
)

SECRET = b"0123456789abcdef"


def test_pseudonym_frozen_vector():
    # Computed once with hashlib directly; guards against accidental
    # reordering of the secret/id concatenation or a changed separator.
    assert model.pseudonymize("PAT-000123", SECRET) == "06338cafc42e05d9"
    assert model.pseudonymize("PAT-000123", b"another-secret-xx") == "f04af11a71322c7f"


def test_pseudonym_is_deterministic_and_site_scoped():
    a = model.pseudonymize("MRN-1", SECRET)
    assert a == model.pseudonymize("MRN-1", SECRET)
    assert a != model.pseudonymize("MRN-1", b"a-different-secret")
    assert a != model.pseudonymize("MRN-2", SECRET)
    assert len(a) == 16
    assert all(c in "0123456789abcdef" for c in a)


def test_pseudonym_distinct_over_many_ids():
    ids = [f"MRN{n:07d}" for n in range(20000)]
    seen = {model.pseudonymize(raw, SECRET) for raw in ids}
    assert len(seen) == len(ids)


def test_pseudonym_rejects_bad_inputs():
    with pytest.raises(EmptyId):
        model.pseudonymize("", SECRET)
    with pytest.raises(WeakSecret):
        model.pseudonymize("MRN-1", b"short")


def test_parse_ymd():
    assert model.parse_ymd("20040229").isoformat() == "2004-02-29"
    for bad in ("2004022", "200402299", "20040230", "20041301", "2004-2-2", "abcdefgh"):
        with pytest.raises(BadValue):
            model.parse_ymd(bad)


def test_derive_age_birthday_boundary():
    assert model.derive_age("19600315", "20050314") == 44
    assert model.derive_age("19600315", "20050315") == 45
    assert model.derive_age("19600315", "20050316") == 45
    assert model.derive_age("20040101", "20040101") == 0
    with pytest.raises(NegativeAge):
        model.derive_age("20050101", "20041231")


def test_derive_age_leap_birthday():
    # Feb 29 birthday in a non-leap study year: the birthday has not
    # occurred on Feb 28 and has occurred on Mar 1.
    assert model.derive_age("19600229", "20050228") == 44
    assert model.derive_age("19600229", "20050301") == 45


def test_gfid_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        site = "site_" + rng.choice("abc")
        local = rng.randrange(1, 10**9)
        text = model.format_gfid(site, local)
        gfid = model.parse_gfid(text)
        assert (gfid.site_id, gfid.local_id) == (site, local)
        assert str(gfid) == text


def test_gfid_rejects_malformed():
    for bad in ("", "site_a", ":1", "site_a:", "site_a:x", "Site:1",
                "site a:1", "site_a:1:2", "x" * 33 + ":1", "site_a:\u00b2",
                "site_a:" + "1" * 5000):
        with pytest.raises(BadGfid):
            model.parse_gfid(bad)



def test_a_trailing_newline_is_not_part_of_a_site_id():
    # "$" would match before a final newline; a site id must end the string.
    assert model.SITE_ID_RE.match("site_a\n") is None
    with pytest.raises(BadGfid):
        model.parse_gfid("site_a\n:1")

def test_patient_record_validation():
    good = model.PatientRecord(pid="0123456789abcdef", sex="F", birth_year=1960,
                               height_m=1.62, weight_kg=70.0)
    good.validate(current_year=2005)

    bad_cases = [
        {"pid": "not-a-pseudonym"},
        {"pid": "0123456789ABCDEF"},  # case matters: pseudonyms are lowercase hex
        {"sex": "X"},
        {"birth_year": 1850},
        {"birth_year": 2010},
        {"height_m": 0.1},
        {"height_m": 3.0},
        {"weight_kg": 0.0},
        {"weight_kg": 700.0},
    ]
    for override in bad_cases:
        fields = dict(pid="0123456789abcdef", sex="F", birth_year=1960,
                      height_m=1.62, weight_kg=70.0)
        fields.update(override)
        with pytest.raises(InvariantViolation):
            model.PatientRecord(**fields).validate(current_year=2005)

    # Optionals may be absent entirely.
    model.PatientRecord(pid="0123456789abcdef", sex="M", birth_year=1940).validate(
        current_year=2005)


def test_a_pid_with_a_trailing_newline_is_refused():
    with pytest.raises(InvariantViolation):
        model.PatientRecord(pid="0123456789abcdef\n", sex="F", birth_year=1960).validate()
    assert model.PSEUDONYM_RE.match("0123456789abcdef\n") is None


def test_image_record_validation():
    from mgvo.store import BlobRef

    ref = BlobRef(sha256="00" * 32, size_bytes=10)
    good = model.ImageRecord(local_id=1, pid="0123456789abcdef", modality="MG",
                             laterality="L", view="CC", study_date="20040102",
                             age_at_study=44, rows=128, cols=128, blob=ref)
    good.validate()
    for override in ({"laterality": "B"}, {"view": "XX"}, {"study_date": "2004"},
                     {"age_at_study": -1}, {"rows": 0}, {"cols": 0},
                     {"pid": "nope"}):
        fields = dict(local_id=1, pid="0123456789abcdef", modality="MG",
                      laterality="L", view="CC", study_date="20040102",
                      age_at_study=44, rows=128, cols=128, blob=ref)
        fields.update(override)
        with pytest.raises((InvariantViolation, BadValue)):
            model.ImageRecord(**fields).validate()


def test_derived_record_validation():
    good = model.DerivedRecord(local_id=1, image_local_id=2, kind="smf",
                               fields={"density_pct": 31.25}, algo_id="density-v1")
    good.validate()
    with pytest.raises(InvariantViolation):
        model.DerivedRecord(local_id=1, image_local_id=2, kind="nope",
                            fields={"x": 1}).validate()
    # each kind has a required field
    with pytest.raises(InvariantViolation):
        model.DerivedRecord(local_id=1, image_local_id=2, kind="smf",
                            fields={}).validate()
    with pytest.raises(InvariantViolation):
        model.DerivedRecord(local_id=1, image_local_id=2, kind="cade",
                            fields={"density_pct": 1.0}).validate()
    # derived fields must be numeric
    with pytest.raises(InvariantViolation):
        model.DerivedRecord(local_id=1, image_local_id=2, kind="smf",
                            fields={"density_pct": "31"}).validate()
