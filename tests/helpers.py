"""Shared generators and reference helpers for the test suite.

Everything here is seeded: a test that wants randomness builds its own
``random.Random(seed)`` and threads it through, so failures reproduce.
"""

import random

from mgvo import dicom, federation, mgql

# Strings that are safe inside single-quoted query literals (no quote, no
# backslash games -- the grammar has no escapes) and inside XML text.
SAFE_STRINGS = [
    "L", "R", "CC", "MLO", "MG", "F", "M", "O", "smf", "cade",
    "abc123", "deadbeefcafe0123", "two words", "UPPER_lower-mix.x",
]

STRING_FIELD_POOL = {
    "patient.id": ["deadbeefcafe0123", "0123456789abcdef", "ffff0000ffff0000"],
    "patient.sex": ["F", "M", "O"],
    "image.laterality": ["L", "R"],
    "image.view": ["CC", "MLO"],
    "image.modality": ["MG", "CT"],
    "derived.kind": ["smf", "cade"],
    "site.id": ["site_a", "site_b", "site_c", "nowhere"],
}


def rand_date(rng: random.Random) -> str:
    return f"{rng.randrange(1920, 2070):04d}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}"


def rand_number(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randrange(-50, 200)
    # Quarter steps: repr() never needs exponent notation for these.
    return rng.randrange(-200, 800) / 4.0


def rand_pred(rng: random.Random, fields=None) -> mgql.Pred:
    field = rng.choice(fields or list(mgql.FIELD_TYPES))
    ftype = mgql.FIELD_TYPES[field]
    if ftype == "string":
        op = rng.choice(("=", "!="))
        value = rng.choice(STRING_FIELD_POOL.get(field, SAFE_STRINGS))
        return mgql.Pred(field, op, value)
    if ftype == "date":
        if rng.random() < 0.3:
            lo, hi = sorted((rand_date(rng), rand_date(rng)))
            return mgql.Pred(field, "in", (lo, hi))
        return mgql.Pred(field, rng.choice(mgql.COMPARE_OPS), rand_date(rng))
    if rng.random() < 0.3:
        a, b = rand_number(rng), rand_number(rng)
        lo, hi = (a, b) if a <= b else (b, a)
        return mgql.Pred(field, "in", (lo, hi))
    return mgql.Pred(field, rng.choice(mgql.COMPARE_OPS), rand_number(rng))


def rand_expr(rng: random.Random, depth: int = 0, fields=None) -> mgql.Expr:
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rand_pred(rng, fields)
    if roll < 0.60:
        return mgql.Not(rand_expr(rng, depth + 1, fields))
    node = mgql.And if roll < 0.80 else mgql.Or
    return node(rand_expr(rng, depth + 1, fields), rand_expr(rng, depth + 1, fields))


def rand_query(rng: random.Random, fields=None) -> mgql.Query:
    return mgql.Query(target=rng.choice(("patients", "images")),
                      expr=rand_expr(rng, fields=fields))


def rand_row(rng: random.Random) -> dict:
    """A joined row with a random subset of fields present."""
    row = {}
    for field, ftype in mgql.FIELD_TYPES.items():
        if rng.random() < 0.25:
            continue  # leave the field missing
        if field == "derived.kind":
            row[field] = tuple(rng.sample(["smf", "cade"], rng.randrange(1, 3)))
        elif ftype == "string":
            row[field] = rng.choice(STRING_FIELD_POOL.get(field, SAFE_STRINGS))
        elif ftype == "date":
            row[field] = rand_date(rng)
        else:
            row[field] = rand_number(rng)
    return row


# --- result sets -------------------------------------------------------------

_XML_TEXT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " <>&\"'.,:;-_()[]\t\n"
)


def rand_cell(rng: random.Random) -> str:
    return "".join(rng.choice(_XML_TEXT_ALPHABET) for _ in range(rng.randrange(0, 13)))


def rand_resultset(rng: random.Random) -> federation.ResultSet:
    """A ResultSet drawn from the XML-faithful domain.

    The dialect carries columns only on rows, so a rowless set must have
    empty columns for the round trip to be an identity.
    """
    target = rng.choice(("patients", "images"))
    n_rows = rng.randrange(0, 8)
    columns = (federation.IMAGE_COLUMNS if target == "images"
               else federation.PATIENT_COLUMNS) if n_rows else ()
    sites = ["site_a", "site_b", "site_c"]
    rows, seen = [], set()
    for _ in range(n_rows):
        site = rng.choice(sites)
        if target == "images":
            row_id = f"{site}:{rng.randrange(1, 500)}"
        else:
            row_id = f"{rng.getrandbits(64):016x}"
        if (site, row_id) in seen:
            continue
        seen.add((site, row_id))
        rows.append(federation.ResultRow(
            site, row_id, tuple(rand_cell(rng) for _ in columns)))
    rows.sort(key=lambda r: (r.site_id, int(r.row_id.partition(":")[2])
                             if target == "images" else r.row_id))
    missing = []
    if rng.random() < 0.4:
        row_sites = {r.site_id for r in rows}
        for site in sites:
            if site not in row_sites and rng.random() < 0.5:
                missing.append((site, rng.choice(["timeout", "unreachable", "error Internal"])))
    missing.sort()
    return federation.ResultSet(target, tuple(columns), tuple(rows),
                                not missing, tuple(missing))


# --- tag sets ---------------------------------------------------------------

_TEXT_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ^.-"


def rand_tagset(rng: random.Random) -> dicom.TagSet:
    """A random TagSet within the accepted encoding (round-trips exactly)."""
    ts = dicom.TagSet()
    n = rng.randrange(1, 14)
    tags = set()
    while len(tags) < n:
        group = rng.choice([0x0008, 0x0010, 0x0018, 0x0020, 0x0028, 0x0040])
        tags.add(dicom.Tag(group, rng.randrange(0x0001, 0x0200)))
    for tag in sorted(tags):
        vr = rng.choice(sorted(dicom.ACCEPTED_VRS - {"OB", "OW"}))
        if vr == "US":
            value = rng.getrandbits(16).to_bytes(2, "little")
        elif vr == "UI":
            raw = ".".join(str(rng.randrange(0, 100)) for _ in range(4))
            value = dicom.pad_value(vr, raw.encode("ascii"))
        else:
            raw = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(0, 17)))
            value = dicom.pad_value(vr, raw.encode("ascii"))
        ts.put(tag, vr, value)
    if rng.random() < 0.7:
        size = rng.choice([0, 2, 64, 70000])  # 70000 exercises the long form
        ts.put(dicom.PIXEL_DATA, rng.choice(("OB", "OW")),
               bytes(rng.getrandbits(8) for _ in range(size)))
    return ts
