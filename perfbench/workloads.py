"""The four workloads.

Each workload builds its data once (untimed), then hands the measuring loop
whole rounds of operations. An operation is one ``run(client)`` that returns
``(rows, result)``; its ``check(result, frames)`` runs after the clock stops.
``prepare`` runs after the last boot and before the window, ``verify`` after
the window; both are untimed.
"""

from __future__ import annotations

import hashlib
from typing import Callable, NamedTuple

import numpy as np

from mgvo.harness import corpus, oracle
from mgvo.harness.sim import corpus_split

from . import inputs
from .checks import component_count, leaked, manifest_count
from .simclient import HOME, SITES, boot, shut


class Op(NamedTuple):
    run: Callable
    check: Callable


def _digest(xml) -> bytes:
    return hashlib.sha256(xml.encode("utf-8")).digest()


def _num(value, test) -> bool:
    """A predicate over a possibly missing value; missing is false, as in MGQL."""
    return value is not None and test(value)


# --- query workloads --------------------------------------------------------------------

WIDE_QUERIES = (
    ("SELECT images WHERE patient.age > 0", lambda e: e["age"] > 0),
    ("SELECT images WHERE image.study_date >= 20030101",
     lambda e: int(e["study_date"]) >= 20030101),
    ("SELECT images WHERE patient.sex = 'F' OR image.view = 'CC'",
     lambda e: e["sex"] == "F" or e["view"] == "CC"),
    ("SELECT images WHERE NOT image.modality = 'CT'", lambda e: e["modality"] != "CT"),
    ("SELECT images WHERE image.laterality = 'L' OR image.laterality = 'R'",
     lambda e: e["laterality"] in ("L", "R")),
    ("SELECT images WHERE patient.sex != 'M' AND patient.age IN [30, 90]",
     lambda e: e["sex"] != "M" and 30 <= e["age"] <= 90),
)

# Every site is scanned; few rows come back. Each text leads with a
# selective conjunct, so each costs about the same to evaluate per row.
NARROW_QUERIES = (
    ("SELECT images WHERE patient.age >= 74 AND image.view = 'CC'"
     " AND image.laterality = 'L'",
     lambda e: e["age"] >= 74 and e["view"] == "CC" and e["laterality"] == "L"),
    ("SELECT images WHERE NOT (patient.sex = 'F' OR patient.weight_kg < 100.0)"
     " AND image.view = 'MLO' AND image.study_date IN [20050101, 20051231]",
     lambda e: (not (e["sex"] == "F" or _num(e["weight"], lambda w: w < 100.0))
                and e["view"] == "MLO"
                and 20050101 <= int(e["study_date"]) <= 20051231)),
    ("SELECT patients WHERE patient.height_m >= 1.8 AND patient.weight_kg <= 50.0",
     lambda e: _num(e["height"], lambda h: h >= 1.8) and _num(e["weight"], lambda w: w <= 50.0)),
    ("SELECT images WHERE derived.kind = 'smf' AND derived.density_pct >= 40.0"
     " AND image.laterality = 'R'",
     lambda e: _num(e["density"], lambda d: d >= 40.0) and e["laterality"] == "R"),
    ("SELECT images WHERE patient.sex = 'M' AND NOT derived.kind = 'smf'"
     " AND patient.age IN [40, 45]",
     lambda e: e["sex"] == "M" and e["density"] is None and 40 <= e["age"] <= 45),
    ("SELECT patients WHERE derived.density_pct < 8.0 OR patient.sex = 'O'"
     " AND patient.age < 38",
     lambda e: _num(e["density"], lambda d: d < 8.0) or (e["sex"] == "O" and e["age"] < 38)),
)

# Routed by site.id: only the named site is asked. Each names a peer of the
# submitting site, so every query_narrow op crosses the same links.
ROUTED_QUERIES = (
    ("SELECT images WHERE site.id = 'site_b' AND patient.age = 50 AND image.view = 'MLO'",
     lambda e: e["site"] == "site_b" and e["age"] == 50 and e["view"] == "MLO"),
    ("SELECT patients WHERE site.id = 'site_c' AND NOT patient.sex = 'F'"
     " AND patient.weight_kg >= 95.0",
     lambda e: e["site"] == "site_c" and e["sex"] != "F"
     and _num(e["weight"], lambda w: w >= 95.0)),
    ("SELECT images WHERE site.id = 'site_c' AND derived.density_pct IN [20.0, 22.0]",
     lambda e: e["site"] == "site_c" and _num(e["density"], lambda d: 20.0 <= d <= 22.0)),
)

# The density job query_narrow's set-up runs; threshold 100 sits in the gap
# between background and dense tissue, so density_pct equals the phantom's
# planted dense fraction exactly.
NARROW_COHORT = ("SELECT images WHERE image.view = 'CC' AND patient.age >= 60",
                 lambda e: e["view"] == "CC" and e["age"] >= 60)
NARROW_DENSITY = ("density-v1", "density", {"threshold": 100})


class QueryWorkload:
    """Federated SELECTs against stores loaded through the store API."""

    # size -> (patients, images per patient, phantoms)
    SIZES: dict = {}
    # each op is a fixed sequence of query texts
    OPS: tuple = ()
    COHORT = None
    PHANTOM_SIDE = 32

    def __init__(self, seed: int, size: str, checker):
        self.seed = seed
        self.checker = checker
        self.n_patients, self.per_patient, self.n_phantoms = self.SIZES[size]
        self.texts = tuple(dict.fromkeys(text for op in self.OPS for text, _ in op))
        # Only what the checks need is kept past set-up, so that peak RSS
        # is the program's: row counts from the manifest, and the digest of
        # each text's first answer.
        self.expected: dict = {}  # text -> row count the manifest gives
        self.reference: dict = {}  # text -> sha256 of its first answer's XML

    def build(self, workdir) -> None:
        images = inputs.query_manifest(self.seed, self.n_patients, self.per_patient,
                                       SITES, self.n_phantoms)
        pool = inputs.phantoms(self.seed, self.n_phantoms, self.PHANTOM_SIDE)
        inputs.write_query_stores(workdir, self.seed, images, pool, self.PHANTOM_SIDE)
        if self.COHORT is not None:
            text, match = self.COHORT
            algo_id, kind, params = NARROW_DENSITY
            vo, client, _ = boot(workdir, self.seed)
            try:
                client.add_algorithm(algo_id, kind, params)
                job = client.run_job(HOME, algo_id, text)
            finally:
                shut(vo)
            cohort = manifest_count(images, "images", match)
            written = sum(task["derived_written"] for task in job["tasks"])
            self.checker.expect(job["state"] == "COMPLETED" and written == cohort,
                                f"set-up density job: {job['state']}, {written} of {cohort}")
            for e in images:
                if match(e):
                    e["density"] = pool[e["phantom"]][1]
        for op in self.OPS:
            for text, match in op:
                target = text.split()[1]  # "SELECT <target> WHERE ..."
                self.expected[text] = manifest_count(images, target, match)

    def prepare(self, vo, client) -> None:
        """Read every text once from home and once from a second site."""
        for text in self.texts:
            xml, rs = client.query(HOME, text)
            again, _ = client.query(SITES[1], text)
            self.checker.expect(xml == again, f"{text}: XML differs between site_a and site_b")
            self.checker.expect(rs.complete and not rs.missing, f"{text}: incomplete answer")
            self.reference[text] = _digest(xml)

    def round(self) -> list:
        return [self._op(texts) for texts in self.OPS]

    def _op(self, texts) -> Op:
        def run(client):
            rows = 0
            answers = []
            for text, _match in texts:
                xml, rs = client.query(HOME, text)
                rows += len(rs.rows)
                answers.append((text, xml, rs.complete))
            return rows, answers

        def check(answers, frames):
            for text, xml, complete in answers:
                self.checker.expect(_digest(xml) == self.reference[text],
                                    f"{text}: answer differs from its first reading")
                self.checker.expect(complete, f"{text}: incomplete answer")
        return Op(run, check)

    def verify(self, vo, client) -> None:
        """Every distinct answer against the oracle and the manifest count.

        Each text is asked once more; its answer must be the one every op
        got, and it is that answer which is held against the oracle.
        """
        dumps = {site: {"images": vo.nodes[site].store.dump_rows("images"),
                        "patients": vo.nodes[site].store.dump_rows("patients")}
                 for site in SITES}
        for text in self.texts:
            xml, rs = client.query(HOME, text)
            self.checker.expect(_digest(xml) == self.reference[text],
                                f"{text}: answer differs from its first reading")
            columns, rows = oracle.oracle_eval(dumps, text)
            self.checker.expect(oracle.resultset_rows(rs) == rows,
                                f"{text}: rows differ from the oracle")
            self.checker.expect(not rows or rs.columns == columns,
                                f"{text}: columns differ from the oracle")
            expected = self.expected[text]
            self.checker.expect(len(rs.rows) == expected,
                                f"{text}: {len(rs.rows)} rows, manifest says {expected}")


class QueryWide(QueryWorkload):
    name = "query_wide"
    SIZES = {"full": (500, 4, 4), "tiny": (12, 4, 4)}
    OPS = tuple((q,) for q in WIDE_QUERIES)


class QueryNarrow(QueryWorkload):
    name = "query_narrow"
    SIZES = {"full": (5000, 4, 256), "tiny": (30, 4, 8)}
    # One federation-wide question, then a follow-up routed to one site.
    OPS = tuple((q, ROUTED_QUERIES[i % len(ROUTED_QUERIES)])
                for i, q in enumerate(NARROW_QUERIES))
    COHORT = NARROW_COHORT


# --- ingest beside retrieve ---------------------------------------------------------------

class IngestRetrieve:
    """Add a fresh file at one site, then fetch the previous one through it.

    A round deals six files: round-robin over the three sites, alternating
    CC and MLO views. The file fetched is always the one added just before,
    which lives at the previous site, so every Retrieve crosses a link.
    """

    name = "ingest_retrieve"
    # size -> (pixel side, archive patients, archive images per patient)
    SIZES = {"full": (512, 750, 4), "tiny": (64, 6, 2)}
    VIEWS = ("CC", "MLO")

    def __init__(self, seed: int, size: str, checker):
        self.seed = seed
        self.checker = checker
        self.side, self.archive_patients, self.archive_per_patient = self.SIZES[size]

    def build(self, workdir) -> None:
        # Each site already holds an archive (1000 images at full size), so
        # new local ids have a fixed width and so do the frames naming them.
        archive = inputs.query_manifest(self.seed, self.archive_patients,
                                        self.archive_per_patient, SITES, 4)
        inputs.write_query_stores(workdir, self.seed, archive,
                                  inputs.phantoms(self.seed, 4, 32), 32)
        self.images = {site: sum(e["site"] == site for e in archive) for site in SITES}
        self.files = inputs.FreshFiles(self.seed, self.side)
        first = self.files.next(self.VIEWS[1])
        vo, client, _ = boot(workdir, self.seed)
        try:
            body = client.add(SITES[-1], first["data"])
        finally:
            shut(vo)
        self.images[SITES[-1]] += 1
        self.previous = (body["gfid"], first)

    def prepare(self, vo, client) -> None:
        pass

    def round(self) -> list:
        ops = []
        for j in range(2 * len(SITES)):
            site = SITES[j % len(SITES)]
            ops.append(self._op(site, self.files.next(self.VIEWS[j % 2])))
        return ops

    def _op(self, site: str, entry: dict) -> Op:
        def run(client):
            old_gfid, old_entry = self.previous
            body = client.add(site, entry["data"])
            data = client.retrieve(site, old_gfid)
            self.previous = (body["gfid"], entry)
            self.images[site] += 1
            return 1, (body, data, old_entry)

        def check(result, frames):
            body, data, old_entry = result
            expect = self.checker.expect
            expect(body["gfid"].startswith(site + ":") and not body["duplicate"],
                   f"Add at {site} answered {body}")
            expect(data.endswith(old_entry["pixels"]),
                   f"retrieved {old_entry['raw_patient_id']} lacks its pixels")
            needles = inputs.identity_needles(old_entry)
            expect(not [n for n in needles if n in data],
                   "a retrieved file carries a raw identity")
            found = leaked(frames, needles + inputs.identity_needles(entry))
            expect(not found, f"raw identities on the wire: {found}")
        return Op(run, check)

    def verify(self, vo, client) -> None:
        for site in SITES:
            stored = vo.nodes[site].store.site_stats().num_image_files
            self.checker.expect(stored == self.images[site],
                                f"{site} holds {stored} images, expected {self.images[site]}")


# --- data-local jobs ------------------------------------------------------------------------

# This year's screening round; each site's archive of earlier years stays
# out of the cohort but is scanned by every task, as it would be.
JOB_SELECTOR = ("SELECT images WHERE image.study_date >= 20030101",
                lambda e: int(e["study_date"]) >= 20030101)
# 150 lies inside the dense-tissue band (120..180), so dense tissue breaks
# into many components, as in dense breasts.
MICROCALC_THRESHOLD = 150
JOB_ALGORITHMS = (("density-v1", "density", {}),
                  ("microcalc-v1", "microcalc", {"threshold": MICROCALC_THRESHOLD}))


def _pixels(data: bytes, side: int) -> np.ndarray:
    """The pixel array of a corpus file, whose last side*side bytes are its pixels."""
    return np.frombuffer(data[-side * side:], dtype=np.uint8).reshape(side, side)


def by_load(entries: list, files: dict, side: int, count: int) -> list:
    """``count`` entries at evenly spaced quantiles of flood-fill load.

    An image's load is its pixels above the microcalc threshold, which the
    flood fill visits one by one; it varies several-fold between images.
    Taking a cohort across its range, instead of the first few images, keeps
    a cohort's work about the same from seed to seed.
    """
    def load(entry):
        return int((_pixels(files[entry["filename"]], side) > MICROCALC_THRESHOLD).sum())
    ranked = sorted(entries, key=lambda e: (load(e), e["filename"]))
    return [ranked[len(ranked) * (2 * i + 1) // (2 * count)] for i in range(count)]


class Jobs:
    """A density job and a microcalc job over one cohort spread over all sites.

    The cohort is ``count`` patients of one image each, at the corpus's own
    128x128, picked by ``by_load`` from ``candidates`` generated ones and
    dealt round-robin, so each site holds a third of it.
    """

    name = "jobs"
    # size -> (candidates, cohort, pixel side, archive patients)
    SIZES = {"full": (48, 6, 128, 375), "tiny": (6, 3, 128, 3)}

    def __init__(self, seed: int, size: str, checker):
        self.seed = seed
        self.checker = checker
        self.candidates, self.count, self.side, self.archive_patients = self.SIZES[size]
        self.reference: dict = {}  # gfid -> (density_pct, num_findings)

    def build(self, workdir) -> None:
        archive = inputs.query_manifest(self.seed, self.archive_patients, 4, SITES, 4,
                                        years=(1998, 2002))
        inputs.write_query_stores(workdir, self.seed, archive,
                                  inputs.phantoms(self.seed, 4, 32), 32)
        manifest, files = corpus.gen_corpus(self.seed, self.candidates, 1,
                                            self.side, self.side)
        manifest["files"] = by_load(manifest["files"], files, self.side, self.count)
        by_name = {e["filename"]: e for e in manifest["files"]}
        self.cohort = sum(1 for e in manifest["files"] if JOB_SELECTOR[1](e))
        self.entries = {}  # gfid -> (manifest entry, pixel array)
        vo, client, _ = boot(workdir, self.seed)
        try:
            for site, items in corpus_split(manifest, files, list(SITES)).items():
                for filename, data in items:
                    gfid = client.add(site, data)["gfid"]
                    self.entries[gfid] = (by_name[filename], _pixels(data, self.side))
            for algo_id, kind, params in JOB_ALGORITHMS:
                client.add_algorithm(algo_id, kind, params)
        finally:
            shut(vo)

    def _derived(self, vo) -> dict:
        return {f"{site}:{row['_local_id']}": (row.get("derived.density_pct"),
                                              row.get("derived.num_findings"))
                for site in SITES for row in vo.nodes[site].store.dump_rows("images")}

    def prepare(self, vo, client) -> None:
        """Run one op, then check every derived value against its own computation."""
        op = self.round()[0]
        op.check(op.run(client)[1], [])
        self.reference = self._derived(vo)
        for gfid, (entry, pixels) in self.entries.items():
            density, findings = self.reference.get(gfid, (None, None))
            planted = entry["planted_dense_fraction"]
            self.checker.expect(density is not None and abs(density - planted) <= 2.0,
                                f"{gfid}: density {density} vs planted {planted}")
            want = component_count(pixels, MICROCALC_THRESHOLD)
            self.checker.expect(findings == want, f"{gfid}: {findings} findings, want {want}")

    def round(self) -> list:
        def run(client):
            jobs = [client.run_job(HOME, algo_id, JOB_SELECTOR[0])
                    for algo_id, _kind, _params in JOB_ALGORITHMS]
            rows = sum(t["derived_written"] for job in jobs for t in job["tasks"])
            return rows, jobs

        def check(jobs, frames):
            for job in jobs:
                written = sum(t["derived_written"] for t in job["tasks"])
                selected = sum(t["images_selected"] for t in job["tasks"])
                self.checker.expect(
                    job["state"] == "COMPLETED" and written == selected == self.cohort,
                    f"job {job['algo_id']}: {job['state']}, {written}/{selected}"
                    f" of a {self.cohort}-image cohort")
        return [Op(run, check)]

    def verify(self, vo, client) -> None:
        self.checker.expect(self._derived(vo) == self.reference,
                            "derived values changed between runs of the same jobs")


WORKLOADS = {w.name: w for w in (QueryWide, QueryNarrow, IngestRetrieve, Jobs)}
