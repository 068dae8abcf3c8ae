"""Seeded inputs: corpora, archives and fresh DICOM files.

Everything here is a function of ``--seed`` (and the size preset), so one
seed always gives the same inputs. Each generator also returns the manifest
the checks compare against: raw identities, metadata, and the planted
density of every image's pixels.
"""

from __future__ import annotations

import random
import struct

from mgvo import dicom
from mgvo.harness import corpus
from mgvo.model import ImageRecord, PatientRecord, pseudonymize
from mgvo.store import SiteStore


def age_at(birth_date: str, study_date: str) -> int:
    """Completed years between two YYYYMMDD dates."""
    by, bm, bd = int(birth_date[:4]), int(birth_date[4:6]), int(birth_date[6:])
    sy, sm, sd = int(study_date[:4]), int(study_date[4:6]), int(study_date[6:])
    return sy - by - ((sm, sd) < (bm, bd))


def _date(rng: random.Random, first_year: int, last_year: int) -> str:
    return (f"{rng.randrange(first_year, last_year + 1):04d}"
            f"{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}")


def pixel_file(pixels: bytes, rows: int, cols: int) -> bytes:
    """A DICOM file that holds pixels and nothing that names a patient."""
    ts = dicom.TagSet()
    ts.put(dicom.ROWS, "US", struct.pack("<H", rows))
    ts.put(dicom.COLUMNS, "US", struct.pack("<H", cols))
    ts.put(dicom.BITS_ALLOCATED, "US", struct.pack("<H", 8))
    ts.put(dicom.PIXEL_DATA, "OB", pixels)
    return dicom.write_dicom(ts)


def phantoms(seed: int, count: int, side: int) -> list:
    """``count`` phantom images: [(pixel bytes, planted dense %)].

    The corpus generator writes pixel data last, 8 bits a pixel, so the
    pixels are the last side*side bytes of each file.
    """
    manifest, files = corpus.gen_corpus(seed, count, 1, side, side)
    return [(files[e["filename"]][-side * side:], e["planted_dense_fraction"])
            for e in manifest["files"]]


# --- query corpora: metadata written straight into the site stores -------------------

def query_manifest(seed: int, n_patients: int, per_patient: int, sites,
                   n_phantoms: int, years=(2003, 2005)) -> list:
    """One entry per image; patients are dealt round-robin to sites."""
    rng = random.Random(f"perfbench-query:{seed}")
    images = []
    for p in range(n_patients):
        patient = {
            "site": sites[p % len(sites)],
            "raw_id": f"MRN{rng.randrange(10**7):07d}-{p:05d}",
            "birth_date": _date(rng, 1930, 1968),
            "sex": "F" if rng.random() < 0.85 else ("M" if rng.random() < 0.8 else "O"),
            "height": round(rng.uniform(1.45, 1.85), 2) if rng.random() >= 0.2 else None,
            "weight": round(rng.uniform(45.0, 110.0), 1) if rng.random() >= 0.2 else None,
        }
        for _ in range(per_patient):
            study_date = _date(rng, *years)
            images.append(dict(
                patient,
                study_date=study_date,
                age=age_at(patient["birth_date"], study_date),
                laterality=rng.choice(("L", "R")),
                view=rng.choice(("CC", "MLO")),
                modality="MG",
                phantom=rng.randrange(n_phantoms),
                density=None,  # set for images a density job covers
            ))
    return images


def write_query_stores(workdir, seed: int, images: list, pool: list, side: int) -> None:
    """Load each site's store with its images through the store API.

    A node's ``Add`` would cost ~1 ms an image; twenty thousand of them
    would dominate set-up, and the query workloads never read pixels
    except through the density job, which needs only the phantom blobs.
    """
    for site in sorted({e["site"] for e in images}):
        store = SiteStore(workdir / site)
        try:
            blobs = [store.put_blob(pixel_file(pixels, side, side)) for pixels, _ in pool]
            secret = f"perfbench-{site}-{seed:08d}".encode("ascii")
            written = set()
            for e in images:
                if e["site"] != site:
                    continue
                pid = pseudonymize(e["raw_id"], secret)
                if pid not in written:
                    store.upsert_patient(PatientRecord(
                        pid=pid, sex=e["sex"], birth_year=int(e["birth_date"][:4]),
                        height_m=e["height"], weight_kg=e["weight"]))
                    written.add(pid)
                store.insert_image(ImageRecord(
                    local_id=0, pid=pid, modality=e["modality"],
                    laterality=e["laterality"], view=e["view"],
                    study_date=e["study_date"], age_at_study=e["age"],
                    rows=side, cols=side, blob=blobs[e["phantom"]]))
        finally:
            store.close()


# --- ingest: fresh files with fixed-width identities ---------------------------------

# One name length each, so that every fresh file, and every frame that
# carries it, has the same size: per-op byte counts then repeat exactly.
_FAMILY = tuple(n for n in corpus.FAMILY_NAMES if len(n) == 9)
_GIVEN = tuple(n for n in corpus.GIVEN_NAMES if len(n) == 9)


class FreshFiles:
    """An endless, seeded stream of never-seen DICOM files at one pixel size."""

    def __init__(self, seed: int, side: int, pool_size: int = 8):
        self.rng = random.Random(f"perfbench-ingest:{seed}")
        self.side = side
        self.pool = phantoms(seed, pool_size, side)
        self.index = 0

    def next(self, view: str) -> dict:
        rng = self.rng
        self.index += 1
        pixels, dense = self.pool[self.index % len(self.pool)]
        entry = {
            "raw_patient_id": f"MRN{rng.randrange(10**7):07d}-{self.index:06d}",
            "raw_patient_name": f"{rng.choice(_FAMILY)}^{rng.choice(_GIVEN)}",
            "birth_date": _date(rng, 1930, 1968),
            "sex": "F",
            "height": f"{rng.uniform(1.45, 1.85):.2f}",
            "weight": f"{rng.uniform(50.0, 99.0):.1f}",
            "study_date": _date(rng, 2003, 2005),
            "laterality": rng.choice(("L", "R")),
            "view": view,
            "pixels": pixels,
            "planted_dense_fraction": dense,
        }
        ts = dicom.TagSet()
        ts.put_text(dicom.PATIENT_NAME, "PN", entry["raw_patient_name"])
        ts.put_text(dicom.PATIENT_ID, "LO", entry["raw_patient_id"])
        ts.put_text(dicom.PATIENT_BIRTH_DATE, "DA", entry["birth_date"])
        ts.put_text(dicom.PATIENT_SEX, "CS", entry["sex"])
        ts.put_text(dicom.PATIENT_SIZE, "DS", entry["height"])
        ts.put_text(dicom.PATIENT_WEIGHT, "DS", entry["weight"])
        ts.put_text(dicom.STUDY_DATE, "DA", entry["study_date"])
        ts.put_text(dicom.MODALITY, "CS", "MG")
        ts.put_text(dicom.VIEW_POSITION, "CS", view)
        ts.put_text(dicom.IMAGE_LATERALITY, "CS", entry["laterality"])
        ts.put(dicom.ROWS, "US", struct.pack("<H", self.side))
        ts.put(dicom.COLUMNS, "US", struct.pack("<H", self.side))
        ts.put(dicom.BITS_ALLOCATED, "US", struct.pack("<H", 8))
        ts.put(dicom.PIXEL_DATA, "OB", pixels)
        entry["data"] = dicom.write_dicom(ts)
        return entry


def identity_needles(entry: dict) -> list:
    """Byte strings that must never leave the site a raw file was added at."""
    name = entry["raw_patient_name"]
    return [entry["raw_patient_id"].encode("ascii"), name.encode("ascii"),
            *(part.encode("ascii") for part in name.split("^"))]
