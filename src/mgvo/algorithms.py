"""Data-local algorithm execution.

Jobs fan one task out per site holding matching images; each task runs a
built-in plugin over the site's own pixel data and writes derived records
into that site's store. Only selector text and result counts ever travel —
pixels stay where they were acquired.

Plugins are deterministic stand-ins for the real image chain: ``normalize``
(affine intensity standardization), ``density`` (percentage of tissue above
an Otsu or fixed threshold), ``microcalc`` (8-connected bright-speck
detector). A ``density`` job writes ``smf`` records straight from the stored
pixels; a ``normalize`` job is the two-step workflow (standardize, then
measure density on the standardized image), also writing ``smf``;
``microcalc`` writes ``cade`` records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import federation, mgql
from .dicom import BITS_ALLOCATED, COLUMNS, PIXEL_DATA, ROWS, parse_dicom
from .errors import (
    BadParams,
    BadState,
    BadValue,
    EmptyImage,
    InvariantViolation,
    MgError,
    UnknownPluginKind,
)
from .model import DerivedRecord
from .mgql import Query

PLUGIN_KINDS = ("normalize", "density", "microcalc")

JOB_DISPATCHED = "DISPATCHED"
JOB_RUNNING = "RUNNING"
JOB_COMPLETED = "COMPLETED"
JOB_PARTIAL = "PARTIAL"
JOB_FAILED = "FAILED"

TASK_PENDING = "PENDING"
TASK_RUNNING = "RUNNING"
TASK_DONE = "DONE"
TASK_FAILED = "FAILED"


# --- descriptors ---------------------------------------------------------------

_ALGO_ID_RE = re.compile(r"^[a-z0-9_]+-v[0-9]+\Z")

_PARAM_RANGES = {
    "normalize": {"target_mean": (0, 65535), "target_std": (1e-9, 65535)},
    "density": {"threshold": (0, 65535)},
    "microcalc": {"threshold": (0, 65535), "min_area": (1, 1 << 20), "max_area": (1, 1 << 20)},
}


@dataclass(frozen=True)
class AlgorithmDescriptor:
    algo_id: str  # "name-vN"
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def version(self) -> int:
        return int(self.algo_id.rsplit("-v", 1)[1])

    def to_dict(self) -> dict:
        return {"algo_id": self.algo_id, "kind": self.kind,
                "params": dict(self.params), "version": self.version}

    @classmethod
    def from_dict(cls, data: dict) -> "AlgorithmDescriptor":
        """Checks only the shape: callers that take it from outside run validate_descriptor."""
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            raise BadParams("a descriptor and its params are objects")
        return cls(algo_id=str(data.get("algo_id", "")), kind=str(data.get("kind", "")),
                   params=dict(data.get("params", {})))


def validate_descriptor(algo: AlgorithmDescriptor) -> None:
    if algo.kind not in PLUGIN_KINDS:
        raise UnknownPluginKind(f"no plugin kind {algo.kind!r}")
    if not _ALGO_ID_RE.match(algo.algo_id):
        raise BadParams(f"algo_id must look like name-vN, got {algo.algo_id!r}")
    ranges = _PARAM_RANGES[algo.kind]
    for name, value in algo.params.items():
        if name not in ranges:
            raise BadParams(f"plugin {algo.kind} takes no param {name!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BadParams(f"param {name} must be numeric")
        lo, hi = ranges[name]
        if not lo <= value <= hi:
            raise BadParams(f"param {name}={value} outside [{lo},{hi}]")
    if algo.kind == "microcalc":
        if "threshold" not in algo.params:
            raise BadParams("microcalc requires a threshold")
        lo = algo.params.get("min_area", 1)
        hi = algo.params.get("max_area", 64)
        if lo > hi:
            raise BadParams(f"min_area {lo} exceeds max_area {hi}")


# --- pixel access -------------------------------------------------------------------

def decode_pixels(file_bytes: bytes) -> np.ndarray:
    """Row-major little-endian pixel matrix from a stored file."""
    ts = parse_dicom(file_bytes)
    rows = int.from_bytes(ts.get(ROWS)[1], "little")
    cols = int.from_bytes(ts.get(COLUMNS)[1], "little")
    bits = int.from_bytes(ts.get(BITS_ALLOCATED)[1], "little")
    dtype = np.uint8 if bits == 8 else np.dtype("<u2")
    raw = ts.get(PIXEL_DATA)[1]
    need = rows * cols * dtype.itemsize if bits == 16 else rows * cols
    if len(raw) < need:
        raise BadValue(f"pixel data holds {len(raw)} bytes, need {need}")
    return np.frombuffer(raw[:need], dtype=dtype).reshape(rows, cols)


# --- plugins -------------------------------------------------------------------------

def _otsu_threshold(pixels: np.ndarray) -> Optional[int]:
    """Between-class-variance maximizer; lowest level on ties, None if flat."""
    levels = 256 if pixels.dtype == np.uint8 else 65536
    counts = np.bincount(pixels.ravel(), minlength=levels).astype(np.float64)
    total = counts.sum()
    values = np.arange(levels, dtype=np.float64)
    weight0 = np.cumsum(counts)
    mass0 = np.cumsum(counts * values)
    weight1 = total - weight0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean0 = mass0 / weight0
        mean1 = (mass0[-1] - mass0) / weight1
        variance = weight0 * weight1 * (mean0 - mean1) ** 2
    variance = np.nan_to_num(variance[:-1], nan=0.0)
    best = int(np.argmax(variance))
    if variance[best] <= 0.0:
        return None
    return best


def plugin_density(pixels: np.ndarray, params: dict) -> float:
    """Percent of pixels strictly above the threshold, to two decimals."""
    if pixels.size == 0:
        raise EmptyImage("no pixels")
    threshold = params.get("threshold")
    if threshold is None:
        threshold = _otsu_threshold(pixels)
        if threshold is None:  # constant image: nothing to separate
            return 0.0
    fraction = float(np.count_nonzero(pixels > threshold)) / pixels.size
    return round(100.0 * fraction, 2)


def plugin_normalize(pixels: np.ndarray, params: dict) -> np.ndarray:
    """Affine map to the target mean/std, rounded and clamped to the dtype."""
    if pixels.size == 0:
        raise EmptyImage("no pixels")
    target_mean = float(params.get("target_mean", 128))
    target_std = float(params.get("target_std", 32))
    top = 255 if pixels.dtype == np.uint8 else 65535
    std = float(pixels.std())
    if std == 0.0:
        return np.full_like(pixels, int(round(target_mean)))
    scaled = (pixels.astype(np.float64) - pixels.mean()) / std * target_std + target_mean
    return np.clip(np.rint(scaled), 0, top).astype(pixels.dtype)


def _component_arrays(mask: np.ndarray) -> tuple:
    """8-connected components of a boolean mask as arrays area, x0, y0, x1, y1.

    Boxes are half-open, and components come in the row-major order of
    their first pixel. This is two-pass labelling over horizontal runs
    (Wu, Otoo & Suzuki, PAA 2009): runs in adjacent rows whose column spans
    overlap or meet diagonally are joined. Each round, every root hooks onto
    its smallest neighbouring root and pointer jumping flattens the trees,
    so a long component costs a few rounds of log-depth jumps, not one step
    per run as label propagation would. Hooks only point to smaller runs, so
    a component's root is its first run in row-major order.
    """
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    rows, starts = np.nonzero(step == 1)  # runs, in row-major order
    ends = np.nonzero(step == -1)[1]  # exclusive
    if rows.size == 0:
        return (np.zeros(0, dtype=np.int64),) * 5

    # Keyed by row * stride + column, run starts and run ends each sort
    # across rows. A run touches the runs of the row above whose end is at
    # least its start and whose start is at most its end: a contiguous range.
    stride = width + 2
    above = (rows - 1) * stride
    first = np.searchsorted(rows * stride + ends, above + starts, side="left")
    stop = np.searchsorted(rows * stride + starts, above + ends, side="right")
    touching = np.maximum(stop - first, 0)
    # one edge from each run to each of first, first + 1, ..., stop - 1
    lower = np.repeat(np.arange(rows.size), touching)
    upper = np.arange(lower.size) + np.repeat(first - np.cumsum(touching) + touching,
                                              touching)

    parent = np.arange(rows.size)
    while True:
        while True:  # until every run points straight at its root
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        a, b = parent[upper], parent[lower]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))

    roots, label = np.unique(parent, return_inverse=True)
    area = np.bincount(label, weights=ends - starts).astype(np.int64)
    x0, y0, x1 = starts[roots], rows[roots], ends[roots]
    np.minimum.at(x0, label, starts)
    np.maximum.at(x1, label, ends)
    y1 = y0.copy()
    np.maximum.at(y1, label, rows)
    return area, x0, y0, x1, y1 + 1


def plugin_microcalc(pixels: np.ndarray, params: dict):
    """Count bright specks: components of {p > threshold} with area in range."""
    if pixels.size == 0:
        raise EmptyImage("no pixels")
    threshold = params["threshold"]
    min_area = params.get("min_area", 1)
    max_area = params.get("max_area", 64)
    if min_area > max_area:
        raise BadParams(f"min_area {min_area} exceeds max_area {max_area}")
    area, *box = _component_arrays(pixels > threshold)
    keep = (area >= min_area) & (area <= max_area)
    x0, y0, x1, y1 = (a[keep] for a in box)
    order = np.lexsort((x0, y0))  # stable, like sorting boxes by (y0, x0)
    boxes = list(zip(*(a[order].tolist() for a in (x0, y0, x1, y1))))
    return len(boxes), boxes


# --- job ids ---------------------------------------------------------------------------

_B32 = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"  # Crockford base32


def new_job_id(now_ms: int, rng) -> str:
    """Sortable 26-char id: 48-bit millisecond timestamp + 80 random bits."""
    value = ((now_ms & ((1 << 48) - 1)) << 80) | rng.getrandbits(80)
    return "".join(_B32[(value >> shift) & 31] for shift in range(125, -1, -5))


# --- job records ----------------------------------------------------------------------

@dataclass
class TaskRecord:
    site_id: str
    selector: str  # canonical residual selector for that site
    state: str = TASK_PENDING
    images_selected: int = 0
    derived_written: int = 0
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id, "selector": self.selector, "state": self.state,
            "images_selected": self.images_selected,
            "derived_written": self.derived_written, "error": self.error,
        }


@dataclass
class JobRecord:
    job_id: str
    algo_id: str
    selector: str
    origin_site: str
    state: str
    created_at_ms: int
    finished_at_ms: Optional[int] = None
    error: Optional[str] = None
    tasks: list = field(default_factory=list)

    def task_for(self, site_id: str) -> Optional[TaskRecord]:
        for task in self.tasks:
            if task.site_id == site_id:
                return task
        return None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id, "algo_id": self.algo_id, "selector": self.selector,
            "origin_site": self.origin_site, "state": self.state,
            "created_at_ms": self.created_at_ms, "finished_at_ms": self.finished_at_ms,
            "error": self.error, "tasks": [t.to_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        tasks = [TaskRecord(**t) for t in data.get("tasks", [])]
        fields = {k: v for k, v in data.items() if k != "tasks"}
        return cls(tasks=tasks, **fields)


def schedule_job(algo: AlgorithmDescriptor, selector: Query, origin_site: str,
                 topology, job_id: str, now_ms: int) -> JobRecord:
    """One PENDING task per site the selector routes to; DISPATCHED on success.

    An unroutable selector (no sites at all) fails the job immediately with
    error "no sites" — there is nothing to dispatch.
    """
    decomposed = federation.analyze(selector, origin_site, topology)
    parts = []
    if decomposed.local is not None:
        parts.append((origin_site, decomposed.local))
    parts.extend(decomposed.remote)

    job = JobRecord(job_id=job_id, algo_id=algo.algo_id,
                    selector=mgql.print_query(selector), origin_site=origin_site,
                    state=JOB_DISPATCHED, created_at_ms=now_ms)
    if not parts:
        job.state = JOB_FAILED
        job.error = "no sites"
        job.finished_at_ms = now_ms
        return job
    job.tasks = [TaskRecord(site_id=site, selector=mgql.print_query(part))
                 for site, part in parts]
    return job


def check_task_outcome(state, images_selected, derived_written, error) -> None:
    """Raise unless the values are a terminal task outcome that adds up."""
    if state not in (TASK_DONE, TASK_FAILED):
        raise BadState(f"a task outcome must be DONE or FAILED, got {state}")
    for count in (images_selected, derived_written):
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvariantViolation(f"a task count must be an integer >= 0, got {count!r}")
    if error is not None and not isinstance(error, str):
        raise InvariantViolation("a task error must be text")
    if derived_written > images_selected:
        raise InvariantViolation(
            f"derived_written {derived_written} > images_selected {images_selected}")
    if state == TASK_DONE and derived_written != images_selected:
        raise InvariantViolation("a DONE task must cover every selected image")


def advance_job(job: JobRecord, site_id: str, state: str, images_selected: int,
                derived_written: int, error: Optional[str], now_ms: int) -> None:
    """Apply one task outcome; finalizes the job when every task is terminal."""
    if job.state not in (JOB_DISPATCHED, JOB_RUNNING):
        raise BadState(f"job {job.job_id} is {job.state}")
    task = job.task_for(site_id)
    if task is None:
        raise BadState(f"job {job.job_id} has no task at {site_id}")
    if task.state in (TASK_DONE, TASK_FAILED):
        raise BadState(f"task at {site_id} already {task.state}")
    check_task_outcome(state, images_selected, derived_written, error)

    task.state = state
    task.images_selected = images_selected
    task.derived_written = derived_written
    task.error = error
    job.state = JOB_RUNNING

    states = {t.state for t in job.tasks}
    if states <= {TASK_DONE, TASK_FAILED}:
        if states == {TASK_DONE}:
            job.state = JOB_COMPLETED
        elif states == {TASK_FAILED}:
            job.state = JOB_FAILED
        else:
            job.state = JOB_PARTIAL
        job.finished_at_ms = now_ms


def run_task(store, site_id: str, algo: AlgorithmDescriptor, selector: Query,
             job_id: str = "") -> dict:
    """Execute one site's task against its own store.

    All-or-nothing at the task level: the first failing image fails the task
    (its error text is kept); records already written stay — the log does not
    roll back.
    """
    rows = federation.select(store, site_id, selector)
    written = 0
    for row in rows:
        try:
            pixels = decode_pixels(store.get_blob(row["_blob"]))
            kind, fields = _derive(algo, pixels)
            store.insert_derived(DerivedRecord(
                local_id=0, image_local_id=row["_local_id"], kind=kind,
                fields=fields, algo_id=algo.algo_id, job_id=job_id))
            written += 1
        except MgError as exc:
            return {"state": TASK_FAILED, "images_selected": len(rows),
                    "derived_written": written,
                    "error": f"image {site_id}:{row['_local_id']}: {exc}"}
    return {"state": TASK_DONE, "images_selected": len(rows),
            "derived_written": written, "error": None}


def _derive(algo: AlgorithmDescriptor, pixels: np.ndarray):
    if algo.kind == "density":
        return "smf", {"density_pct": plugin_density(pixels, algo.params)}
    if algo.kind == "normalize":
        standardized = plugin_normalize(pixels, algo.params)
        return "smf", {"density_pct": plugin_density(standardized, {})}
    count, _boxes = plugin_microcalc(pixels, algo.params)
    return "cade", {"num_findings": count}
