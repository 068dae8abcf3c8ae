"""Per-layer spans, recorded from outside the program.

``install(tracer)`` wraps the public functions of each mgvo layer (and the
``pred`` that ``SiteStore.scan`` receives) so that every call opens a span.
Spans stay in memory; ``Tracer.write`` dumps them as JSON lines when the run
ends. A span's self time is its duration minus the time its child spans
cover. Nothing in ``src/`` is edited: the wrappers replace module and class
attributes for the life of the process, and ``uninstall`` puts them back.

Every span is tagged with the phase it closed in: ``boot`` while a VO boots,
``op`` inside a timed operation, ``other`` for set-up and checks. Per-layer
metrics use the ``op`` totals divided by the number of operations; only
``store.replay_s`` is per VO boot, since replay happens only there.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from mgvo import algorithms, dicom, federation, mgql
from mgvo.harness.sim import SimNet
from mgvo.services import auth, wire
from mgvo.services.node import Node
from mgvo.services.registry import Registry
from mgvo.store import SiteStore

# (metric, unit, source). Sources: ("total"|"self"|"calls", span name) sum
# span durations, self times or span counts; ("count", key) sums a counter.
PER_LAYER = (
    ("dicom.parse_s", "s", ("total", "dicom.parse")),
    ("dicom.write_s", "s", ("total", "dicom.write")),
    ("store.put_blob_s", "s", ("total", "store.put_blob")),
    ("store.record_write_s", "s", ("total", "store.record_write")),
    ("store.log_bytes", "bytes", ("count", "store.log_bytes")),
    ("store.get_blob_s", "s", ("total", "store.get_blob")),
    ("store.blob_bytes_read", "bytes", ("count", "store.blob_bytes_read")),
    ("store.scan_s", "s", ("self", "store.scan")),
    ("store.rows_examined", "count", ("count", "store.rows_examined")),
    ("store.rows_matched", "count", ("count", "store.rows_matched")),
    ("store.replay_s", "s", ("total", "store.replay")),
    ("mgql.parse_s", "s", ("total", "mgql.parse")),
    ("mgql.predicate_s", "s", ("count", "mgql.predicate_s")),
    ("federation.execute_local_s", "s", ("total", "federation.execute_local")),
    ("federation.to_xml_s", "s", ("total", "federation.to_xml")),
    ("federation.to_xml_bytes", "bytes", ("count", "federation.to_xml_bytes")),
    ("federation.from_xml_s", "s", ("total", "federation.from_xml")),
    ("federation.from_xml_bytes", "bytes", ("count", "federation.from_xml_bytes")),
    ("federation.merge_s", "s", ("total", "federation.merge")),
    ("federation.merge_rows", "count", ("count", "federation.merge_rows")),
    ("algorithms.decode_pixels_s", "s", ("total", "algorithms.decode_pixels")),
    ("algorithms.density_s", "s", ("total", "algorithms.density")),
    ("algorithms.microcalc_s", "s", ("total", "algorithms.microcalc")),
    ("algorithms.pixels", "count", ("count", "algorithms.pixels")),
    ("algorithms.run_task_s", "s", ("self", "algorithms.run_task")),
    ("wire.encode_s", "s", ("total", "wire.encode")),
    ("wire.encode_bytes", "bytes", ("count", "wire.encode_bytes")),
    ("wire.b64_s", "s", ("total", "wire.b64")),
    ("auth.sessions_checked", "count", ("calls", "auth.session")),
    ("auth.session_s", "s", ("total", "auth.session")),
    ("node.requests", "count", ("calls", "node.handle")),
    ("node.handle_s", "s", ("self", "node.handle")),
    ("registry.requests", "count", ("calls", "registry.handle")),
    ("sim.call_s", "s", ("self", "sim.call")),
)


class Tracer:
    def __init__(self) -> None:
        self.phase = "other"
        self.op_index = -1  # the request id shared by the spans of one op
        self.spans: list = []  # (op, phase, id, parent, name, start_ns, end_ns, self_ns)
        self.totals: dict = defaultdict(float)  # (phase, kind, name) -> value
        self._stack: list = []  # [id, name, start_ns, child_ns]
        self._next_id = 1
        self.muted = 0  # > 0 inside simulator bookkeeping: no spans open there

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self) -> None:
        span_id, name, start, child = self._stack.pop()
        end = time.perf_counter_ns()
        duration = end - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        own = duration - child
        self.spans.append((self.op_index, self.phase, span_id, parent, name,
                           start, end, own))
        self.totals[(self.phase, "total", name)] += duration / 1e9
        self.totals[(self.phase, "self", name)] += own / 1e9
        self.totals[(self.phase, "calls", name)] += 1

    def add_child_time(self, seconds: float) -> None:
        """Charge un-spanned child work (the scan's predicate) to the open span."""
        if self._stack:
            self._stack[-1][3] += int(seconds * 1e9)

    def count(self, key: str, amount) -> None:
        self.totals[(self.phase, "count", key)] += amount

    def per_layer(self, ops: int, boots: int) -> dict:
        metrics = {}
        for name, unit, (kind, key) in PER_LAYER:
            if name == "store.replay_s":
                value = self.totals[("boot", kind, key)] / max(boots, 1)
            else:
                value = self.totals[("op", kind, key)] / max(ops, 1)
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["op", "phase", "id", "parent", "name",
                                             "start_ns", "end_ns", "self_ns"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


# --- installing the wrappers ------------------------------------------------------

def _spanned(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.muted:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            counter(args, result)
        return result
    return traced


def _traced_scan(tracer: Tracer, scan):
    """``SiteStore.scan`` with its ``pred`` timed and counted row by row."""
    @functools.wraps(scan)
    def traced(store, pred, target="images"):
        tally = [0, 0, 0.0]  # examined, matched, seconds in pred

        def timed_pred(row):
            started = time.perf_counter()
            matched = pred(row)
            tally[2] += time.perf_counter() - started
            tally[0] += 1
            tally[1] += bool(matched)
            return matched

        tracer.enter("store.scan")
        try:
            return scan(store, None if pred is None else timed_pred, target)
        finally:
            tracer.add_child_time(tally[2])
            tracer.exit()
            tracer.count("store.rows_examined", tally[0])
            tracer.count("store.rows_matched", tally[1])
            tracer.count("mgql.predicate_s", tally[2])
    return traced


def _muted(tracer: Tracer, fn):
    """``fn`` with no spans inside it, so its whole time is its caller's self time."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        tracer.muted += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.muted -= 1
    return quiet


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Point every mgvo module attribute bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("mgvo"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, replacement)


def _replace_method(cls, attr: str, replacement, undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap every layer; returns the undo list for ``uninstall``.

    Must run before a VO boots: ``SimVO`` binds ``handle_request`` methods
    into the simulated network when it starts.
    """
    undo: list = []

    def count(key, measure):
        return lambda args, result: tracer.count(key, measure(args, result))

    functions = (
        (dicom.parse_dicom, "dicom.parse", None),
        (dicom.write_dicom, "dicom.write", None),
        (mgql.parse_query, "mgql.parse", None),
        (federation.execute_local, "federation.execute_local", None),
        (federation.to_xml, "federation.to_xml",
         count("federation.to_xml_bytes", lambda a, r: len(r))),
        (federation.from_xml, "federation.from_xml",
         count("federation.from_xml_bytes", lambda a, r: len(a[0]))),
        (federation.merge, "federation.merge",
         count("federation.merge_rows", lambda a, r: len(r.rows))),
        (algorithms.decode_pixels, "algorithms.decode_pixels",
         count("algorithms.pixels", lambda a, r: int(r.size))),
        (algorithms.plugin_density, "algorithms.density", None),
        (algorithms.plugin_microcalc, "algorithms.microcalc", None),
        (algorithms.run_task, "algorithms.run_task", None),
        (wire.encode_payload, "wire.encode",
         count("wire.encode_bytes", lambda a, r: len(r))),
        (wire.to_b64, "wire.b64", None),
        (wire.from_b64, "wire.b64", None),
        (auth.require_session, "auth.session", None),
    )
    for fn, name, counter in functions:
        _replace_everywhere(fn, _spanned(tracer, name, fn, counter), undo)

    methods = (
        (SiteStore, "__init__", "store.replay", None),
        (SiteStore, "put_blob", "store.put_blob", None),
        (SiteStore, "get_blob", "store.get_blob",
         count("store.blob_bytes_read", lambda a, r: len(r))),
        (SiteStore, "upsert_patient", "store.record_write", None),
        (SiteStore, "insert_image", "store.record_write", None),
        (SiteStore, "insert_derived", "store.record_write", None),
        (SiteStore, "upsert_job", "store.record_write", None),
        (Node, "handle_request", "node.handle", None),
        (Registry, "handle_request", "registry.handle", None),
        (SimNet, "call", "sim.call", None),
    )
    for cls, attr, name, counter in methods:
        _replace_method(cls, attr, _spanned(tracer, name, cls.__dict__[attr], counter), undo)
    _replace_method(SiteStore, "scan", _traced_scan(tracer, SiteStore.__dict__["scan"]), undo)
    # The tap base64-codes every frame for the transcript; that is the
    # simulator's bookkeeping, so it counts in sim.call, not in wire.b64.
    _replace_method(SimNet, "_tap", _muted(tracer, SimNet.__dict__["_tap"]), undo)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
