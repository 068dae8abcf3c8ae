"""Smoke test of the benchmark: every workload once at tiny size, checks on.

Run from the repository root:

    python -m pytest -q perfbench/test_smoke.py

Three of the tests break the program on purpose (a changed result row,
a wrong derived value, a file that keeps its patient's name) and require
the run to come back incorrect, so the checks are known to have teeth.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mgvo import algorithms, dicom, federation  # noqa: E402

from perfbench.measure import END_TO_END_UNITS, measure  # noqa: E402
from perfbench.tracing import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)


def _tiny(name, tmp_path, trace=False):
    return measure(name, 3, 0, trace, tmp_path, size="tiny")[0]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_clean(name, tmp_path):
    result = _tiny(name, tmp_path)
    assert result["correct"], name
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(name, tmp_path):
    result = _tiny(name, tmp_path, trace=True)
    assert result["correct"], name
    assert set(result["metrics"]) == {metric for metric, _unit, _source in PER_LAYER}
    assert result["metrics"]["node.requests"]["value"] > 0


def test_counts_repeat_on_the_same_seed(tmp_path):
    first = _tiny("ingest_retrieve", tmp_path / "a")["metrics"]
    second = _tiny("ingest_retrieve", tmp_path / "b")["metrics"]
    for name in ("wire_bytes_per_op", "frames_per_op", "sim_wait_ms_per_op"):
        assert first[name] == second[name], name


def test_a_changed_row_fails_the_query_check(monkeypatch, tmp_path):
    real = federation.to_xml

    def to_xml(rs):
        if rs.rows:
            row = rs.rows[0]
            changed = dataclasses.replace(row, values=("0" * 16,) + row.values[1:])
            rs = dataclasses.replace(rs, rows=(changed,) + rs.rows[1:])
        return real(rs)

    monkeypatch.setattr(federation, "to_xml", to_xml)
    assert not _tiny("query_wide", tmp_path)["correct"]


def test_a_wrong_finding_count_fails_the_job_check(monkeypatch, tmp_path):
    real = algorithms.plugin_microcalc

    def plugin_microcalc(pixels, params):
        count, boxes = real(pixels, params)
        return count + 1, boxes

    monkeypatch.setattr(algorithms, "plugin_microcalc", plugin_microcalc)
    assert not _tiny("jobs", tmp_path)["correct"]


def test_a_kept_patient_name_fails_the_leak_check(monkeypatch, tmp_path):
    real = dicom.TagSet.remove

    def remove(ts, tag):
        if tag != dicom.PATIENT_NAME:
            real(ts, tag)

    monkeypatch.setattr(dicom.TagSet, "remove", remove)
    assert not _tiny("ingest_retrieve", tmp_path)["correct"]


def test_bfs_labelling_agrees_with_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    import numpy as np

    from perfbench import checks
    from perfbench.inputs import phantoms
    from perfbench.workloads import MICROCALC_THRESHOLD

    for pixels, _dense in phantoms(5, 4, 128):
        mask = np.frombuffer(pixels, dtype=np.uint8).reshape(128, 128) > MICROCALC_THRESHOLD
        labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        want = sorted(np.bincount(labels.ravel())[1:count + 1].tolist())
        assert sorted(checks._sizes_bfs(mask)) == want
