"""One run of one workload: build, boot, warm up, measure, check.

One process, one closed-loop client, no threads. The clock runs only
inside an operation; building inputs, emptying the tap after each op,
and checking answers happen between operations and are not timed.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from mgvo.errors import MgError

from .checks import Checker
from .simclient import SITES, boot, frame_size, shut, take_frames
from .tracing import Tracer, install, uninstall
from .workloads import WORKLOADS

MIN_OPS = 100  # so that at least ten samples lie above op_p90_ms
BOOTS = 11  # setup_s is the median of this many boots

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "wire_bytes_per_op": "bytes",
    "frames_per_op": "count",
    "sim_wait_ms_per_op": "virtual_ms",
    "peak_rss_mb": "MB",
}


class Window:
    """What the client saw over the operations of one timed window."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.failed = 0
        self.rows = 0
        self.frames = 0
        self.wire_bytes = 0
        self.sim_wait_ms = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def machine_loop_s() -> float:
    """A fixed pure-Python loop, timed; shows drift of the machine, not of mgvo."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - started


def _log_bytes(vo) -> int:
    return sum(os.path.getsize(vo.workdir / site / "meta.log") for site in SITES)


def build_apart(workload, checker: Checker, workdir: Path) -> None:
    """Run ``workload.build`` in a forked child and take back its state.

    Building writes whole stores from large manifests; done in this process,
    its peak would be what ``peak_rss_mb`` reports. The child hands back the
    workload's attributes and its checks through a pipe, then exits.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            workload.build(workdir)
            state = {key: value for key, value in vars(workload).items()
                     if key != "checker"}
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump((state, checker.failures, checker.checked), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"building {workload.name} failed in the child process")
    state, failures, checked = pickle.loads(data)
    vars(workload).update(state)
    checker.failures.extend(failures)
    checker.checked += checked


def run_ops(vo, client, workload, seconds: float, min_ops: int, tracer=None) -> Window:
    """Whole rounds of operations until ``seconds`` have passed and ``min_ops`` ran."""
    window = Window()
    started = time.perf_counter()
    while True:
        for op in workload.round():
            log_before = _log_bytes(vo) if tracer else 0
            clock_before = vo.clock.now_ms()
            if tracer:
                tracer.phase, tracer.op_index = "op", window.attempted
            t0 = time.perf_counter()
            try:
                rows, result = op.run(client)
            except MgError as exc:
                rows, result = 0, None
                window.failed += 1
                print(f"op failed: {exc.code}: {exc}", file=sys.stderr)
            window.latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.count("store.log_bytes", _log_bytes(vo) - log_before)
                tracer.phase = "other"
            frames = take_frames(vo)
            window.rows += rows
            window.frames += len(frames)
            window.wire_bytes += sum(frame_size(frame) for frame in frames)
            window.sim_wait_ms += vo.clock.now_ms() - clock_before
            if result is not None:
                op.check(result, frames)
        if time.perf_counter() - started >= seconds and window.attempted >= min_ops:
            return window


def end_to_end(window: Window, boots: list, peak_rss_mb: float) -> dict:
    lat = window.latencies
    busy = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    values = {
        "setup_s": statistics.median(boots),
        "ops_per_s": window.attempted / busy,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * p90,
        "rows_per_s": window.rows / busy,
        "wire_bytes_per_op": window.wire_bytes / window.attempted,
        "frames_per_op": window.frames / window.attempted,
        "sim_wait_ms_per_op": window.sim_wait_ms / window.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            workroot: Path, size: str = "full", trace_out=None):
    """Run one workload: (the result object the command prints, run notes)."""
    checker = Checker()
    tracer = Tracer() if trace else None
    undo = install(tracer) if tracer else []
    workdir = Path(workroot) / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    min_ops = MIN_OPS if size == "full" else 1
    try:
        workload = WORKLOADS[workload_name](seed, size, checker)
        build_apart(workload, checker, workdir)

        # Set-up time: boot the VO over its data (replaying every log) and
        # log in, BOOTS times; setup_s is the median, and the last VO booted
        # serves the window. A VO is a reference cycle (nodes <-> network),
        # so each old one is collected before the next boots, or how many
        # coexist would set peak RSS.
        boots = []
        vo = None
        for _ in range(BOOTS):
            if vo is not None:
                shut(vo)
            vo = client = None
            gc.collect()
            if tracer:
                tracer.phase = "boot"
            vo, client, elapsed = boot(workdir, seed)
            if tracer:
                tracer.phase = "other"
            boots.append(elapsed)

        workload.prepare(vo, client)
        take_frames(vo)
        run_ops(vo, client, workload, 0, 1)  # one untimed warm-up round
        window = run_ops(vo, client, workload, seconds, min_ops, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.verify(vo, client)
        shut(vo)
    finally:
        uninstall(undo)
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = tracer.per_layer(window.attempted, len(boots))
        if trace_out is not None:
            tracer.write(trace_out)
    else:
        metrics = end_to_end(window, boots, peak_rss_mb)
    result = {"correct": checker.correct, "attempted": window.attempted,
              "failed": window.failed, "metrics": metrics}
    notes = {"checks": checker.checked, "check_failures": len(checker.failures),
             "boots": len(boots), "ops_per_busy_s": window.attempted / sum(window.latencies)}
    return result, notes
