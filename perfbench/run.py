"""Benchmark command for the mgvo federation.

    python3 perfbench/run.py --workload query_wide --seed 1 --seconds 25 --trace 0

Runs one workload against a simulated 3-site VO built from ``src/`` of the
checkout this file sits in. Prints every metric by name and unit, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Exits 1 when a check failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist it is what loads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import mgvo
    except ImportError as exc:
        print(f"error: cannot import mgvo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(mgvo.__file__).resolve().parent != (ROOT / "src" / "mgvo").resolve():
        print(f"error: mgvo loaded from {mgvo.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    _import_program()
    from perfbench.measure import machine_loop_s, measure
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loop_before = machine_loop_s()
    trace_out = None
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            ROOT / "perfbench" / ".work", trace_out=trace_out)

    loop_after = machine_loop_s()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"{notes['checks']} checks, {notes['check_failures']} failed, "
          f"{notes['boots']} boots")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    # The fixed loop is printed beside the metrics, not as one: it shows
    # whether the machine, rather than the program, got slower.
    print(f"  machine_loop_s {loop_before:.4f} before, {loop_after:.4f} after;"
          f" ops per busy second {notes['ops_per_busy_s']:.4g}; trace file {trace_out}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
