"""The repository benchmark: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload tpcc-inproc --seed 1 --seconds 30 --trace 0

Workloads (README.md says what each metric means on each):

* ``tpcc-inproc`` -- the fig10 TPC-C mix through ``repro.connect``, one
  closed-loop client.
* ``tpcc-wire`` -- the same mix over the shipped server in its own process:
  a closed loop on one connection, then an open loop at a fixed rate over
  ``nproc`` connections.
* ``ingest-scan`` -- ``executemany`` ingest, first-use queries and full
  scans on fresh tables with the durable catalog attached.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is the separate traced run: it alternates untraced and traced
blocks and reports the per-layer metrics.  Every answer is checked against
a plaintext replica; a mismatch or failure makes ``correct`` false and the
exit code 1.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SIZES, BenchmarkError, Gate, bootstrap  # noqa: E402
from metrics import END_TO_END, PER_LAYER, result_line  # noqa: E402

WORKLOADS = ("tpcc-inproc", "tpcc-wire", "ingest-scan")


def _runner(workload: str):
    if workload == "tpcc-inproc":
        from tpcc import run_inproc

        return run_inproc
    if workload == "tpcc-wire":
        from tpcc import run_wire

        return run_wire
    from ingest import run_ingest

    return run_ingest


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full", help="tiny: the self-test's size"
    )
    parser.add_argument(
        "--corrupt-replica",
        action="store_true",
        help="alter one replica answer (the self-test proves the gate trips)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from host import describe

    host = describe()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    gate = Gate(corrupt=args.corrupt_replica)
    started = time.perf_counter()
    values = _runner(args.workload)(
        args.seed, args.seconds, bool(args.trace), SIZES[args.size], gate
    )
    units = PER_LAYER if args.trace else END_TO_END
    error_rate = gate.failed / max(gate.attempted, 1)
    report = {k: v for k, v in values.items() if k not in units}
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        error_rate=error_rate,
        wall_s=round(time.perf_counter() - started, 3),
        host=host,
    )
    print("detail " + json.dumps(report, sort_keys=True, default=str), flush=True)
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:14.4f} {unit}")
    print(f"  {'error_rate':34s} {error_rate:14.6f} ratio ({gate.failed}/{gate.attempted})")
    for mismatch in gate.mismatches[:20]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    result = result_line(gate.correct, gate.attempted, gate.failed, values, units)
    print(json.dumps(result), flush=True)
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
