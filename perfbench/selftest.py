"""Self-test of the benchmark harness.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks, on tiny inputs:

* every workload the command offers (``tpcc-inproc`` too, which
  BENCHMARK.json does not list), untraced and traced, exits 0 with
  ``correct`` true and emits exactly the end-to-end (resp. per-layer)
  metrics BENCHMARK.json names, each with the unit BENCHMARK.json gives it;
* the correctness gate trips on a deliberately corrupted replica answer:
  exit code 1, ``correct`` false, ``failed`` at least 1;
* in a directory holding only BENCHMARK.json and the benchmark, with no
  program to measure, the command fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180

sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  every workload the command offers


def _run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if completed.returncode:
        sys.stderr.write(completed.stderr[-3000:])
    return completed.returncode, completed.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    """The last output line as JSON, or an empty result when there is none."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = _run(
                ["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--size", "tiny"]
            )
            label = f"{workload} --trace {trace}"
            check(code == 0, f"{label}: exit code {code}")
            result = _result(lines)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, {result['failed']}/{result['attempted']} failed")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == expected[trace], f"{label}: every metric with its unit")

    code, lines = _run(
        ["--workload", "tpcc-inproc", "--seed", "7", "--seconds", "1",
         "--size", "tiny", "--corrupt-replica"]
    )
    result = _result(lines)
    check(code == 1 and not result["correct"] and result["failed"] >= 1,
          f"corrupted replica trips the gate (exit {code}, failed {result['failed']})")

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(["--workload", "tpcc-inproc", "--seed", "7", "--seconds", "1"],
                           cwd=bare)
        printed_result = bool(lines) and lines[-1].startswith("{")
        check(code != 0 and not printed_result,
              f"without the program: exit {code}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
