"""Shared pieces of the benchmark: the checkout, statistics, the gate.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` there, never from an installed copy.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Workload size presets.  ``full`` is what BENCHMARK.json's runs use;
#: ``tiny`` is the self-test's: every phase runs, on little data.
SIZES = {
    "full": {
        "setups": 3,
        "warmup": 1500,
        "ingest_warmup_cycles": 16,
    },
    "tiny": {
        "setups": 2,
        "warmup": 100,
        "ingest_warmup_cycles": 1,
    },
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, broken checkout)."""


def bootstrap() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no program source at {SRC}/repro")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )


def now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``, interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def hd_percentile(values: Sequence[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of percentile ``q`` (0-100) of ``values``.

    A weighted mean of every order statistic, the weights being the
    Beta(q(n+1), (1-q)(n+1)) mass over each rank's share of (0, 1).  A
    block of the TPC-C mix holds query types whose latencies form separate
    clusters, and its 25th-26th fastest statements sit where one cluster
    ends and the next begins; a single order statistic there jumps between
    clusters, while this estimate moves smoothly with both.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    if n == 1:
        return ordered[0]
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for rank in range(n):
        mass = 0.0
        for step in range(steps):  # midpoint rule over [rank/n, (rank+1)/n]
            x = (rank + (step + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: Percentile, counted from the fast end, at which :func:`steady` reads a
#: run's repeated samples.
FAST_END = 10


def steady(values: Sequence[float], better: str) -> float:
    """A run's figure from repeated samples of the same work.

    The samples are spread over the whole measured window (rounds of equal
    composition).  On a shared host, interference only ever slows the work
    down, in episodes that can last tens of seconds -- longer than a run's
    window -- so a median moves with whatever share of the window an episode
    covered.  The 10th percentile from the fast end (the low end of times,
    the high end of rates) estimates the undisturbed cost and moves by the
    same ratio as every sample when the program gets faster or slower.
    """
    if better == "lower":
        return percentile(values, FAST_END)
    if better == "higher":
        return percentile(values, 100 - FAST_END)
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")


class Window:
    """The measured window: ``seconds`` of measuring, with chores between.

    Work the run has to do anyway but does not measure -- the set-ups after
    the first -- runs between measured rounds at evenly spaced points of the
    window, and its time is not counted.  The samples then span more of the
    run than ``seconds`` alone, so a slow episode of a shared host is less
    likely to cover all of them.
    """

    def __init__(self, seconds: float, chores: Sequence[Callable[[], None]]) -> None:
        self.seconds = seconds
        self.deadline = now() + seconds
        self._chores = list(chores)
        self._done = 0

    def is_open(self) -> bool:
        return now() < self.deadline

    def between_rounds(self) -> None:
        """Run the chores whose turn has come; their time is not measured."""
        total = len(self._chores)
        while self._done < total:
            measured = self.seconds - (self.deadline - now())
            if measured < self.seconds * (self._done + 1) / (total + 1):
                return
            self._run_next()

    def finish(self) -> None:
        """Run the chores that the end of the window came before."""
        while self._done < len(self._chores):
            self._run_next()

    def _run_next(self) -> None:
        began = now()
        self._chores[self._done]()
        self._done += 1
        self.deadline += now() - began


def fresh_keypair(key):
    """A copy of ``key`` with an empty randomness pool and zeroed counters.

    Key generation stays outside the timed set-up; each set-up still starts
    from the state a freshly generated key would have.
    """
    from repro.crypto.paillier import PaillierKeyPair

    return PaillierKeyPair(key.public, key.private)


def multiset(rows: Sequence[Sequence[Any]]) -> list[str]:
    """Order-free, type-aware form of a result set for comparison."""
    return sorted(repr(tuple(row)) for row in rows)


_MANY = object()  # marks an executemany batch in the gate's replay log


@dataclass
class Gate:
    """The correctness gate: every answer against a plaintext replica.

    Each statement the benchmark sends is recorded with its answer (SELECT
    rows, or ``None`` when it failed).  :meth:`check` replays the same
    statements, in order, on an unencrypted ``repro.connect`` replica and
    compares the decrypted SELECT results as sorted multisets.  A statement
    that failed on the encrypted side, or whose answer differs, counts as
    failed.  ``corrupt`` deliberately alters one replica answer; the
    self-test uses it to prove that the gate trips.
    """

    corrupt: bool = False
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    _pending: list[tuple[str, tuple, Optional[list]]] = field(default_factory=list)

    def record(self, sql: str, params: Sequence[Any], answer: Optional[list]) -> None:
        """Note one statement and its encrypted answer (rows or ``None``)."""
        self.attempted += 1
        self._pending.append((sql, tuple(params), answer))

    def replay_only(self, sql: str, params: Sequence[Any] = ()) -> None:
        """Note a set-up statement whose answer is not compared."""
        self._pending.append((sql, tuple(params), None))

    def record_many(self, sql: str, rows: Sequence[Sequence[Any]], ok: bool = True) -> None:
        """Note one ``executemany`` batch (a write; replayed, not compared)."""
        self.attempted += 1
        self._pending.append((sql, [tuple(row) for row in rows], _MANY))
        if not ok:
            self.failed += 1

    def absorb(self, other: "Gate") -> None:
        """Count the checked statements of another gate (a discarded
        set-up's) into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches

    def record_error(self, sql: str, params: Sequence[Any], exc: BaseException) -> None:
        self.record(sql, params, None)
        self.failed += 1
        self.mismatches.append(f"{sql!r} {tuple(params)!r}: {type(exc).__name__}: {exc}")

    def check(self, replica) -> None:
        """Replay recorded statements on ``replica`` and compare answers."""
        pending, self._pending = self._pending, []
        cursor = replica.cursor()
        for sql, params, answer in pending:
            try:
                if answer is _MANY:
                    cursor.executemany(sql, params)
                    continue
                cursor.execute(sql, params or None)
                expected = cursor.fetchall() if cursor.description else None
            except Exception as exc:  # the replica must answer everything
                self.failed += 1
                self.mismatches.append(f"replica failed {sql!r}: {exc}")
                continue
            if expected is None or answer is None:
                continue  # writes, or an encrypted failure already counted
            if self.corrupt:
                self.corrupt = False
                expected = list(expected) + [("corrupted",)]
            if multiset(answer) != multiset(expected):
                self.failed += 1
                self.mismatches.append(
                    f"{sql!r} {params!r}: got {len(answer)} rows, "
                    f"replica {len(expected)} rows"
                )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self._pending


def run_statement(cursor, gate: Gate, sql: str, params: Sequence[Any]) -> Optional[list]:
    """Execute one statement, record it with the gate, return its rows."""
    try:
        cursor.execute(sql, params or None)
        rows = cursor.fetchall() if cursor.description else None
    except Exception as exc:  # counted as failed, never hidden
        gate.record_error(sql, params, exc)
        return None
    gate.record(sql, params, rows if rows is not None else None)
    return rows


def proxy_counters(proxy) -> dict:
    """Cumulative proxy and cache counters; deltas come by subtraction.

    The benchmark never resets the counters of the process it measures.
    """
    stats = proxy.stats
    cache = stats.cache_stats()
    return {
        "det_hits": cache.det_hits_total,
        "det_misses": cache.det_misses_total,
        "ope_hits": cache.ope_hits,
        "ope_misses": cache.ope_misses,
        "hom_pool_hits": cache.hom_pool_hits,
        "hom_pool_misses": cache.hom_pool_misses,
        "parallel_jobs": cache.parallel_jobs,
        "plan_hits": stats.plan_cache_hits,
        "plan_misses": stats.plan_cache_misses,
        "onion_adjustments": stats.onion_adjustments,
        "cache_bytes": cache.estimated_bytes,
    }


def counter_delta(after: dict, before: dict) -> dict:
    """``after - before`` for cumulative counters (``cache_bytes`` is a level)."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    delta["cache_bytes"] = after["cache_bytes"]
    return delta


def add_counters(total: Optional[dict], delta: dict) -> dict:
    """Sum counter deltas of several traced blocks (the level is the latest)."""
    if total is None:
        return dict(delta)
    summed = {key: total[key] + value for key, value in delta.items()}
    summed["cache_bytes"] = delta["cache_bytes"]
    return summed
