"""ingest-scan: the write path beside TPC-C's reads.

Each cycle creates a fresh table on a proxy with its durable catalog
attached (``catalog=``), ingests it with one ``executemany`` of the whole
table, runs a fixed set of first-use queries (range, SUM, equality, GROUP
BY, ORDER BY) that force onion adjustments, scans the table in full once,
and drops it.  Apart from the seven GROUP BY buckets, values never repeat
within a run, and there is one statement shape per table, so the plan
cache does not help: batch bind, OPE, HOM, onion adjustment and the WAL do
the work.  The crypto caches still answer some lookups: the bucket column
repeats, and the scan can find values the first-use queries decrypted in
the DET decrypt memo (the traced run's ``core.cache.det_hit_ratio`` and
``core.cache.ope_hit_ratio`` show how many).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from common import (
    ROOT,
    Gate,
    add_counters,
    counter_delta,
    fresh_keypair,
    hd_percentile,
    median,
    now,
    peak_rss_mb,
    percentile,
    proxy_counters,
    run_statement,
    steady,
    Window,
)
from metrics import layer_metrics
from tracer import Tracer, merge

#: Rows per table, all sent in one ``executemany``: the way
#: ``TPCCWorkload.load_into`` loads each TPC-C table, five of whose nine
#: tables hold 20 rows at its default scale.
ROWS_PER_TABLE = 20
BUCKETS = 7
#: Consecutive cycles whose ``executemany`` latencies form one latency
#: window; p50 and p95 are taken per window, then read with ``steady``.
LATENCY_WINDOW = 4


class Rows:
    """Distinct values drawn once from the seed; never reused in a run."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._next_id = 0
        self._used: set[int] = set()

    def _fresh(self) -> int:
        while True:
            value = self._rng.randrange(1, 2**31 - 1)
            if value not in self._used:
                self._used.add(value)
                return value

    def take(self, count: int) -> list[tuple]:
        rows = []
        for _ in range(count):
            self._next_id += 1
            rows.append(
                (
                    self._next_id,
                    self._fresh() % 1_000_000_000,
                    self._fresh() % 100_000,
                    f"label-{self._fresh():010d}",
                    self._next_id % BUCKETS,
                )
            )
        return rows


def _ddl(table: str) -> str:
    return (
        f"CREATE TABLE {table} (id INT, amount INT, score INT, "
        f"label VARCHAR(24), bucket INT)"
    )


def _insert(table: str) -> str:
    return f"INSERT INTO {table} (id, amount, score, label, bucket) VALUES (?, ?, ?, ?, ?)"


def _cold_queries(table: str, rows: list[tuple]) -> list[tuple[str, tuple]]:
    amounts = sorted(row[1] for row in rows)
    return [
        (
            f"SELECT id, amount FROM {table} WHERE amount > ? AND amount < ?",
            (amounts[len(amounts) // 4], amounts[3 * len(amounts) // 4]),
        ),
        (f"SELECT SUM(score) FROM {table} WHERE bucket = ?", (rows[0][4],)),
        (f"SELECT id, label FROM {table} WHERE label = ?", (rows[len(rows) // 2][3],)),
        (f"SELECT bucket, COUNT(*), SUM(amount) FROM {table} GROUP BY bucket", ()),
        (f"SELECT id, score FROM {table} ORDER BY score DESC LIMIT 10", ()),
    ]


class Cycle:
    """Measurements of one create / ingest / query / scan / drop cycle."""

    def __init__(self) -> None:
        self.ingest_s = 0.0
        self.rows = 0
        self.cold_s = 0.0
        self.scan_s = 0.0
        self.scanned = 0
        self.storage_x = 0.0


def _cycle(conn, replica, gate: Gate, table: str, rows: list[tuple], tracer=None) -> Cycle:
    """One cycle; the replica replays it afterwards with tracing off."""
    cycle = Cycle()
    cursor = conn.cursor()
    if tracer is not None:
        tracer.install()
    run_statement(cursor, gate, _ddl(table), ())
    insert = _insert(table)
    began = now()
    try:
        cursor.executemany(insert, rows)
        ok = True
    except Exception as exc:  # counted by the gate
        gate.mismatches.append(f"executemany into {table}: {exc}")
        ok = False
    cycle.ingest_s = now() - began
    gate.record_many(insert, rows, ok)
    cycle.rows = len(rows)
    began = now()
    for sql, params in _cold_queries(table, rows):
        run_statement(cursor, gate, sql, params)
    cycle.cold_s = now() - began
    began = now()
    cycle.scanned = len(run_statement(cursor, gate, f"SELECT * FROM {table}", ()) or ())
    cycle.scan_s = now() - began
    if tracer is not None:
        tracer.uninstall()
    gate.check(replica)
    cycle.storage_x = conn.proxy.storage_bytes() / replica.backend.storage_bytes()
    drop = f"DROP TABLE {table}"
    run_statement(cursor, gate, drop, ())
    gate.check(replica)
    return cycle


def run_ingest(seed: int, seconds: float, trace: bool, size: dict, gate: Gate) -> dict:
    import repro
    from repro.crypto.paillier import PaillierKeyPair

    key = PaillierKeyPair.generate(1024)  # before the clock starts
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    rows = Rows(seed)
    conn = replica = None
    setups: list[float] = []

    def setup():
        """Connect with a fresh catalog; returns the connection, timed."""
        wal = os.path.join(scratch, f"catalog-{len(setups)}.wal")
        start = now()
        connection = repro.connect(paillier=fresh_keypair(key), catalog=wal)
        setups.append(now() - start)
        return connection

    def extra() -> None:
        setup().close()

    try:
        conn = setup()
        replica = repro.connect(encrypted=False)

        # Warm-up: drain the HOM pool that connect precomputed and run the
        # cycle until its per-cycle figures level off.
        for index in range(size["ingest_warmup_cycles"]):
            _cycle(conn, replica, gate, f"warm{index}", rows.take(ROWS_PER_TABLE))
        # After a fixed number of cycles, never at the deadline: the memos
        # of dropped tables are never released, so a reading at the end
        # would grow with the cycles a faster program fits into the run.
        # Before the window, whose other set-ups briefly hold a second proxy.
        rss = peak_rss_mb()

        cycles: list[Cycle] = []
        tracer = Tracer() if trace else None
        traced: list[Cycle] = []
        trace_acc: dict = {}
        counters = None
        window = Window(seconds, [extra] * (size["setups"] - 1))
        number = 0
        while window.is_open() or number < 2:
            number += 1
            traced_cycle = tracer is not None and number % 2 == 0
            before = proxy_counters(conn.proxy) if traced_cycle else None
            cycle = _cycle(
                conn,
                replica,
                gate,
                f"ingest{number}",
                rows.take(ROWS_PER_TABLE),
                tracer if traced_cycle else None,
            )
            if traced_cycle:
                merge(trace_acc, tracer.collect())
                counters = add_counters(
                    counters, counter_delta(proxy_counters(conn.proxy), before)
                )
                traced.append(cycle)
            else:
                cycles.append(cycle)
            window.between_rounds()
        window.finish()
    finally:
        if conn is not None:
            conn.close()
        if replica is not None:
            replica.close()
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(scratch_root) and not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    latencies = [cycle.ingest_s for cycle in cycles]
    windows = [
        latencies[i : i + LATENCY_WINDOW]
        for i in range(0, len(latencies) - LATENCY_WINDOW + 1, LATENCY_WINDOW)
    ] or [latencies]
    rates = [c.rows / c.ingest_s for c in cycles]
    scan_rates = [c.scanned / c.scan_s for c in cycles]
    values = {
        "throughput_per_s": steady(rates, "higher"),
        "p50_ms": steady([hd_percentile(w, 50) for w in windows], "lower") * 1e3,
        "p95_ms": steady([hd_percentile(w, 95) for w in windows], "lower") * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "samples": len(latencies),
        "windows": len(windows),
        "cold_queries_s": steady([c.cold_s for c in cycles], "lower"),
        "scan_rows_per_s": steady(scan_rates, "higher"),
        "median_throughput_per_s": median(rates),
        "median_cold_queries_s": median([c.cold_s for c in cycles]),
        "median_scan_rows_per_s": median(scan_rates),
        "storage_x": median([c.storage_x for c in cycles]),
        "rss_mb": rss,
        "setup_s": median(setups),
    }
    if tracer is not None:

        def per_row(group: list[Cycle]) -> float:
            return sum(c.ingest_s + c.cold_s + c.scan_s for c in group) / sum(
                c.rows for c in group
            )

        overhead = per_row(traced) / per_row(cycles) - 1.0
        values.update(
            layer_metrics(trace_acc, counters, sum(c.rows for c in traced), overhead)
        )
    return values
