"""TPC-C workloads: the fig10 mix in process and over the wire.

Both use the proxy's and server's defaults (1024-bit Paillier, memory
backend, ``workers=0``, default ``hom_precompute``) and the TPC-C data and
query generators of :class:`repro.workloads.tpcc.TPCCWorkload`, seeded from
the command line.  Nothing refills the HOM randomness pool by hand: loading
drains most of what connect precomputed and the warm-up drains the rest, so
the measured phase runs in the regime a long-running proxy is in.

The statement stream is the fig10 mix in blocks of 50: each block holds
every query type exactly half as often as its mix weight (every weight is
even), in an order shuffled by the seed.  The measured phase is rounds of
equal composition spread over the whole window -- a mix block, a first-use
round on a cleared plan cache, a full scan pass -- and every end-to-end
figure is read from its per-round samples with :func:`common.steady`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from common import (
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
from tracer import Tracer, as_remote, merge

#: Tables whose row count the mix never changes (it inserts into
#: ``history`` and deletes from ``new_orders``), so every scan pass reads
#: the same rows however many statements the run managed.
SCANNED = ("warehouse", "district", "customer", "orders", "order_line", "item", "stock")
#: Offered rate of the wire workload's open loop, statements per second.
REFERENCE_RATE = 30.0
#: Closed-loop blocks per round of the wire workload.
CLOSED_BLOCKS = 2


def _workload(seed: int):
    from repro.workloads.tpcc import TPCCWorkload

    return TPCCWorkload(seed=seed)


def _tables() -> list[str]:
    from repro.workloads.tpcc import TPCC_SCHEMA

    return list(TPCC_SCHEMA)


def _population() -> list[str]:
    """One block of the fig10 mix: each query type half as often as its
    weight (every weight is even), 50 statements."""
    from collections import Counter

    from repro.workloads.tpcc import TPCCWorkload

    weights = Counter(TPCCWorkload._mix_population())
    return [kind for kind, weight in weights.items() for _ in range(weight // 2)]


def _mix(workload, blocks: int) -> list[tuple[str, tuple]]:
    """``blocks`` seeded shuffles of the mix, as ``(sql, params)``."""
    rng = random.Random(workload.seed)
    stream = []
    for _ in range(blocks):
        kinds = _population()
        rng.shuffle(kinds)
        stream.extend(workload.query_params(kind, rng) for kind in kinds)
    return stream


class Colds:
    """First-use rounds: every mix shape once, on a cold plan cache.

    After ``train()`` the onions are adjusted but no ``?`` shape has a
    cached plan, so the round after each set-up is the true first use (its
    time is a detail: three samples taken while the crypto caches are still
    cold).  The measured rounds come one per round of the measured phase,
    each after clearing the plan cache.  Every instance draws the same
    statements from the seed.
    """

    def __init__(self, workload) -> None:
        from repro.workloads.tpcc import QUERY_TYPES

        self._workload = workload
        self._kinds = QUERY_TYPES
        self._rng = random.Random(workload.seed + 1)

    def round(self, cursor, gate: Gate) -> float:
        """Run one round; returns its seconds."""
        statements = [self._workload.query_params(k, self._rng) for k in self._kinds]
        start = now()
        for sql, params in statements:
            run_statement(cursor, gate, sql, params)
        return now() - start


def _replica(seed: int):
    """A plaintext ``repro.connect`` replica, loaded like the proxy."""
    import repro

    replica = repro.connect(encrypted=False)
    _workload(seed).load_into(replica)
    return replica


def _setups(setup, close, seed: int, size: dict, gate: Gate):
    """The timed set-ups: the first is kept and measured, the rest are
    chores of the measured window (see :class:`common.Window`).

    ``setup()`` returns ``(handle, connection, seconds)`` and ``close(handle)``
    releases one.  A first-use round (the same statements every time)
    follows every set-up; a discarded set-up's statements are checked on a
    replica of its own.  Returns ``(handle, conn, seconds, first_use,
    chores)``; ``seconds`` and ``first_use`` fill up as the chores run.
    """
    training = _workload(seed).training_queries()
    seconds: list[float] = []
    first_use: list[float] = []

    def first_round(conn, setup_gate: Gate) -> None:
        for sql in training:
            setup_gate.replay_only(sql)
        first_use.append(Colds(_workload(seed)).round(conn.cursor(), setup_gate))

    def extra() -> None:
        handle, conn, elapsed = setup()
        seconds.append(elapsed)
        setup_gate = Gate()
        try:
            first_round(conn, setup_gate)
        finally:
            close(handle)
        replica = _replica(seed)
        setup_gate.check(replica)
        replica.close()
        gate.absorb(setup_gate)

    handle, conn, elapsed = setup()
    seconds.append(elapsed)
    try:
        first_round(conn, gate)
    except BaseException:
        close(handle)
        raise
    return handle, conn, seconds, first_use, [extra] * (size["setups"] - 1)


def _scan_pass(cursor, gate: Gate) -> float:
    """One full decrypting scan of the fixed-size tables; rows per second."""
    rows = 0
    start = now()
    for table in SCANNED:
        rows += len(run_statement(cursor, gate, f"SELECT * FROM {table}", ()) or ())
    return rows / (now() - start)


def _final_scan(cursor, gate: Gate) -> None:
    """An untimed scan of every table, so the gate compares the final state
    of the tables the mix writes too."""
    for table in _tables():
        run_statement(cursor, gate, f"SELECT * FROM {table}", ())


def _latency_summary(blocks: list[list[float]]) -> dict:
    """p50/p95 of each block (blocks have equal composition; Harrell-Davis
    estimates), read with :func:`steady`; the all-sample p99 and the sample
    count are details."""
    return {
        "p50_ms": steady([hd_percentile(b, 50) for b in blocks], "lower") * 1e3,
        "p95_ms": steady([hd_percentile(b, 95) for b in blocks], "lower") * 1e3,
        "p99_ms": percentile([x for b in blocks for x in b], 99) * 1e3,
        "samples": sum(len(b) for b in blocks),
        "blocks": len(blocks),
    }


def _round_figures(rates, latency_blocks, cold_s, scan_rates, first_use) -> dict:
    """The measured rounds' end-to-end figures (and their medians, a detail)."""
    return {
        "throughput_per_s": steady(rates, "higher"),
        **_latency_summary(latency_blocks),
        "cold_queries_s": steady(cold_s, "lower"),
        "scan_rows_per_s": steady(scan_rates, "higher"),
        "median_throughput_per_s": median(rates),
        "median_cold_queries_s": median(cold_s),
        "median_scan_rows_per_s": median(scan_rates),
        "cold_after_setup_s": first_use,
        "round_rates": [round(r, 1) for r in rates],
    }


class Blocks:
    """Alternating untraced and traced mix blocks, and what they measured.

    Untraced runs measure only untraced blocks.  Traced runs alternate, so
    the overhead compares blocks of identical composition interleaved in
    time; counters are taken by snapshot subtraction around traced blocks.
    """

    def __init__(self, trace: bool) -> None:
        self.tracer = Tracer() if trace else None
        self.rates: list[float] = []
        self.latencies: list[list[float]] = []
        self.trace: dict = {}
        self.counters: Optional[dict] = None
        self.time = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self._count = 0

    def more(self, window: Window) -> bool:
        """Keep going while the window is open and until one block of each
        kind ran."""
        wanted = (False, True) if self.tracer is not None else (False,)
        return window.is_open() or any(self.ops[kind] == 0 for kind in wanted)

    def next_traced(self) -> bool:
        self._count += 1
        return self.tracer is not None and self._count % 2 == 0

    def note(self, traced: bool, seconds: float, latencies: list[float]) -> None:
        self.time[traced] += seconds
        self.ops[traced] += len(latencies)
        if not traced:
            self.rates.append(len(latencies) / seconds)
            self.latencies.append(latencies)

    def overhead(self) -> float:
        per_op = {k: self.time[k] / max(self.ops[k], 1) for k in (False, True)}
        return per_op[True] / per_op[False] - 1.0


# ---------------------------------------------------------------------------
# tpcc-inproc
# ---------------------------------------------------------------------------
def _setup_inproc(key, seed: int):
    """connect + schema + load + train; returns (conn, conn, seconds)."""
    import repro

    workload = _workload(seed)
    start = now()
    conn = repro.connect(paillier=fresh_keypair(key))
    workload.load_into(conn)
    conn.proxy.train(workload.training_queries())
    return conn, conn, now() - start


def run_inproc(seed: int, seconds: float, trace: bool, size: dict, gate: Gate) -> dict:
    from repro.crypto.paillier import PaillierKeyPair

    key = PaillierKeyPair.generate(1024)  # before the clock starts
    workload = _workload(seed)
    colds = Colds(workload)
    conn, _, setups, first_use, chores = _setups(
        lambda: _setup_inproc(key, seed), lambda c: c.close(), seed, size, gate
    )
    cursor = conn.cursor()
    block_size = len(_population())
    warmup_blocks = size["warmup"] // block_size
    stream = _mix(workload, warmup_blocks + int(seconds * 20) + 2)
    for sql, params in stream[: warmup_blocks * block_size]:
        run_statement(cursor, gate, sql, params)
    position = warmup_blocks * block_size
    # Untimed: the first decryption of the rows the mix never read.
    _scan_pass(cursor, gate)
    # After a fixed amount of work, before the window: the measured rounds
    # grow ``history`` with every insert, and the window's other set-ups
    # briefly hold a second proxy.
    rss = peak_rss_mb()

    def run(block: list) -> list[float]:
        latencies = []
        for sql, params in block:
            start = now()
            run_statement(cursor, gate, sql, params)
            latencies.append(now() - start)
        return latencies

    # Rounds: a mix block, then (after an untraced block) a first-use round
    # on a cleared plan cache and a scan pass.
    blocks = Blocks(trace)
    cold_s: list[float] = []
    scan_rates: list[float] = []
    window = Window(seconds, chores)
    while blocks.more(window) and position + block_size <= len(stream):
        block = stream[position : position + block_size]
        position += block_size
        traced = blocks.next_traced()
        if traced:
            before = proxy_counters(conn.proxy)
            blocks.tracer.install()
        start = now()
        latencies = run(block)
        elapsed = now() - start
        if traced:
            blocks.tracer.uninstall()
            merge(blocks.trace, blocks.tracer.collect())
            delta = counter_delta(proxy_counters(conn.proxy), before)
            blocks.counters = add_counters(blocks.counters, delta)
        blocks.note(traced, elapsed, latencies)
        if not traced:
            conn.proxy.plan_cache.clear()
            cold_s.append(colds.round(cursor, gate))
            scan_rates.append(_scan_pass(cursor, gate))
        window.between_rounds()
    window.finish()

    _final_scan(cursor, gate)
    storage = conn.proxy.storage_bytes()
    conn.close()

    replica = _replica(seed)
    gate.check(replica)
    values = {
        **_round_figures(blocks.rates, blocks.latencies, cold_s, scan_rates, first_use),
        "storage_x": storage / replica.backend.storage_bytes(),
        "rss_mb": rss,
        "setup_s": median(setups),
    }
    replica.close()
    if trace:
        values.update(
            layer_metrics(blocks.trace, blocks.counters, blocks.ops[True], blocks.overhead())
        )
    return values


# ---------------------------------------------------------------------------
# tpcc-wire
# ---------------------------------------------------------------------------
class Launcher:
    """The wire server in its own process, driven over its stdin/stdout."""

    def __init__(self, key) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(here, "server_launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        private = key.private
        try:
            ready = self.request(
                {
                    "key": {
                        "n": key.public.n,
                        "g": key.public.g,
                        "lam": private.lam,
                        "mu": private.mu,
                        "p": private.p,
                        "q": private.q,
                    }
                }
            )
        except BaseException:
            self.stop()
            raise
        self.url = f"repro://127.0.0.1:{ready['port']}"

    def request(self, message: dict) -> dict:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("wire server exited")
        return json.loads(line)

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.request({"cmd": "stop"})
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
            for pipe in (self.process.stdin, self.process.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


def _setup_wire(key, seed: int):
    """Server process + connect + schema + load + train, over the wire.

    Returns ``((launcher, conn), conn, seconds)``.
    """
    import repro

    workload = _workload(seed)
    start = now()
    launcher = Launcher(key)
    try:
        conn = repro.connect(url=launcher.url)
        workload.load_into(conn)
        cursor = conn.cursor()
        for sql in workload.training_queries():
            cursor.execute(sql)
    except BaseException:
        launcher.stop()
        raise
    return (launcher, conn), conn, now() - start


def _close_wire(handle) -> None:
    launcher, conn = handle
    try:
        conn.close()
    finally:
        launcher.stop()


def _drive(conns, statements, rate: Optional[float]) -> list:
    """Run ``statements`` over ``conns``, one client thread per connection.

    With ``rate`` None this is a closed loop: each connection sends its
    next statement when the previous one answers.  With a rate it is an
    open loop: statement ``k`` is due at ``t0 + k / rate``, the first free
    connection sends it, and when every connection is busy later statements
    wait -- their latency, timed from when they were due, shows it.
    Returns ``(due, sent, done, rows, error)`` per statement.
    """
    results: list[Any] = [None] * len(statements)
    ticket = itertools.count()
    t0 = now() + 0.02 if rate else 0.0

    def worker(conn) -> None:
        cursor = conn.cursor()
        while True:
            k = next(ticket)
            if k >= len(statements):
                return
            if rate:
                due = t0 + k / rate
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                sent = now()
            else:
                due = sent = now()
            sql, params = statements[k]
            try:
                cursor.execute(sql, params or None)
                rows = cursor.fetchall() if cursor.description else None
                error = None
            except Exception as exc:  # counted by the gate
                rows, error = None, exc
            results[k] = (due, sent, now(), rows, error)

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120 + (len(statements) / rate if rate else 0))
        if thread.is_alive():
            raise RuntimeError("wire client thread did not finish")
    return results


def _record(gate: Gate, statements, results) -> None:
    for (sql, params), (_due, _sent, _done, rows, error) in zip(statements, results):
        if error is not None:
            gate.record_error(sql, params, error)
        else:
            gate.record(sql, params, rows)


def run_wire(seed: int, seconds: float, trace: bool, size: dict, gate: Gate) -> dict:
    import repro
    from host import cpu_count
    from repro.crypto.paillier import PaillierKeyPair

    key = PaillierKeyPair.generate(1024)  # before the clock starts
    workload = _workload(seed)
    colds = Colds(workload)
    handle, conn, setups, first_use, chores = _setups(
        lambda: _setup_wire(key, seed), _close_wire, seed, size, gate
    )
    launcher = handle[0]
    conns: list = [conn]
    values: dict = {}
    try:
        cursor = conn.cursor()
        conns += [repro.connect(url=launcher.url) for _ in range(cpu_count() - 1)]
        block_size = len(_population())
        warmup_blocks = size["warmup"] // block_size
        # An open-loop block lasts at least block_size / REFERENCE_RATE
        # seconds; an untraced round adds CLOSED_BLOCKS closed-loop blocks.
        open_s = block_size / REFERENCE_RATE
        per_round = CLOSED_BLOCKS + 1
        stream = _mix(workload, warmup_blocks + per_round * (int(seconds / open_s) + 2))
        for sql, params in stream[: warmup_blocks * block_size]:
            run_statement(cursor, gate, sql, params)
        position = warmup_blocks * block_size
        _scan_pass(cursor, gate)  # untimed, as on tpcc-inproc

        def take() -> list:
            nonlocal position
            position += block_size
            return stream[position - block_size : position]

        blocks = Blocks(trace)
        late: list[float] = []
        if trace:
            # Open-loop blocks at the reference rate, tracing switched on in
            # both processes for every other block.
            window = Window(seconds, chores)
            while blocks.more(window) and position + block_size <= len(stream):
                block = take()
                traced = blocks.next_traced()
                if traced:
                    before = launcher.request({"cmd": "snap"})["counters"]
                    launcher.request({"cmd": "trace", "on": True})
                    blocks.tracer.install()
                results = _drive(conns, block, REFERENCE_RATE)
                if traced:
                    blocks.tracer.uninstall()
                    launcher.request({"cmd": "trace", "on": False})
                    snap = launcher.request({"cmd": "snap"})
                    merge(blocks.trace, blocks.tracer.collect())
                    merge(blocks.trace, as_remote(snap["trace"]))
                    delta = counter_delta(snap["counters"], before)
                    blocks.counters = add_counters(blocks.counters, delta)
                _record(gate, block, results)
                service = [done - sent for _due, sent, done, *_ in results]
                blocks.note(traced, sum(service), service)
                late.extend(sent - due for due, sent, *_ in results)
                window.between_rounds()
            window.finish()
        else:
            # Rounds of CLOSED_BLOCKS closed-loop blocks on one connection
            # (statements per second over the wire, comparable with
            # tpcc-inproc's single client), each followed by a first-use
            # round on a cleared plan cache and a scan pass, then one
            # open-loop block at the reference rate over every connection
            # (latency from when each statement was due), so that every
            # figure samples the whole measured window.  A round starts only
            # if it fits before the end of the window.
            latencies: list[list[float]] = []
            cold_s: list[float] = []
            scan_rates: list[float] = []
            window = Window(seconds, chores)
            round_s = 0.0
            while not blocks.rates or (
                now() + round_s <= window.deadline
                and position + per_round * block_size <= len(stream)
            ):
                began = now()
                for _ in range(CLOSED_BLOCKS):
                    block = take()
                    start = now()
                    results = _drive([conn], block, None)
                    elapsed = now() - start
                    _record(gate, block, results)
                    service = [done - sent for _d, sent, done, *_ in results]
                    blocks.note(False, elapsed, service)
                    launcher.request({"cmd": "clear_plans"})
                    cold_s.append(colds.round(cursor, gate))
                    scan_rates.append(_scan_pass(cursor, gate))
                block = take()
                results = _drive(conns, block, REFERENCE_RATE)
                _record(gate, block, results)
                latencies.append([done - due for due, _s, done, *_ in results])
                late.extend(sent - due for due, sent, *_ in results)
                round_s = now() - began
                window.between_rounds()
            window.finish()
            values.update(
                _round_figures(blocks.rates, latencies, cold_s, scan_rates, first_use)
            )

        _final_scan(cursor, gate)
        snapshot = launcher.request({"cmd": "snap"})
    finally:
        for extra in conns[1:]:
            extra.close()
        _close_wire(handle)

    replica = _replica(seed)
    gate.check(replica)
    values.update(
        {
            "storage_x": snapshot["storage_bytes"] / replica.backend.storage_bytes(),
            "rss_mb": snapshot["rss_mb"],
            "setup_s": median(setups),
            "reference_rate": REFERENCE_RATE,
            "late_p99_ms": percentile(late, 99) * 1e3,
        }
    )
    replica.close()
    if trace:
        values.update(
            layer_metrics(
                blocks.trace,
                blocks.counters,
                blocks.ops[True],
                blocks.overhead(),
                values["late_p99_ms"],
            )
        )
    return values
