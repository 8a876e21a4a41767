"""Span tracer for the per-layer run.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (the program itself is not modified), records one span per call
-- layer, start, end and the span that caused it -- and keeps the spans in
memory.  :meth:`Tracer.collect` folds the recorded span tree into self time
per layer: a span's duration minus the part covered by its child spans, so
``bind_parameters`` (core) and the AES calls it makes (crypto) are never
double-counted.

Spans nest per thread: the wire server runs statements on an executor
thread while the event loop thread seals and encodes frames, and each thread
keeps its own stack.

Layers are the package's modules: ``api``, ``server``, ``core``, ``crypto``,
``sql``, ``durability`` and ``parallel``.  A span name is ``<layer>.<stage>``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter

#: (span name, module, attribute path) of every wrapped entry point.  An
#: attribute path ``Class.method`` wraps the method on the class; a bare name
#: wraps a module-level function.  ``repro.core.proxy`` binds ``parse_sql``,
#: ``bind_parameters`` and ``decrypt_results`` by name, so they are wrapped
#: where the proxy looks them up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("api.cursor", "repro.api.cursor", "Cursor.execute"),
    ("api.cursor", "repro.api.cursor", "Cursor.executemany"),
    ("core.proxy", "repro.core.proxy", "CryptDBProxy.execute"),
    ("core.proxy", "repro.core.proxy", "CryptDBProxy.executemany"),
    ("sql.parse", "repro.core.proxy", "parse_sql"),
    ("core.rewriter", "repro.core.rewriter", "Rewriter.rewrite"),
    ("core.bind", "repro.core.proxy", "bind_parameters"),
    ("core.bind", "repro.core.proxy", "bind_parameters_batch"),
    ("core.results", "repro.core.proxy", "decrypt_results"),
    ("sql.execute", "repro.sql.engine", "Database.execute"),
    ("crypto.aes", "repro.crypto.aes", "AES.encrypt_block"),
    ("crypto.aes", "repro.crypto.aes", "AES.decrypt_block"),
    ("crypto.ope", "repro.crypto.ope", "OPE.encrypt"),
    ("crypto.ope", "repro.crypto.ope", "OPE.decrypt"),
    ("crypto.ope", "repro.crypto.ope", "OPE.encrypt_many"),
    ("crypto.ope", "repro.crypto.ope", "OPE.decrypt_many"),
    ("crypto.ecc", "repro.crypto.join_adj", "JoinAdj.hash_value"),
    ("crypto.ecc", "repro.crypto.join_adj", "JoinAdj.hash_values"),
    ("crypto.ecc", "repro.crypto.join_adj", "adjust"),
    ("crypto.ecc", "repro.crypto.join_adj", "adjust_many"),
    ("crypto.paillier", "repro.crypto.paillier", "PaillierKeyPair.encrypt"),
    ("crypto.paillier", "repro.crypto.paillier", "PaillierKeyPair.decrypt"),
    ("crypto.paillier", "repro.crypto.paillier", "PaillierKeyPair.precompute_randomness"),
    ("crypto.search", "repro.crypto.search", "SEARCH.encrypt"),
    ("crypto.search", "repro.crypto.search", "SEARCH.encrypt_many"),
    ("crypto.search", "repro.crypto.search", "SEARCH.token"),
    ("server.codec", "repro.server.protocol", "encode_frame"),
    ("server.codec", "repro.server.protocol", "decode_frame"),
    ("server.codec", "repro.server.server", "encode_frame"),
    ("server.codec", "repro.server.server", "decode_frame"),
    ("server.transport", "repro.server.transport", "SecureChannel.seal"),
    ("server.transport", "repro.server.transport", "SecureChannel.open"),
)

#: Span names whose calls are also counted (work done, as a count).
COUNTED = {"crypto.aes": "crypto.aes.blocks"}

#: The outermost span of a statement; time under it but outside every
#: other span is unattributed.
ENTRY = "api.cursor"


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` (idempotent)."""
        if self._patches:
            return
        for name, module_name, path in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        self._install_wal_counters()
        self._install_admission()

    def _install_wal_counters(self) -> None:
        from repro.durability.wal import WriteAheadLog

        counters = self.counters
        append = WriteAheadLog.__dict__["append"]
        sync = WriteAheadLog.__dict__["sync"]

        def counted_append(wal, payload):
            counters["durability.wal_appends"] += 1
            return append(wal, payload)

        def counted_sync(wal):
            pending = wal._pending
            if pending:
                counters["durability.wal_fsyncs"] += 1
                counters["durability.wal_bytes"] += sum(len(record) for record in pending)
            return sync(wal)

        # Counted and timed at the same boundary: one span per call.
        self._patch(WriteAheadLog, "append", self.wrap("durability.append", counted_append))
        self._patch(WriteAheadLog, "sync", self.wrap("durability.sync", counted_sync))

    def _install_admission(self) -> None:
        """Time admission waits and statement execution on the wire server.

        ``SessionManager.execute`` queues a statement for the shared proxy
        and runs it on the executor thread; the wait is the time from the
        request entering admission to the statement starting to run.
        """
        from repro.server.session import SessionManager

        execute = SessionManager.__dict__["execute"]
        counters = self.counters
        call = self.call

        async def admitted(manager, session_id, fn, head=None):
            queued = _now()

            def run():
                counters["server.admission_wait_s"] += _now() - queued
                counters["server.admissions"] += 1
                return call("server.session_exec", fn)

            return await execute(manager, session_id, run, head)

        self._patch(SessionManager, "execute", admitted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def collect(self) -> dict:
        """Fold and clear the recorded spans.

        Returns ``{"self_s": {span: seconds}, "calls": {span: n},
        "entry_s": seconds under the entry span, "root_s": seconds under
        outermost spans, "counters": {...}}``.
        """
        spans, self.spans = self.spans, []
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _name, start, end in spans:
            if parent:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        entry_s = root_s = 0.0
        for span_id, parent, name, start, end in spans:
            duration = end - start
            self_s[name] += duration - child_time.get(span_id, 0.0)
            calls[name] += 1
            if name == ENTRY:
                entry_s += duration
            if not parent:
                root_s += duration
        counters = dict(self.counters)
        self.counters.clear()
        for name, counter in COUNTED.items():
            counters[counter] = counters.get(counter, 0) + calls.get(name, 0)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "entry_s": entry_s,
            "root_s": root_s,
            "counters": counters,
        }


def merge(into: dict, part: dict) -> dict:
    """Add one :meth:`Tracer.collect` result into an accumulator."""
    for key in ("self_s", "calls", "counters"):
        bucket = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    for key in ("entry_s", "root_s", "remote_s"):
        into[key] = into.get(key, 0.0) + part.get(key, 0.0)
    return into


def as_remote(server_part: dict) -> dict:
    """A server process's collect() result, seen from the client.

    The server's outermost spans, and the admission wait before them, run
    while the client sits inside its own entry span; ``remote_s`` lets the
    fold subtract them from the client's self time there.
    """
    part = dict(server_part)
    wait = part.get("counters", {}).get("server.admission_wait_s", 0.0)
    part["remote_s"] = part.pop("root_s", 0.0) + wait
    part["entry_s"] = 0.0
    return part
