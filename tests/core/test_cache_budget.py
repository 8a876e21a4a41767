"""Byte-budgeted cache eviction and the measured ``estimated_bytes``.

The paper sizes its OPE cache in megabytes (§8.4.1); our cache now reports
a *measured* footprint (``sys.getsizeof`` walk over every memo container
and the HOM randomness pool) and, when the proxy is constructed with
``cache_budget_bytes``, evicts least-recently-used memo units after every
statement until the measurement fits.  Accuracy is pinned against an
independent walk over the raw containers; eviction is pinned by counters
and by the footprint staying at (or under) the configured ceiling.
"""

import sys

from repro.core.cache import CryptoCache, deep_size


def _walk(obj, seen):
    """Independent getsizeof walk (dict/list/tuple/set), one count per object."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += _walk(key, seen) + _walk(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _walk(item, seen)
    return total


def _true_bytes(proxy):
    """Ground truth: walk every live cache container the proxy holds."""
    cache = proxy.cache
    seen: set = set()
    total = 0
    for memos in (cache._eq_encrypt_memos, cache._eq_decrypt_memos):
        for memo in memos.values():
            total += _walk(memo, seen)
    for scheme in (*cache._ope_schemes.values(), *cache._search_schemes.values()):
        for container in scheme.cache_objects():
            total += _walk(container, seen)
    pool = proxy.paillier._randomness_pool
    total += sys.getsizeof(pool) + sum(sys.getsizeof(f) for f in pool)
    return total


def _seeded_workload(proxy, rows=40):
    proxy.execute(
        "CREATE TABLE w (id INT, qty INT, name VARCHAR(30), notes TEXT)"
    )
    proxy.executemany(
        "INSERT INTO w (id, qty, name, notes) VALUES (?, ?, ?, ?)",
        [(i, i % 7, f"name-{i % 11}", f"note words {i % 5}") for i in range(rows)],
    )
    proxy.execute("SELECT * FROM w WHERE qty > 2")
    proxy.execute("SELECT id, name FROM w WHERE name = 'name-3'")
    proxy.execute("SELECT id FROM w WHERE notes LIKE '%words%'")
    proxy.execute("SELECT id, qty FROM w ORDER BY qty")


def test_estimated_bytes_within_10_percent_of_truth(make_proxy):
    proxy = make_proxy(hom_precompute=16)
    _seeded_workload(proxy)
    estimated = proxy.stats.cache_stats().estimated_bytes
    truth = _true_bytes(proxy)
    assert truth > 0
    assert abs(estimated - truth) <= truth * 0.10, (estimated, truth)


def test_estimated_bytes_tracks_growth(make_proxy):
    proxy = make_proxy(hom_precompute=0)
    proxy.execute("CREATE TABLE g (id INT, name VARCHAR(20))")
    before = proxy.stats.cache_stats().estimated_bytes
    proxy.executemany(
        "INSERT INTO g (id, name) VALUES (?, ?)",
        [(i, f"value-{i}") for i in range(50)],
    )
    after = proxy.stats.cache_stats().estimated_bytes
    assert after > before


def test_budget_evicts_and_counts(make_proxy):
    budget = 8 * 1024
    proxy = make_proxy(cache_budget_bytes=budget, hom_precompute=0)
    _seeded_workload(proxy, rows=120)
    stats = proxy.stats.cache_stats()
    assert stats.budget_bytes == budget
    assert stats.evictions > 0
    assert stats.evicted_bytes > 0
    assert stats.estimated_bytes <= budget


def test_no_budget_never_evicts(make_proxy):
    proxy = make_proxy(hom_precompute=0)
    _seeded_workload(proxy, rows=60)
    stats = proxy.stats.cache_stats()
    assert stats.evictions == 0
    assert stats.budget_bytes == 0


def test_hom_pool_trimmed_last(paillier_keypair, make_proxy):
    proxy = make_proxy(hom_precompute=0)
    proxy.cache.budget_bytes = 1  # everything must go
    proxy.cache.precompute_hom(8)
    _seeded_workload(proxy, rows=10)
    proxy.cache.enforce_budget()
    stats = proxy.stats.cache_stats()
    # Memos gone, and the pre-computed randomness was shed as well.
    assert stats.det_entries == 0
    assert stats.hom_pool_remaining == 0
    assert stats.evictions > 0


def test_eviction_keeps_answers_correct(make_proxy):
    tight = make_proxy(cache_budget_bytes=4 * 1024, hom_precompute=0)
    roomy = make_proxy(hom_precompute=0)
    for proxy in (tight, roomy):
        _seeded_workload(proxy, rows=80)
    for sql in (
        "SELECT id, qty, name FROM w ORDER BY id",
        "SELECT SUM(qty), AVG(qty) FROM w",
        "SELECT id FROM w WHERE name = 'name-7' ORDER BY id",
    ):
        assert tight.execute(sql).rows == roomy.execute(sql).rows
    assert tight.stats.cache_stats().evictions > 0


def test_deep_size_counts_shared_objects_once():
    shared = b"x" * 100
    container = {"a": shared, "b": shared}
    unshared = {"a": b"x" * 100, "b": b"y" * 100}
    assert deep_size(container) < deep_size(unshared)


def test_reset_counters_clears_eviction_totals(make_proxy):
    proxy = make_proxy(cache_budget_bytes=2 * 1024, hom_precompute=0)
    _seeded_workload(proxy)
    assert proxy.stats.cache_stats().evictions > 0
    proxy.stats.reset()
    stats = proxy.stats.cache_stats()
    assert stats.evictions == 0 and stats.evicted_bytes == 0


def test_lru_prefers_cold_memos(paillier_keypair):
    cache = CryptoCache(paillier_keypair, budget_bytes=None)
    cold = cache.eq_encrypt_memo("t", "cold")
    hot = cache.eq_encrypt_memo("t", "hot")
    for i in range(20):
        cold[b"c%d" % i] = (b"j" * 16, b"d" * 16)
        hot[b"h%d" % i] = (b"j" * 16, b"d" * 16)
    cache.eq_encrypt_memo("t", "cold")
    cache.eq_encrypt_memo("t", "hot")  # hot touched last
    cache.budget_bytes = cache.statistics().estimated_bytes - 1
    cache.enforce_budget()
    assert ("t", "cold") not in cache._eq_encrypt_memos
    assert ("t", "hot") in cache._eq_encrypt_memos
    assert cache.evictions == 1


def test_drop_table_releases_its_crypto_state(make_proxy, monkeypatch):
    """50 create/insert/scan/drop cycles leave the cache where it started.

    DROP TABLE evicts the table's Eq memos, OPE/SEARCH registrations and the
    encryptor's per-column schemes, so every AES context the cycles built is
    freed and ``estimated_bytes`` returns to its baseline; the scheme
    counters the dropped tables earned stay in the totals.
    """
    from repro.crypto import aes

    freed, built = [], []
    release, init = aes._free_contexts, aes.AES.__init__

    def counting_release(*contexts):
        freed.append(contexts)
        release(*contexts)

    def counting_init(cipher, key):
        built.append(key)
        init(cipher, key)

    monkeypatch.setattr(aes, "_free_contexts", counting_release)
    monkeypatch.setattr(aes.AES, "__init__", counting_init)
    proxy = make_proxy(hom_precompute=0)
    baseline = proxy.stats.cache_stats().estimated_bytes
    for cycle in range(50):
        table = f"t{cycle % 3}"
        proxy.execute(f"CREATE TABLE {table} (id INT, name VARCHAR(20), qty INT, notes TEXT)")
        proxy.executemany(
            f"INSERT INTO {table} (id, name, qty, notes) VALUES (?, ?, ?, ?)",
            [(i, f"n{cycle}-{i}", i * 3, f"word{i} x") for i in range(10)],
        )
        proxy.execute(f"SELECT * FROM {table} WHERE qty > 10 ORDER BY qty")
        proxy.execute(f"SELECT id FROM {table} WHERE name = 'n{cycle}-3'")
        proxy.execute(f"SELECT id FROM {table} WHERE notes LIKE '%x%'")
        proxy.execute(f"SELECT * FROM {table}")
        assert proxy.stats.cache_stats().estimated_bytes > baseline
        proxy.execute(f"DROP TABLE {table}")
    stats = proxy.stats.cache_stats()
    assert stats.estimated_bytes == baseline
    assert stats.det_entries == stats.ope_entries == stats.search_entries == 0
    assert stats.ope_misses > 0 and stats.search_misses > 0
    assert proxy.encryptor._rnd == proxy.encryptor._det == proxy.encryptor._ope == {}
    if aes.backend() == "libcrypto":
        assert built and len(freed) == len(built)
