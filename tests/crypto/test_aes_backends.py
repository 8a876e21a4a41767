"""The AES seam: native libcrypto and the pure-Python reference agree.

Every :class:`AES` picks its backend when it is built; both must produce the
same bytes for single blocks, for batches, and through every block mode, so
that data written on one path reads on the other.  The native checks skip
when no libcrypto loaded (CI fails that case in its own step).
"""

from __future__ import annotations

import gc
import os
import pickle
import random

import pytest

import repro
from repro.crypto import aes, modes
from repro.crypto.aes import AES
from repro.crypto.det import DET
from repro.crypto.keys import MasterKey
from repro.crypto.rnd import RND
from repro.errors import CryptoError

native_only = pytest.mark.skipif(
    aes.backend() != "libcrypto", reason="libcrypto did not load in this process"
)

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_APPENDIX_C = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


def pure(key: bytes) -> AES:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aes, "_native", None)
        cipher = AES(key)
    assert cipher._native is None
    return cipher


BACKENDS = {"native": AES, "pure": pure}


@pytest.mark.parametrize("backend", [
    pytest.param("native", marks=native_only), "pure",
])
@pytest.mark.parametrize("key_hex,ciphertext_hex", FIPS197_APPENDIX_C)
def test_fips197_known_answers(backend, key_hex, ciphertext_hex):
    cipher = BACKENDS[backend](bytes.fromhex(key_hex))
    expected = bytes.fromhex(ciphertext_hex)
    assert cipher.encrypt_block(PLAINTEXT) == expected
    assert cipher.decrypt_block(expected) == PLAINTEXT
    assert cipher.encrypt_blocks(PLAINTEXT * 3) == expected * 3
    assert cipher.decrypt_blocks(expected * 3) == PLAINTEXT * 3


@native_only
def test_native_backend_is_in_use():
    cipher = AES(bytes(16))
    assert cipher._native is aes._native is not None


def test_random_blocks_agree_across_backends():
    rng = random.Random(1197)
    blocks = [rng.randbytes(16) for _ in range(1200)]
    for size in (16, 24, 32):
        key = rng.randbytes(size)
        native, reference = AES(key), pure(key)
        for block in blocks[:400]:
            encrypted = reference.encrypt_block(block)
            assert native.encrypt_block(block) == encrypted
            assert native.decrypt_block(encrypted) == block
            assert reference.decrypt_block(block) == native.decrypt_block(block)
        joined = b"".join(blocks)
        assert native.encrypt_blocks(joined) == reference.encrypt_blocks(joined)
        assert native.decrypt_blocks(joined) == reference.decrypt_blocks(joined)


def test_modes_agree_across_backends_for_lengths_0_to_70():
    rng = random.Random(70)
    key = rng.randbytes(16)
    native, reference = AES(key), pure(key)
    for length in range(71):
        message = rng.randbytes(length)
        iv, nonce = rng.randbytes(16), rng.randbytes(12)
        sealed = modes.cbc_encrypt(reference, iv, message)
        assert modes.cbc_encrypt(native, iv, message) == sealed
        assert modes.cbc_decrypt(native, iv, sealed) == message
        assert modes.cbc_decrypt(reference, iv, sealed) == message
        sealed = modes.cmc_encrypt(reference, message)
        assert modes.cmc_encrypt(native, message) == sealed
        assert modes.cmc_decrypt(native, sealed) == message
        assert modes.cmc_decrypt(reference, sealed) == message
        stream = modes.ctr_transform(reference, nonce, message)
        assert modes.ctr_transform(native, nonce, message) == stream
        assert modes.ctr_transform(native, nonce, stream) == message


def test_column_batches_match_value_at_a_time():
    """The one-call column forms equal the per-value forms, NULLs kept."""
    rng = random.Random(5)
    key = rng.randbytes(16)
    for cipher in (AES(key), pure(key)):
        messages = [rng.randbytes(rng.randrange(0, 60)) for _ in range(25)]
        messages[3] = messages[9]
        ivs = [rng.randbytes(16) for _ in messages]
        cbc = [modes.cbc_encrypt(cipher, iv, m) for iv, m in zip(ivs, messages)]
        cmc = [modes.cmc_encrypt(cipher, m) for m in messages]
        cbc[7] = cmc[7] = None
        expected = [None if i == 7 else m for i, m in enumerate(messages)]
        assert modes.cbc_decrypt_many(cipher, ivs, cbc) == expected
        assert modes.cmc_decrypt_many(cipher, cmc) == expected
        assert modes.cbc_decrypt_many(cipher, [], []) == []


def test_batches_reject_partial_blocks():
    for cipher in (AES(b"k" * 16), pure(b"k" * 16)):
        with pytest.raises(CryptoError):
            cipher.encrypt_blocks(b"x" * 17)
        with pytest.raises(CryptoError):
            cipher.decrypt_blocks(b"x" * 15)
        assert cipher.encrypt_blocks(b"") == b""
        with pytest.raises(CryptoError):
            modes.cbc_decrypt_many(cipher, [bytes(16)] * 2, [bytes(32), bytes(20)])
        with pytest.raises(CryptoError):
            modes.cmc_decrypt_many(cipher, [bytes(32), b""])


def test_rnd_and_det_columns_decrypt_on_the_other_backend():
    """Values sealed on the pure path open through the native batch path."""
    key = b"column-key-0123456789"
    messages = [os.urandom(n) for n in (0, 1, 15, 16, 17, 40)] + [None]
    ivs = RND.generate_ivs(len(messages))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aes, "_native", None)
        rnd_sealed = RND(key).encrypt_bytes_many(messages, ivs)
        det_sealed = DET(key).encrypt_bytes_many(messages)
    assert RND(key).decrypt_bytes_many(rnd_sealed, ivs) == messages
    assert DET(key).decrypt_bytes_many(det_sealed) == messages
    assert RND(key).encrypt_bytes_many(messages, ivs) == rnd_sealed


def test_aes_pickles_as_its_key():
    key = bytes(range(32))
    cipher = AES(key)
    assert cipher.__reduce__() == (AES, (key,))
    clone = pickle.loads(pickle.dumps(cipher))
    assert clone.key == key
    assert clone.encrypt_block(PLAINTEXT) == cipher.encrypt_block(PLAINTEXT)


@native_only
def test_native_contexts_are_freed_with_the_object(monkeypatch):
    freed = []
    release = aes._free_contexts

    def counting(*args):
        freed.append(args)
        release(*args)

    monkeypatch.setattr(aes, "_free_contexts", counting)
    ciphers = [AES(os.urandom(16)) for _ in range(5)]
    assert freed == []
    del ciphers
    gc.collect()
    assert len(freed) == 5


def test_database_written_on_one_backend_reads_on_the_other(tmp_path, paillier_keypair):
    """Stored ciphertexts are identical: a pure-written file reopens natively."""
    db_path = os.fspath(tmp_path / "t.db")
    kwargs = {
        "catalog": os.fspath(tmp_path / "t.wal"),
        "master_key": MasterKey.from_passphrase("aes-backend-interop"),
        "paillier": paillier_keypair,
        "hom_precompute": 0,
    }
    rows = [(i, f"name-{i % 4}", "x" * (i * 5), i * 10) for i in range(12)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aes, "_native", None)
        conn = repro.connect(db_path, **kwargs)
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (id INT, name VARCHAR(20), body TEXT, qty INT)")
        cur.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
        cur.execute("SELECT id FROM t WHERE name = ?", ("name-1",))
        assert sorted(r[0] for r in cur.fetchall()) == [1, 5, 9]
        conn.close()
    conn = repro.connect(db_path, **kwargs)
    try:
        cur = conn.cursor()
        cur.execute("SELECT id, name, body, qty FROM t")
        assert sorted(cur.fetchall()) == rows
        cur.execute("SELECT id FROM t WHERE name = ?", ("name-2",))
        assert sorted(r[0] for r in cur.fetchall()) == [2, 6, 10]
    finally:
        conn.close()
