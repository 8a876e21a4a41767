"""AES block cipher (FIPS-197): native libcrypto, with a pure-Python reference.

CryptDB uses AES as the workhorse block cipher for the RND and DET layers on
128-bit (and larger) values, and as the PRP underlying key derivation.  Its
proxy does that work in native OpenSSL code, and so does this module when it
can: at import it binds, through :mod:`ctypes`, to the ``libcrypto`` that
CPython's ``_hashlib`` already maps into the process, and every :class:`AES`
holds one ECB/no-padding ``EVP_CIPHER_CTX`` per direction.  No package
beyond the standard library is needed.

Where no such library loads (or it fails a FIPS-197 known-answer check), the
module falls back to the pure-Python cipher below, which stays as the
reference implementation: both directions run as full T-table ciphers --
SubBytes, ShiftRows and MixColumns fused into four 256-entry 32-bit tables
per direction (generated at import time from the algebraic S-box, like the
S-box itself), with the state as four word-packed columns.  Decryption uses
the equivalent inverse cipher of FIPS-197 §5.3.5, with InvMixColumns folded
into the decryption key schedule so the inverse rounds are pure table
lookups too.  The two paths produce identical bytes, so data written on one
reads on the other.  The block modes (CBC, CMC, CTR) live in
:mod:`repro.crypto.modes`; they hand whole runs of independent blocks to
:meth:`AES.encrypt_blocks` / :meth:`AES.decrypt_blocks` in one call.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Optional

from repro.errors import CryptoError

BLOCK_SIZE = 16
_ROUNDS = {16: 10, 24: 12, 32: 14}

# The AES S-box and its inverse are generated from the multiplicative inverse
# in GF(2^8) followed by the affine transform, so we do not need to embed the
# 256-entry tables as literals.


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    if a == 0:
        return 0
    # a^(2^8 - 2) = a^254 in GF(2^8)
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, base)
        base = _gf_mul(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = _gf_inverse(value)
        transformed = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
            ) & 1
            c = (0x63 >> bit) & 1
            transformed |= (b ^ c) << bit
        sbox[value] = transformed
        inv_sbox[transformed] = value
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_xtime(_RCON[-1]))

# Pre-computed GF(2^8) multiplication tables for the (inverse) MixColumns
# constants, used to build the T-tables and the decryption key schedule.
_MUL2 = [_gf_mul(x, 2) for x in range(256)]
_MUL3 = [_gf_mul(x, 3) for x in range(256)]
_MUL9 = [_gf_mul(x, 9) for x in range(256)]
_MUL11 = [_gf_mul(x, 11) for x in range(256)]
_MUL13 = [_gf_mul(x, 13) for x in range(256)]
_MUL14 = [_gf_mul(x, 14) for x in range(256)]


def _ror8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_t_tables() -> tuple[tuple[int, ...], ...]:
    """Fused SubBytes+MixColumns tables for both cipher directions.

    ``T0[x]`` packs the MixColumns image of a row-0 substituted byte into one
    big-endian column word; ``T1..T3`` are its byte rotations (the images of
    rows 1..3).  ``IT0..IT3`` are the same construction over the inverse
    S-box and InvMixColumns matrix.
    """
    t0, it0 = [], []
    for x in range(256):
        s = _SBOX[x]
        t0.append((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s])
        s = _INV_SBOX[x]
        it0.append((_MUL14[s] << 24) | (_MUL9[s] << 16) | (_MUL13[s] << 8) | _MUL11[s])
    tables = [tuple(t0)]
    for _ in range(3):
        tables.append(tuple(_ror8(t) for t in tables[-1]))
    inverse_tables = [tuple(it0)]
    for _ in range(3):
        inverse_tables.append(tuple(_ror8(t) for t in inverse_tables[-1]))
    return (*tables, *inverse_tables)


_T0, _T1, _T2, _T3, _IT0, _IT1, _IT2, _IT3 = _build_t_tables()


def _sub_word(word: int) -> int:
    sbox = _SBOX
    return (
        (sbox[(word >> 24) & 0xFF] << 24)
        | (sbox[(word >> 16) & 0xFF] << 16)
        | (sbox[(word >> 8) & 0xFF] << 8)
        | sbox[word & 0xFF]
    )


def _inv_mix_word(word: int) -> int:
    """InvMixColumns on one packed column (decryption key schedule only)."""
    a0 = (word >> 24) & 0xFF
    a1 = (word >> 16) & 0xFF
    a2 = (word >> 8) & 0xFF
    a3 = word & 0xFF
    return (
        ((_MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]) << 24)
        | ((_MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]) << 16)
        | ((_MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]) << 8)
        | (_MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3])
    )



def _expand_key(key: bytes) -> list[tuple[int, int, int, int]]:
    """Round keys as four packed column words each (FIPS-197 §5.2)."""
    nk = len(key) // 4
    nr = _ROUNDS[len(key)]
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(((temp << 8) | (temp >> 24)) & 0xFFFFFFFF)
            temp ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return [tuple(words[4 * r : 4 * r + 4]) for r in range(nr + 1)]


def _inverse_key_schedule(
    round_keys: list[tuple[int, int, int, int]]
) -> list[tuple[int, int, int, int]]:
    """Equivalent-inverse-cipher schedule: reversed, InvMixColumns inside."""
    inverse = [round_keys[-1]]
    for rk in round_keys[-2:0:-1]:
        inverse.append(tuple(_inv_mix_word(w) for w in rk))
    inverse.append(round_keys[0])
    return inverse


def _pure_encrypt_block(round_keys: list, block: bytes) -> bytes:
    """The T-table cipher on one 16-byte block."""
    rounds = len(round_keys) - 1
    k0, k1, k2, k3 = round_keys[0]
    s0 = int.from_bytes(block[0:4], "big") ^ k0
    s1 = int.from_bytes(block[4:8], "big") ^ k1
    s2 = int.from_bytes(block[8:12], "big") ^ k2
    s3 = int.from_bytes(block[12:16], "big") ^ k3
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    for r in range(1, rounds):
        k0, k1, k2, k3 = round_keys[r]
        u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k0
        u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k1
        u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k2
        u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k3
        s0, s1, s2, s3 = u0, u1, u2, u3
    sbox = _SBOX
    k0, k1, k2, k3 = round_keys[rounds]
    out0 = (
        (sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
        | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
    ) ^ k0
    out1 = (
        (sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
        | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
    ) ^ k1
    out2 = (
        (sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
        | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
    ) ^ k2
    out3 = (
        (sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
        | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
    ) ^ k3
    return (
        out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
        + out2.to_bytes(4, "big") + out3.to_bytes(4, "big")
    )


def _pure_decrypt_block(round_keys: list, block: bytes) -> bytes:
    """The equivalent inverse T-table cipher on one 16-byte block."""
    rounds = len(round_keys) - 1
    k0, k1, k2, k3 = round_keys[0]
    s0 = int.from_bytes(block[0:4], "big") ^ k0
    s1 = int.from_bytes(block[4:8], "big") ^ k1
    s2 = int.from_bytes(block[8:12], "big") ^ k2
    s3 = int.from_bytes(block[12:16], "big") ^ k3
    t0, t1, t2, t3 = _IT0, _IT1, _IT2, _IT3
    for r in range(1, rounds):
        k0, k1, k2, k3 = round_keys[r]
        u0 = t0[s0 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k0
        u1 = t0[s1 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k1
        u2 = t0[s2 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k2
        u3 = t0[s3 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k3
        s0, s1, s2, s3 = u0, u1, u2, u3
    sbox = _INV_SBOX
    k0, k1, k2, k3 = round_keys[rounds]
    out0 = (
        (sbox[s0 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
        | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
    ) ^ k0
    out1 = (
        (sbox[s1 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
        | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
    ) ^ k1
    out2 = (
        (sbox[s2 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
        | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
    ) ^ k2
    out3 = (
        (sbox[s3 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
        | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
    ) ^ k3
    return (
        out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
        + out2.to_bytes(4, "big") + out3.to_bytes(4, "big")
    )


# -- native backend: libcrypto's EVP interface through ctypes ----------------
class _LibCrypto:
    """The EVP ECB entry points of one loaded libcrypto.

    Bound through :class:`ctypes.PyDLL`, which keeps the GIL held for the
    duration of every call: two threads can never be inside one
    ``EVP_CIPHER_CTX`` at once, so a context needs no lock of its own.
    """

    def __init__(self, lib: ctypes.PyDLL):
        p, i = ctypes.c_void_p, ctypes.c_int
        lib.EVP_CIPHER_CTX_new.argtypes = []
        lib.EVP_CIPHER_CTX_new.restype = p
        lib.EVP_CIPHER_CTX_free.argtypes = [p]
        lib.EVP_CIPHER_CTX_free.restype = None
        lib.EVP_CipherInit_ex.argtypes = [p, p, p, ctypes.c_char_p, ctypes.c_char_p, i]
        lib.EVP_CipherInit_ex.restype = i
        lib.EVP_CIPHER_CTX_set_padding.argtypes = [p, i]
        lib.EVP_CIPHER_CTX_set_padding.restype = i
        lib.EVP_CipherUpdate.argtypes = [p, p, ctypes.POINTER(i), ctypes.c_char_p, i]
        lib.EVP_CipherUpdate.restype = i
        self._ciphers = {}
        for size, getter_name in (
            (16, "EVP_aes_128_ecb"), (24, "EVP_aes_192_ecb"), (32, "EVP_aes_256_ecb")
        ):
            getter = getattr(lib, getter_name)
            getter.argtypes = []
            getter.restype = p
            cipher = getter()
            if not cipher:
                raise CryptoError(f"{getter_name} returned NULL")
            self._ciphers[size] = cipher
        self._new = lib.EVP_CIPHER_CTX_new
        self._init = lib.EVP_CipherInit_ex
        self._set_padding = lib.EVP_CIPHER_CTX_set_padding
        self._update = lib.EVP_CipherUpdate
        self.free = lib.EVP_CIPHER_CTX_free

    def new_context(self, key: bytes, encrypt: bool) -> int:
        """One ECB, no-padding context keyed for one direction."""
        ctx = self._new()
        if not ctx:
            raise CryptoError("EVP_CIPHER_CTX_new failed")
        if (
            self._init(ctx, self._ciphers[len(key)], None, key, None, int(encrypt)) != 1
            or self._set_padding(ctx, 0) != 1
        ):
            self.free(ctx)
            raise CryptoError("EVP_CipherInit_ex failed")
        return ctx

    def ecb(self, ctx: int, data: bytes) -> bytes:
        """Run ``data`` (whole blocks) through ``ctx`` in one call."""
        if data.__class__ is not bytes:
            data = bytes(data)
        size = len(data)
        out = ctypes.create_string_buffer(size + BLOCK_SIZE)
        written = ctypes.c_int()
        if self._update(ctx, out, written, data, size) != 1 or written.value != size:
            raise CryptoError("EVP_CipherUpdate failed")
        return out.raw[:size]


def _load_libcrypto() -> Optional[_LibCrypto]:
    """Bind the libcrypto that ``_hashlib`` maps in, if it answers FIPS-197.

    Importing ``_hashlib`` first makes the ``dlopen`` below find the copy
    already in the process rather than load a second one.
    """
    try:
        import _hashlib  # noqa: F401
    except ImportError:
        pass
    for name in ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.dylib"):
        try:
            native = _LibCrypto(ctypes.PyDLL(name))
            key = bytes(range(16))
            ctx = native.new_context(key, encrypt=True)
            try:
                answer = native.ecb(ctx, bytes.fromhex("00112233445566778899aabbccddeeff"))
            finally:
                native.free(ctx)
        except (OSError, AttributeError, CryptoError):
            continue
        if answer == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"):
            return native
    return None


#: The native backend, or ``None`` when only the pure-Python cipher is
#: available.  Read once per :class:`AES` construction.
_native: Optional[_LibCrypto] = _load_libcrypto()


def backend() -> str:
    """``"libcrypto"`` when new :class:`AES` objects run natively, else ``"pure"``."""
    return "libcrypto" if _native is not None else "pure"


def _free_contexts(native: _LibCrypto, encrypt_ctx: int, decrypt_ctx: int) -> None:
    """Finalizer of a native :class:`AES`: release both EVP contexts."""
    native.free(encrypt_ctx)
    native.free(decrypt_ctx)


def _check_blocks(data: bytes) -> None:
    if len(data) % BLOCK_SIZE:
        raise CryptoError("AES operates on whole 16-byte blocks")


class AES:
    """AES block cipher for a fixed key.

    Runs on libcrypto when :func:`backend` says so at construction, on the
    pure-Python T-table cipher otherwise; both give identical output.
    ``encrypt_blocks``/``decrypt_blocks`` apply the cipher to every block of
    a concatenation (ECB) -- one native call however many blocks.  An
    instance pickles as its key.

    Parameters
    ----------
    key:
        16, 24 or 32 bytes.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError("AES key must be 16, 24 or 32 bytes")
        self.key = key = bytes(key)
        self._native = native = _native
        if native is None:
            self._round_keys = _expand_key(key)
            self._inverse_round_keys = _inverse_key_schedule(self._round_keys)
            return
        self._encrypt_ctx = native.new_context(key, encrypt=True)
        try:
            self._decrypt_ctx = native.new_context(key, encrypt=False)
        except CryptoError:
            native.free(self._encrypt_ctx)
            raise
        weakref.finalize(self, _free_contexts, native, self._encrypt_ctx, self._decrypt_ctx)

    def __reduce__(self):
        return (AES, (self.key,))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES operates on 16-byte blocks")
        if self._native is not None:
            return self._native.ecb(self._encrypt_ctx, block)
        return _pure_encrypt_block(self._round_keys, block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES operates on 16-byte blocks")
        if self._native is not None:
            return self._native.ecb(self._decrypt_ctx, block)
        return _pure_decrypt_block(self._inverse_round_keys, block)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt every 16-byte block of ``data`` independently (ECB)."""
        _check_blocks(data)
        if not data:
            return b""
        if self._native is not None:
            return self._native.ecb(self._encrypt_ctx, data)
        keys = self._round_keys
        return b"".join(
            _pure_encrypt_block(keys, data[i : i + BLOCK_SIZE])
            for i in range(0, len(data), BLOCK_SIZE)
        )

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt every 16-byte block of ``data`` independently (ECB)."""
        _check_blocks(data)
        if not data:
            return b""
        if self._native is not None:
            return self._native.ecb(self._decrypt_ctx, data)
        keys = self._inverse_round_keys
        return b"".join(
            _pure_decrypt_block(keys, data[i : i + BLOCK_SIZE])
            for i in range(0, len(data), BLOCK_SIZE)
        )
