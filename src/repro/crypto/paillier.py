"""HOM: the Paillier additively homomorphic cryptosystem.

Multiplying two Paillier ciphertexts yields an encryption of the sum of the
plaintexts: ``HOM(x) * HOM(y) mod n^2 = HOM(x + y)``.  CryptDB uses this for
``SUM`` aggregates and for in-place increments (``SET id = id + 1``), with
the multiplication performed by a server-side UDF that never sees the secret
key.  The ciphertext is ``2 * key_bits`` long (2048 bits for the paper's
1024-bit modulus).

The proxy can pre-compute the random ``r^n mod n^2`` factors used by
encryption (section 3.5.2); :meth:`PaillierKeyPair.precompute_randomness`
implements that optimisation and the Figure 12 "Proxy*" ablation disables it.
"""

from __future__ import annotations

import secrets
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.crypto.numbers import crt_pair, generate_prime, lcm, modinv
from repro.errors import CryptoError

DEFAULT_KEY_BITS = 1024

#: Tag prefixing a multi-partial packed SUM blob (see :class:`PackingConfig`).
PARTIAL_SUM_TAG = b"PSUM"


@dataclass
class PaillierPublicKey:
    """The public part (n, g) of a Paillier key pair."""

    n: int
    g: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class PackingConfig:
    """Slot layout for packing several HOM values into one ciphertext (§8.4).

    The paper keeps ciphertext expansion moderate by packing multiple
    additively-homomorphic values into a single Paillier plaintext; we pack
    one slot per HOM column of a table row.  Each slot is two subfields::

        [ count : headroom_bits + 1 ][ value : value_bits + headroom_bits ]

    * ``value`` holds the offset-encoded value ``v + 2^(value_bits-1)``
      (signed values become non-negative, so slots never borrow from their
      neighbours under homomorphic addition).
    * ``count`` holds the number of non-NULL rows folded into the slot: a
      stored row contributes 1 (or 0 for SQL NULL), and summing ciphertexts
      sums the counts.  The decryptor recovers ``sum = value - count*offset``
      and reports NULL when ``count == 0`` -- which also keeps the
      zero-rows/all-NULL ``SUM -> NULL`` semantics intact.

    ``headroom_bits`` bounds how many rows can be summed into one ciphertext
    before a subfield could overflow: a SUM aggregate closes its running
    chunk every ``chunk_rows`` rows and emits multiple partial ciphertexts
    (see :func:`encode_partial_sums`).  The default 16 bits allows 65536
    rows per chunk; tests use tiny headroom to exercise the chunking path.
    """

    value_bits: int = 64
    headroom_bits: int = 16

    def __post_init__(self):
        if self.value_bits < 2 or self.headroom_bits < 1:
            raise CryptoError("PackingConfig subfields too small")

    @property
    def offset(self) -> int:
        return 1 << (self.value_bits - 1)

    @property
    def value_width(self) -> int:
        return self.value_bits + self.headroom_bits

    @property
    def count_width(self) -> int:
        return self.headroom_bits + 1

    @property
    def slot_width(self) -> int:
        return self.value_width + self.count_width

    @property
    def chunk_rows(self) -> int:
        """Rows a SUM may fold into one ciphertext before closing the chunk."""
        return 1 << self.headroom_bits

    def slots_for(self, modulus: int) -> int:
        """How many slots fit one Paillier plaintext under ``modulus``."""
        slots = (modulus.bit_length() - 1) // self.slot_width
        if slots < 1:
            raise CryptoError(
                "Paillier modulus too small for one %d-bit packed slot"
                % self.slot_width
            )
        return slots

    # -- cell codec (one stored row) --------------------------------------
    def encode_cell(self, values: Sequence[Optional[int]]) -> int:
        """Pack one row's member values (``None`` = SQL NULL) into slots."""
        offset = self.offset
        packed = 0
        for slot, value in enumerate(values):
            if value is None:
                continue
            if not -offset <= value < offset:
                raise CryptoError(
                    "packed HOM value %d outside signed %d-bit range"
                    % (value, self.value_bits)
                )
            raw = ((1 << self.value_width) | (value + offset)) << (
                slot * self.slot_width
            )
            packed |= raw
        return packed

    def decode_slot(self, plaintext: int, slot: int) -> tuple[int, int]:
        """Return ``(count, sum)`` for one slot of a decrypted plaintext."""
        raw = (plaintext >> (slot * self.slot_width)) & (
            (1 << self.slot_width) - 1
        )
        count = raw >> self.value_width
        total = (raw & ((1 << self.value_width) - 1)) - count * self.offset
        return count, total

    def decode_cell(self, plaintext: int, slot: int) -> Optional[int]:
        """Read one *stored-row* slot back: ``None`` when the value was NULL."""
        count, total = self.decode_slot(plaintext, slot)
        return None if count == 0 else total

    def encode_delta(self, delta: int, slot: int, modulus: int) -> int:
        """Plaintext for a homomorphic ``col = col +/- k`` on one slot.

        Negative deltas wrap mod ``modulus``; the offset encoding guarantees
        the target slot's value subfield is at least ``offset > |delta|``, so
        the subtraction never borrows into the count subfield or a
        neighbouring slot.
        """
        if not -self.offset < delta < self.offset:
            raise CryptoError(
                "packed HOM delta %d outside signed %d-bit range"
                % (delta, self.value_bits)
            )
        return (delta << (slot * self.slot_width)) % modulus


# -- multi-chunk SUM partials -----------------------------------------------
def encode_partial_sums(ciphertexts: Sequence[int]) -> bytes:
    """Serialize several packed-SUM partial ciphertexts into one BLOB.

    A packed SUM aggregate that folds more than ``chunk_rows`` rows closes
    its running product and starts a new one; the finalized aggregate is
    then a *list* of ciphertexts.  This tagged encoding crosses the DBMS
    result path (both the in-memory engine and the SQLite codec pass bytes
    through untouched); the proxy decrypts each partial and adds the
    per-slot ``(count, sum)`` pairs in plaintext.
    """
    parts = [PARTIAL_SUM_TAG, struct.pack(">I", len(ciphertexts))]
    for ciphertext in ciphertexts:
        raw = ciphertext.to_bytes((ciphertext.bit_length() + 7) // 8 or 1, "big")
        parts.append(struct.pack(">I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def is_partial_sum_blob(value) -> bool:
    return isinstance(value, (bytes, bytearray)) and bytes(value[:4]) == PARTIAL_SUM_TAG


def decode_partial_sums(blob: bytes) -> list[int]:
    """Invert :func:`encode_partial_sums`."""
    if not is_partial_sum_blob(blob):
        raise CryptoError("not a packed partial-SUM blob")
    (count,) = struct.unpack_from(">I", blob, 4)
    ciphertexts = []
    cursor = 8
    for _ in range(count):
        (length,) = struct.unpack_from(">I", blob, cursor)
        cursor += 4
        ciphertexts.append(int.from_bytes(blob[cursor : cursor + length], "big"))
        cursor += length
    if cursor != len(blob):
        raise CryptoError("trailing bytes in packed partial-SUM blob")
    return ciphertexts


@dataclass
class PaillierPrivateKey:
    """The secret part of a Paillier key pair.

    ``lam``/``mu`` implement the textbook decryption; when the prime factors
    ``p`` and ``q`` are retained (the generated default), decryption and the
    ``r^n mod n^2`` randomness draw run in CRT form -- two half-size
    exponentiations recombined via the Chinese remainder theorem -- which is
    several times faster.  Keys deserialised without the factors
    (``p == q == 0``) transparently fall back to the lambda/mu path.
    """

    lam: int
    mu: int
    p: int = 0
    q: int = 0


class _CrtContext:
    """Precomputed CRT constants for one private key (computed once)."""

    __slots__ = ("p", "q", "p_squared", "q_squared", "hp", "hq")

    def __init__(self, n: int, p: int, q: int):
        self.p = p
        self.q = q
        self.p_squared = p * p
        self.q_squared = q * q
        # hp = (L_p(g^(p-1) mod p^2))^-1 mod p with g = n + 1, and likewise
        # for q: the per-prime analogue of mu.
        self.hp = modinv((pow(n + 1, p - 1, self.p_squared) - 1) // p % p, p)
        self.hq = modinv((pow(n + 1, q - 1, self.q_squared) - 1) // q % q, q)

    def random_nth_residue(self) -> int:
        """A uniform n-th residue mod n^2, drawn with half-length exponents.

        Encryption multiplies by ``r^n mod n^2`` for a random unit ``r``; all
        that matters is the distribution of that factor.  By the CRT,
        ``Z*_{n^2}`` is ``Z*_{p^2} x Z*_{q^2}``, and ``Z*_{p^2}`` is cyclic
        of order ``p(p-1)``.  Since ``gcd(n, phi(n)) = 1`` (always so for
        primes of equal length), ``r -> r^n`` maps ``Z*_{p^2}`` onto its
        unique subgroup of order ``p - 1``, so ``r^n mod p^2`` is uniform
        on that subgroup, and likewise mod ``q^2``, independently.

        ``x -> x^p`` maps ``Z*_{p^2}`` onto the same order-``(p-1)``
        subgroup, and ``x^p mod p^2`` depends only on ``x mod p``
        (``(x + kp)^p = x^p mod p^2``), so ``a -> a^p`` is one-to-one from
        ``Z*_p`` onto that subgroup.  Hence ``crt(a^p mod p^2, b^q mod q^2)``
        with ``a`` uniform in ``[1, p)`` and ``b`` uniform in ``[1, q)`` has
        exactly the distribution of ``r^n mod n^2`` -- for half the
        exponent length (``p`` instead of ``n mod p(p-1)``).
        """
        a = secrets.randbelow(self.p - 1) + 1
        b = secrets.randbelow(self.q - 1) + 1
        return crt_pair(
            pow(a, self.p, self.p_squared), self.p_squared,
            pow(b, self.q, self.q_squared), self.q_squared,
        )

    def decrypt(self, ciphertext: int) -> int:
        """CRT decryption: L(c^(p-1)) * hp mod p recombined with the q half."""
        cp = pow(ciphertext % self.p_squared, self.p - 1, self.p_squared)
        mp = (cp - 1) // self.p % self.p * self.hp % self.p
        cq = pow(ciphertext % self.q_squared, self.q - 1, self.q_squared)
        mq = (cq - 1) // self.q % self.q * self.hq % self.q
        return crt_pair(mp, self.p, mq, self.q)


@dataclass
class PaillierKeyPair:
    """A full Paillier key pair plus the optional randomness pool."""

    public: PaillierPublicKey
    private: PaillierPrivateKey
    _randomness_pool: list = field(default_factory=list, repr=False)
    _crt: Optional[_CrtContext] = field(default=None, repr=False, compare=False)
    #: encryptions served from the pre-computed pool vs. paying ``r^n`` inline.
    pool_hits: int = 0
    pool_misses: int = 0
    #: Low-pool callback (§3.5.2's "pre-compute while idle", made literal):
    #: when set, it is invoked -- without blocking encryption -- whenever the
    #: randomness pool drops to ``refill_watermark`` or below, so an owner
    #: (the proxy's crypto worker pool) can refill in the background instead
    #: of stalling the first INSERT burst after exhaustion.
    refill_watermark: int = field(default=0, repr=False, compare=False)
    refill_hook: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def _crt_context(self) -> Optional[_CrtContext]:
        """The CRT fast path, when the private key retains its factors."""
        if self._crt is None and self.private.p:
            self._crt = _CrtContext(self.public.n, self.private.p, self.private.q)
        return self._crt

    @classmethod
    def generate(cls, bits: int = DEFAULT_KEY_BITS) -> "PaillierKeyPair":
        """Generate a fresh key pair with an n of roughly ``bits`` bits."""
        if bits < 64:
            raise CryptoError("Paillier modulus too small")
        half = bits // 2
        while True:
            p = generate_prime(half)
            q = generate_prime(half)
            if p != q:
                n = p * q
                if n.bit_length() >= bits - 1:
                    break
        lam = lcm(p - 1, q - 1)
        g = n + 1  # standard simplification: g = n + 1
        n_sq = n * n
        # mu = (L(g^lambda mod n^2))^-1 mod n, where L(u) = (u - 1) / n
        u = pow(g, lam, n_sq)
        l_value = (u - 1) // n
        mu = modinv(l_value, n)
        return cls(PaillierPublicKey(n, g), PaillierPrivateKey(lam, mu, p, q))

    # -- randomness pre-computation (section 3.5.2) -----------------------
    def precompute_randomness(self, count: int) -> None:
        """Pre-compute ``count`` random ``r^n mod n^2`` factors."""
        self._randomness_pool.extend(self._draw_randomness() for _ in range(count))

    @property
    def randomness_pool_size(self) -> int:
        """Number of unused pre-computed randomness factors."""
        return len(self._randomness_pool)

    @property
    def randomness_pool_bytes(self) -> int:
        """Heap bytes held by the pool (factors are all ``n^2``-sized)."""
        pool = self._randomness_pool
        size = sys.getsizeof(pool)
        if pool:
            size += len(pool) * sys.getsizeof(pool[0])
        return size

    def trim_randomness_pool(self, keep: int) -> int:
        """Discard pre-computed factors beyond ``keep``; returns how many.

        Used by the cache's byte-budget enforcement: the pool trades memory
        for future encryption latency, so shedding factors is always safe --
        the next encryptions simply pay ``r^n`` inline again.
        """
        keep = max(0, keep)
        dropped = len(self._randomness_pool) - keep
        if dropped > 0:
            del self._randomness_pool[keep:]
            return dropped
        return 0

    def _next_randomness(self) -> int:
        if self._randomness_pool:
            self.pool_hits += 1
            factor = self._randomness_pool.pop()
            if (
                self.refill_hook is not None
                and len(self._randomness_pool) <= self.refill_watermark
            ):
                self.refill_hook()
            return factor
        self.pool_misses += 1
        if self.refill_hook is not None:
            self.refill_hook()
        return self._draw_randomness()

    def _draw_randomness(self) -> int:
        """One fresh encryption factor, uniform over the n-th residues.

        The proxy holds the secret key, so when the factors are kept the
        draw takes the CRT path (:meth:`_CrtContext.random_nth_residue`);
        otherwise it is the textbook ``r^n mod n^2``.
        """
        crt = self._crt_context()
        if crt is not None:
            return crt.random_nth_residue()
        n = self.public.n
        return pow(secrets.randbelow(n - 2) + 1, n, self.public.n_squared)

    def reset_counters(self) -> None:
        self.pool_hits = 0
        self.pool_misses = 0

    # -- encryption / decryption ------------------------------------------
    def encrypt(self, plaintext: int) -> int:
        """Encrypt an integer in ``[0, n)``.

        Negative values should be mapped into the modular range by the caller
        (the proxy encodes signed SQL integers with an offset).
        """
        n = self.public.n
        if not 0 <= plaintext < n:
            raise CryptoError("Paillier plaintext out of range")
        n_sq = self.public.n_squared
        # g^m = (1 + n)^m = 1 + n*m mod n^2 for g = n + 1.
        g_m = (1 + n * plaintext) % n_sq
        return (g_m * self._next_randomness()) % n_sq

    def encrypt_many(self, plaintexts: list[int]) -> list[int]:
        """Encrypt a column of integers.

        HOM is probabilistic, so unlike DET/OPE there is nothing to memoise;
        the batch form exists so column encryption drains the pre-computed
        randomness pool in one pass (and so callers have one API shape for
        every scheme).
        """
        return [None if p is None else self.encrypt(p) for p in plaintexts]

    def decrypt(self, ciphertext: int) -> int:
        """Invert :meth:`encrypt` (CRT fast path when the factors are kept)."""
        n = self.public.n
        n_sq = self.public.n_squared
        if not 0 <= ciphertext < n_sq:
            raise CryptoError("Paillier ciphertext out of range")
        crt = self._crt_context()
        if crt is not None:
            return crt.decrypt(ciphertext)
        u = pow(ciphertext, self.private.lam, n_sq)
        l_value = (u - 1) // n
        return (l_value * self.private.mu) % n

    def decrypt_many(self, ciphertexts: list[int]) -> list[int]:
        """Invert :meth:`encrypt_many`."""
        return [None if c is None else self.decrypt(c) for c in ciphertexts]

    # -- packed slots (section 8.4's ciphertext packing) -------------------
    def encrypt_packed(
        self, values: Sequence[Optional[int]], config: PackingConfig
    ) -> int:
        """Encrypt one row's HOM members into a single packed ciphertext.

        ``values`` is slot-ordered; ``None`` marks SQL NULL (count 0).  The
        whole row costs *one* exponentiation instead of ``len(values)``.
        """
        return self.encrypt(config.encode_cell(values))

    def encrypt_packed_many(
        self, rows: Sequence[Sequence[Optional[int]]], config: PackingConfig
    ) -> list[int]:
        """Encrypt a batch of rows, one packed ciphertext per row."""
        return [self.encrypt(config.encode_cell(row)) for row in rows]

    def decrypt_packed(
        self, ciphertext: int, slots: int, config: PackingConfig
    ) -> list[tuple[int, int]]:
        """Decrypt once and shift/mask out every slot as ``(count, sum)``."""
        plaintext = self.decrypt(ciphertext)
        return [config.decode_slot(plaintext, slot) for slot in range(slots)]

    def decrypt_packed_sum(
        self, value, slot: int, config: PackingConfig
    ) -> tuple[int, int]:
        """Decrypt a packed SUM result -- an int ciphertext or a multi-chunk
        :func:`encode_partial_sums` blob -- and return one slot's
        ``(count, sum)``, added across partials."""
        if is_partial_sum_blob(value):
            ciphertexts = decode_partial_sums(bytes(value))
        else:
            ciphertexts = [value]
        count = total = 0
        for ciphertext in ciphertexts:
            part_count, part_total = config.decode_slot(
                self.decrypt(ciphertext), slot
            )
            count += part_count
            total += part_total
        return count, total


class Paillier:
    """Stateless homomorphic operations usable by the DBMS server's UDFs.

    The server holds only the public key; addition of ciphertexts requires no
    secrets, which is what makes the HOM UDF safe to run on the untrusted
    DBMS.
    """

    def __init__(self, public: PaillierPublicKey):
        self.public = public

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphically add two ciphertexts."""
        return (ciphertext_a * ciphertext_b) % self.public.n_squared

    def add_plain(self, ciphertext: int, plaintext: int) -> int:
        """Homomorphically add a plaintext constant to a ciphertext."""
        n = self.public.n
        g_m = (1 + n * (plaintext % n)) % self.public.n_squared
        return (ciphertext * g_m) % self.public.n_squared

    def identity(self) -> int:
        """Encryption of zero with unit randomness, the neutral element for SUM."""
        return 1

    def sum(self, ciphertexts: list[int]) -> int:
        """Homomorphically sum a list of ciphertexts (the SUM aggregate UDF)."""
        total = self.identity()
        for ciphertext in ciphertexts:
            total = self.add(total, ciphertext)
        return total
