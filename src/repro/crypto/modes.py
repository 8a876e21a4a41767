"""Block-cipher modes of operation used by the RND and DET layers.

* CBC with a random IV implements RND (probabilistic encryption).
* CMC -- one CBC pass followed by a second pass over the blocks in reverse
  order with a zero IV -- implements DET for multi-block values, so that two
  plaintexts sharing a long prefix do not produce ciphertexts with equal
  prefixes (section 3.1 of the paper).
* CTR is provided for completeness; the wire transport seals its records
  with it.

Encryption in CBC and CMC is inherently serial (each block's input depends
on the previous block's output), so it calls the cipher block by block.
Everything else hands the cipher whole runs of independent blocks: CBC and
CMC decryption undo each pass with one ``decrypt_blocks`` call followed by
one XOR against the shifted ciphertext, the ``*_many`` forms do that for a
whole column of values at once, and CTR builds the keystream for a whole
message in one ``encrypt_blocks`` call.
The output is byte-for-byte the block-at-a-time definition's.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.crypto.primitives import (
    pkcs7_pad,
    pkcs7_unpad,
    split_blocks,
    xor_bytes,
)
from repro.errors import CryptoError


class BlockCipher(Protocol):
    """A block cipher over fixed-size blocks, one at a time or many at once."""

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def encrypt_blocks(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decrypt_blocks(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def _block_size(cipher: BlockCipher) -> int:
    return getattr(cipher, "block_size", 16)


def _check_whole_blocks(data: bytes, size: int) -> None:
    if len(data) % size:
        raise CryptoError("data length is not a multiple of the block size")


def _chained_decrypt(cipher: BlockCipher, chains: bytes, joined: bytes) -> bytes:
    """Undo one CBC pass over ``joined``: D(C_i) XOR the block before it.

    ``chains`` is, block for block, what each ciphertext block was chained
    to on encryption (its IV or the ciphertext block before it).
    """
    return xor_bytes(cipher.decrypt_blocks(joined), chains)


def cbc_encrypt(cipher: BlockCipher, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7 padded) under ``iv``."""
    size = _block_size(cipher)
    if len(iv) != size:
        raise CryptoError("IV must match the cipher block size")
    padded = pkcs7_pad(plaintext, size)
    previous = iv
    out = bytearray()
    for block in split_blocks(padded, size):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`cbc_encrypt`."""
    return cbc_decrypt_many(cipher, [iv], [ciphertext])[0]


def cbc_decrypt_many(
    cipher: BlockCipher,
    ivs: Sequence[Optional[bytes]],
    ciphertexts: Sequence[Optional[bytes]],
) -> list[Optional[bytes]]:
    """Invert :func:`cbc_encrypt` for a column of values in one cipher call.

    ``None`` entries pass through.  Every value is checked before any is
    decrypted, so a malformed one fails the batch with :class:`CryptoError`.
    """
    size = _block_size(cipher)
    values = [(ct, iv) for ct, iv in zip(ciphertexts, ivs) if ct is not None]
    for ciphertext, iv in values:
        if len(iv) != size:
            raise CryptoError("IV must match the cipher block size")
        _check_whole_blocks(ciphertext, size)
    plain = _chained_decrypt(
        cipher,
        b"".join((iv + ct)[: len(ct)] for ct, iv in values),
        b"".join(ct for ct, _ in values),
    )
    return _unpad_each(plain, ciphertexts, size)


def _unpad_each(
    plain: bytes, ciphertexts: Sequence[Optional[bytes]], size: int
) -> list[Optional[bytes]]:
    """Cut the batch output back into per-value plaintexts (None stays None)."""
    out: list[Optional[bytes]] = []
    offset = 0
    for ciphertext in ciphertexts:
        if ciphertext is None:
            out.append(None)
            continue
        end = offset + len(ciphertext)
        out.append(pkcs7_unpad(plain[offset:end], size))
        offset = end
    return out


def cmc_encrypt(cipher: BlockCipher, plaintext: bytes) -> bytes:
    """CMC-style encryption with a zero tweak, used for DET on long values.

    Approximated as in the paper's description: one round of CBC followed by
    another round of CBC applied to the blocks in reverse order, both with a
    zero IV, so equal plaintexts map to equal ciphertexts but shared prefixes
    do not leak.
    """
    size = _block_size(cipher)
    zero_iv = bytes(size)
    padded = pkcs7_pad(plaintext, size)
    # First CBC pass (forward).
    previous = zero_iv
    first_pass = []
    for block in split_blocks(padded, size):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        first_pass.append(encrypted)
        previous = encrypted
    # Second CBC pass over the reversed block sequence.
    previous = zero_iv
    second_pass = []
    for block in reversed(first_pass):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        second_pass.append(encrypted)
        previous = encrypted
    return b"".join(second_pass)


def cmc_decrypt(cipher: BlockCipher, ciphertext: bytes) -> bytes:
    """Invert :func:`cmc_encrypt`."""
    return cmc_decrypt_many(cipher, [ciphertext])[0]


def cmc_decrypt_many(
    cipher: BlockCipher, ciphertexts: Sequence[Optional[bytes]]
) -> list[Optional[bytes]]:
    """Invert :func:`cmc_encrypt` for a column of values in two cipher calls.

    Each pass is CBC under a zero IV, so undoing it is one batch decryption
    and one XOR; between the passes each value's blocks go back into
    forward order.  ``None`` entries pass through.
    """
    size = _block_size(cipher)
    values = [ct for ct in ciphertexts if ct is not None]
    for ciphertext in values:
        _check_whole_blocks(ciphertext, size)
    zero_iv = bytes(size)
    # Undo the second pass: each value's first-pass blocks, reversed.
    reversed_first = _chained_decrypt(
        cipher,
        b"".join((zero_iv + ct)[: len(ct)] for ct in values),
        b"".join(values),
    )
    first_pass = []
    offset = 0
    for ciphertext in values:
        end = offset + len(ciphertext)
        first_pass.append(
            b"".join(
                reversed_first[i : i + size] for i in range(end - size, offset - 1, -size)
            )
        )
        offset = end
    # Undo the first pass.
    plain = _chained_decrypt(
        cipher,
        b"".join((zero_iv + fp)[: len(fp)] for fp in first_pass),
        b"".join(first_pass),
    )
    return _unpad_each(plain, ciphertexts, size)


def ctr_transform(cipher: BlockCipher, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream XOR; encryption and decryption are the same operation.

    Counter block ``i`` is ``nonce || i`` (big-endian, filling the block);
    the whole keystream is made in one ``encrypt_blocks`` call.
    """
    size = _block_size(cipher)
    if len(nonce) > size - 4:
        raise CryptoError("nonce too long for a 32-bit counter")
    if not data:
        return b""
    base = int.from_bytes(nonce, "big") << (8 * (size - len(nonce)))
    blocks = -(-len(data) // size)
    counters = b"".join([(base + i).to_bytes(size, "big") for i in range(blocks)])
    keystream = cipher.encrypt_blocks(counters)
    return xor_bytes(data, keystream[: len(data)])
