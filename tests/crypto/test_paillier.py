"""Paillier (HOM): round trips, additive homomorphism, randomness pool."""

import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.numbers import generate_prime, is_probable_prime, modinv
from repro.crypto.paillier import Paillier, PaillierKeyPair, PaillierPrivateKey
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeyPair.generate(512)


@pytest.fixture(scope="module")
def plain_keypair(keypair):
    """The same key without its prime factors: forces the lambda/mu path."""
    private = PaillierPrivateKey(keypair.private.lam, keypair.private.mu)
    assert private.p == 0  # no factors -> no CRT
    return PaillierKeyPair(keypair.public, private)


def test_roundtrip(keypair):
    for value in (0, 1, 12345, 2**40):
        assert keypair.decrypt(keypair.encrypt(value)) == value


def test_encryption_is_probabilistic(keypair):
    assert keypair.encrypt(77) != keypair.encrypt(77)


def test_homomorphic_addition(keypair):
    hom = Paillier(keypair.public)
    ciphertext = hom.add(keypair.encrypt(1234), keypair.encrypt(4321))
    assert keypair.decrypt(ciphertext) == 5555


def test_add_plain_constant(keypair):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.add_plain(keypair.encrypt(100), 23)) == 123


def test_sum_aggregate(keypair):
    hom = Paillier(keypair.public)
    values = [3, 14, 159, 2653]
    total = hom.sum([keypair.encrypt(v) for v in values])
    assert keypair.decrypt(total) == sum(values)


def test_sum_of_nothing_is_zero(keypair):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.sum([])) == 0


def test_randomness_pool(keypair):
    keypair.precompute_randomness(3)
    assert keypair.randomness_pool_size >= 3
    before = keypair.randomness_pool_size
    keypair.encrypt(5)
    assert keypair.randomness_pool_size == before - 1


def test_generated_key_retains_factors(keypair):
    private = keypair.private
    assert private.p > 1 and private.q > 1
    assert private.p * private.q == keypair.public.n


def test_crt_decrypt_equals_plain_decrypt(keypair, plain_keypair):
    for value in (0, 1, 2**40, keypair.public.n - 1):
        ciphertext = keypair.encrypt(value)
        assert keypair.decrypt(ciphertext) == plain_keypair.decrypt(ciphertext)
        assert keypair.decrypt(ciphertext) == value


@settings(max_examples=25, deadline=None)
@given(value=st.integers(min_value=0, max_value=2**60))
def test_crt_decrypt_equivalence_property(keypair, plain_keypair, value):
    ciphertext = plain_keypair.encrypt(value)  # r^n via the plain path
    assert keypair.decrypt(ciphertext) == plain_keypair.decrypt(ciphertext) == value


def test_crt_randomness_is_an_nth_residue_and_decrypts(keypair, plain_keypair):
    """The half-length CRT draw lands in the n-th residues mod n^2.

    Every n-th residue ``h`` satisfies ``h^lambda = 1 (mod n^2)``, while a
    random unit almost never does; a factor outside that subgroup would
    also shift the decrypted plaintext, so both decryption paths must give
    the value back.
    """
    crt = keypair._crt_context()
    assert crt is not None
    n, n_sq = keypair.public.n, keypair.public.n_squared
    lam = keypair.private.lam
    assert pow(secrets.randbelow(n_sq - 2) + 2, lam, n_sq) != 1
    for value in (0, 5, 123456789):
        factor = crt.random_nth_residue()
        assert 0 < factor < n_sq
        assert pow(factor, lam, n_sq) == 1
        ciphertext = (1 + n * value) * factor % n_sq
        assert keypair.decrypt(ciphertext) == value
        assert plain_keypair.decrypt(ciphertext) == value


def test_crt_pool_ciphertexts_decrypt_on_both_paths(keypair, plain_keypair):
    keypair.precompute_randomness(2)
    for value in (17, 123456789):
        ciphertext = keypair.encrypt(value)  # draws a CRT-pooled factor
        assert plain_keypair.decrypt(ciphertext) == value


def test_rejects_out_of_range(keypair):
    with pytest.raises(CryptoError):
        keypair.encrypt(-1)
    with pytest.raises(CryptoError):
        keypair.encrypt(keypair.public.n)
    with pytest.raises(CryptoError):
        keypair.decrypt(keypair.public.n_squared)


def test_key_generation_rejects_tiny_keys():
    with pytest.raises(CryptoError):
        PaillierKeyPair.generate(32)


def test_number_theory_helpers():
    assert is_probable_prime(2) and is_probable_prime(97) and not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael number
    prime = generate_prime(64)
    assert prime.bit_length() == 64 and is_probable_prime(prime)
    assert (modinv(3, 11) * 3) % 11 == 1
    with pytest.raises(CryptoError):
        modinv(6, 9)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(min_value=0, max_value=2**30), b=st.integers(min_value=0, max_value=2**30))
def test_homomorphism_property(keypair, a, b):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.add(keypair.encrypt(a), keypair.encrypt(b))) == a + b
