"""The AEAD transport: handshake key agreement and fail-closed records."""

from __future__ import annotations

import pytest

from repro.server.protocol import MAGIC, PROTOCOL_VERSION
from repro.server.transport import (
    SecureChannel,
    TransportError,
    build_hello,
    derive_directional_keys,
    fresh_nonce,
    generate_keypair,
    parse_hello,
    shared_secret,
)


def make_channel_pair(auth_client=b"", auth_server=b""):
    """Run the ECDH handshake math both sides would run over the wire."""
    client_priv, client_pub = generate_keypair()
    server_priv, server_pub = generate_keypair()
    client_nonce, server_nonce = fresh_nonce(), fresh_nonce()
    client_secret = shared_secret(client_priv, server_pub.serialize())
    server_secret = shared_secret(server_priv, client_pub.serialize())
    assert client_secret == server_secret
    client = SecureChannel.for_client(
        client_secret, client_nonce, server_nonce, auth_client
    )
    server = SecureChannel.for_server(
        server_secret, client_nonce, server_nonce, auth_server
    )
    return client, server


def test_ecdh_shared_secret_agreement():
    client, server = make_channel_pair()
    assert server.open(client.seal(b"hello server")) == b"hello server"
    assert client.open(server.seal(b"hello client")) == b"hello client"


def test_directional_keys_are_distinct():
    keys = derive_directional_keys(b"secret" * 4, b"cn" * 8, b"sn" * 8, b"")
    assert len(keys) == 4
    assert len(set(keys)) == 4  # c2s/s2c enc and mac keys all differ
    assert all(len(k) == 16 for k in keys)


def test_auth_key_changes_every_derived_key():
    base = derive_directional_keys(b"s" * 24, b"c" * 16, b"n" * 16, b"")
    keyed = derive_directional_keys(b"s" * 24, b"c" * 16, b"n" * 16, b"psk")
    assert all(a != b for a, b in zip(base, keyed))


def test_sequence_numbers_advance():
    client, server = make_channel_pair()
    for i in range(5):
        record = client.seal(f"msg {i}".encode())
        assert record[:8] == i.to_bytes(8, "big")
        assert server.open(record) == f"msg {i}".encode()


def test_replayed_record_rejected():
    client, server = make_channel_pair()
    record = client.seal(b"once")
    assert server.open(record) == b"once"
    with pytest.raises(TransportError, match="replayed, reordered, or dropped"):
        server.open(record)


def test_reordered_records_rejected():
    client, server = make_channel_pair()
    first, second = client.seal(b"first"), client.seal(b"second")
    with pytest.raises(TransportError, match="replayed, reordered, or dropped"):
        server.open(second)
    # The channel failed closed: even the in-order record is now unusable
    # only if the caller keeps going; a fresh delivery of `first` works.
    assert server.open(first) == b"first"


def test_tampered_ciphertext_rejected():
    client, server = make_channel_pair()
    record = bytearray(client.seal(b"authentic plaintext"))
    record[10] ^= 0x01
    with pytest.raises(TransportError, match="authentication failed"):
        server.open(bytes(record))


def test_tampered_tag_rejected():
    client, server = make_channel_pair()
    record = bytearray(client.seal(b"authentic"))
    record[-1] ^= 0x80
    with pytest.raises(TransportError, match="authentication failed"):
        server.open(bytes(record))


def test_short_record_rejected():
    _, server = make_channel_pair()
    with pytest.raises(TransportError, match="too short"):
        server.open(b"\x00" * 10)


def test_wrong_auth_key_fails_first_record():
    client, server = make_channel_pair(auth_client=b"right", auth_server=b"wrong")
    with pytest.raises(TransportError, match="authentication failed"):
        server.open(client.seal(b"should never decrypt"))


def test_ciphertext_hides_plaintext():
    client, _ = make_channel_pair()
    plaintext = b"SELECT secret FROM vault" * 4
    record = client.seal(plaintext)
    assert plaintext not in record


def test_invalid_public_key_rejected():
    private, _ = generate_keypair()
    with pytest.raises(TransportError, match="invalid handshake public key"):
        shared_secret(private, b"\x04" + b"\x01" * 48)  # not on the curve


def test_hello_roundtrip_and_validation():
    _, public = generate_keypair()
    nonce = fresh_nonce()
    payload = build_hello(public, nonce)
    assert payload["magic"] == MAGIC and payload["version"] == PROTOCOL_VERSION
    peer_pub, peer_nonce = parse_hello(payload, "client")
    assert peer_pub == public.serialize() and peer_nonce == nonce

    with pytest.raises(TransportError, match="not speaking"):
        parse_hello({**payload, "magic": "mysql"}, "client")
    with pytest.raises(TransportError, match="protocol version"):
        parse_hello({**payload, "version": 99}, "client")
    with pytest.raises(TransportError, match="missing key material"):
        parse_hello({**payload, "nonce": b"short"}, "client")
    with pytest.raises(TransportError, match="not a mapping"):
        parse_hello("hello", "client")


def test_records_interoperate_across_aes_backends():
    """A record sealed on the native AES path opens on the pure one, and back.

    Both backends make the same CTR keystream, so twin channels on the two
    paths seal byte-identical records; tampering is still caught.
    """
    from repro.crypto import aes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aes, "_native", None)
        pure_client, pure_server = make_channel_pair()
    assert pure_client._send_cipher._native is None
    native_client = SecureChannel(
        pure_client._send_cipher.key, pure_client._send_mac,
        pure_client._recv_cipher.key, pure_client._recv_mac,
        role="client",
    )
    assert native_client._send_cipher._native is aes._native
    payload = bytes(range(256)) * 3 + b"tail"
    record = native_client.seal(payload)
    assert record == pure_client.seal(payload)
    assert pure_server.open(record) == payload
    assert native_client.open(pure_server.seal(payload)) == payload
    tampered = bytearray(pure_server.seal(payload))
    tampered[20] ^= 1
    with pytest.raises(TransportError):
        native_client.open(bytes(tampered))
    tampered = bytearray(native_client.seal(payload))
    tampered[-1] ^= 1
    with pytest.raises(TransportError):
        pure_server.open(bytes(tampered))
