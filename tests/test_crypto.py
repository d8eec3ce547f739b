"""Unit tests for the cryptography substrate."""

import dataclasses

import pytest

from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import canonical_bytes, digest
from repro.crypto.keys import KeyStore, generate_keypair
from repro.crypto.signatures import MacAuthenticator, SignatureService
from repro.errors import CryptoError


# ------------------------------------------------------------------ hashing


def test_digest_is_deterministic_and_collision_free_for_different_inputs():
    assert digest("hello") == digest("hello")
    assert digest("hello") != digest("hello!")
    assert len(digest("x")) == 64


def test_digest_of_dict_ignores_key_order():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})


def test_canonical_bytes_uses_canonical_method():
    class Payload:
        def canonical(self):
            return "payload-form"

    assert canonical_bytes(Payload()) == b"payload-form"
    assert digest(Payload()) == digest("payload-form")


# ------------------------------------------------------------------ keys


def test_keystore_creates_stable_identities():
    store = KeyStore("secret")
    first = store.create_identity("node-0")
    second = store.create_identity("node-0")
    assert first == second
    assert store.public_key("node-0") == first.public_key


def test_keypairs_differ_per_owner_and_deployment():
    assert generate_keypair("a", "s1") != generate_keypair("b", "s1")
    assert generate_keypair("a", "s1") != generate_keypair("a", "s2")


def test_unknown_identity_raises():
    store = KeyStore()
    with pytest.raises(CryptoError):
        store.public_key("ghost")
    with pytest.raises(CryptoError):
        store.private_key("ghost")


def test_mac_secret_is_symmetric():
    store = KeyStore()
    assert store.mac_secret("a", "b") == store.mac_secret("b", "a")
    assert store.mac_secret("a", "b") != store.mac_secret("a", "c")


# ------------------------------------------------------------------ signatures


def test_sign_and_verify_roundtrip():
    store = KeyStore()
    signer = SignatureService(store, "node-0")
    message = {"seq": 1, "digest": "abc"}
    signature = signer.sign(message)
    assert signer.verify(message, signature)
    other = SignatureService(store, "node-1")
    assert other.verify(message, signature)  # anyone can verify a DS


def test_signature_is_slotted_and_keeps_its_value_semantics():
    signature = SignatureService(KeyStore(), "node-0").sign("payload")
    assert not hasattr(signature, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        signature.value = "forged"  # type: ignore[misc]
    copy = dataclasses.replace(signature)
    assert copy == signature and hash(copy) == hash(signature)
    forged = dataclasses.replace(signature, signer="node-1")
    assert forged != signature and forged.value == signature.value
    assert len({signature, copy, forged}) == 2


def test_tampered_payload_fails_verification():
    store = KeyStore()
    signer = SignatureService(store, "node-0")
    signature = signer.sign("original")
    assert not signer.verify("tampered", signature)


def test_forged_signer_fails_verification():
    store = KeyStore()
    honest = SignatureService(store, "node-0")
    byzantine = SignatureService(store, "node-1")
    forged = byzantine.sign("payload")
    # Claiming the signature came from node-0 does not make it valid for node-0.
    from dataclasses import replace

    forged_as_honest = replace(forged, signer="node-0")
    assert not honest.verify("payload", forged_as_honest)


def test_unknown_signer_fails_verification():
    store = KeyStore()
    signer = SignatureService(store, "node-0")
    signature = signer.sign("payload")
    fresh_store = KeyStore("other-deployment")
    other = SignatureService(fresh_store, "verifier")
    assert not other.verify("payload", signature)


def test_issued_executor_keys_are_derived_not_stored():
    store = KeyStore("secret")
    issued = {"executor-0"}
    store.derive_issued(issued.__contains__)
    executor = SignatureService(store, "executor-0")
    verifier = SignatureService(store, "verifier")
    assert store._keypairs.keys() == {"verifier"}
    assert store.private_key("executor-0") == generate_keypair("executor-0", "secret").private_key
    assert store.public_key("executor-0") == generate_keypair("executor-0", "secret").public_key
    signature = executor.sign("payload")
    assert verifier.verify("payload", signature)
    # A signer the cloud never issued has no key: its signature fails, and
    # asking for its key still raises.
    forged = dataclasses.replace(signature, signer="executor-1")
    assert not verifier.verify("payload", forged)
    assert not store.has_identity("executor-1")
    with pytest.raises(CryptoError):
        store.private_key("executor-1")
    with pytest.raises(CryptoError):
        store.private_key("ghost")


def test_require_valid_raises_on_bad_signature():
    store = KeyStore()
    signer = SignatureService(store, "node-0")
    message = signer.sign_message("payload")
    from dataclasses import replace

    bad = replace(message, payload="other-payload")
    with pytest.raises(CryptoError):
        signer.require_valid(bad)
    signer.require_valid(message)


def test_mac_roundtrip_and_mismatch():
    store = KeyStore()
    alice = MacAuthenticator(store, "alice")
    bob = MacAuthenticator(store, "bob")
    tag = alice.tag("ping", peer="bob")
    assert bob.verify("ping", peer="alice", tag=tag)
    assert not bob.verify("pong", peer="alice", tag=tag)
    assert not bob.verify("ping", peer="carol", tag=tag)
    assert not bob.verify("ping", peer="alice", tag=None)


# ------------------------------------------------------------------ cost model


def test_cost_model_ratios_and_scaling():
    costs = CryptoCostModel()
    assert costs.ds_verify > costs.mac_verify
    assert costs.ds_sign > costs.mac_sign
    assert costs.hash_cost(2048) > costs.hash_cost(100)
