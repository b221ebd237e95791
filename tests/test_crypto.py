import pytest
from hypothesis import given, strategies as st

from bdts import crypto
from bdts.errors import DecryptError, InvalidInput
from forged_wrap import forged_wrap

KEY = bytes(range(32))
OTHER = bytes(range(1, 33))
TAG = b"test"


def test_sym_roundtrip():
    ct = crypto.sym_encrypt(KEY, b"hello", TAG, 0)
    assert crypto.sym_decrypt(KEY, ct) == b"hello"


def test_sym_deterministic():
    # nonce is the layer tag and position: same inputs, same ciphertext
    assert crypto.sym_encrypt(KEY, b"x", TAG, 0) == crypto.sym_encrypt(KEY, b"x", TAG, 0)


def test_sym_wrong_key():
    ct = crypto.sym_encrypt(KEY, b"hello", TAG, 0)
    with pytest.raises(DecryptError):
        crypto.sym_decrypt(OTHER, ct)


def test_sym_tamper():
    ct = bytearray(crypto.sym_encrypt(KEY, b"hello", TAG, 0))
    ct[-1] ^= 1
    with pytest.raises(DecryptError):
        crypto.sym_decrypt(KEY, bytes(ct))


def test_sym_short_ciphertext():
    with pytest.raises(DecryptError):
        crypto.sym_decrypt(KEY, b"tiny")


def test_bad_key_sizes():
    with pytest.raises(InvalidInput):
        crypto.sym_encrypt(b"short", b"x", TAG, 0)
    with pytest.raises(InvalidInput):
        crypto.derive_keys(b"short", 1)
    with pytest.raises(InvalidInput):
        crypto.sym_decrypt(b"short", crypto.sym_encrypt(KEY, b"x", TAG, 0))


def test_derive_keys_count_must_be_positive():
    with pytest.raises(InvalidInput):
        crypto.derive_keys(KEY, 0)


def test_sym_layer_tag_must_be_4_bytes():
    for layer in (b"", b"abc", b"abcde"):
        with pytest.raises(InvalidInput):
            crypto.sym_encrypt(KEY, b"x", layer, 0)


def test_sym_position_range():
    for position in (-1, 1 << 64):
        with pytest.raises(InvalidInput):
            crypto.sym_encrypt(KEY, b"x", TAG, position)
    ct = crypto.sym_encrypt(KEY, b"x", TAG, (1 << 64) - 1)
    assert ct[: crypto.NONCE_SIZE] == TAG + b"\xff" * 8


def test_sym_nonce_is_tag_and_position():
    ct = crypto.sym_encrypt(KEY, b"hello", TAG, 258)
    assert ct[: crypto.NONCE_SIZE] == TAG + (258).to_bytes(8, "big")
    assert len(ct) == len(b"hello") + crypto.OVERHEAD
    assert ct != crypto.sym_encrypt(KEY, b"hello", TAG, 259)
    assert ct != crypto.sym_encrypt(KEY, b"hello", b"tset", 258)


def test_sym_encrypt_hashes_nothing(monkeypatch):
    def no_hash(*args):
        raise AssertionError("sym_encrypt hashed its input")

    monkeypatch.setattr(crypto.hashlib, "sha256", no_hash)
    assert crypto.sym_decrypt(KEY, crypto.sym_encrypt(KEY, b"x" * 4096, TAG, 3)) == b"x" * 4096


def test_derive_keys_prefix_consistent():
    assert crypto.derive_keys(KEY, 8)[:3] == crypto.derive_keys(KEY, 3)


def test_derive_keys_distinct():
    keys = crypto.derive_keys(KEY, 16)
    assert len(set(keys)) == 16


def test_pk_roundtrip():
    kp = crypto.pk_keygen(b"seed")
    ct = crypto.pk_encrypt(kp.public, KEY)
    assert crypto.pk_decrypt(kp.private, ct) == KEY


def test_pk_keygen_deterministic():
    assert crypto.pk_keygen(b"s") == crypto.pk_keygen(b"s")
    assert crypto.pk_keygen(b"s") != crypto.pk_keygen(b"t")


def test_public_key_of():
    kp = crypto.pk_keygen(b"seed")
    assert crypto.public_key_of(kp.private) == kp.public


def test_pk_wrong_recipient():
    kp, other = crypto.pk_keygen(b"a"), crypto.pk_keygen(b"b")
    ct = crypto.pk_encrypt(kp.public, KEY)
    with pytest.raises(DecryptError):
        crypto.pk_decrypt(other.private, ct)


def test_pk_tamper():
    kp = crypto.pk_keygen(b"a")
    ct = bytearray(crypto.pk_encrypt(kp.public, KEY))
    ct[40] ^= 0xFF
    with pytest.raises(DecryptError):
        crypto.pk_decrypt(kp.private, bytes(ct))


def test_pk_message_size_limit():
    # the hybrid leg wraps exactly one 32-byte key
    kp = crypto.pk_keygen(b"a")
    for size in (0, 16, 33, 64, 65):
        with pytest.raises(InvalidInput):
            crypto.pk_encrypt(kp.public, b"x" * size)


def test_pk_decrypt_refuses_anything_but_one_wrapped_key():
    kp = crypto.pk_keygen(b"a")
    # the forged layout is the real one: around a 32-byte key it unwraps
    assert crypto.pk_decrypt(kp.private, forged_wrap(kp.public, KEY)) == KEY
    for blob in (b"\x07" * 20, forged_wrap(kp.public, KEY[:16]), forged_wrap(kp.public, KEY * 2)):
        with pytest.raises(DecryptError):
            crypto.pk_decrypt(kp.private, blob)


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=256))
def test_sym_roundtrip_property(key, msg):
    assert crypto.sym_decrypt(key, crypto.sym_encrypt(key, msg, TAG, 0)) == msg


@given(
    st.binary(min_size=32, max_size=32),
    st.binary(max_size=64),
    st.integers(min_value=0, max_value=300),
)
def test_sym_bitflip_rejected(key, msg, pos):
    ct = bytearray(crypto.sym_encrypt(key, msg, TAG, 0))
    ct[pos % len(ct)] ^= 1
    with pytest.raises(DecryptError):
        crypto.sym_decrypt(key, bytes(ct))


@given(st.binary(min_size=1, max_size=32), st.binary(min_size=32, max_size=32))
def test_pk_roundtrip_property(seed, key):
    kp = crypto.pk_keygen(seed)
    assert crypto.pk_decrypt(kp.private, crypto.pk_encrypt(kp.public, key)) == key
