import hashlib

import pytest

from bdts import crypto, sharding
from bdts.errors import InvalidInput
from bdts.merkle import mproof, mvrfy

SECRET = bytes(32)


def test_split_ceiling():
    assert sharding.split(b"abcdef", 4) == [b"abcd", b"ef"]
    assert sharding.split(b"abcd", 4) == [b"abcd"]
    assert sharding.split(b"", 4) == [b""]
    data = b"abcdef"
    assert all(shard.obj is data for shard in sharding.split(data, 4))  # views, no copies


def test_split_bad_slot():
    with pytest.raises(InvalidInput):
        sharding.split(b"abc", 0)


def test_shard_encrypt_roundtrip():
    data = bytes(range(256)) * 5
    ss = sharding.shard_encrypt(SECRET, data, slot=100)
    assert ss.n == 13
    keys = crypto.derive_keys(ss.master, ss.n)
    plain = [crypto.sym_decrypt(k, e) for k, e in zip(keys, ss.enc_shards)]
    assert sharding.reassemble(plain) == data


def test_master_key_is_bound_to_the_data_set():
    a = sharding.shard_encrypt(SECRET, b"one data set", slot=4)
    b = sharding.shard_encrypt(SECRET, b"two data set", slot=4)
    assert a.master == hashlib.sha256(SECRET + a.root_plain).digest()
    assert a.master != b.master


def test_roots_commit_both_layers():
    ss = sharding.shard_encrypt(SECRET, b"hello world" * 40, slot=64)
    for i in range(ss.n):
        assert mvrfy(i, ss.root_plain, ss.plain_shards[i], mproof(ss.tree_plain, i), ss.n)
        assert mvrfy(i, ss.root_enc, ss.enc_shards[i], mproof(ss.tree_enc, i), ss.n)
    assert ss.root_plain != ss.root_enc


def test_empty_data_rejected():
    with pytest.raises(InvalidInput):
        sharding.shard_encrypt(SECRET, b"", slot=64)


def test_provider_layer_roundtrip():
    ss = sharding.shard_encrypt(SECRET, b"payload" * 100, slot=128)
    pkg = sharding.provider_encrypt(list(ss.enc_shards), b"sp-seed")
    assert len(pkg.eed_shards) == ss.n
    for i, eed in enumerate(pkg.eed_shards):
        assert crypto.sym_decrypt(pkg.key, eed) == ss.enc_shards[i]
        assert mvrfy(i, pkg.root, eed, mproof(pkg.tree_eed, i), ss.n)


def test_empty_package_rejected():
    with pytest.raises(InvalidInput):
        sharding.provider_encrypt([], b"sp-seed")


def test_provider_keys_differ_by_seed():
    shards = [b"one", b"two"]
    a = sharding.provider_encrypt(shards, b"seed-a")
    b = sharding.provider_encrypt(shards, b"seed-b")
    assert a.key != b.key and a.root != b.root
