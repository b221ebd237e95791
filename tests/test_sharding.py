import pytest

from bdts import crypto, sharding
from bdts.errors import InvalidInput
from bdts.merkle import mproof, mvrfy

MASTER = bytes(32)


def test_split_ceiling():
    assert sharding.split(b"abcdef", 4) == [b"abcd", b"ef"]
    assert sharding.split(b"abcd", 4) == [b"abcd"]
    assert sharding.split(b"", 4) == [b""]


def test_split_bad_slot():
    with pytest.raises(InvalidInput):
        sharding.split(b"abc", 0)


def test_shard_encrypt_roundtrip():
    data = bytes(range(256)) * 5
    ss = sharding.shard_encrypt(MASTER, data, slot=100)
    assert ss.n == 13
    keys = crypto.derive_keys(MASTER, ss.n)
    plain = [crypto.sym_decrypt(k, e) for k, e in zip(keys, ss.enc_shards)]
    assert sharding.reassemble(plain) == data


def test_roots_commit_both_layers():
    ss = sharding.shard_encrypt(MASTER, b"hello world" * 40, slot=64)
    for i in range(ss.n):
        assert mvrfy(i, ss.root_plain, ss.plain_shards[i], mproof(ss.tree_plain, i), ss.n)
        assert mvrfy(i, ss.root_enc, ss.enc_shards[i], mproof(ss.tree_enc, i), ss.n)
    assert ss.root_plain != ss.root_enc


def test_empty_data_rejected():
    with pytest.raises(InvalidInput):
        sharding.shard_encrypt(MASTER, b"", slot=64)


def test_provider_layer_roundtrip():
    ss = sharding.shard_encrypt(MASTER, b"payload" * 100, slot=128)
    pkg = sharding.provider_encrypt(list(ss.enc_shards), b"sp-seed")
    assert len(pkg.eed_shards) == ss.n
    for i, eed in enumerate(pkg.eed_shards):
        assert crypto.sym_decrypt(pkg.key, eed) == ss.enc_shards[i]
        assert mvrfy(i, pkg.root, eed, mproof(pkg.tree_eed, i), ss.n)


def test_provider_keys_differ_by_seed():
    shards = [b"one", b"two"]
    a = sharding.provider_encrypt(shards, b"seed-a")
    b = sharding.provider_encrypt(shards, b"seed-b")
    assert a.key != b.key and a.root != b.root
