import hashlib
import os
import random
import subprocess
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, strategies as st

from bdts import merkle, metrics
from bdts.errors import InvalidInput
from bdts.merkle import MerkleProof, mproof, mtree, mvrfy

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def h_leaf(b):
    return hashlib.sha256(b"\x00" + b).digest()


def h_node(l, r):
    return hashlib.sha256(b"\x01" + l + r).digest()


def test_single_leaf_root_is_domain_separated_leaf_hash():
    assert mtree([b"x"]).root == h_leaf(b"x")


def test_four_leaf_root_against_hand_rolled_oracle():
    leaves = [b"a", b"b", b"c", b"d"]
    want = h_node(h_node(h_leaf(b"a"), h_leaf(b"b")), h_node(h_leaf(b"c"), h_leaf(b"d")))
    assert mtree(leaves).root == want


def test_odd_width_duplicates_last_digest():
    leaves = [b"a", b"b", b"c"]
    want = h_node(h_node(h_leaf(b"a"), h_leaf(b"b")), h_node(h_leaf(b"c"), h_leaf(b"c")))
    assert mtree(leaves).root == want


def test_empty_rejected():
    with pytest.raises(InvalidInput):
        mtree([])


def test_proof_roundtrip_small():
    leaves = [bytes([i]) * 3 for i in range(7)]
    t = mtree(leaves)
    for i, leaf in enumerate(leaves):
        assert mvrfy(i, t.root, leaf, mproof(t, i), len(leaves))


def test_proof_out_of_range():
    t = mtree([b"a", b"b"])
    with pytest.raises(InvalidInput):
        mproof(t, 2)


def test_malformed_proof_returns_false():
    t = mtree([b"a", b"b"])
    p = mproof(t, 0)
    assert not mvrfy(1, t.root, b"a", p, 2)  # index mismatch
    assert not mvrfy(0, t.root, b"a", MerkleProof(0, (b"short",)), 2)
    # one sibling too many or too few for the leaf count
    assert not mvrfy(0, t.root, b"a", MerkleProof(0, p.siblings * 2), 2)
    assert not mvrfy(0, t.root, b"a", MerkleProof(0, ()), 2)
    # past the end of the tree
    assert not mvrfy(2, t.root, b"a", MerkleProof(2, p.siblings), 2)


@pytest.mark.parametrize("siblings", [None, 5, "list"])
def test_siblings_that_are_not_a_tuple_return_false(siblings):
    # None and 5 raised TypeError; a list of the right digests verified
    t = mtree([b"a", b"b"])
    if siblings == "list":
        siblings = list(mproof(t, 0).siblings)
    assert not mvrfy(0, t.root, b"a", MerkleProof(0, siblings), 2)


@pytest.mark.parametrize("proof", [5, None, "x", (0, ())])
def test_proof_that_is_not_a_merkle_proof_returns_false(proof):
    # 5 and None raised AttributeError; "x" returned False only because
    # "x".index is a method
    t = mtree([b"a", b"b", b"c"])
    with metrics.collect() as col:
        with col.phase("check"):
            assert not mvrfy(0, t.root, b"a", proof, 3)
    assert col.phases["check"].as_dict()["proof_verifications"] == 1


def test_siblings_relabelled_past_the_end_rejected():
    t = mtree([b"a", b"b", b"c", b"d"])
    # index 4 walks the same sides as index 0 but overflows the tree
    assert not mvrfy(4, t.root, b"a", MerkleProof(4, mproof(t, 0).siblings), 4)


def test_duplicated_last_digest_proves_no_extra_leaf():
    t = mtree([b"a", b"b", b"c"])
    siblings = (t.levels[0][2], t.levels[1][0])  # c pairs with its own copy
    assert mvrfy(2, t.root, b"c", MerkleProof(2, siblings), 3)
    assert not mvrfy(3, t.root, b"c", MerkleProof(3, siblings), 3)


def test_proof_binds_the_leaf_count():
    four = mtree([b"a", b"b", b"c", b"d"])
    assert mvrfy(0, four.root, b"a", mproof(four, 0), 4)
    # a root over more leaves than the count claims: one sibling too many
    assert not mvrfy(0, four.root, b"a", mproof(four, 0), 2)
    # a root over fewer leaves than the count claims: one sibling too few
    two = mtree([b"a", b"b"])
    assert not mvrfy(1, two.root, b"b", mproof(two, 1), 4)


@given(
    st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=33),
    st.data(),
)
def test_every_leaf_proves_and_wrong_leaf_fails(leaves, data):
    t = mtree(leaves)
    i = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = mproof(t, i)
    assert mvrfy(i, t.root, leaves[i], proof, len(leaves))
    wrong = leaves[i] + b"!"
    assert not mvrfy(i, t.root, wrong, proof, len(leaves))


@given(st.lists(st.binary(max_size=16), min_size=2, max_size=16), st.data())
def test_proof_not_transferable_between_indices(leaves, data):
    t = mtree(leaves)
    i = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    j = data.draw(
        st.integers(min_value=0, max_value=len(leaves) - 1).filter(lambda v: v != i)
    )
    assert not mvrfy(j, t.root, leaves[j], mproof(t, i), len(leaves))


@given(st.lists(st.binary(max_size=16), min_size=1, max_size=16))
def test_root_deterministic(leaves):
    assert mtree(leaves).root == mtree(leaves).root


@given(st.lists(st.binary(max_size=8), min_size=2, max_size=8))
def test_leaf_order_matters(leaves):
    rev = list(reversed(leaves))
    if rev != leaves:
        assert mtree(leaves).root != mtree(rev).root


def old_mproof(tree, index):
    """Reference proof: each odd level padded with a copy of its last digest."""
    siblings = []
    pos = index
    for level in tree.levels[:-1]:
        if len(level) % 2:
            level = level + [level[-1]]
        if pos % 2 == 0:
            siblings.append(level[pos + 1])
        else:
            siblings.append(level[pos - 1])
        pos //= 2
    return MerkleProof(index=index, siblings=tuple(siblings))


def test_proofs_equal_the_copying_version():
    for count in range(1, 34):
        t = mtree([bytes([i]) for i in range(count)])
        for i in range(count):
            assert mproof(t, i) == old_mproof(t, i), (count, i)


def serial_levels(leaves):
    levels = [[merkle._hash_leaf(leaf) for leaf in leaves]]
    while len(levels[-1]) > 1:
        level = levels[-1]
        if len(level) % 2:
            level = level + [level[-1]]
        levels.append(
            [merkle._hash_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        )
    return levels


LEAF_THREAD = "merkle-leaves"


@pytest.fixture
def leaf_threads(monkeypatch):
    """Three usable CPUs, so slices come out uneven; returns the list that
    collects the name of the thread each slice of leaves is hashed on."""
    names = []
    hash_leaves = merkle._hash_leaves

    def recording(leaves):
        names.append(threading.current_thread().name)
        return hash_leaves(leaves)

    monkeypatch.setattr(merkle, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(merkle, "_hash_leaves", recording)
    return names


def ran_in_parallel(names):
    return any(name.startswith(LEAF_THREAD) for name in names)


def large_leaves(count):
    """``count`` leaves reaching the parallel threshold, the last one short."""
    width = -(-merkle._POOL_MIN_BYTES // (count - 1))
    blob = random.Random(count).randbytes(width * (count - 1) + 17)
    return [blob[i : i + width] for i in range(0, len(blob), width)]


@pytest.mark.parametrize("count", [2, 3, 4, 7, 10])
def test_large_tree_levels_equal_serial(leaf_threads, count):
    leaves = large_leaves(count)
    assert len(leaves) == count and len(leaves[-1]) == 17
    assert mtree(leaves).levels == serial_levels(leaves)
    assert ran_in_parallel(leaf_threads)


def test_large_tree_leaves_no_thread_running(leaf_threads):
    mtree(large_leaves(4))
    assert ran_in_parallel(leaf_threads)
    assert [t.name for t in threading.enumerate() if t.name.startswith(LEAF_THREAD)] == []


def test_large_tree_counts_one_build_in_callers_phase(leaf_threads):
    with metrics.collect() as col:
        with col.phase("upload"):
            mtree(large_leaves(5))
    assert {k: v.as_dict() for k, v in col.phases.items()} == {
        "upload": {**metrics.OpCounters().as_dict(), "tree_builds": 1}
    }


def test_large_tree_from_another_thread(leaf_threads):
    leaves = large_leaves(6)
    roots = []
    worker = threading.Thread(target=lambda: roots.append(mtree(leaves).root))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert roots == [serial_levels(leaves)[-1][0]]
    assert ran_in_parallel(leaf_threads)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_starts_its_own_pool(leaf_threads):
    leaves = large_leaves(4)
    root = mtree(leaves).root
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:  # the child has none of its parent's threads
        try:
            os._exit(0 if mtree(leaves).root == root else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("forked child hung building a large tree")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_small_trees_start_no_pool(leaf_threads):
    mtree([bytes(4096)] * 8)
    mtree([bytes(1024)] * 8)
    mtree([bytes(2)] * 4000)
    half = merkle._POOL_MIN_BYTES // 2
    mtree([bytes(half), bytes(half - 1)])  # one byte short in total
    mtree([bytes(merkle._POOL_MIN_BYTES)])  # one leaf
    assert leaf_threads and not ran_in_parallel(leaf_threads)


def test_small_trades_import_no_thread_pool():
    code = (
        "import sys, threading\n"
        "from bdts import game\n"
        "assert game.crosscheck_simulation('aei', seed=3) is True\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
