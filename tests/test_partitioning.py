"""Unit tests for repro.cluster.partitioning."""

import pytest

from repro.cluster.partitioning import (
    ConsistentHashPartitioning,
    HashPartitioning,
    RoundRobinPartitioning,
    spread_evenly,
    stable_hash,
)
from repro.storage.schema import Schema


def test_stable_hash_small_ints_identity():
    assert stable_hash(0) == 0
    assert stable_hash(41) == 41


def test_stable_hash_bool_not_int_collision():
    # bools map to 0/1 deterministically, not through int identity paths
    assert stable_hash(True) == 1
    assert stable_hash(False) == 0


def test_stable_hash_strings_deterministic():
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash("abc") >= 0


def test_stable_hash_negative_int():
    assert stable_hash(-5) >= 0


def test_hash_partitioner_routes_by_column():
    schema = Schema.of("A", "a", "c")
    bound = HashPartitioning("c").bind(schema, 4)
    assert bound.node_of_row((99, 6)) == 6 % 4
    assert bound.node_of_key(6) == 2
    assert bound.key_of_row((99, 6)) == 6
    assert bound.column == "c"
    assert bound.is_hash


def test_hash_partitioner_split():
    schema = Schema.of("A", "a")
    bound = HashPartitioning("a").bind(schema, 2)
    split = bound.split([(0,), (1,), (2,), (3,)])
    assert split[0] == [(0,), (2,)]
    assert split[1] == [(1,), (3,)]


def test_hash_partitioning_requires_known_column():
    schema = Schema.of("A", "a")
    with pytest.raises(Exception):
        HashPartitioning("zzz").bind(schema, 2)


def test_round_robin_cycles():
    schema = Schema.of("A", "a")
    bound = RoundRobinPartitioning().bind(schema, 3)
    nodes = [bound.node_of_row((i,)) for i in range(6)]
    assert nodes == [0, 1, 2, 0, 1, 2]
    assert not bound.is_hash
    assert bound.column is None


def test_round_robin_split_balances():
    schema = Schema.of("A", "a")
    bound = RoundRobinPartitioning().bind(schema, 2)
    split = bound.split([(i,) for i in range(10)])
    assert len(split[0]) == len(split[1]) == 5


def test_zero_nodes_rejected():
    schema = Schema.of("A", "a")
    with pytest.raises(ValueError):
        HashPartitioning("a").bind(schema, 0)
    with pytest.raises(ValueError):
        RoundRobinPartitioning().bind(schema, 0)


def test_spread_evenly_uniform_sequential_keys():
    histogram = spread_evenly(list(range(100)), 4)
    assert histogram == {0: 25, 1: 25, 2: 25, 3: 25}


def test_describe():
    assert HashPartitioning("c").describe() == "hash(c)"
    assert RoundRobinPartitioning().describe() == "round-robin"


# ------------------------------------------------------- consistent hashing


def _ring(num_nodes, tokens=None, vnodes=64):
    schema = Schema.of("R", "k", "v")
    return ConsistentHashPartitioning("k", vnodes=vnodes).bind(
        schema, num_nodes, tokens=tokens
    )


KEYS = list(range(4000))


def test_consistent_hash_routes_and_describes():
    bound = _ring(4)
    assert bound.is_hash
    assert bound.column == "k"
    assert 0 <= bound.node_of_key(17) < 4
    assert bound.node_of_row((17, "x")) == bound.node_of_key(17)
    assert ConsistentHashPartitioning("k").describe() == "consistent(k)"


def test_consistent_hash_spreads_sequential_keys():
    from collections import Counter

    counts = Counter(_ring(4).node_of_key(k) for k in KEYS)
    assert set(counts) == {0, 1, 2, 3}
    # Every node holds a reasonable share (ring variance, not modulo
    # exactness: the bound is loose but rules out the degenerate piles).
    assert min(counts.values()) > len(KEYS) / 4 / 2
    assert max(counts.values()) < len(KEYS) / 4 * 2


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_consistent_hash_join_minimal_movement(n):
    """Growing N -> N+1 relocates ~1/(N+1) of the keys — and every key
    that moves, moves TO the new node (nothing shuffles between
    survivors)."""
    before = _ring(n, tokens=list(range(n)))
    after = _ring(n + 1, tokens=list(range(n + 1)))
    moved = [k for k in KEYS if before.node_of_key(k) != after.node_of_key(k)]
    assert all(after.node_of_key(k) == n for k in moved)
    ideal = len(KEYS) / (n + 1)
    assert 0.5 * ideal < len(moved) < 2.0 * ideal


def test_consistent_hash_leave_moves_only_departed_keys():
    """Retiring one token relocates exactly that token's keys; surviving
    nodes keep every key they had (stable-token property)."""
    before = _ring(4, tokens=[0, 1, 2, 3])
    # Node id 1 departs; ids renumber densely but tokens survive.
    after = _ring(3, tokens=[0, 2, 3])
    for k in KEYS:
        old = before.node_of_key(k)
        if old == 1:
            continue  # departed node: key must land somewhere live
        expected_new_id = old if old < 1 else old - 1
        assert after.node_of_key(k) == expected_new_id


def test_consistent_hash_split_deterministic_across_rebinds():
    bound = _ring(4)
    rows = [(k, f"v{k}") for k in range(200)]
    first = bound.split(rows)
    again = bound.split(rows)
    rebound = bound.rebind(4, tokens=bound.tokens).split(rows)
    assert first == again == rebound


def test_consistent_hash_tokens_must_be_unique():
    with pytest.raises(ValueError):
        _ring(2, tokens=[7, 7])


def test_consistent_hash_rebind_validates_token_count():
    with pytest.raises(ValueError):
        _ring(2).rebind(3, tokens=[0, 1])
