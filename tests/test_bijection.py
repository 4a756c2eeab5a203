import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import (
    DoublyRootedTree,
    Mapping,
    PruferSequence,
    RootedTree,
    cycle_structure,
    joyal_decode,
    joyal_encode,
    mapping_to_rooted_tree,
    prufer_decode,
    prufer_encode,
    rooted_tree_to_mapping,
    unique_cyclic_vertex,
)
from cayleykit.bijection import prufer_parent_rows, prufer_parents

from conftest import all_mappings, all_tables


def test_mapping_to_rooted_tree_examples():
    t = mapping_to_rooted_tree(Mapping(2, (1, 1)))
    assert t.root == 1 and t.parent == (0, 1)
    t = mapping_to_rooted_tree(Mapping(1, (1,)))
    assert t.root == 1 and t.parent == (0,)
    t = mapping_to_rooted_tree(Mapping(3, (2, 3, 3)))
    assert t.root == 3 and t.parent == (2, 3, 0)


def test_mapping_to_rooted_tree_requires_unique_cyclic():
    with pytest.raises(ValueError, match="2 cycles"):
        mapping_to_rooted_tree(Mapping(4, (1, 1, 4, 3)))
    with pytest.raises(ValueError, match="cyclic"):
        mapping_to_rooted_tree(Mapping(2, (2, 1)))


def test_rooted_tree_to_mapping_examples():
    assert rooted_tree_to_mapping(RootedTree(2, 1, (0, 1))).table == (1, 1)
    assert rooted_tree_to_mapping(RootedTree(1, 1, (0,))).table == (1,)
    assert rooted_tree_to_mapping(RootedTree(3, 3, (2, 3, 0))).table == (2, 3, 3)


def test_tree_round_trip_all_unique_cyclic_up_to_6():
    for n in range(1, 7):
        count = 0
        for m in all_mappings(n):
            if unique_cyclic_vertex(m) is None:
                continue
            count += 1
            t = mapping_to_rooted_tree(m)
            assert rooted_tree_to_mapping(t) == m
        assert count == n ** (n - 1)
    # and the inverse direction on trees built from Prufer words
    for n in range(1, 6):
        for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
            edges = prufer_decode(PruferSequence(n, seq))
            for root in range(1, n + 1):
                t = _orient(n, edges, root)
                assert mapping_to_rooted_tree(rooted_tree_to_mapping(t)) == t


def _orient(n, edges, root):
    adjacency = [[] for _ in range(n + 1)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [0] * n
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                parent[w - 1] = v
                stack.append(w)
    return RootedTree(n, root, tuple(parent))


def test_joyal_examples():
    d = joyal_encode(Mapping(1, (1,)))
    assert d.head == d.tail == 1
    assert joyal_decode(d).table == (1,)

    d = joyal_encode(Mapping(2, (2, 1)))
    assert d.head == 2 and d.tail == 1
    assert d.spine() == (2, 1)
    assert d.tree.parent == (0, 1)
    assert joyal_decode(d).table == (2, 1)

    d = joyal_encode(Mapping(3, (2, 3, 3)))
    assert d.head == d.tail == 3
    assert d.spine() == (3,)
    assert d.tree == mapping_to_rooted_tree(Mapping(3, (2, 3, 3)))


def test_joyal_round_trip_and_cardinality_exhaustive():
    # encode is injective over all n^n mappings and decode inverts it,
    # so doubly-rooted trees number n^(n-2) * n^2 = n^n
    for n in range(1, 6):
        images = set()
        for m in all_mappings(n):
            d = joyal_encode(m)
            assert joyal_decode(d) == m
            images.add((d.tree.parent, d.head, d.tail))
        assert len(images) == n**n


def test_joyal_preserves_cyclic_set():
    for n in range(1, 6):
        for m in all_mappings(n):
            d = joyal_encode(m)
            assert sorted(d.spine()) == list(cycle_structure(m).cyclic_vertices)


def test_joyal_unique_cyclic_degenerates_to_tree_bijection():
    for n in range(1, 6):
        for m in all_mappings(n):
            if unique_cyclic_vertex(m) is None:
                continue
            d = joyal_encode(m)
            assert d.head == d.tail == unique_cyclic_vertex(m)
            assert d.tree == mapping_to_rooted_tree(m)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 100).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)
    )
)
def test_joyal_round_trip_random(table):
    m = Mapping(len(table), tuple(table))
    d = joyal_encode(m)
    assert joyal_decode(d) == m
    assert set(d.spine()) == set(cycle_structure(m).cyclic_vertices)


def test_joyal_round_trip_bulk_random():
    import numpy as np

    rng = np.random.default_rng(27182)
    for _ in range(10_000):
        n = int(rng.integers(1, 101))
        m = Mapping(n, tuple(int(x) + 1 for x in rng.integers(0, n, size=n)))
        assert joyal_decode(joyal_encode(m)) == m


def test_joyal_decode_then_encode_is_identity():
    # every (tree, head) pair is hit: decode first, encode back
    for n in range(1, 5):
        for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
            edges = prufer_decode(PruferSequence(n, seq))
            for tail in range(1, n + 1):
                tree = _orient(n, edges, tail)
                for head in range(1, n + 1):
                    d = DoublyRootedTree(tree, head)
                    assert joyal_encode(joyal_decode(d)) == d


def test_prufer_examples():
    assert prufer_encode(3, [(1, 2), (2, 3)]).seq == (2,)
    assert prufer_encode(2, [(1, 2)]).seq == ()
    assert prufer_encode(4, [(1, 4), (2, 4), (3, 4)]).seq == (4, 4)
    assert prufer_decode(PruferSequence(3, (2,))) == [(1, 2), (2, 3)]
    assert prufer_decode(PruferSequence(2, ())) == [(1, 2)]
    assert prufer_decode(PruferSequence(4, (4, 4))) == [(1, 4), (2, 4), (3, 4)]
    assert prufer_decode(PruferSequence(1, ())) == []
    assert prufer_encode(1, []).seq == ()


def test_prufer_rejects_non_trees():
    with pytest.raises(ValueError, match="expected"):
        prufer_encode(3, [(1, 2)])
    with pytest.raises(ValueError, match="cycle"):
        prufer_encode(4, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="duplicate|cycle"):
        prufer_encode(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        prufer_encode(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        prufer_encode(2, [(1, 3)])
    with pytest.raises(ValueError):
        PruferSequence(4, (5, 1))
    with pytest.raises(ValueError):
        PruferSequence(4, (1,))


def test_prufer_encode_accepts_cayleys_count_of_edge_sets():
    # n - 1 distinct edges without a cycle leave one component, so the
    # validator accepts n^(n-2) sets and names a cycle in every other one
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        accepted = 0
        for edges in itertools.combinations(pairs, n - 1):
            try:
                prufer_encode(n, edges)
            except ValueError as exc:
                assert str(exc).startswith("not a tree: cycle found through edge"), edges
            else:
                accepted += 1
        assert accepted == (n ** (n - 2) if n >= 2 else 1)


def test_prufer_round_trip_and_distinctness_up_to_7():
    for n in range(1, 8):
        seen = set()
        for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
            p = PruferSequence(n, seq)
            edges = prufer_decode(p)
            assert len(edges) == max(n - 1, 0)
            assert prufer_encode(n, edges).seq == seq
            seen.add(tuple(edges))
        expected = n ** (n - 2) if n >= 2 else 1
        assert len(seen) == expected


def test_cardinality_chain_trees_vs_rooted():
    # trees * n == rooted trees == unique-cyclic mappings, for n <= 6
    for n in range(1, 7):
        trees = n ** (n - 2) if n >= 2 else 1
        unique_cyclic = sum(
            1 for t in all_tables(n) if unique_cyclic_vertex(Mapping(n, t)) is not None
        )
        assert unique_cyclic == trees * n == n ** (n - 1)


def test_prufer_parent_rows_match_the_scalar_decoder():
    rng = np.random.default_rng(2024)
    cases = [
        (n, np.array(list(itertools.product(range(n), repeat=max(n - 2, 0))), dtype=int))
        for n in range(1, 7)
    ]
    cases += [(n, rng.integers(0, n, size=(300, n - 2))) for n in (8, 30)]
    for n in (1, 2, 3, 64, 65):  # planted: stars around 1 and n, and paths entered from either end
        length = max(n - 2, 0)
        planted = [[0] * length, [n - 1] * length, list(range(1, length + 1)), list(range(length, 0, -1))]
        cases.append((n, np.array(planted, dtype=int)))
    for n, words in cases:
        words = words.reshape(len(words), max(n - 2, 0))
        rows = prufer_parent_rows(words, n)
        for word, row in zip(words, rows):
            expected = prufer_parents(PruferSequence(n, tuple(int(x) + 1 for x in word)))
            assert [int(p) + 1 for p in row] == expected  # NO_PARENT is 0
