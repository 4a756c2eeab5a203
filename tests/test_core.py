import itertools

import numpy as np
import pytest

from cayleykit import (
    Mapping,
    RngStream,
    RootedTree,
    cycle_structure,
    mapping_to_dot,
    tree_to_dot,
    unique_cyclic_vertex,
)

from cayleykit import core
from conftest import all_mappings


def naive_cyclic_set(m):
    """O(n^2) oracle: v is cyclic iff f^k(v) == v for some 1 <= k <= n."""
    out = set()
    for v in range(1, m.n + 1):
        w = v
        for _ in range(m.n):
            w = m.table[w - 1]
            if w == v:
                out.add(v)
                break
    return out


def naive_component_count(m):
    """Union-find component count; each component holds exactly one cycle."""
    parent = list(range(m.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, w in m.edges():
        parent[find(v)] = find(w)
    return len({find(v) for v in range(1, m.n + 1)})


def test_cycle_structure_examples():
    cs = cycle_structure(Mapping(2, (1, 1)))
    assert cs.cyclic_vertices == (1,) and cs.num_cycles == 1
    cs = cycle_structure(Mapping(3, (1, 2, 3)))
    assert cs.num_cycles == 3 and cs.cyclic_vertices == (1, 2, 3)
    cs = cycle_structure(Mapping(2, (2, 1)))
    assert cs.cyclic_vertices == (1, 2) and cs.num_cycles == 1


def test_cycle_structure_invariants_exhaustive_small():
    for n in range(1, 6):
        for m in all_mappings(n):
            cs = cycle_structure(m)
            assert set(cs.cyclic_vertices) == naive_cyclic_set(m)
            assert cs.num_cycles == naive_component_count(m)
            assert cs.num_cycles >= 1
            # cycles are disjoint, cover the cyclic set, and follow f
            seen = set()
            for cyc in cs.cycles:
                assert not (set(cyc) & seen)
                seen.update(cyc)
                for j, v in enumerate(cyc):
                    assert m.table[v - 1] == cyc[(j + 1) % len(cyc)]
            assert seen == set(cs.cyclic_vertices)


def test_cycle_structure_agrees_with_oracle_random():
    # 10^4 random mappings with n up to 100, against a vectorized
    # version of the same n-fold-iteration oracle
    rng = np.random.default_rng(20240901)
    for _ in range(10_000):
        n = int(rng.integers(1, 101))
        table0 = rng.integers(0, n, size=n)
        cur = np.arange(n)
        cyclic = np.zeros(n, dtype=bool)
        for _ in range(n):
            cur = table0[cur]
            cyclic |= cur == np.arange(n)
        m = Mapping(n, tuple(int(x) + 1 for x in table0))
        cs = cycle_structure(m)
        assert np.array_equal(np.asarray(cs.cyclic), cyclic)


def test_unique_cyclic_vertex_examples():
    assert unique_cyclic_vertex(Mapping(2, (1, 1))) == 1
    assert unique_cyclic_vertex(Mapping(2, (2, 1))) is None
    assert unique_cyclic_vertex(Mapping(1, (1,))) == 1


def image_of_power(m, k):
    """The image of f^k, by applying f k times to the whole vertex set."""
    image = set(range(1, m.n + 1))
    for _ in range(k):
        image = {m.table[v - 1] for v in image}
    return image


def test_unique_cyclic_vertex_is_fixed_point_exhaustive():
    for n in range(1, 7):
        for m in all_mappings(n):
            r = unique_cyclic_vertex(m)
            # brute force, sharing no walk with the library: the image of
            # f^n is the cyclic set, so r is unique exactly when it is {r}
            image = image_of_power(m, n)
            assert r == (image.pop() if len(image) == 1 else None)
            cs = cycle_structure(m)
            if r is None:
                assert sum(cs.cyclic) != 1
            else:
                assert m.table[r - 1] == r
                assert cs.cyclic_vertices == (r,)


def test_mapping_validation():
    with pytest.raises(ValueError):
        Mapping(0, ())
    with pytest.raises(ValueError):
        Mapping(2, (1,))
    with pytest.raises(ValueError):
        Mapping(2, (1, 3))
    with pytest.raises(ValueError):
        Mapping(2, (0, 1))


def test_mapping_json_round_trip():
    m = Mapping(4, (2, 3, 3, 1))
    assert Mapping.from_json_dict(m.to_json_dict()) == m
    with pytest.raises(ValueError):
        Mapping.from_json_dict({"n": 2})


def test_rooted_tree_validation():
    RootedTree(3, 3, (2, 3, 0))
    with pytest.raises(ValueError):
        RootedTree(3, 3, (2, 3, 3))  # root must carry the none marker
    with pytest.raises(ValueError):
        RootedTree(3, 1, (0, 3, 2))  # 2 <-> 3 parent cycle
    with pytest.raises(ValueError):
        RootedTree(3, 1, (0, 1))
    with pytest.raises(ValueError):
        RootedTree(3, 4, (0, 1, 1))


def climbs_to_root(parent, v, root):
    """Whether at most n parent steps from v reach the root."""
    for _ in range(len(parent)):
        if v == root:
            return True
        v = parent[v - 1]
    return v == root


def test_rooted_tree_accepts_exactly_the_parent_arrays_that_climb_to_the_root():
    # every parent array with the marker at the root and parents in [1..n]
    # elsewhere; Cayley's n^(n-2) trees per root, counted through the validator
    for n in range(1, 6):
        for root in range(1, n + 1):
            accepted = 0
            for others in itertools.product(range(1, n + 1), repeat=n - 1):
                parent = others[: root - 1] + (0,) + others[root - 1 :]
                climbs = all(climbs_to_root(parent, v, root) for v in range(1, n + 1))
                try:
                    RootedTree(n, root, parent)
                except ValueError as exc:
                    assert not climbs and str(exc) == "parent pointers contain a cycle"
                else:
                    assert climbs
                    accepted += 1
            assert accepted == (n ** (n - 2) if n > 1 else 1)


def test_rooted_tree_depths():
    t = RootedTree(4, 2, (2, 0, 1, 3))
    assert [t.depth(v) for v in range(1, 5)] == [1, 0, 2, 3]


def test_rooted_tree_json_round_trip():
    t = RootedTree(3, 3, (2, 3, 0))
    assert t.to_json_dict() == {"n": 3, "root": 3, "parent": [2, 3, 0]}
    assert RootedTree(**t.to_json_dict()) == t


def test_mapping_dot_marks_cyclic_vertices():
    dot = mapping_to_dot(Mapping(4, (2, 3, 3, 1)))
    assert dot.startswith("digraph")
    assert "3 [peripheries=2];" in dot  # the loop at 3 is the only cycle
    assert "1 [peripheries=2];" not in dot
    assert "1 -> 2;" in dot
    assert dot.count("->") == 4


def test_tree_dot_marks_root():
    dot = tree_to_dot(RootedTree(3, 3, (2, 3, 0)))
    assert "3 [style=filled, peripheries=2];" in dot
    assert "1 -> 2;" in dot and "2 -> 3;" in dot


# ------------------------------------------------------------ the pure-Python draw source

DRAW_KEYS = [(0, 0), (2**63, 5), (2**64 - 1, 2**64 - 1)]
DRAW_SIZES = [None, 5, None, None, 3, 17, 0, None, 40, 2]


def _same(got, want):
    if isinstance(got, list):
        return isinstance(want, np.ndarray) and got == want.tolist()
    return isinstance(got, int) and got == want


def _drawn(draws):
    """32-bit draws the pure-Python source has handed out."""
    return 8 * draws._counter - len(draws._pool)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 2**31 + 1, 2**32 - 1, 2**32])
@pytest.mark.parametrize("key", DRAW_KEYS)
def test_draws_match_numpy_call_for_call(n, key):
    stream = RngStream(*key)
    draws, gen = stream.draws(), stream.generator()
    for low in (1, 0):
        for size in DRAW_SIZES:
            assert _same(draws.integers(low, low + n, size), gen.integers(low, low + n, size))
    assert draws._gen is None  # all of it drawn in pure Python


def test_draws_redraw_on_lemire_rejections():
    # 2**32 mod (2**31 + 1) is 2**31 - 1: about half of all draws are rejected
    n = 2**31 + 1
    for key in DRAW_KEYS:
        stream = RngStream(*key)
        draws, gen = stream.draws(), stream.generator()
        got = [draws.integers(0, n, size) for size in DRAW_SIZES]
        assert all(_same(g, gen.integers(0, n, size)) for g, size in zip(got, DRAW_SIZES))
        served = sum(1 if size is None else size for size in DRAW_SIZES)
        assert _drawn(draws) > served


def test_a_span_of_one_draws_nothing():
    draws, gen = RngStream(7, 8).draws(), RngStream(7, 8).generator()
    assert draws.integers(5, 6, size=4) == [5] * 4 and draws.integers(5, 6) == 5
    assert _drawn(draws) == 0
    assert _same(draws.integers(0, 10, size=9), gen.integers(0, 10, size=9))


@pytest.mark.parametrize("before", [0, 1, 2, 3, 7, 8, 9, 16, 21])
@pytest.mark.parametrize("n", [256, 2**31 + 1])
def test_draws_hand_over_to_numpy_at_the_same_position(monkeypatch, before, n):
    # n = 256 never rejects, so its hand-over comes after exactly `before`
    # draws: odd counts leave a word's high half due, multiples of 8 a
    # spent block, 0 a fresh stream; n = 2**31 + 1 hands over after a
    # rejection has taken the stream past the budget
    monkeypatch.setattr(core, "_PURE_DRAWS", before)
    for key in DRAW_KEYS:
        stream = RngStream(*key)
        draws, gen = stream.draws(), stream.generator()
        for _ in range(before):
            assert draws.integers(0, n) == gen.integers(0, n)
        if n == 256:
            assert draws._gen is None and _drawn(draws) == before
        got, want = draws.integers(0, n, 70000), gen.integers(0, n, 70000)
        assert np.array_equal(got, want)
        assert str(draws._gen.bit_generator.state) == str(gen.bit_generator.state)
        for size in DRAW_SIZES:
            got, want = draws.integers(0, n, size), gen.integers(0, n, size)
            assert np.asarray(got).tolist() == np.asarray(want).tolist()


def test_a_first_request_past_the_budget_goes_to_numpy():
    stream = RngStream(11, 2**63 + 1)
    draws, gen = stream.draws(), stream.generator()
    size = core._PURE_DRAWS + 1
    assert np.array_equal(draws.integers(1, 31, size), gen.integers(1, 31, size))
    assert draws._gen is not None and _drawn(draws) == 0
    assert draws.integers(1, 31) == gen.integers(1, 31)


@pytest.mark.parametrize("before", [0, 3, 8])
def test_spans_above_2_32_go_to_numpy(before):
    stream = RngStream(2**64 - 1, 12)
    draws, gen = stream.draws(), stream.generator()
    for _ in range(before):
        assert _same(draws.integers(0, 1000), gen.integers(0, 1000))
    assert draws.integers(0, 2**32 + 1) == gen.integers(0, 2**32 + 1)
    assert draws._gen is not None
    assert np.array_equal(draws.integers(0, 2**40, size=5), gen.integers(0, 2**40, size=5))
    assert np.array_equal(draws.integers(0, 7, size=5), gen.integers(0, 7, size=5))


def _random_rooted_tables(rng, m, n):
    """m 0-based rooted tables: vertex i of a shuffled order points at one of
    the k before it (k random per table, 1 gives a path), vertex 0 at itself."""
    tables = np.empty((m, n), np.intp)
    for row, k in zip(tables, rng.integers(1, n + 1, size=m)):
        order, i = rng.permutation(n), np.arange(1, n)
        lo = np.maximum(0, i - k)
        row[order] = order[np.concatenate(([0], lo + (rng.random(n - 1) * (i - lo)).astype(np.intp)))]
    return tables


@pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
def test_pointer_doubling_into_caller_buffers_equals_the_allocating_call(n):
    rng = np.random.default_rng(n)
    # buffers longer than one call needs, reused by every call below
    buffers = [np.full(400 * n, -7, np.intp) for _ in range(3)]
    depth_values = np.full(400 * n, -7, np.intp)
    for m in (1, 300, 40):
        rooted = _random_rooted_tables(rng, m, n)
        depths = []
        for row in rooted:
            root = int(np.flatnonzero(row == np.arange(n))[0])
            tree = RootedTree(n, root + 1, [0 if v == root else int(p) + 1 for v, p in enumerate(row)])
            depths += [tree.depth(v) for v in range(1, n + 1)]
        assert core._root_depths(rooted).tolist() == depths
        assert core._root_depths(rooted, depth_values, buffers).tolist() == depths
        tables = rng.integers(0, n, size=(m, n))
        values = rng.integers(0, 1000, size=m * n)
        g, no_values = core._pointer_doubling(tables)
        assert no_values is None
        assert np.array_equal(core._pointer_doubling(tables, buffers=buffers)[0], g)
        for fold in (np.minimum, np.add):
            g, folded = core._pointer_doubling(tables, fold, values.copy())
            in_buffers = core._pointer_doubling(tables, fold, values.copy(), buffers)
            assert np.array_equal(in_buffers[0], g)
            assert np.array_equal(in_buffers[1], folded)
        # g and the np.add fold (the loop's last) from the tables themselves:
        # g = f^(2^t) and the sum of values over f^k(v), k < 2^t
        steps = 1 << max(1, (n - 1).bit_length())
        v = np.tile(np.arange(n), m)
        rows = np.repeat(np.arange(m), n)
        expected = np.zeros(m * n, dtype=values.dtype)
        for _ in range(steps):
            expected += values[rows * n + v]
            v = tables[rows, v]
        assert np.array_equal(folded, expected)
        assert np.array_equal(g, rows * n + v)
