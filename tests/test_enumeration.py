import json
import pathlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cayleykit import (
    Mapping,
    SmallestLabel,
    cycle_count_from_trace,
    cycle_structure,
    exact_collision_pmf,
    exact_counts,
    exact_height_pmf,
    explore,
    mapping_to_rooted_tree,
    unique_cyclic_vertex,
)
from cayleykit.enumeration import _array_counts, _scalar_counts, _table_stats

from conftest import all_mappings, all_tables


def test_enumerate_mappings_visit_counts():
    for n, expected in ((1, 1), (2, 4), (4, 256)):
        assert sum(1 for _ in all_mappings(n)) == expected


def test_enumerate_mappings_lexicographic_order():
    assert [m.table for m in all_mappings(2)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_mappings_guard():
    with pytest.raises(ValueError, match="8"):
        all_tables(9)
    with pytest.raises(ValueError):
        all_tables(0)


def _check_table_stats(n, tables):
    """_table_stats on 1-based tables against the scalar oracles in core."""
    tables0 = np.array(tables, dtype=np.intp).reshape(len(tables), n) - 1
    num_cycles, num_cyclic, root, depth = _table_stats(tables0)
    assert len(depth) == (root >= 0).sum()
    rooted = iter(depth)
    for j, table in enumerate(tables):
        m = Mapping(n, tuple(table))
        cs = cycle_structure(m)
        assert num_cycles[j] == cs.num_cycles
        assert num_cyclic[j] == sum(cs.cyclic)
        fixed = unique_cyclic_vertex(m)
        assert root[j] == (-1 if fixed is None else fixed - 1)
        if fixed is not None:
            tree = mapping_to_rooted_tree(m)
            assert next(rooted).tolist() == [tree.depth(v) for v in range(1, n + 1)]
    assert next(rooted, None) is None


def test_table_stats_match_scalar_oracles_exhaustively():
    for n in range(1, 6):
        _check_table_stats(n, list(all_tables(n)))


def test_table_stats_match_scalar_oracles_on_random_tables():
    rng = np.random.default_rng(77)
    for n in (7, 8):
        tables = rng.integers(1, n + 1, size=(3000, n))
        # plant rooted trees too: about 1 in n random tables has a root
        trees = rng.integers(1, n + 1, size=(1000, n))
        trees[:, 0] = 1
        trees[:, 1:] = np.minimum(trees[:, 1:], np.arange(1, n))
        _check_table_stats(n, np.vstack([tables, trees]).tolist())


def test_exact_counts_small_values():
    c = exact_counts(2)
    assert c.total_mappings == 4
    assert c.unique_cyclic == 2
    assert Fraction(c.unique_cyclic, c.total_mappings) == Fraction(1, 2)
    c = exact_counts(3)
    assert c.unique_cyclic == 9 and c.labelled_trees == 3
    assert sum(c.by_cycle_count.values()) == 27


def _stirling_cycle_row(j):
    """Unsigned Stirling numbers of the first kind c(j, k), k = 0..j."""
    row = [1]
    for i in range(j):  # c(i+1, k) = i c(i, k) + c(i, k-1)
        row = [i * a + b for a, b in zip(row + [0], [0] + row)]
    return row


def _mappings_by_cycle_count(n):
    """#mappings on [n] with k cycles: sum_j C(n,j) j n^(n-j-1) c(j,k).

    C(n,j) picks the cyclic set, c(j,k) its permutation with k cycles,
    and j n^(n-j-1) counts the rooted forests on the rest hanging from
    it (1 when j = n).
    """
    out = {}
    for j in range(1, n + 1):
        forests = j * n ** (n - j - 1) if j < n else 1
        for k, c in enumerate(_stirling_cycle_row(j)):
            if c:
                out[k] = out.get(k, 0) + comb(n, j) * forests * c
    return out


def test_exact_counts_match_closed_forms():
    for n in range(1, 9):
        c = exact_counts(n)
        assert c.total_mappings == n**n
        assert c.unique_cyclic == n ** (n - 1)
        assert c.labelled_trees == (n ** (n - 2) if n >= 2 else 1)
        assert c.unique_cyclic == c.labelled_trees * n
        assert sum(c.by_cycle_count.values()) == c.total_mappings
        assert Fraction(c.unique_cyclic, c.total_mappings) == Fraction(1, n)
        assert c.by_cycle_count == _mappings_by_cycle_count(n)
        assert all(type(k) is int and type(v) is int and v > 0
                   for k, v in c.by_cycle_count.items())
        assert all(type(x) is int for x in
                   (c.total_mappings, c.unique_cyclic, c.labelled_trees))
        assert (c.height_pmf is None) == (n > 7)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _golden_counts(n):
    return json.loads((GOLDEN / f"enumerate_n{n}.json").read_text())


@pytest.mark.parametrize("n", range(1, 7))
def test_scalar_and_array_routes_agree_with_the_goldens(n):
    scalar, array = _scalar_counts(n), _array_counts(n)
    assert scalar == array
    assert scalar.to_json_dict() == _golden_counts(n)
    assert all(type(v) is int for v in scalar.by_cycle_count.values())
    assert all(type(v) is int for v in array.by_cycle_count.values())


def test_exact_counts_leaves_no_state_between_calls():
    # each call builds its own working arrays; n = 6 after 7 uses smaller chunks
    exact_counts.cache_clear()
    first = exact_counts(7)
    assert exact_counts(6).to_json_dict() == _golden_counts(6)
    exact_counts.cache_clear()
    again = exact_counts(7)
    assert again is not first
    assert first.to_json_dict() == again.to_json_dict() == _golden_counts(7)


def test_exact_counts_takes_the_array_route_once_numpy_is_loaded(monkeypatch):
    # numpy is loaded here: n = 5 takes about 2 ms in arrays, 20-40 ms in Python
    from cayleykit import enumeration

    calls = []
    monkeypatch.setattr(enumeration, "_scalar_counts", lambda n: calls.append(n) or _scalar_counts(n))
    exact_counts.cache_clear()
    try:
        assert exact_counts(5).to_json_dict() == _golden_counts(5)
    finally:
        exact_counts.cache_clear()
    assert calls == []


def test_exact_counts_guard():
    with pytest.raises(ValueError):
        exact_counts(9)
    with pytest.raises(ValueError):
        exact_counts(0)


def test_by_cycle_count_matches_trace_tallies():
    # the trace sees exactly the cycle-creating closures, whatever the
    # strategy; tallying over all mappings must reproduce by_cycle_count
    for n in range(1, 8):
        tally = {}
        for m in all_mappings(n):
            k = cycle_count_from_trace(explore(m, SmallestLabel()))
            tally[k] = tally.get(k, 0) + 1
        assert tally == exact_counts(n).by_cycle_count


def test_exact_height_pmf_examples():
    assert exact_height_pmf(1) == (Fraction(1),)
    assert exact_height_pmf(2) == (Fraction(1, 2), Fraction(1, 2))
    assert exact_height_pmf(3) == (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))


def test_exact_height_pmf_normalized_and_guarded():
    for n in range(1, 8):
        pmf = exact_height_pmf(n)
        assert len(pmf) == n
        assert sum(pmf) == 1
        assert all(p >= 0 for p in pmf)
        assert pmf[0] == Fraction(1, n)  # the root is a uniform vertex
    with pytest.raises(ValueError):
        exact_height_pmf(8)


def test_exact_collision_pmf_examples():
    assert exact_collision_pmf(1) == (Fraction(1),)
    assert exact_collision_pmf(2) == (Fraction(1, 2), Fraction(1, 2))
    assert exact_collision_pmf(3) == (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))


def test_exact_collision_pmf_sums_to_one():
    for n in (1, 2, 3, 7, 10, 64, 100, 365, 1000):
        assert sum(exact_collision_pmf(n)) == 1
    with pytest.raises(ValueError):
        exact_collision_pmf(0)


def test_exact_collision_pmf_mass_identity_large_n():
    # independent integer oracle at n = 10^4: with unreduced terms
    # t_k = k * (n-1)!/(n-k)!, the pmf sums to 1 iff
    # sum_k t_k * n^(n-k) == n^n; terms follow the exact recurrence
    # t_{k+1} = t_k * (k+1)(n-k) / (k n)
    n = 10_000
    term = n ** (n - 1)
    total = term
    for k in range(1, n):
        term = term * (k + 1) * (n - k) // (k * n)
        total += term
    assert total == n**n
    # the shipped pmf agrees with the same terms at spot-checked k
    m = 300
    pmf = exact_collision_pmf(m)
    for k in (1, 2, 3, 57, 150, 300):
        tk = k
        for j in range(1, k):
            tk = tk * (m - j)
        assert pmf[k - 1] == Fraction(tk, m**k)


def test_law_shift_identity_small_n():
    for n in range(1, 8):
        assert exact_height_pmf(n) == exact_collision_pmf(n)
