"""Exhaustive brute-force oracles over all n^n mappings for small n.

Everything here is exact: counts are big integers, probability masses
are rationals, and no floating point is used.  Every table is visited.
Up to n = 5 (3125 tables), while numpy is not loaded, each one goes
through the scalar functions of core and bijection, which is quicker
than importing numpy; otherwise the tables go in numpy chunks
classified by pointer doubling, so the guards (n <= 8 for counts,
n <= 7 for the height pmf) keep a full run to a few seconds at worst.
Only that array route loads numpy.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .bijection import PruferSequence, mapping_to_rooted_tree, prufer_parent_rows, prufer_parents
from .core import Mapping, Record, _pointer_doubling, cycle_structure

if TYPE_CHECKING:
    import numpy as np

MAX_COUNT_N = 8
MAX_HEIGHT_N = 7

#: Largest n tallied by the scalar route.  On a 2-core x86-64 host n = 5
#: takes 20-40 ms there, against about 100 ms to import numpy; n = 6
#: takes about 300 ms, more than the import and the array route together.
_MAX_SCALAR_N = 5


class ExactCounts(Record):
    """Exact tallies over all n^n mappings on [n]."""

    n: int
    total_mappings: int
    unique_cyclic: int
    labelled_trees: int
    by_cycle_count: dict[int, int]
    height_pmf: tuple[Fraction, ...] | None

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "total": str(self.total_mappings),
            "unique_cyclic": str(self.unique_cyclic),
            "labelled_trees": str(self.labelled_trees),
            "by_cycle_count": {str(k): str(v) for k, v in sorted(self.by_cycle_count.items())},
        }
        if self.height_pmf is not None:
            d["height_pmf"] = [f"{p.numerator}/{p.denominator}" for p in self.height_pmf]
        return d


def _word_chunks(n: int, length: int, suffix: int):
    """Every word of the given length over [0, n), lexicographic, one chunk
    per prefix before the last `suffix` entries.  The one array is reused:
    a chunk is valid until the next is drawn."""
    import numpy as np

    k = min(length, suffix)
    words = np.empty((n**k, length), dtype=np.intp)
    words[:, length - k :] = np.indices((n,) * k).reshape(k, n**k).T
    for prefix in itertools.product(range(n), repeat=length - k):
        words[:, : length - k] = prefix
        yield words


def _working_arrays(size: int) -> list:
    """_table_stats' arrays for up to size flat vertices: the flat indices,
    the three buffers of core._pointer_doubling, the folded values and
    the cyclic flags."""
    import numpy as np

    return [np.arange(size), *(np.empty(size, np.intp) for _ in range(4)), np.empty(size, bool)]


def _table_stats(tables: np.ndarray, depths: bool = True, work: list | None = None):
    """(num_cycles, num_cyclic, root, depth) for a batch of 0-based tables.

    Two passes of core._pointer_doubling.  Its g = f^(2^t), 2^t >= n,
    maps every vertex onto the cyclic set, so a vertex is cyclic exactly
    when it is in the image of g.  The first pass folds np.minimum over
    the flat indices: low(v) = min over k < 2^t of f^k(v), which on a
    cyclic vertex is its cycle's minimum, so each cycle is counted once,
    at that minimum.  root is a row's unique cyclic vertex, or -1 when
    it has several.  With depths, depth holds one row per table with a
    root, in order: the second pass folds np.add over the tables with a
    root, so depth(v) = #{k < 2^t : f^k(v) != root}.
    work, from _working_arrays, lets a caller reuse the arrays across
    batches; depth is then a view of it, valid until its next use.
    """
    import numpy as np

    m, n = tables.shape
    flat, *doubling, values, cyclic = (a[: m * n] for a in work or _working_arrays(m * n))
    np.copyto(values, flat)
    g, low = _pointer_doubling(tables, np.minimum, values, doubling)
    cyclic[:] = False
    cyclic[g] = True
    # row counts as a uint8 matrix product: n <= 8 here, so none overflows
    ones = np.ones(n, np.uint8)
    num_cyclic = cyclic.reshape(m, n).view(np.uint8) @ ones
    num_cycles = (cyclic & (low == flat)).reshape(m, n).view(np.uint8) @ ones
    has_root = num_cyclic == 1
    root = np.where(has_root, g[::n] - flat[::n], -1)
    depth = None
    if depths:
        rooted = np.compress(has_root, tables, axis=0)
        # the root is the only fixed point of a rooted table
        counted = values[: rooted.size]
        np.not_equal(rooted, np.arange(n), out=counted.reshape(rooted.shape))
        depth = _pointer_doubling(rooted, np.add, counted, doubling)[1].reshape(-1, n)
    return num_cycles, num_cyclic, root, depth


#: Table columns filled by the suffix block of each chunk (n^4 rows).
_SUFFIX_COLUMNS = 4


def _counts(n, total, unique_cyclic, labelled_trees, cycle_tally, height_tally) -> ExactCounts:
    """The ExactCounts of either route's tallies."""
    height_pmf = None
    if n <= MAX_HEIGHT_N:
        pairs = unique_cyclic * n  # (rooted tree, vertex) pairs
        height_pmf = tuple(Fraction(int(c), pairs) for c in height_tally)
    by_cycle_count = {cycles: int(c) for cycles, c in enumerate(cycle_tally) if c}
    return ExactCounts(n, total, unique_cyclic, labelled_trees, by_cycle_count, height_pmf)


def _scalar_counts(n: int) -> ExactCounts:
    """exact_counts one table at a time, without numpy: core.cycle_structure
    on every mapping, RootedTree.depth on every vertex of every rooted
    tree, and prufer_parents on every Prufer word."""
    total = unique_cyclic = 0
    cycle_tally = [0] * (n + 1)
    height_tally = [0] * n
    for table in itertools.product(range(1, n + 1), repeat=n):
        m = Mapping(n, table)
        cs = cycle_structure(m)
        total += 1
        cycle_tally[cs.num_cycles] += 1
        if cs.cyclic.count(True) == 1:
            unique_cyclic += 1
            tree = mapping_to_rooted_tree(m)
            for v in range(1, n + 1):
                height_tally[tree.depth(v)] += 1
    words = itertools.product(range(1, n + 1), repeat=max(n - 2, 0))
    trees = {tuple(prufer_parents(PruferSequence(n, word))) for word in words}
    return _counts(n, total, unique_cyclic, len(trees), cycle_tally, height_tally)


def _array_counts(n: int) -> ExactCounts:
    """exact_counts in numpy chunks: _table_stats classifies every suffix
    of the last _SUFFIX_COLUMNS entries at once, reusing one set of
    working arrays for all chunks, and the Prufer words are decoded in
    one chunk per leading entry."""
    import numpy as np

    want_heights = n <= MAX_HEIGHT_N
    cycle_tally = np.zeros(n + 1, dtype=np.int64)
    height_tally = np.zeros(n, dtype=np.int64)
    total = unique_cyclic = 0
    work = _working_arrays(n ** min(n, _SUFFIX_COLUMNS) * n)
    for tables in _word_chunks(n, n, _SUFFIX_COLUMNS):
        num_cycles, _, root, depth = _table_stats(tables, want_heights, work)
        total += len(tables)
        unique_cyclic += int((root >= 0).sum())
        cycle_tally += np.bincount(num_cycles, minlength=n + 1)
        if want_heights:
            height_tally += np.bincount(depth.ravel(), minlength=n)
    # one chunk of words per leading entry bounds the decoder's memory;
    # slot n-1 of a parent row is always -1, so a row's code is below n^(n-1)
    seen = np.zeros(n ** (n - 1), dtype=bool)
    for words in _word_chunks(n, max(n - 2, 0), max(n - 3, 0)):
        seen[prufer_parent_rows(words, n)[:, : n - 1] @ n ** np.arange(n - 1)] = True
    return _counts(n, total, unique_cyclic, int(seen.sum()), cycle_tally, height_tally)


@lru_cache(maxsize=None)
def exact_counts(n: int) -> ExactCounts:
    """Exhaustively tally all n^n mappings.

    unique_cyclic counts mappings whose cyclic set is a single vertex;
    labelled_trees decodes every Prufer word in [n]^(n-2) and counts
    distinct parent arrays, a route that never looks at cycles, so the
    two counts check each other through the factor-of-n relation.
    height_pmf (n <= 7 only) is the exact law of the height of a
    uniform vertex in a uniform rooted tree, tallied over every
    (rooted tree, vertex) pair.  n <= 5 runs the scalar route while
    numpy is not loaded, n = 5 in 20-40 ms; otherwise the array route,
    where n = 5 takes about 2 ms, n = 7 about 0.13 s and n = 8 about
    2.5 s (2-core x86-64 host).
    """
    if not 1 <= n <= MAX_COUNT_N:
        raise ValueError(f"n={n} outside enumeration guard [1..{MAX_COUNT_N}]")
    scalar = n <= _MAX_SCALAR_N and "numpy" not in sys.modules  # once numpy is loaded, arrays win
    return _scalar_counts(n) if scalar else _array_counts(n)


def exact_height_pmf(n: int) -> tuple[Fraction, ...]:
    """Exact law of the height of a uniform vertex in a uniform rooted tree.

    Entry h is the probability of height h, for h in 0..n-1; the mass
    sums to exactly 1.
    """
    if not 1 <= n <= MAX_HEIGHT_N:
        raise ValueError(f"n={n} outside height-pmf guard [1..{MAX_HEIGHT_N}]")
    pmf = exact_counts(n).height_pmf
    assert pmf is not None
    return pmf


def exact_collision_pmf(n: int) -> tuple[Fraction, ...]:
    """Law of the number of distinct uniform draws before the first repeat.

    P(C=k) = (k/n) * prod_{j=1}^{k-1} (1 - j/n) for k in 1..n: the first
    k draws are pairwise distinct and the next draw repeats one of the k
    values seen.  Entry k-1 of the result is P(C=k).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    probs = []
    running = Fraction(1)  # prod_{j=1}^{k-1} (1 - j/n)
    for k in range(1, n + 1):
        probs.append(running * Fraction(k, n))
        running *= Fraction(n - k, n)
    return tuple(probs)
