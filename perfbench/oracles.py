"""Reference computations made apart from cayleykit.

Nothing here imports the library.  The workloads compare the program's
outputs with these, so a check never rests on a stored copy of an
earlier output or on the code path under test.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagreed with an independent computation or property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stirling_cycle_row(j: int) -> list[int]:
    """Unsigned Stirling numbers of the first kind c(j, k) for k = 0..j."""
    row = [1]
    for m in range(j):  # c(m+1, k) = m c(m, k) + c(m, k-1)
        nxt = [0] * (m + 2)
        for k, c in enumerate(row):
            nxt[k] += m * c
            nxt[k + 1] += c
        row = nxt
    return row


def mappings_by_cycle_count(n: int) -> dict[int, int]:
    """Number of mappings on [n] with k cycles, by the closed form.

    Sum over j of C(n, j) * (forests on [n] rooted at a j-set) * c(j, k),
    where the forest count is j * n^(n-j-1), i.e. 1 when j = n.
    """
    out: dict[int, int] = {}
    for j in range(1, n + 1):
        forests = j * n ** (n - j - 1) if j < n else 1
        for k, c in enumerate(stirling_cycle_row(j)):
            if c:
                out[k] = out.get(k, 0) + math.comb(n, j) * forests * c
    return out


def collision_pmf(n: int) -> list[Fraction]:
    """P(C = k), k = 1..n, for C the distinct draws before the first repeat.

    Derived from the tail P(C >= k) = n(n-1)...(n-k+1) / n^k, the chance
    that the first k uniform draws are pairwise distinct.
    """
    tail = [Fraction(math.perm(n, k), n**k) for k in range(1, n + 2)]
    return [tail[k] - tail[k + 1] for k in range(n)]


def unique_cyclic_bruteforce(tables0) -> list[bool]:
    """Per row of 0-based tables: is the image of f^n a single vertex?

    Applies f to every vertex n times over, one step at a time.
    """
    import numpy as np

    f = np.asarray(tables0)
    image = np.broadcast_to(np.arange(f.shape[1]), f.shape)
    for _ in range(f.shape[1]):
        image = np.take_along_axis(f, image, axis=1)
    return (image == image[:, :1]).all(axis=1).tolist()


def check_rooted_tree(n: int, root: int, parent: list[int]) -> None:
    """Parent pointers (0 in the root's slot) form an in-tree on [1..n]."""
    require(len(parent) == n and 1 <= root <= n, "tree shape")
    require(parent[root - 1] == 0, "root slot must hold 0")
    for v in range(1, n + 1):
        w, steps = v, 0
        while w != root:
            p = parent[w - 1]
            require(1 <= p <= n, f"parent of {w} out of range")
            w, steps = p, steps + 1
            require(steps <= n, "parent pointers contain a cycle")


def table_from_trace(trace: dict) -> list[int]:
    """Rebuild the 1-based table from a trace's revealed edges."""
    n = trace["n"]
    table = [0] * n
    for r in trace["rounds"]:
        path = r["path"]
        for a, b in zip(path, path[1:]):
            table[a - 1] = b
        a, b = r["closing_edge"]
        require(a == path[-1], "closing edge must leave the last path vertex")
        table[a - 1] = b
    require(all(table), "trace does not reveal every edge")
    return table


def random_tree_edges(rng, n: int) -> list[list[int]]:
    """A random labelled tree on [1..n] (random recursive tree, relabelled)."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = labels[u], labels[v]
        edges.append([min(a, b), max(a, b)])
    return sorted(edges)


def chi_square_z(counts: list[int], pmf: list[Fraction]) -> float:
    """Normal score of a chi-square goodness-of-fit statistic.

    Values with expected count below 5 are pooled into one bin, itself
    merged into the last kept bin if its expectation is still below 5; the
    statistic is mapped to a standard normal score by the Wilson-Hilferty
    cube-root approximation, so no statistics package is needed.
    """
    total = sum(counts)
    kept, pooled_obs, pooled_exp = [], 0, 0.0
    for obs, p in zip(counts, pmf):
        exp = float(p) * total
        if exp >= 5.0:
            kept.append((obs, exp))
        else:
            pooled_obs += obs
            pooled_exp += exp
    if pooled_exp >= 5.0 or not kept:
        kept.append((pooled_obs, pooled_exp))
    elif pooled_exp > 0:
        obs, exp = kept.pop()
        kept.append((obs + pooled_obs, exp + pooled_exp))
    return wilson_hilferty_z(sum((o - e) ** 2 / e for o, e in kept), len(kept) - 1)


def wilson_hilferty_z(statistic: float, df: int) -> float:
    if df < 1:
        return 0.0
    c = 2.0 / (9.0 * df)
    return ((statistic / df) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)
