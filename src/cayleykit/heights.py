"""Uniform rooted-tree samplers and the height/collision law identity.

Write H for the height of a uniform vertex in a uniform rooted tree on
[n].  Then 1+H is distributed as the number of distinct i.i.d. uniform
draws on [n] seen before the first repeated value.  This module ships
two independent uniform tree samplers (rejection over random mappings,
and Prufer-sequence decoding), a collision-count sampler, and a report
that confronts the sampled laws with the exact one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .bijection import mapping_to_rooted_tree
from .core import Mapping, RootedTree, unique_cyclic_vertex
from .enumeration import exact_collision_pmf, exact_height_pmf
from .montecarlo import (
    Histogram,
    RngStream,
    chi_square_statistic,
    run_trials,
    two_sample_chi_square,
)

#: Hard cap on rejection attempts; a healthy sampler at size n succeeds
#: after n attempts on average, so hitting this means the RNG is broken.
ATTEMPT_CAP_FACTOR = 10_000


@dataclass(frozen=True)
class HeightSample:
    """One sampled vertex height, with the sampler's attempt count."""

    vertex: int
    height: int
    attempts: int


def _sample_tree_rejection(gen: np.random.Generator, n: int) -> tuple[RootedTree, int]:
    cap = ATTEMPT_CAP_FACTOR * n
    for attempt in range(1, cap + 1):
        table = tuple(int(x) for x in gen.integers(1, n + 1, size=n))
        m = Mapping(n, table)
        if unique_cyclic_vertex(m) is not None:
            return mapping_to_rooted_tree(m), attempt
    raise RuntimeError(
        f"no unique-cyclic mapping accepted in {cap} attempts at n={n}; "
        "the random source looks broken"
    )


def _decode_prufer_edges(n: int, seq: list[int]) -> list[tuple[int, int]]:
    """Lean Prufer decode used on the sampling hot path."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _sample_tree_prufer(gen: np.random.Generator, n: int) -> RootedTree:
    if n == 1:
        return RootedTree(1, 1, (0,))
    seq = [int(x) for x in gen.integers(1, n + 1, size=n - 2)] if n > 2 else []
    root = int(gen.integers(1, n + 1))
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in _decode_prufer_edges(n, seq):
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [0] * n
    stack = [root]
    seen = bytearray(n + 1)
    seen[root] = 1
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w - 1] = v
                stack.append(w)
    return RootedTree(n, root, tuple(parent))


def sample_rooted_tree_rejection(n: int, stream: RngStream) -> tuple[RootedTree, int]:
    """Sample an exactly uniform rooted tree by rejecting random mappings.

    Draws uniform mappings until one has a unique cyclic vertex and
    converts it; acceptance probability is exactly 1/n, so the returned
    attempt count is geometric with mean n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _sample_tree_rejection(stream.generator(), n)


def sample_rooted_tree_prufer(n: int, stream: RngStream) -> RootedTree:
    """Sample an exactly uniform rooted tree via a uniform Prufer word.

    A uniform sequence in [n]^(n-2) decodes to a uniform labelled tree;
    a uniform independent root then makes the rooted tree uniform over
    all n^(n-1) of them.  O(n log n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _sample_tree_prufer(stream.generator(), n)


def _sample_height(gen: np.random.Generator, n: int, method: str) -> HeightSample:
    if method == "rejection":
        tree, attempts = _sample_tree_rejection(gen, n)
    elif method == "prufer":
        tree = _sample_tree_prufer(gen, n)
        attempts = 1
    else:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    vertex = int(gen.integers(1, n + 1))
    return HeightSample(vertex, tree.depth(vertex), attempts)


def sample_height_plus_one(n: int, stream: RngStream, method: str = "rejection") -> int:
    """Sample 1 + (height of a uniform vertex in a uniform rooted tree)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 + _sample_height(stream.generator(), n, method).height


def _sample_collision(gen: np.random.Generator, n: int) -> int:
    # n+1 draws always suffice: by then some value must have repeated
    ys = gen.integers(1, n + 1, size=n + 1)
    seen = set()
    for y in ys:
        y = int(y)
        if y in seen:
            return len(seen)
        seen.add(y)
    raise AssertionError("unreachable: n+1 draws from [1..n] must repeat")


def sample_collision_count(n: int, stream: RngStream) -> int:
    """Distinct uniform draws on [1..n] seen before the first repeat.

    Draws Y_1, Y_2, ... until Y_t matches an earlier value and returns
    t-1, which is the number of distinct values collected; always in
    [1..n] by pigeonhole.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _sample_collision(stream.generator(), n)


@dataclass(frozen=True)
class ChiSquareCheck:
    """One chi-square comparison inside a law-equality report."""

    label: str
    statistic: float
    df: int
    critical: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "statistic": self.statistic,
            "df": self.df,
            "critical": self.critical,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class LawEqualityReport:
    """Sampled and exact evidence that 1+H and the collision count agree."""

    n: int
    trials: int
    master_seed: int
    height_method: str
    height_plus_one: Histogram
    collision: Histogram
    checks: tuple[ChiSquareCheck, ...]
    exact_law_equal: bool | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.master_seed,
            "height_method": self.height_method,
            "height_plus_one": self.height_plus_one.to_json_dict(),
            "collision": self.collision.to_json_dict(),
            "checks": [c.to_json_dict() for c in self.checks],
            "exact_law_equal": self.exact_law_equal,
            "passed": self.passed,
        }


def tally_law_histograms(
    n: int, master_seed: int, start: int, stop: int, method: str
) -> tuple[list[int], list[int]]:
    """Histogram counts (values 1..n) for trials in [start, stop).

    Trial i draws its height sample from stream 2i and its collision
    sample from stream 2i+1, keeping the two sequences independent and
    any trial partition reproducible.
    """
    h_counts = [0] * n
    c_counts = [0] * n
    for trial in range(start, stop):
        gen_h = RngStream(master_seed, 2 * trial).generator()
        h_counts[_sample_height(gen_h, n, method).height] += 1
        gen_c = RngStream(master_seed, 2 * trial + 1).generator()
        c_counts[_sample_collision(gen_c, n) - 1] += 1
    return h_counts, c_counts


def _merge_histograms(parts) -> tuple[list[int], list[int]]:
    h_parts, c_parts = zip(*parts)
    return [sum(c) for c in zip(*h_parts)], [sum(c) for c in zip(*c_parts)]


def _critical_value(df: int, level: float) -> float:
    if df <= 0:
        return 0.0
    from scipy.stats import chi2  # deferred: scipy.stats dominates import time

    return float(chi2.ppf(level, df))


def law_equality_report(
    n: int,
    trials: int,
    master_seed: int,
    *,
    method: str = "prufer",
    level: float = 0.999,
    jobs: int = 1,
) -> LawEqualityReport:
    """Verify that 1+H matches the first-collision law, in distribution.

    Builds the two sampled histograms, tests each against the exact
    collision pmf and the pair against each other, and (for n small
    enough to enumerate) adds the exact rational identity between the
    shifted height pmf and the collision pmf.  All tests use the given
    level's chi-square critical values.
    """
    if method not in ("rejection", "prufer"):
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    h_counts, c_counts = run_trials(
        tally_law_histograms, n, master_seed, trials, jobs, _merge_histograms, method
    )
    hist_h = Histogram(1, tuple(h_counts), trials)
    hist_c = Histogram(1, tuple(c_counts), trials)
    pmf = {k: p for k, p in enumerate(exact_collision_pmf(n), start=1)}
    checks = []
    for label, hist in (
        (f"height_plus_one[{method}] vs exact collision pmf", hist_h),
        ("collision vs exact collision pmf", hist_c),
    ):
        stat, df = chi_square_statistic(hist, pmf)
        crit = _critical_value(df, level)
        checks.append(ChiSquareCheck(label, stat, df, crit, stat <= crit))
    stat, df = two_sample_chi_square(hist_h, hist_c)
    crit = _critical_value(df, level)
    checks.append(
        ChiSquareCheck(
            f"height_plus_one[{method}] vs collision (two-sample)",
            stat,
            df,
            crit,
            stat <= crit,
        )
    )
    exact_equal = None
    if n <= 6:  # larger n would cost a full n^n enumeration
        shifted = exact_height_pmf(n)  # entry h is P(H=h), i.e. P(1+H = h+1)
        exact_equal = tuple(shifted) == tuple(exact_collision_pmf(n))
    return LawEqualityReport(
        n=n,
        trials=trials,
        master_seed=master_seed,
        height_method=method,
        height_plus_one=hist_h,
        collision=hist_c,
        checks=tuple(checks),
        exact_law_equal=exact_equal,
        passed=all(c.passed for c in checks) and exact_equal is not False,
    )
