"""Uniform rooted-tree samplers and the height/collision law identity.

Write H for the height of a uniform vertex in a uniform rooted tree on
[n].  Then 1+H is distributed as the number of distinct i.i.d. uniform
draws on [n] seen before the first repeated value.  This module ships
two independent uniform tree samplers (rejection over random mappings,
and Prufer-sequence decoding), a collision-count sampler, and a report
that confronts the sampled laws with the exact one.  Only the batched
tallies and the report load numpy, where they run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .bijection import PruferSequence, mapping_to_rooted_tree, prufer_parent_rows, prufer_parents
from .core import Mapping, Record, RngStream, RootedTree, _root_depths, unique_cyclic_vertex

if TYPE_CHECKING:
    import numpy as np

    from .core import _Draws
    from .montecarlo import Histogram

#: Hard cap on rejection attempts; a healthy sampler at size n succeeds
#: after n attempts on average, so hitting this means the RNG is broken.
ATTEMPT_CAP_FACTOR = 10_000

_EPS = 2.0**-53  # half the spacing of floats at 1
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method


def _attempt_cap_error(n: int) -> RuntimeError:
    return RuntimeError(
        f"no unique-cyclic mapping accepted in {ATTEMPT_CAP_FACTOR * n} attempts at n={n}; "
        "the random source looks broken"
    )


def _sample_tree_rejection(gen: _Draws | np.random.Generator, n: int) -> tuple[RootedTree, int]:
    for attempt in range(1, ATTEMPT_CAP_FACTOR * n + 1):
        table = tuple(int(x) for x in gen.integers(1, n + 1, size=n))
        m = Mapping(n, table)
        if unique_cyclic_vertex(m) is not None:
            return mapping_to_rooted_tree(m), attempt
    raise _attempt_cap_error(n)


def _sample_tree_prufer(gen: _Draws | np.random.Generator, n: int) -> RootedTree:
    if n == 1:
        return RootedTree(1, 1, (0,))
    seq = tuple(int(x) for x in gen.integers(1, n + 1, size=n - 2))
    root = int(gen.integers(1, n + 1))
    parent = prufer_parents(PruferSequence(n, seq))
    v, prev = root, 0  # re-root: reverse the parent pointers from root up to n
    while v:
        nxt = parent[v - 1]
        parent[v - 1] = prev
        v, prev = nxt, v
    return RootedTree(n, root, tuple(parent))


def sample_rooted_tree_rejection(n: int, stream: RngStream) -> tuple[RootedTree, int]:
    """Sample an exactly uniform rooted tree by rejecting random mappings.

    Draws uniform mappings until one has a unique cyclic vertex and
    converts it; acceptance probability is exactly 1/n, so the returned
    attempt count is geometric with mean n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _sample_tree_rejection(stream.draws(), n)


def sample_rooted_tree_prufer(n: int, stream: RngStream) -> RootedTree:
    """Sample an exactly uniform rooted tree via a uniform Prufer word.

    A uniform sequence in [n]^(n-2) decodes to a uniform labelled tree;
    a uniform independent root then makes the rooted tree uniform over
    all n^(n-1) of them.  O(n log n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _sample_tree_prufer(stream.draws(), n)


def _first_window(n: int) -> int:
    """A collision sample's first batch of draws: 2 sqrt(2n) repeat w.p. about 1 - e^-4."""
    return min(n + 1, max(8, 2 * math.isqrt(2 * n)))


def sample_collision_count(n: int, stream: RngStream) -> int:
    """Distinct uniform draws on [1..n] seen before the first repeat.

    Draws Y_1, Y_2, ... until Y_t matches an earlier value and returns
    t-1, which is the number of distinct values collected; always in
    [1..n] by pigeonhole.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws, seen, size = stream.draws(), set(), _first_window(n)
    while True:  # doubling batches, never past n+1
        for y in draws.integers(1, n + 1, size=min(size, n + 1 - len(seen))):
            if y in seen:
                return len(seen)
            seen.add(y)
        size *= 2


class ChiSquareCheck(Record):
    """One chi-square comparison inside a law-equality report; it passed if p_value >= 1 - _LEVEL."""

    label: str
    statistic: float
    df: int
    p_value: float
    passed: bool


class LawEqualityReport(Record):
    """Sampled and exact evidence that 1+H and the collision count agree."""

    n: int
    trials: int
    seed: int
    height_method: str
    height_plus_one: Histogram
    collision: Histogram
    checks: tuple[ChiSquareCheck, ...]
    exact_law_equal: bool | None
    passed: bool


def _prufer_heights(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The Prufer sampler's height on each stream.

    Draws [0, n-2) are the word, draw n-2 the root and draw n-1 the
    vertex.  The words are decoded toward vertex n (0-based n-1), all at
    once by prufer_parent_rows.  The height is dist(root, vertex): the
    climb from the vertex to the first ancestor of the root, plus that
    ancestor's distance to the root.
    """
    import numpy as np
    from . import montecarlo

    rows = montecarlo._bounded_draws(n, master_seed, streams, 0, n)[0]
    base = np.arange(len(rows)) * n
    word, root, vertex = rows[:, : n - 2], rows[:, n - 2], rows[:, n - 1]
    parent = prufer_parent_rows(word, n)  # -1 at the root, n-1
    parent[:, : n - 1] += base[:, None]  # to flat indices base + label in place: a chunk's copy would raise the peak
    parent, up = parent.ravel(), np.full(parent.size, -1)  # up[base + a]: distance from root to its ancestor a
    a, d = base + root, 0
    while a.size:
        up[a] = d
        a = parent[a]
        a, d = a[a >= 0], d + 1
    v, climb = base + vertex, np.zeros(len(rows), dtype=np.int64)
    while (off := np.flatnonzero(up[v] < 0)).size:
        v[off] = parent[v[off]]
        climb[off] += 1
    return climb + up[v]


def _rejection_heights(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The rejection sampler's height on each stream.

    Attempt j is draws [jn, (j+1)n) and the vertex is the draw after the
    first accepted attempt.  A pool of at most _CHUNK_DRAWS // (count n)
    streams reads segments of count = n attempts each (a stream's
    remaining attempts are geometric with mean n), at most _CHUNK_DRAWS
    // n, and one draw ahead, from its own cursor and against its own
    cap; accepted streams leave, and the next enter at cursor 0.  A
    stream's next segment starts one half back, on the half of the draw
    read ahead.  The height is the vertex's core._root_depths.
    """
    import numpy as np
    from . import montecarlo

    cap, count = ATTEMPT_CAP_FACTOR * n, max(1, min(n, montecarlo._CHUNK_DRAWS // n))
    size, entered = max(1, montecarlo._CHUNK_DRAWS // (count * n)), 0
    heights = np.full(len(streams), -1)
    pool = cursors = tried = np.zeros(0, dtype=np.int64)  # the pool's streams, their cursors and attempts
    while pool.size or entered < len(streams):
        new = np.arange(entered, min(len(streams), entered + size - pool.size))
        entered, zero = entered + new.size, np.zeros_like(new)
        pool, cursors, tried = (np.concatenate(pair) for pair in ((pool, new), (cursors, zero), (tried, zero)))
        rows, ends = montecarlo._bounded_draws(n, master_seed, streams[pool], cursors, count * n + 1)
        tables = rows[:, : count * n].reshape(-1, count, n)
        accepted = montecarlo._unique_cyclic_mask(tables.reshape(-1, n)).reshape(-1, count)
        accepted &= tried[:, None] + np.arange(count) < cap
        found = accepted.any(axis=1)
        if (tried[~found] + count >= cap).any():
            raise _attempt_cap_error(n)
        done = np.flatnonzero(found)
        k = accepted[done].argmax(axis=1)
        f, v = tables[done, k], rows[done, (k + 1) * n] + n * np.arange(len(done))
        heights[pool[done]] = _root_depths(f)[v]
        pool, cursors, tried = pool[~found], ends[~found] - 1, tried[~found] + count
    return heights


def _collision_bins(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The collision count minus one on each stream.

    Reads sample_collision_count's batches: _first_window(n) draws, then
    doubling windows, from their cursors, of the rows without a repeat.
    Each window is swept column by column, marking one flat seen array
    at base + value, until every row has drawn a value it has seen; the
    count is the index of that draw.
    """
    import numpy as np
    from . import montecarlo

    base = np.arange(len(streams)) * n
    seen = np.zeros(len(streams) * n, dtype=bool)
    first = np.zeros(len(streams), dtype=np.int64)
    pending, cursors, t, width = np.arange(len(streams)), 0, 0, _first_window(n)
    while pending.size:
        rows, cursors = montecarlo._bounded_draws(n, master_seed, streams[pending], cursors, width)
        hit = np.zeros(len(pending), dtype=np.int64)  # 0 until the row repeats: draw 0 never does
        for j, y in enumerate(rows.T + base[pending], start=t):  # on flat indices base + value
            hit[(hit == 0) & seen[y]] = j
            if hit.all():
                break
            seen[y] = True
        first[pending] = hit
        pending, cursors, t = pending[hit == 0], cursors[hit == 0], t + width
        width = min(2 * width, n + 1 - t)
    return first - 1


_HEIGHT_KERNELS = {"prufer": _prufer_heights, "rejection": _rejection_heights}


def tally_law_histograms(n: int, master_seed: int, start: int, stop: int, method: str) -> np.ndarray:
    """Histogram counts of trials [start, stop): row 0 of the heights, row 1
    of the collision counts minus one, each over the values 0..n-1.

    Trial i draws its height sample from stream 2i and its collision
    sample from stream 2i+1, keeping the two sequences independent and
    any trial partition reproducible.  The kernels take chunks of trials
    sized by n + 1 draws a trial for Prufer, n for rejection (its pool
    bounds a segment) and the first window for the collisions, and give
    the per-trial samplers' values on every stream, at every n.
    """
    kernel = _HEIGHT_KERNELS.get(method)
    if kernel is None:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    import numpy as np
    from . import montecarlo

    counts = np.zeros((2, n), dtype=np.int64)
    kernels = ((kernel, n if method == "rejection" else n + 1), (_collision_bins, _first_window(n)))
    for parity, (sample, draws_per_trial) in enumerate(kernels):
        for streams in montecarlo._stream_chunks(master_seed, start, stop, draws_per_trial, stride=2):
            counts[parity] += np.bincount(sample(n, master_seed, streams + np.uint64(parity)), minlength=n)
    return counts


def _chi_square_p(statistic: float, df: int) -> float:
    """The chi-square upper tail Q(df/2, statistic/2): the p-value of
    statistic on df degrees of freedom, 1.0 at df 0, where nothing is tested.

    1 - P(a, x) by its power series below x = a + 1, Q by Legendre's
    continued fraction (modified Lentz) above.  Both scale x^a e^-x / Gamma(a)
    = exp(a (log(x/a) - d) + log(a / 2 pi) / 2 - stirling(a)), d = (x-a)/a,
    whose log1p(d) - d keeps full accuracy near x = a at large a, where
    a log x - x - lgamma(a) cancels to a few units.
    """
    if df == 0 or statistic <= 0:  # Q(a, 0) = 1
        return 1.0
    a, x = df / 2, statistic / 2
    if a < 15:
        log_factor = a * math.log(x) - x - math.lgamma(a)
    else:
        d, s = (x - a) / a, 1 / (a * a)
        log_ratio = math.log1p(d) if d > -0.5 else math.log(x / a)
        # Stirling's series: lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2)
        stirling = (1 / 12 - s * (1 / 360 - s * (1 / 1260 - s * (1 / 1680 - s / 1188)))) / a
        log_factor = a * (log_ratio - d) + 0.5 * math.log(a / (2 * math.pi)) - stirling
    factor = math.exp(log_factor)
    if x < a + 1:
        term = total = 1 / a
        k = a
        while term > total * _EPS:
            k += 1
            term *= x / k
            total += term
        return 1 - factor * total
    b, c, i = x + 1 - a, 1 / _TINY, 0
    h = d = 1 / b
    while abs(c * d - 1) > _EPS:
        i += 1
        an, b = i * (a - i), b + 2
        d = 1 / (an * d + b or _TINY)
        c = b + an / c or _TINY
        h *= c * d
    return factor * h


#: The level of law_equality_report's three chi-square checks.
_LEVEL = 0.999


def _collision_pmf(n: int) -> dict[int, float]:
    """exact_collision_pmf(n) in correctly rounded floats, keyed by k.

    P(C=k) = k (n)_k / n^(k+1) is one int/int true division.  Entries
    before the mode are at least 1/n and past it the pmf only falls, so
    all entries after the first that rounds to 0.0 are 0.0 too.
    """
    pmf, falling, power = dict.fromkeys(range(1, n + 1), 0.0), 1, n
    for k in pmf:
        falling, power = falling * (n - k + 1), power * n
        pmf[k] = k * falling / power
        if pmf[k] == 0.0:
            break
    return pmf


def law_equality_report(
    n: int, trials: int, master_seed: int, *, method: str = "prufer", jobs: int = 1
) -> LawEqualityReport:
    """Verify that 1+H matches the first-collision law, in distribution.

    Builds the two sampled histograms, tests each against the exact
    collision pmf and the pair against each other, and (for n small
    enough to enumerate) adds the exact rational identity between the
    pmf of 1+H and the collision pmf.  Each check passes if its
    chi-square p-value is at least 1 - _LEVEL; a check whose mass pools
    into one bin has df 0 and p-value 1: nothing to test.
    """
    from .enumeration import exact_collision_pmf, exact_height_pmf
    from .montecarlo import Histogram, chi_square_statistic, run_trials, two_sample_chi_square

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method not in _HEIGHT_KERNELS:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    h_counts, c_counts = run_trials(tally_law_histograms, n, master_seed, trials, jobs, method, stride=2).tolist()
    hist_h, hist_c = (Histogram(1, tuple(counts), trials) for counts in (h_counts, c_counts))
    pmf = _collision_pmf(n)
    checks = []
    for label, (stat, df) in (
        (f"height_plus_one[{method}] vs exact collision pmf", chi_square_statistic(hist_h, pmf)),
        ("collision vs exact collision pmf", chi_square_statistic(hist_c, pmf)),
        (f"height_plus_one[{method}] vs collision (two-sample)", two_sample_chi_square(hist_h, hist_c)),
    ):
        checks.append(ChiSquareCheck(label, stat, df, p := _chi_square_p(stat, df), p >= 1 - _LEVEL))
    # entry h of the height pmf is P(H=h), i.e. P(1+H = h+1); larger n would cost a full n^n enumeration
    exact_equal = exact_height_pmf(n) == exact_collision_pmf(n) if n <= 6 else None
    return LawEqualityReport(
        n=n,
        trials=trials,
        seed=master_seed,
        height_method=method,
        height_plus_one=hist_h,
        collision=hist_c,
        checks=tuple(checks),
        exact_law_equal=exact_equal,
        passed=all(c.passed for c in checks) and exact_equal is not False,
    )
