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

from .bijection import (
    PruferSequence,
    mapping_to_rooted_tree,
    prufer_parent_rows,
    prufer_parents,
)
from .core import Mapping, Record, RngStream, RootedTree, _pointer_doubling, unique_cyclic_vertex

if TYPE_CHECKING:
    import numpy as np

    from .core import _Draws
    from .montecarlo import Histogram

#: Hard cap on rejection attempts; a healthy sampler at size n succeeds
#: after n attempts on average, so hitting this means the RNG is broken.
ATTEMPT_CAP_FACTOR = 10_000

#: Largest n at which _prufer_heights decodes all words at once, O(n^2) per word, not
#: each by prufer_parents; the two cross near n = 1000 (2-core x86-64 host).
_ROWS_DECODE_MAX_N = 1000

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


def sample_collision_count(n: int, stream: RngStream) -> int:
    """Distinct uniform draws on [1..n] seen before the first repeat.

    Draws Y_1, Y_2, ... until Y_t matches an earlier value and returns
    t-1, which is the number of distinct values collected; always in
    [1..n] by pigeonhole.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seen = set()
    for y in stream.draws().integers(1, n + 1, size=n + 1):  # n+1 draws must repeat
        if y in seen:
            return len(seen)
        seen.add(y)
    raise AssertionError("unreachable: n+1 draws from [1..n] must repeat")


class ChiSquareCheck(Record):
    """One chi-square comparison inside a law-equality report."""

    label: str
    statistic: float
    df: int
    critical: float
    passed: bool


class LawEqualityReport(Record):
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


def _prufer_heights(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The Prufer sampler's height on each stream.

    Draws [0, n-2) are the word, draw n-2 the root and draw n-1 the
    vertex.  The words are decoded toward vertex n (0-based n-1): all at
    once by prufer_parent_rows up to _ROWS_DECODE_MAX_N, one by one by
    prufer_parents above.  The height is dist(root, vertex): the climb
    from the vertex to the first ancestor of the root, plus that
    ancestor's distance to the root.
    """
    import numpy as np
    from . import montecarlo

    rows = montecarlo._bounded_draws(n, master_seed, streams, 0, n)[0]
    r = np.arange(len(rows))
    word, root, vertex = rows[:, : n - 2], rows[:, n - 2], rows[:, n - 1]
    if n <= _ROWS_DECODE_MAX_N:
        parent = prufer_parent_rows(word, n)
    else:  # 1-based parents, NO_PARENT (0) at n, lowered to prufer_parent_rows' labels
        parent = np.array([prufer_parents(PruferSequence(n, w)) for w in (word + 1).tolist()]) - 1
    up = np.full((len(rows), n), -1)  # up[j, a]: distance from root to its ancestor a
    live, a, d = r, root, 0
    while live.size:
        up[live, a] = d
        a = parent[live, a]
        live, a, d = live[a >= 0], a[a >= 0], d + 1
    v, climb = vertex.copy(), np.zeros(len(rows), dtype=np.int64)
    while (off := np.flatnonzero(up[r, v] < 0)).size:
        v[off] = parent[off, v[off]]
        climb[off] += 1
    return climb + up[r, v]


def _rejection_heights(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The rejection sampler's height on each stream.

    Attempt j is draws [jn, (j+1)n) and the vertex is the draw after the
    first accepted attempt.  Each segment reads the next attempts of the
    streams still pending from their cursors, about n per stream of the
    chunk in all and at most _CHUNK_DRAWS // n per stream, and one draw
    ahead.  A pending stream's next segment starts one half back, on the
    half of that draw: the halves between it and the last attempt's were
    rejected.  The height, the number of f-steps from the vertex to the
    fixed point, is summed by core._pointer_doubling over all accepted
    tables at once.
    """
    import numpy as np
    from . import montecarlo

    cap = ATTEMPT_CAP_FACTOR * n
    heights = np.full(len(streams), -1)
    pending, cursors, attempt = np.arange(len(streams)), 0, 0
    while pending.size:
        if attempt >= cap:
            raise _attempt_cap_error(n)
        count = min(len(streams) * n // pending.size, montecarlo._CHUNK_DRAWS // n)
        count = min(cap - attempt, max(1, count))
        rows, cursors = montecarlo._bounded_draws(
            n, master_seed, streams[pending], cursors, count * n + 1
        )
        tables = rows[:, : count * n].reshape(-1, count, n)
        accepted = montecarlo._unique_cyclic_mask(tables.reshape(-1, n)).reshape(-1, count)
        found = accepted.any(axis=1)
        done = np.flatnonzero(found)
        k = accepted[done].argmax(axis=1)
        f, v = tables[done, k], rows[done, (k + 1) * n] + n * np.arange(len(done))
        # height(v) = #{s < 2^t : f^s(v) != root}; the root is f's only fixed point
        depth = _pointer_doubling(f, np.add, (f != np.arange(n)).ravel().astype(np.int64))[1]
        heights[pending[done]] = depth[v]
        pending, cursors = pending[~found], cursors[~found] - 1
        attempt += count
    return heights


def _collision_bins(n: int, master_seed: int, streams: np.ndarray) -> np.ndarray:
    """The collision count minus one on each stream.

    Sweeps the n + 1 draws column by column until every row has drawn
    a value it has seen; the count is the index of that draw.
    """
    import numpy as np
    from . import montecarlo

    rows = montecarlo._bounded_draws(n, master_seed, streams, 0, n + 1)[0]
    r = np.arange(len(rows))
    seen = np.zeros((len(rows), n), dtype=bool)
    first = np.zeros(len(rows), dtype=np.int64)
    for t, y in enumerate(rows.T):
        first[(first == 0) & seen[r, y]] = t
        if first.all():
            break
        seen[r, y] = True
    return first - 1


_HEIGHT_KERNELS = {"prufer": _prufer_heights, "rejection": _rejection_heights}


def tally_law_histograms(
    n: int, master_seed: int, start: int, stop: int, method: str
) -> tuple[list[int], list[int]]:
    """Histogram counts (values 1..n) for trials in [start, stop).

    Trial i draws its height sample from stream 2i and its collision
    sample from stream 2i+1, keeping the two sequences independent and
    any trial partition reproducible.  Each chunk of trials is drawn at
    once and tallied by array kernels that give the per-trial samplers'
    values on every stream, at every n.
    """
    kernel = _HEIGHT_KERNELS.get(method)
    if kernel is None:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    import numpy as np
    from . import montecarlo

    if stop > start:
        RngStream(master_seed, 2 * stop - 1)  # validates the seed and the last stream
    counts = np.zeros((2, n), dtype=np.int64)
    draws_per_trial = n * n if method == "rejection" else n + 1  # on average
    for lo, hi in montecarlo._chunk_ranges(start, stop, draws_per_trial):
        streams = 2 * (np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64))
        counts[0] += np.bincount(kernel(n, master_seed, streams), minlength=n)
        counts[1] += np.bincount(_collision_bins(n, master_seed, streams + 1), minlength=n)
    return counts[0].tolist(), counts[1].tolist()


def _merge_histograms(parts) -> tuple[list[int], list[int]]:
    h_parts, c_parts = zip(*parts)
    return [sum(c) for c in zip(*h_parts)], [sum(c) for c in zip(*c_parts)]


def _gamma_tails(a: float, x: float) -> tuple[float, float, float]:
    """(P(a, x), Q(a, x), x^a e^-x / Gamma(a)) for a, x > 0; P + Q = 1.

    P by its power series below x = a + 1, Q by Legendre's continued
    fraction (modified Lentz) above.  The factor x^a e^-x / Gamma(a) is
    exp(a (log(x/a) - d) + log(a / 2 pi) / 2 - stirling(a)), d = (x-a)/a,
    whose log1p(d) - d keeps full accuracy near x = a at large a, where
    a log x - x - lgamma(a) cancels to a few units.
    """
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
        return factor * total, 1 - factor * total, factor
    b, c, i = x + 1 - a, 1 / _TINY, 0
    h = d = 1 / b
    while abs(c * d - 1) > _EPS:
        i += 1
        an, b = i * (a - i), b + 2
        d = 1 / (an * d + b or _TINY)
        c = b + an / c or _TINY
        h *= c * d
    return 1 - factor * h, factor * h, factor


def _critical_value(df: int, level: float) -> float:
    """The chi-square quantile at level: 2 P^-1(df/2, level), P the regularized
    lower incomplete gamma, as scipy.special.gammaincinv gives it.

    Halley steps on P, or on Q = 1 - P above level 0.5, from the
    Wilson-Hilferty cube (or x^a ~ level Gamma(a+1) deep in the lower
    tail), kept inside the bracket the iterates have found.  The steps
    shrink fast until rounding noise; a step that stops shrinking, once
    below 1e-9 x, ends the search.  df <= 0 gives 0.
    """
    if not 0 <= level <= 1:  # NaN too
        raise ValueError(f"level must be in [0, 1], got {level}")
    if df <= 0 or level == 0:
        return 0.0
    if level == 1:
        return math.inf
    a, upper = df / 2, level > 0.5
    # a normal quantile to 4.5e-4 (Abramowitz and Stegun 26.2.23) for the start
    t = math.sqrt(-2 * math.log(1 - level if upper else level))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    cube = 1 - 2 / (9 * df) + (z if upper else -z) * math.sqrt(2 / (9 * df))
    if upper or cube > 0.5:
        x = a * cube**3
    else:
        x = math.exp((math.log(level) + math.lgamma(a + 1)) / a)
    lo, hi, last = 0.0, math.inf, math.inf
    for _ in range(100):
        if x == 0:  # below the smallest float
            break
        p, q, factor = _gamma_tails(a, x)
        g = (1 - level) - q if upper else p - level  # increasing in x, derivative factor / x
        if g == 0:
            break
        lo, hi = (lo, x) if g > 0 else (x, hi)
        newton = g * x / factor
        step = newton / (1 - 0.5 * newton * ((a - 1) / x - 1))
        if x - step == x or abs(step) >= abs(last) and abs(step) < 1e-9 * x:
            break
        last = step
        x -= step
        if not lo < x < hi:  # Halley overshot: bisect the bracket, or double while it is open
            x = (lo + hi) / 2 if hi < math.inf else 2 * lo
    return 2 * x


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
    pmf of 1+H and the collision pmf.  All tests use the given
    level's chi-square critical values.  A check whose mass pools into
    one bin has df 0 and critical value 0; it is reported, not warned.
    """
    from .enumeration import exact_collision_pmf, exact_height_pmf
    from .montecarlo import Histogram, chi_square_statistic, run_trials, two_sample_chi_square

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method not in _HEIGHT_KERNELS:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    _critical_value(0, level)  # checks the level before any trial runs
    h_counts, c_counts = run_trials(
        tally_law_histograms, n, master_seed, trials, jobs, _merge_histograms, method
    )
    hist_h = Histogram(1, tuple(h_counts), trials)
    hist_c = Histogram(1, tuple(c_counts), trials)
    pmf = {k: p for k, p in enumerate(exact_collision_pmf(n), start=1)}
    checks = []
    for label, (stat, df) in (
        (f"height_plus_one[{method}] vs exact collision pmf", chi_square_statistic(hist_h, pmf)),
        ("collision vs exact collision pmf", chi_square_statistic(hist_c, pmf)),
        (f"height_plus_one[{method}] vs collision (two-sample)", two_sample_chi_square(hist_h, hist_c)),
    ):
        crit = _critical_value(df, level)
        checks.append(ChiSquareCheck(label, stat, df, crit, stat <= crit))
    exact_equal = None
    if n <= 6:  # larger n would cost a full n^n enumeration
        height_pmf = exact_height_pmf(n)  # entry h is P(H=h), i.e. P(1+H = h+1)
        exact_equal = tuple(height_pmf) == tuple(exact_collision_pmf(n))
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
