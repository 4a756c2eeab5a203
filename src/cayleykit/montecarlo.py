"""Seeded, reproducible sampling and statistical verification.

Randomness comes from counter-based Philox streams keyed by a master
seed and a stream index, so trial i always sees the same bits no matter
how trials are scheduled across workers.  Integer tallies make every
aggregate order-insensitive; rerunning with the same seed reproduces
results bit for bit, sequentially or in parallel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping as MappingABC

import numpy as np

from . import core
from .core import _PHILOX_W, _U64, Record
from .core import RngStream, sample_mapping  # re-exported: montecarlo was their home


class Estimate(Record):
    """A binomial point estimate with its Wilson score interval."""

    trials: int
    successes: int
    point: float
    ci_low: float
    ci_high: float
    z: float


class Histogram(Record):
    """Integer-valued counts over a contiguous support range."""

    lo: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.total:
            raise ValueError("total must equal the sum of counts")

    @property
    def hi(self) -> int:
        return self.lo + len(self.counts) - 1

    def support(self) -> range:
        return range(self.lo, self.lo + len(self.counts))

    def count_of(self, value: int) -> int:
        if self.lo <= value <= self.hi:
            return self.counts[value - self.lo]
        return 0


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0,1]."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} outside [0, {trials}]")
    if not 0 < z < math.inf:  # NaN and infinities too: JSON has no spelling for them
        raise ValueError(f"z must be finite and > 0, got {z}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    margin = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def make_estimate(successes: int, trials: int, z: float = 1.96) -> Estimate:
    low, high = wilson_interval(successes, trials, z)
    return Estimate(trials, successes, successes / trials, low, high, z)


def _unique_cyclic_mask(tables: np.ndarray) -> np.ndarray:
    """Row-wise unique-cyclic test for a batch of 0-based tables.

    core._pointer_doubling gives f^(2^t) with 2^t >= n, which maps every
    vertex onto the cyclic set, so a row has a unique cyclic vertex
    exactly when all entries of its squared row agree.  That vertex is
    then the only fixed point, so only rows with exactly one fixed
    point are squared.
    """
    _, n = tables.shape
    mask = (tables == np.arange(n)).sum(axis=1) == 1
    g = core._pointer_doubling(tables[mask])[0].reshape(-1, n)
    mask[mask] = (g == g[:, :1]).all(axis=1)
    return mask


# core's Philox4x64-10 multipliers, as numpy words for the vectorised rounds
_PHILOX_M = tuple(np.uint64(m) for m in core._PHILOX_M)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

#: Longest windows (in 32-bit halves) that _window computes with the
#: vectorised Philox; longer ones, at any n, come from numpy's Philox
#: re-keyed per row.  The two costs cross near 270 halves, the former
#: growing about 4x faster in the window (2-core x86-64 host).
_VECTOR_MAX_N = 256

#: 32-bit draws per chunk of trials in the batched consumers; bounds
#: their working set for any n.
_CHUNK_DRAWS = 1 << 16


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, from 32-bit limbs."""
    a_lo, a_hi = a & _LO32, a >> _S32
    m_lo, m_hi = m & _LO32, m >> _S32
    t = a_lo * m_lo
    u = a_hi * m_lo + (t >> _S32)
    v = a_lo * m_hi + (u & _LO32)
    return a_hi * m_hi + (u >> _S32) + (v >> _S32), a * m


def _philox_words(master_seed: int, indices: np.ndarray, first: np.ndarray, blocks: int) -> np.ndarray:
    """Words of blocks first[j]+1 .. first[j]+blocks of each stream (master_seed, indices[j]).

    Block c is Philox4x64-10 of counter [c, 0, 0, 0] under key
    (master_seed, i); numpy's Philox emits the blocks c = 1, 2, ... in turn.
    """
    # broadcastable starting shapes (a first of one entry serves every
    # stream): the first rounds, before the key word i has reached every
    # word, run on per-counter vectors
    x0 = first.astype(np.uint64)[:, None] + np.arange(1, blocks + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = master_seed, indices[:, None]
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=-1).reshape(len(indices), 4 * blocks)


def _keyed_words(master_seed: int, indices: np.ndarray, first: np.ndarray, blocks: int) -> np.ndarray:
    """_philox_words from numpy's Philox re-keyed per stream; faster for long rows.

    One Philox is re-keyed through its state for each stream instead of
    built anew, which would also seed it from OS entropy first.
    """
    bits = np.random.Philox(key=0)
    fresh = bits.state  # counter 0, empty buffer: the state of a new stream
    words = np.empty((len(indices), 4 * blocks), dtype=np.uint64)
    firsts = np.broadcast_to(first, indices.shape).tolist()
    for j, (i, c) in enumerate(zip(indices.tolist(), firsts)):
        fresh["state"]["key"] = (master_seed, i)
        bits.state = fresh
        words[j] = bits.advance(c).random_raw(4 * blocks)
    return words


def _window(n: int, master_seed: int, indices: np.ndarray, cursors: np.ndarray, width: int):
    """Lemire's values, and which are accepted, of halves [c, c + width) of each stream.

    c is the stream's cursor.  Equal cursors share one start and slice.
    """
    first, skip = np.divmod(cursors, 8)  # a Philox block holds eight 32-bit halves
    same = (cursors == cursors[:1]).all()
    start = int(skip.max(initial=0))  # the one skip, when the cursors are equal
    blocks = -(-(start + width) // 8)
    source = _philox_words if 8 * blocks <= _VECTOR_MAX_N else _keyed_words
    words = source(master_seed, indices, first[:1] if same else first, blocks)
    halves = words.astype("<u8", copy=False).view("<u4")  # little-endian: low half first
    if same:
        draws = halves[:, start : start + width]
    else:
        draws = np.take_along_axis(halves, skip[:, None] + np.arange(width), axis=1)
    scaled = (draws * np.uint64(n)).view("<u4").reshape(len(indices), width, 2)
    return scaled[:, :, 1].astype(np.int64), scaled[:, :, 0] >= (1 << 32) % n


def _bounded_draws(
    n: int, master_seed: int, indices: np.ndarray, cursors, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each stream's next length values of integers(0, n), and its cursor after them.

    cursors[j] (or one cursor for all) counts the 32-bit halves that
    stream (master_seed, indices[j]) has handed out.  numpy hands them
    out contiguously across integers() calls, and Lemire's method drops
    a half it rejects for the next, so a row without a rejection reads
    halves [c, c + length).  A row with one is read again from its
    cursor with a few halves of slack, its rejected halves dropped, and
    wider until it holds length values (length >= 1).  The cursor
    returned is one past the half of the row's last value.
    """
    cursors = np.zeros(len(indices), dtype=np.int64) + cursors
    rows, kept = _window(n, master_seed, indices, cursors, length)
    ends, todo, width = cursors + length, np.flatnonzero(~kept.all(axis=1)), length
    while todo.size:
        width += max(8, width - length)
        values, kept = _window(n, master_seed, indices[todo], cursors[todo], width)
        tally = np.cumsum(kept, axis=1)
        full = tally[:, -1] >= length
        done = todo[full]
        rows[done] = values[full][kept[full] & (tally[full] <= length)].reshape(-1, length)
        ends[done] = cursors[done] + (tally[full] < length).sum(axis=1) + 1
        todo = todo[~full]
    return rows, ends


def draw_tables(n: int, master_seed: int, start: int, stop: int) -> np.ndarray:
    """0-based int64 tables of trials [start, stop), one row per trial.

    Row j equals RngStream(master_seed, start + j).generator()
    .integers(0, n, size=n) bit for bit.  The stream is Philox4x64-10
    keyed (master_seed, i) with counters from 1; each 64-bit word gives
    two 32-bit draws, low half first; Lemire's multiply-shift maps a
    draw u to (u * n) >> 32 and rejects it when the leftover
    (u * n) mod 2**32 is below 2**32 mod n, for the next half;
    _bounded_draws reads the rows, none redrawn.  The working set grows
    with (stop - start) * n: draw long ranges in chunks.
    """
    if not 1 <= n < 1 << 32:
        raise ValueError(f"n must be in [1, 2**32), got {n}")
    RngStream(master_seed, start)  # validates the seed and the first index
    if stop > _U64:
        raise ValueError(f"stream indices must fit in 64 bits, got stop={stop}")
    indices = np.uint64(start) + np.arange(max(stop - start, 0), dtype=np.uint64)
    return _bounded_draws(n, master_seed, indices, 0, n)[0]


def _chunk_ranges(start: int, stop: int, draws_per_trial: int):
    """Consecutive (lo, hi) trial ranges of about _CHUNK_DRAWS draws each."""
    step = max(1, _CHUNK_DRAWS // draws_per_trial)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _table_chunks(n: int, master_seed: int, start: int, stop: int):
    # max: an n below 1 must reach draw_tables' check, not divide by zero
    for lo, hi in _chunk_ranges(start, stop, max(n, 1)):
        yield draw_tables(n, master_seed, lo, hi)


def count_unique_cyclic(n: int, master_seed: int, start: int, stop: int) -> int:
    """Successes of the unique-cyclic event over trial indices [start, stop).

    Trial i draws its mapping from stream (master_seed, i), so any
    partition of the index range tallies to the same total.
    """
    return sum(
        int(_unique_cyclic_mask(tables).sum())
        for tables in _table_chunks(n, master_seed, start, stop)
    )


def run_trials(worker, n: int, master_seed: int, trials: int, jobs: int, merge, *extra):
    """worker(n, master_seed, lo, hi, *extra) over trials [0, trials).

    With jobs > 1 the range is split into contiguous parts run in a
    process pool and the parts' results are combined by merge, which
    must not depend on how the range was split; each trial owns its
    stream, so the result is the same for any jobs value.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or trials < 2 * jobs:
        return worker(n, master_seed, 0, trials, *extra)
    from concurrent.futures import ProcessPoolExecutor

    step = -(-trials // jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(worker, n, master_seed, lo, min(lo + step, trials), *extra)
            for lo in range(0, trials, step)
        ]
        return merge(f.result() for f in futures)


def estimate_unique_cyclic(
    n: int, trials: int, master_seed: int, *, z: float = 1.96, jobs: int = 1
) -> Estimate:
    """Monte Carlo estimate of P(uniform mapping has a unique cyclic vertex).

    The point estimate targets 1/n.  Results are bit-identical for any
    jobs value because each trial owns its derived stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < z < math.inf:  # wilson_interval's check, made before any trial runs
        raise ValueError(f"z must be finite and > 0, got {z}")
    successes = run_trials(count_unique_cyclic, n, master_seed, trials, jobs, sum)
    return make_estimate(successes, trials, z)


class ConditionalBin(Record):
    """Empirical vs predicted closure frequency for one (i, T_{i-1}, T_i)."""

    round_index: int
    t_prev: int
    t_cur: int
    observations: int
    successes: int
    predicted: Fraction
    frequency: float
    deviation_se: float
    flagged: bool

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "t_prev": self.t_prev,
            "t_cur": self.t_cur,
            "observations": self.observations,
            "successes": self.successes,
            "predicted": f"{self.predicted.numerator}/{self.predicted.denominator}",
            "frequency": self.frequency,
            "deviation_se": self.deviation_se,
            "flagged": self.flagged,
        }


class ConditionalReport(Record):
    """Per-bin comparison of closure frequencies with their predictions."""

    n: int
    trials: int
    master_seed: int
    bins: tuple[ConditionalBin, ...]
    se_threshold: float

    def flagged_bins(self, min_observations: int = 100) -> list[ConditionalBin]:
        return [
            b for b in self.bins if b.flagged and b.observations >= min_observations
        ]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.master_seed,
            "se_threshold": self.se_threshold,
            "bins": [b.to_json_dict() for b in self.bins],
        }


def _round_event_tallies(tables: np.ndarray, tallies: dict) -> dict:
    """Add the rounds of smallest-label exploration of 0-based tables to tallies.

    All rows reveal one new vertex per step, so they explore in lockstep.
    Round i ends at step T_i, on an explored vertex: a success in round 1
    on a self loop, later on a vertex of an earlier round.  The next round
    starts at the smallest unexplored label.  Rounds are counted by code,
    (i, T_{i-1}, T_i) in base n + 1 and a success bit, int64 for n < 2**20.
    """
    rows, n = tables.shape
    base = np.arange(rows) * n
    f = tables.ravel()
    step_of = np.zeros(rows * n, dtype=np.min_scalar_type(n))  # 0: unexplored
    seen = np.empty((n, rows), dtype=step_of.dtype)  # step_of[f(v)], by step
    v = base.copy()
    for s in range(1, n + 1):
        step_of[v] = s
        w = f[v] + base  # flat index of f(v); v[r] is in row r
        seen[s - 1] = step_of[w]
        e = np.flatnonzero(seen[s - 1])
        v = w
        v[e] = base[e] + (step_of.reshape(rows, n)[e] == 0).argmax(axis=1)
    ended = seen != 0
    ends = np.where(ended, np.arange(1, n + 1, dtype=seen.dtype)[:, None], 0)
    t_prev = np.maximum.accumulate(np.pad(ends[:-1], ((1, 0), (0, 0))), axis=0)
    i = np.cumsum(ended, axis=0, dtype=seen.dtype) - ended + 1  # the round at each step
    success = np.where(i == 1, seen == ends, seen <= t_prev)
    i = i[ended].astype(np.int64)  # wide enough for the codes
    codes = ((i * (n + 1) + t_prev[ended]) * (n + 1) + ends[ended]) * 2 + success[ended]
    keys, counts = np.unique(codes, return_counts=True)
    for code, count in zip(keys.tolist(), counts.tolist()):
        rest, t = divmod(code >> 1, n + 1)
        key = divmod(rest, n + 1) + (t,)
        obs, succ = tallies.get(key, (0, 0))
        tallies[key] = (obs + count, succ + (code & 1) * count)
    return tallies


def tally_round_events(
    n: int, master_seed: int, start: int, stop: int
) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Raw (observations, successes) tallies keyed by (i, T_{i-1}, T_i)."""
    tallies: dict[tuple[int, int, int], tuple[int, int]] = {}
    for tables in _table_chunks(n, master_seed, start, stop):
        _round_event_tallies(tables, tallies)
    return tallies


def _merge_tallies(parts) -> dict[tuple[int, int, int], tuple[int, int]]:
    merged: dict[tuple[int, int, int], tuple[int, int]] = {}
    for part in parts:
        for key, (obs, succ) in part.items():
            o, s = merged.get(key, (0, 0))
            merged[key] = (o + obs, s + succ)
    return merged


def check_round_conditionals(
    n: int,
    trials: int,
    master_seed: int,
    *,
    se_threshold: float = 4.0,
    jobs: int = 1,
) -> ConditionalReport:
    """Test the per-round closure predictions against sampled explorations.

    For each trial a uniform mapping is explored (smallest-label starts;
    the trials of a chunk in lockstep) and every round's closure outcome
    lands in the bin of its observed (i, T_{i-1}, T_i).  Round 1
    succeeds on a self loop, predicted at 1/T_1; later rounds succeed on
    attaching to earlier rounds, predicted at T_{i-1}/T_i.  A bin is
    flagged when its empirical frequency sits more than se_threshold
    binomial standard errors from the prediction.
    """
    tallies = run_trials(tally_round_events, n, master_seed, trials, jobs, _merge_tallies)
    bins = []
    for key in sorted(tallies):
        i, t_prev, t_cur = key
        obs, succ = tallies[key]
        predicted = Fraction(1, t_cur) if i == 1 else Fraction(t_prev, t_cur)
        freq = succ / obs
        p = float(predicted)
        se = math.sqrt(p * (1 - p) / obs)
        if se > 0:
            deviation = abs(freq - p) / se
        else:
            deviation = 0.0 if freq == p else math.inf
        bins.append(
            ConditionalBin(
                round_index=i,
                t_prev=t_prev,
                t_cur=t_cur,
                observations=obs,
                successes=succ,
                predicted=predicted,
                frequency=freq,
                deviation_se=deviation,
                flagged=deviation > se_threshold,
            )
        )
    return ConditionalReport(n, trials, master_seed, tuple(bins), se_threshold)


def _pool_tail(bins: Iterable[tuple], size) -> tuple[list[tuple], int]:
    """The bins in order, those with size(bin) below 5 summed into one tail,
    and the degrees of freedom, the pooled bin count minus one.

    A nonzero tail is a bin of its own when its size reaches 5 or no
    other bin is kept, and joins the last kept bin otherwise.  One
    pooled bin gives df 0; the caller decides whether to report it.
    """
    kept: list[tuple] = []
    tail = None
    for b in bins:
        if size(b) >= 5.0:
            kept.append(b)
        else:
            tail = b if tail is None else tuple(t + x for t, x in zip(tail, b))
    if tail is not None and any(tail):
        if kept and size(tail) < 5.0:
            tail = tuple(k + t for k, t in zip(kept.pop(), tail))
        kept.append(tail)
    return kept, len(kept) - 1


def chi_square_statistic(
    h: Histogram, pmf: MappingABC[int, Fraction | float]
) -> tuple[float, int]:
    """Goodness-of-fit statistic of a histogram against an exact pmf.

    Bins with expected count below 5 are pooled into a single upper-tail
    bin before summing (obs - exp)^2 / exp; degrees of freedom are the
    post-merge bin count minus one.  A histogram whose whole mass ends
    up in one bin yields df 0, with no warning.
    """
    if h.total < 1:
        raise ValueError("histogram is empty")
    for v in h.support():
        if h.count_of(v) > 0 and float(pmf.get(v, 0.0)) <= 0.0:
            raise ValueError(f"pmf does not cover histogram value {v}")
    kept, df = _pool_tail(
        ((h.count_of(v), float(pmf[v]) * h.total) for v in sorted(pmf)), lambda b: b[1]
    )
    statistic = sum((obs - exp) ** 2 / exp for obs, exp in kept if exp > 0)
    return statistic, df


def two_sample_chi_square(h1: Histogram, h2: Histogram) -> tuple[float, int]:
    """Two-sample chi-square that the histograms share one distribution.

    Contingency-table form: expected counts come from the pooled
    frequencies; bins whose smaller expected count is below 5 are pooled
    into the upper tail, df is the post-merge bin count minus one.
    """
    if h1.total < 1 or h2.total < 1:
        raise ValueError("histograms must be non-empty")
    n1, n2 = h1.total, h2.total
    grand = n1 + n2
    kept, df = _pool_tail(
        ((h1.count_of(v), h2.count_of(v)) for v in range(min(h1.lo, h2.lo), max(h1.hi, h2.hi) + 1)),
        lambda b: min(n1, n2) * (b[0] + b[1]) / grand,
    )
    statistic = 0.0
    for o1, o2 in kept:
        pooled = o1 + o2
        e1 = n1 * pooled / grand
        e2 = n2 * pooled / grand
        statistic += (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2
    return statistic, df
