"""Seeded, reproducible sampling and statistical verification.

Randomness comes from counter-based Philox streams keyed by a master
seed and a stream index, so trial i always sees the same bits no matter
how trials are scheduled across workers.  Integer tallies make every
aggregate order-insensitive; rerunning with the same seed reproduces
results bit for bit, sequentially or in parallel.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import core
from .core import _PHILOX_W, _U64, Record
from .core import RngStream, sample_mapping  # re-exported: montecarlo was their home

if TYPE_CHECKING:  # annotations only: fractions imports decimal, a cost no sampling command needs
    from collections.abc import Iterable, Mapping as MappingABC
    from fractions import Fraction


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

#: 32-bit draws per chunk of trials in the batched consumers; bounds
#: their working set for any n.
_CHUNK_DRAWS = 1 << 16
#: A chunk holds at least _CHUNK_ROWS trials while it stays within
#: _CHUNK_DRAWS_CAP draws (1.5 MB of int64), so lockstep kernels share each
#: numpy call among more rows at large n; a cap of 2**18 had the verify kernel
#: fault its arrays in afresh each chunk, and verify-cayley --n 10000 29% slower.
_CHUNK_ROWS, _CHUNK_DRAWS_CAP = 64, 3 << 16


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

    One Philox's state is set to each stream's key and counter [first[j], 0, 0, 0]:
    built anew it would seed itself from OS entropy first, and advance() costs as much again.
    """
    bits = np.random.Philox(key=0)
    state = bits.state  # its buffer is empty, as in a new stream
    words = np.empty((len(indices), 4 * blocks), dtype=np.uint64)
    firsts = np.broadcast_to(first, indices.shape).tolist()
    for j, (i, c) in enumerate(zip(indices.tolist(), firsts)):
        state["state"]["key"] = (master_seed, i)
        state["state"]["counter"] = (c, 0, 0, 0)
        bits.state = state
        words[j] = bits.random_raw(4 * blocks)
    return words


def _vectorised_is_cheaper(rows: int, blocks: int) -> bool:
    """Whether _philox_words beats _keyed_words at rows streams of blocks Philox blocks: 159 + 0.157 rows blocks us,
    ten rounds of numpy calls, against (2.14 + 0.018 blocks) rows, a state set per row (least squares over rows <= 1310
    and blocks <= 32, best of 25 calls; shared 2-core x86-64 host, numpy 2.4.6).  The first keyed call imports
    numpy.random (12.5 ms, 6.1 MB), so until then only windows past 32 blocks, which kernels reread, go keyed."""
    if "numpy.random" not in sys.modules:
        return blocks <= 32
    return 159 + 0.157 * rows * blocks < (2.14 + 0.018 * blocks) * rows


def _window(n: int, master_seed: int, indices: np.ndarray, cursors: np.ndarray, width: int):
    """Lemire's values, and which are accepted, of halves [c, c + width) of each stream.

    c is the stream's cursor.  Equal cursors share one start and slice;
    otherwise the rows of each skip c mod 8 (eight at most) are one slice.
    """
    first, skip = np.divmod(cursors, 8)  # a Philox block holds eight 32-bit halves
    same = (cursors == cursors[:1]).all()
    start = int(skip.max(initial=0))  # the one skip, when the cursors are equal
    blocks = -(-(start + width) // 8)
    source = _philox_words if _vectorised_is_cheaper(len(indices), blocks) else _keyed_words
    words = source(master_seed, indices, first[:1] if same else first, blocks)
    halves = words.astype("<u8", copy=False).view("<u4")  # little-endian: low half first
    draws = halves[:, start : start + width]
    if not same:
        draws = np.empty_like(draws)
        for s in np.flatnonzero(np.bincount(skip)).tolist():  # np.unique would import numpy.ma
            draws[skip == s] = halves[skip == s, s : s + width]
    scaled = np.multiply(draws, n, dtype=np.uint64)  # uint64 under numpy 1's value-based promotion too
    kept = scaled.view("<u4").reshape(len(indices), width, 2)[:, :, 0] >= (1 << 32) % n
    scaled >>= _S32  # the values, below n: int64 words in place
    return scaled.view(np.int64), kept


def _bounded_draws(
    n: int, master_seed: int, indices: np.ndarray, cursors, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each stream's next length values of integers(0, n), and its cursor after them.

    Stream (master_seed, i) is Philox4x64-10 keyed (master_seed, i) with
    counters from 1; each 64-bit word gives two 32-bit halves, low half
    first; Lemire's multiply-shift maps a half u to (u * n) >> 32 and
    rejects it, for the next half, when the leftover (u * n) mod 2**32
    is below 2**32 mod n.  So a row equals
    RngStream(master_seed, i).generator().integers(0, n) bit for bit.
    cursors[j] (or one cursor for all) counts the 32-bit halves that
    stream (master_seed, indices[j]) has handed out.  numpy hands them
    out contiguously across integers() calls, and Lemire's method drops
    a half it rejects for the next, so a row without a rejection reads
    halves [c, c + length).  A row with one is read again from its
    cursor with a few halves of slack, its rejected halves dropped, and
    wider until it holds length values (length >= 1).  The cursor
    returned is one past the half of the row's last value.  The working
    set grows with len(indices) * length: read long ranges in chunks.
    """
    if not 1 <= n < 1 << 32:
        raise ValueError(f"n must be in [1, 2**32), got {n}")
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


def _stream_chunks(master_seed: int, start: int, stop: int, draws_per_trial: int, stride: int = 1):
    """uint64 arrays of the streams stride * i of trials i in [start, stop),
    each array of about _CHUNK_DRAWS draws, but of at least _CHUNK_ROWS
    trials, or as many as _CHUNK_DRAWS_CAP draws hold.

    The seed and the range's last stream, stride * stop - 1, are checked
    first; a caller with stride 2 adds 0 or 1 to each array.
    """
    if stop > start:
        RngStream(master_seed, stride * stop - 1)
    d = max(draws_per_trial, 1)  # an n below 1 reaches _bounded_draws' check
    step = max(1, _CHUNK_DRAWS // d, min(_CHUNK_ROWS, _CHUNK_DRAWS_CAP // d))
    for lo in range(start, stop, step):
        yield np.uint64(stride) * (np.uint64(lo) + np.arange(min(step, stop - lo), dtype=np.uint64))


def count_unique_cyclic(n: int, master_seed: int, start: int, stop: int) -> int:
    """Successes of the unique-cyclic event over trial indices [start, stop).

    Trial i draws its mapping from stream (master_seed, i), so any
    partition of the index range tallies to the same total.
    """
    return sum(
        int(_unique_cyclic_mask(_bounded_draws(n, master_seed, streams, 0, n)[0]).sum())
        for streams in _stream_chunks(master_seed, start, stop, n)
    )


def run_trials(worker, n: int, master_seed: int, trials: int, jobs: int, *extra, stride: int = 1):
    """The sum of worker(n, master_seed, lo, hi, *extra) over parts [lo, hi) of trials [0, trials).

    Trial i reads streams stride * i onwards, so the seed and the run's last stream, stride * trials - 1,
    are checked before any worker starts.  With jobs > 1 and trials >= 2 jobs, this process runs the
    first of min(jobs, usable CPUs) contiguous parts, and a child forked per other part pipes back a
    pickle of its result or of the exception that stopped it, raised here (RuntimeError if it sent none);
    without os.fork this process runs every trial.  The results (ints, arrays or lists of arrays) add
    with +, and each trial owns its streams, so the sum is the same for any jobs value.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    RngStream(master_seed, stride * trials - 1)
    import os
    import pickle

    if jobs == 1 or trials < 2 * jobs or not hasattr(os, "fork"):
        return worker(n, master_seed, 0, trials, *extra)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    step = -(-trials // min(jobs, cpus))
    parts = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    pids, pipes, sent = [], [], None
    try:
        for lo, hi in parts[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:  # this process's write end closes after the fork, or if it fails
                if (pid := os.fork()) == 0:  # the child ends in os._exit: it runs no atexit handler, flushes no stdio
                    try:
                        pipes[-1].close()  # so its write fails at once if the caller stops reading
                        try:
                            result = True, worker(n, master_seed, lo, hi, *extra)
                        except Exception as exc:
                            result = False, exc
                        out.write(pickle.dumps(result))
                        out.close()
                    finally:
                        os._exit(0 if out.closed else 1)  # 1: the result was not sent
                pids.append(pid)
        total = worker(n, master_seed, *parts[0], *extra)
        sent = [pipe.read() for pipe in pipes]  # every pipe is read before any child is reaped
    finally:
        for pipe in pipes:
            pipe.close()
        if sent is None:  # an error here: stop every child still at work
            for pid in pids:
                os.kill(pid, 9)  # SIGKILL
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for data, code, (lo, hi) in zip(sent, codes, parts[1:]):
        died = RuntimeError(f"the worker process of trials [{lo}, {hi}) ended without a result (exit code {code})")
        ok, result = pickle.loads(data) if code == 0 else (False, died)
        if not ok:
            raise result
        total = total + result
    return total


def estimate_unique_cyclic(n: int, trials: int, master_seed: int, *, z: float = 1.96, jobs: int = 1) -> Estimate:
    """Monte Carlo estimate of P(uniform mapping has a unique cyclic vertex).

    The point estimate targets 1/n.  Results are bit-identical for any
    jobs value because each trial owns its derived stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < z < math.inf:  # wilson_interval's check, made before any trial runs
        raise ValueError(f"z must be finite and > 0, got {z}")
    successes = run_trials(count_unique_cyclic, n, master_seed, trials, jobs)
    return make_estimate(successes, trials, z)


class ConditionalReport(Record):
    """Per-bin comparison of closure frequencies with their predictions: a tuple per bin field, in
    (i, T_{i-1}, T_i) order, the prediction as numerator and denominator in lowest terms."""

    n: int
    trials: int
    seed: int
    se_threshold: float
    round_index: tuple[int, ...]
    t_prev: tuple[int, ...]
    t_cur: tuple[int, ...]
    observations: tuple[int, ...]
    successes: tuple[int, ...]
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    frequency: tuple[float, ...]
    deviation_se: tuple[float, ...]
    flagged: tuple[bool, ...]

    def flagged_count(self, min_observations: int) -> int:
        return sum(f and obs >= min_observations for f, obs in zip(self.flagged, self.observations))


def _merged(tallies: list) -> list:
    """[codes, counts] of [codes, counts, codes, counts, ...]: each code once, sorted, its counts summed."""
    codes, at = np.unique(np.concatenate(tallies[::2]), return_inverse=True)
    return [codes, np.bincount(at, np.concatenate(tallies[1::2])).astype(np.int64)]  # float64 counts: exact below 2**53


def _round_event_tallies(tables: np.ndarray) -> list:
    """[codes, counts]: the sorted round codes of smallest-label exploration of 0-based tables, and their counts.

    All rows reveal one new vertex per step, so they explore in lockstep.
    Round i ends at step T_i, on an explored vertex: a success in round 1
    on a self loop, later on a vertex of an earlier round.  The next round
    starts at the smallest unexplored label.  Each step codes the rounds
    it ends as ((i (n + 1) + T_{i-1}) (n + 1) + T_i) 2 + success, an int64
    for n <= 1664509, so code order is (i, T_{i-1}, T_i, success) order.
    """
    rows, n = tables.shape
    base = np.arange(rows) * n
    f = tables.ravel()
    step_of = np.zeros(rows * n, dtype=np.min_scalar_type(n))  # 0: unexplored
    round_of, t_end = np.ones(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)  # i and T_{i-1}, by row
    codes, v = [], base.copy()
    for s in range(1, n + 1):
        step_of[v] = s
        w = f[v] + base  # flat index of f(v); v[r] is in row r
        seen = step_of[w]
        e = np.flatnonzero(seen)
        i, t_prev, seen = round_of[e], t_end[e], seen[e]
        codes.append(((i * (n + 1) + t_prev) * (n + 1) + s) * 2 + np.where(i == 1, seen == s, seen <= t_prev))
        round_of[e] += 1
        t_end[e] = s
        v = w
        v[e] = base[e] + (step_of.reshape(rows, n)[e] == 0).argmax(axis=1)
    return list(np.unique(np.concatenate(codes), return_counts=True))


def tally_round_events(n: int, master_seed: int, start: int, stop: int) -> list:
    """_round_event_tallies' [codes, counts] over trials [start, stop), merged chunk by chunk."""
    if 2 * (n + 1) ** 3 > 2**63:  # the largest code, 2 (n + 1)**3 - 2n - 3, would wrap
        raise ValueError(f"n must be at most 1664509 for int64 round codes, got {n}")
    tallies = []
    for streams in _stream_chunks(master_seed, start, stop, n):
        tallies = _merged(tallies + _round_event_tallies(_bounded_draws(n, master_seed, streams, 0, n)[0]))
    return tallies


#: A bin is flagged when its frequency sits more than this many standard errors from its prediction.
_SE_THRESHOLD = 4.0


def check_round_conditionals(n: int, trials: int, master_seed: int, *, jobs: int = 1) -> ConditionalReport:
    """Test the per-round closure predictions against sampled explorations.

    For each trial a uniform mapping is explored (smallest-label starts;
    the trials of a chunk in lockstep) and every round's closure outcome
    lands in the bin of its observed (i, T_{i-1}, T_i).  Round 1
    succeeds on a self loop, predicted at 1/T_1; later rounds succeed on
    attaching to earlier rounds, predicted at T_{i-1}/T_i.  A bin is
    flagged when its empirical frequency sits more than _SE_THRESHOLD
    binomial standard errors from the prediction; numpy takes the scalar
    formulas' correctly rounded steps, on counts exact in float64.

    The gate is per bin, with no control for the many bins tested at
    once, so a correct sampler does get flagged bins:
    check_round_conditionals(20, 5000, s).flagged_count(100) is nonzero
    for 4 of the 300 seeds s = 1000..1299 (1014, 1090, 1223, 1239).
    """
    codes, counts = _merged(run_trials(tally_round_events, n, master_seed, trials, jobs))
    first = np.flatnonzero(np.diff(codes >> 1, prepend=-1))  # each bin's first code; a success follows a failure
    obs, succ = np.add.reduceat(counts, first), np.add.reduceat(counts * (codes & 1), first)
    rest, t_cur = np.divmod(codes[first] >> 1, n + 1)
    i, t_prev = np.divmod(rest, n + 1)
    num = np.where(i == 1, 1, t_prev)
    p, freq = num / t_cur, succ / obs
    se = np.sqrt(p * (1 - p) / obs)
    deviation = np.divide(abs(freq - p), se, out=np.where(freq == p, 0.0, np.inf), where=se > 0)
    g = np.gcd(num, t_cur)
    columns = (i, t_prev, t_cur, obs, succ, num // g, t_cur // g, freq, deviation, deviation > _SE_THRESHOLD)
    return ConditionalReport(n, trials, master_seed, _SE_THRESHOLD, *(tuple(c.tolist()) for c in columns))


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


def chi_square_statistic(h: Histogram, pmf: MappingABC[int, Fraction | float]) -> tuple[float, int]:
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
