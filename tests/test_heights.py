import math
import warnings
from collections import Counter

import numpy as np
import pytest

from cayleykit import (
    RngStream,
    exact_collision_pmf,
    exact_height_pmf,
    law_equality_report,
    sample_collision_count,
    sample_rooted_tree_prufer,
    sample_rooted_tree_rejection,
)
from cayleykit import heights, montecarlo
from cayleykit.core import _PURE_DRAWS
from cayleykit.heights import (
    _collision_bins,
    _prufer_heights,
    _rejection_heights,
    tally_law_histograms,
)

SEED = 52525


def _sample_height(gen, n, method):
    """The height of a uniform vertex in a tree drawn by the given sampler: the kernels' oracle."""
    if method == "rejection":
        tree = heights._sample_tree_rejection(gen, n)[0]
    elif method == "prufer":
        tree = heights._sample_tree_prufer(gen, n)
    else:
        raise ValueError(f"unknown method {method!r}; use 'rejection' or 'prufer'")
    return tree.depth(int(gen.integers(1, n + 1)))


def test_rejection_sampler_trivial_n1():
    for i in range(5):
        tree, attempts = sample_rooted_tree_rejection(1, RngStream(SEED, i))
        assert attempts == 1
        assert tree.n == 1 and tree.root == 1


def test_rejection_sampler_uniform_n2():
    trials = 20_000
    counts = Counter()
    for i in range(trials):
        tree, _ = sample_rooted_tree_rejection(2, RngStream(SEED, i))
        counts[(tree.root, tree.parent)] += 1
    assert set(counts) == {(1, (0, 1)), (2, (2, 0))}
    se = math.sqrt(0.25 * trials)
    for c in counts.values():
        assert abs(c - trials / 2) <= 4 * se


def test_rejection_attempts_geometric():
    # P(attempts = 1) = 1/n, and the mean is close to n
    for n, trials in ((5, 4000), (30, 2000)):
        first = 0
        total = 0
        for i in range(trials):
            _, attempts = sample_rooted_tree_rejection(n, RngStream(SEED, i))
            first += attempts == 1
            total += attempts
        p = 1 / n
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(first / trials - p) <= 4 * se, n
        mean_se = math.sqrt(n * (n - 1)) / math.sqrt(trials)
        assert abs(total / trials - n) <= 4 * mean_se, n


def test_prufer_sampler_trivial_and_uniform_n3():
    tree = sample_rooted_tree_prufer(1, RngStream(SEED, 0))
    assert tree.n == 1 and tree.root == 1
    trials = 90_000
    counts = Counter()
    for i in range(trials):
        t = sample_rooted_tree_prufer(3, RngStream(SEED, i))
        counts[(t.root, t.parent)] += 1
    assert len(counts) == 9  # all n^(n-1) rooted trees show up
    p = 1 / 9
    se = math.sqrt(p * (1 - p) * trials)
    for c in counts.values():
        assert abs(c - trials * p) <= 4 * se


def test_samplers_cross_agree():
    # the two samplers target the same uniform law; compare per-tree
    # frequencies within 5 SE for n in {2, 3, 4}
    trials = 100_000
    for n in (2, 3, 4):
        c_rej = Counter()
        c_pru = Counter()
        for i in range(trials):
            t, _ = sample_rooted_tree_rejection(n, RngStream(SEED, 2 * i))
            c_rej[(t.root, t.parent)] += 1
            t = sample_rooted_tree_prufer(n, RngStream(SEED, 2 * i + 1))
            c_pru[(t.root, t.parent)] += 1
        assert set(c_rej) == set(c_pru)
        assert len(c_rej) == n ** (n - 1)
        for key in c_rej:
            p1 = c_rej[key] / trials
            p2 = c_pru[key] / trials
            pooled = (c_rej[key] + c_pru[key]) / (2 * trials)
            se = math.sqrt(pooled * (1 - pooled) * 2 / trials)
            assert abs(p1 - p2) <= 5 * se, (n, key)


def test_sample_height_plus_one_examples():
    assert 1 + _sample_height(RngStream(SEED, 0).draws(), 1, "rejection") == 1
    for i in range(10):
        v = 1 + _sample_height(RngStream(SEED, i).draws(), 2, "prufer")
        assert v in (1, 2)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        law_equality_report(3, 10, 0, method="bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        _sample_height(RngStream(SEED, 0).draws(), 3, "bogus")


def test_sample_height_plus_one_matches_exact_pmf_n3():
    trials = 40_000
    pmf = exact_height_pmf(3)
    counts = Counter(
        1 + _sample_height(RngStream(SEED, i).draws(), 3, "prufer")
        for i in range(trials)
    )
    for k in (1, 2, 3):
        p = float(pmf[k - 1])
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[k] / trials - p) <= 4 * se, k


def test_sample_collision_count_bounds_and_trivial():
    assert sample_collision_count(1, RngStream(SEED, 0)) == 1
    for i in range(200):
        c = sample_collision_count(7, RngStream(SEED, i))
        assert 1 <= c <= 7


def test_sample_collision_count_n2_law():
    trials = 40_000
    counts = Counter(
        sample_collision_count(2, RngStream(SEED, i)) for i in range(trials)
    )
    se = math.sqrt(0.25 / trials)
    assert abs(counts[1] / trials - 0.5) <= 4 * se
    assert abs(counts[2] / trials - 0.5) <= 4 * se


def test_sample_collision_count_mean_n365():
    # compare the empirical mean with the exact pmf's mean
    trials = 20_000
    pmf = exact_collision_pmf(365)
    exact_mean = float(sum(k * p for k, p in enumerate(pmf, start=1)))
    exact_var = (
        float(sum(k * k * p for k, p in enumerate(pmf, start=1))) - exact_mean**2
    )
    total = sum(
        sample_collision_count(365, RngStream(SEED, i)) for i in range(trials)
    )
    se = math.sqrt(exact_var / trials)
    assert abs(total / trials - exact_mean) <= 4 * se


@pytest.mark.parametrize("n", [1, 2, 5, 365, _PURE_DRAWS])  # n + 1 draws at once pass _PURE_DRAWS
def test_sample_collision_count_stops_at_the_first_repeat_of_one_stream(n):
    for i in range(50):
        seen = set()
        for y in RngStream(SEED, i).draws().integers(1, n + 1, size=n + 1):
            if y in seen:
                break
            seen.add(y)
        assert sample_collision_count(n, RngStream(SEED, i)) == len(seen), i


def test_law_equality_report_trivial_n1():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # df = 0 is reported in the checks, not warned
        rep = law_equality_report(1, 100, SEED)
    assert rep.height_plus_one.counts == (100,)
    assert rep.collision.counts == (100,)
    for check in rep.checks:
        assert (check.statistic, check.df) == (0.0, 0)
    assert rep.passed


def test_law_equality_report_exact_small_n():
    rep = law_equality_report(4, 2000, SEED, method="prufer")
    assert rep.exact_law_equal is True
    assert rep.passed
    labels = [c.label for c in rep.checks]
    assert any("prufer" in lbl for lbl in labels)
    assert any("two-sample" in lbl for lbl in labels)


def test_law_equality_report_rejection_method_named():
    rep = law_equality_report(3, 800, SEED, method="rejection")
    assert rep.height_method == "rejection"
    assert any("rejection" in c.label for c in rep.checks)
    assert rep.exact_law_equal is True


def test_law_equality_report_statistical_n50():
    rep = law_equality_report(50, 20_000, SEED, method="prufer")
    assert rep.exact_law_equal is None
    for check in rep.checks:
        assert check.passed, check
    assert rep.passed


def test_law_equality_report_parallel_matches_sequential():
    seq = law_equality_report(6, 3000, SEED, jobs=1)
    par = law_equality_report(6, 3000, SEED, jobs=2)
    assert seq == par


def test_attempt_cap_is_a_loud_failure(monkeypatch):
    import numpy as np

    import cayleykit.heights as heights_mod

    class DegenerateGen:
        # always produces a two-cycle, which is never unique-cyclic
        def integers(self, low, high, size=None):
            return np.array([2, 1])

    monkeypatch.setattr(heights_mod, "ATTEMPT_CAP_FACTOR", 5)
    with pytest.raises(RuntimeError, match="attempts"):
        heights_mod._sample_tree_rejection(DegenerateGen(), 2)


def _per_trial_tallies(n, seed, start, stop, method):
    """The per-trial loop the batched tallies replace: the oracle."""
    h_counts, c_counts = [0] * n, [0] * n
    for trial in range(start, stop):
        gen_h = RngStream(seed, 2 * trial).generator()
        h_counts[_sample_height(gen_h, n, method)] += 1
        c_counts[sample_collision_count(n, RngStream(seed, 2 * trial + 1)) - 1] += 1
    return h_counts, c_counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30, 50, 244, 257])
@pytest.mark.parametrize("method", ["prufer", "rejection"])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_batched_tallies_match_per_trial_samplers(monkeypatch, n, method, seed):
    # chunks of 4 trials (the rejection kernel's hold 4n, read by a pool
    # of 4 streams), so every range spans several chunks or pools; the
    # last range ends at the largest trial whose streams fit in 64 bits
    per_trial = n * n if method == "rejection" else n + 1
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 4 * per_trial)
    monkeypatch.setattr(montecarlo, "_CHUNK_ROWS", 1)
    k = 5 if method == "rejection" and n > 100 else 15
    for start in (0, 1021, 2**63 - k):
        got = tally_law_histograms(n, seed, start, start + k, method)
        assert got.tolist() == list(_per_trial_tallies(n, seed, start, start + k, method))


def test_integers_calls_hand_out_one_contiguous_stream():
    # numpy's Philox gives its 32-bit draws contiguously across integers()
    # calls, a half left over by one call opening the next, and a Lemire
    # rejection takes the next half; so every heights stream is read by
    # bounded-draw windows at its half cursor.  Stream 99469 rejects in
    # its first n draws.
    n, seed = 244, 90125
    for stream in (99469, 3):
        def gen():
            return RngStream(seed, stream).generator()

        g = gen()
        parts = [g.integers(1, n + 1, size=n - 2), [g.integers(1, n + 1)], [g.integers(1, n + 1)]]
        parts += [g.integers(1, n + 1, size=n) for _ in range(3)]
        assert np.array_equal(np.concatenate(parts), gen().integers(1, n + 1, size=4 * n))
        g = gen()
        parts = [g.integers(0, n, size=3), [g.integers(0, n)], [g.integers(0, n)], g.integers(0, n, size=2)]
        assert np.array_equal(np.concatenate(parts), gen().integers(0, n, size=7))
        index = np.array([stream], dtype=np.uint64)
        draws, cursors = montecarlo._bounded_draws(n, seed, index, 0, n)
        assert (cursors[0] > n) == (stream == 99469)  # a rejected half moves the cursor on
        assert np.array_equal(draws[0], gen().integers(0, n, size=n))
        # a later window, read from the cursor an earlier window returned
        offset, length = n + 5, 20
        cursors = montecarlo._bounded_draws(n, seed, index, 0, offset)[1]
        draws, _ = montecarlo._bounded_draws(n, seed, index, cursors, length)
        assert np.array_equal(draws[0], gen().integers(0, n, size=offset + length)[offset:])


@pytest.mark.parametrize("n", [7, 244, 2000, 3 * 2**30, 2**31 + 1])
def test_bounded_draws_read_successive_windows_like_integers(n):
    # 2**32 mod n rejects about 1/4 of the halves at 3 * 2**30 and 1/2
    # at 2**31 + 1, so there every row is read again, and widened
    seed, indices = 90125, np.arange(99_440, 99_480, dtype=np.uint64)  # 99469 rejects at n = 244
    for windows in ((5, 3, 17), (1, 1, 1, 40), (300, 2)):
        gens = [RngStream(seed, int(i)).generator() for i in indices]
        cursors = 0
        for length in windows:
            draws, after = montecarlo._bounded_draws(n, seed, indices, cursors, length)
            assert np.array_equal(draws, [g.integers(0, n, size=length) for g in gens])
            assert (after >= cursors + length).all()
            # the last value's half is the one before the cursor: one half back re-reads it
            again = montecarlo._bounded_draws(n, seed, indices, after - 1, 1)[0]
            assert np.array_equal(again[:, 0], draws[:, -1])
            cursors = after


def _per_stream(seed, sample, indices):
    return [sample(RngStream(seed, int(i))) for i in indices]


def test_kernels_read_lemire_rejecting_streams_exactly():
    # under seed 90125 at n = 244 (the largest threshold, 240, of any
    # n <= 256) these trials' streams reject a draw their sample reads:
    # the Prufer height stream of trial 78854; the rejection-sampler
    # streams of trials 11 (a rejection in attempt 394, a segment before
    # its acceptance at 982) and 1063 (attempt 242, accepted at 554: the
    # first segment of n attempts ends pending, its cursor moved on);
    # the collision streams of trials 49734 (stream 99469, after its
    # first repeat) and 3816877 (before it)
    n, seed = 244, 90125

    def streams(*trials):
        return np.array(trials, dtype=np.uint64)

    def rejects(indices, length):  # a rejected half moves a row's cursor past its length
        return (montecarlo._bounded_draws(n, seed, indices, 0, length)[1] > length).tolist()

    s = 2 * streams(78853, 78854)
    assert rejects(s, n)[1]
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "prufer"), s)
    assert list(_prufer_heights(n, seed, s)) == want
    s = 2 * streams(10, 11, 1063)
    assert rejects(s, 400 * n)[1:] == [True, True]
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s)
    assert list(_rejection_heights(n, seed, s)) == want
    s = 2 * streams(49734, 3816877) + 1
    assert rejects(s, n + 1) == [True, True]
    want = _per_stream(seed, lambda r: sample_collision_count(n, r) - 1, s)
    assert list(_collision_bins(n, seed, s)) == want
    for start, stop, method in [
        (78850, 78858, "prufer"),
        (9, 13, "rejection"),
        (1063, 1064, "rejection"),
        (49730, 49738, "prufer"),
        (3816875, 3816879, "prufer"),
    ]:
        got = tally_law_histograms(n, seed, start, stop, method)
        assert got.tolist() == list(_per_trial_tallies(n, seed, start, stop, method))


def test_kernels_match_the_per_stream_samplers_at_large_n():
    seed = 90125
    s = np.arange(6, dtype=np.uint64) * 2
    for n in (4000, 4001):
        want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "prufer"), s)
        assert list(_prufer_heights(n, seed, s)) == want
    n = 1000
    want = _per_stream(seed, lambda r: sample_collision_count(n, r) - 1, s + 1)
    assert list(_collision_bins(n, seed, s + 1)) == want
    # at n = 2000 a segment holds 32 attempts.  Trial 184's height stream
    # 368 rejects a half in attempt 4 and accepts attempt 174, so five
    # segments read it from a cursor moved on, beside the unmoved cursor
    # of trial 155's stream 310 (accepted at attempt 83)
    n, s = 2000, 2 * np.array([155, 184], dtype=np.uint64)
    assert (montecarlo._bounded_draws(n, seed, s, 0, 5 * n)[1] > 5 * n).tolist() == [False, True]
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s)
    assert list(_rejection_heights(n, seed, s)) == want


def test_rejection_kernel_reads_a_vertex_past_its_segment(monkeypatch):
    # segments of 3 attempts: about a third of the trees are accepted in
    # a segment's last attempt, whose vertex is the draw read ahead; a
    # pending stream's next segment reads that draw again
    n, seed = 30, 90125
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 3 * n)
    s = np.arange(40, dtype=np.uint64)
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s)
    assert list(_rejection_heights(n, seed, s)) == want


def test_rejection_kernel_reads_few_draws_past_its_trees(monkeypatch):
    # a pending stream's next segment holds n attempts; its remaining
    # attempts are geometric with mean n, so a stream reads about
    # n^2 / (1 - 1/e) = 1.58 n^2 draws, against 2.6-3.0 n^2 for segments
    # that grew as the pending streams thinned out
    n, seed, read = 30, 20250801, []
    draws = montecarlo._bounded_draws

    def counted(n, master_seed, indices, cursors, length):
        read.append(len(indices) * length)
        return draws(n, master_seed, indices, cursors, length)

    monkeypatch.setattr(montecarlo, "_bounded_draws", counted)
    s = 2 * np.arange(400, dtype=np.uint64)
    got = _rejection_heights(n, seed, s)
    assert sum(read) <= 1.7 * n * n * len(s)
    monkeypatch.setattr(montecarlo, "_bounded_draws", draws)
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s[:40])
    assert list(got[:40]) == want


def test_batched_rejection_tallies_keep_the_attempt_cap(monkeypatch):
    # a cap of n attempts leaves about a third of the trees unaccepted
    monkeypatch.setattr(heights, "ATTEMPT_CAP_FACTOR", 1)
    with pytest.raises(RuntimeError, match="30 attempts at n=30"):
        tally_law_histograms(30, SEED, 0, 50, "rejection")


def _logged_draws(monkeypatch):
    """Calls of montecarlo._bounded_draws from here on, as (streams, cursors, length)."""
    calls, draws = [], montecarlo._bounded_draws

    def logged(n, master_seed, indices, cursors, length):
        calls.append((indices.tolist(), np.broadcast_to(cursors, indices.shape).tolist(), length))
        return draws(n, master_seed, indices, cursors, length)

    monkeypatch.setattr(montecarlo, "_bounded_draws", logged)
    return calls


@pytest.mark.parametrize("size", [2, 3])
def test_rejection_pool_refills_in_stream_order(monkeypatch, size):
    # a pool of 2 or 3 streams, segments of n attempts: as streams accept,
    # the next ones enter at cursor 0 beside streams read on from their
    # cursors, and once none is left to enter the pool drains (trials
    # 13-37: the last enters three segments before the end)
    n, seed = 30, 90125
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", size * n * n)
    s = 2 * np.arange(13, 38, dtype=np.uint64)
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s)
    calls = _logged_draws(monkeypatch)
    assert list(_rejection_heights(n, seed, s)) == want
    assert {length for _, _, length in calls} == {n * n + 1}
    assert max(len(streams) for streams, _, _ in calls) == size
    entered = [i for streams, cursors, _ in calls for i, c in zip(streams, cursors) if c == 0]
    assert entered == s.tolist()  # each stream enters once, in order
    mixed = [cursors for _, cursors, _ in calls if 0 in cursors and max(cursors) > 0]
    assert mixed  # streams entering mid-run
    streams, cursors, _ = calls[-1]
    assert len(streams) < size and 0 not in cursors  # the drain: streams read on, none to enter


def test_rejection_pool_stops_at_the_cap_of_a_stream_that_entered_late(monkeypatch):
    # a cap of 2n = 60 attempts and a pool of 3: trials 0-2 accept at
    # attempts 17, 54 and 27, and trial 3, which enters when trial 0
    # leaves, would accept at attempt 72
    n, seed = 30, 90125
    s = 2 * np.arange(4, dtype=np.uint64)
    attempts = [sample_rooted_tree_rejection(n, RngStream(seed, int(i)))[1] for i in s]
    assert attempts == [17, 54, 27, 72]
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 3 * n * n)
    monkeypatch.setattr(heights, "ATTEMPT_CAP_FACTOR", 2)
    with pytest.raises(RuntimeError, match="60 attempts at n=30"):
        heights._sample_tree_rejection(RngStream(seed, int(s[3])).generator(), n)
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s[:3])
    assert list(_rejection_heights(n, seed, s[:3])) == want
    with pytest.raises(RuntimeError, match="60 attempts at n=30"):
        _rejection_heights(n, seed, s)


def test_rejection_pool_keeps_a_cap_that_splits_a_segment(monkeypatch):
    # segments of 7 attempts under a cap of 60: the ninth reads attempts
    # 57-63.  Trial 55 accepts at attempt 59, within the cap; trial 28,
    # entering after it, first accepts at 62, past it
    n, seed = 30, 90125
    s = 2 * np.array([55, 28], dtype=np.uint64)
    attempts = [sample_rooted_tree_rejection(n, RngStream(seed, int(i)))[1] for i in s]
    assert attempts == [59, 62]
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 7 * n)
    monkeypatch.setattr(heights, "ATTEMPT_CAP_FACTOR", 2)
    want = _per_stream(seed, lambda r: _sample_height(r.generator(), n, "rejection"), s[:1])
    assert list(_rejection_heights(n, seed, s[:1])) == want
    with pytest.raises(RuntimeError, match="60 attempts at n=30"):
        _rejection_heights(n, seed, s)


def test_rejection_pool_reads_few_segments(monkeypatch):
    # chunks of 72 streams, each read until its last tree, end in nearly
    # empty segments: 26-31 segments for 400 trees at n = 30 (three
    # seeds); a pool of 72 refilled as trees are accepted needs 11-12
    n = 30
    calls = _logged_draws(monkeypatch)
    tally_law_histograms(n, 20250801, 0, 400, "rejection")
    assert sum(length == n * n + 1 for _, _, length in calls) <= 20


def test_collision_kernel_reads_few_draws_past_its_repeats(monkeypatch):
    # the first repeat comes after about sqrt(pi n / 2) draws, and a first
    # window of 2 sqrt(2n) holds it with probability about 1 - e^-4; the
    # rest read doubling windows, so a stream reads under 2.5 sqrt(2n)
    # draws on average, against n + 1 in one window
    seed = 20250801
    for n, trials in ((50, 3000), (1000, 300), (5000, 100)):
        s = 2 * np.arange(trials, dtype=np.uint64) + 1
        want = _per_stream(seed, lambda r: sample_collision_count(n, r) - 1, s)
        with monkeypatch.context() as patch:
            calls = _logged_draws(patch)
            assert list(_collision_bins(n, seed, s)) == want
        assert sum(len(streams) * length for streams, _, length in calls) <= 2.5 * math.sqrt(2 * n) * trials
        assert len(calls) > 1  # some rows read a second window


def _no_worker(*args):
    raise AssertionError("a worker ran")


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_trial_count_past_the_stream_range_fails_before_any_worker(monkeypatch, jobs):
    # trial 2**63 would read streams 2**64 and 2**64 + 1; the last is named
    monkeypatch.setattr(heights, "tally_law_histograms", _no_worker)
    with pytest.raises(ValueError, match=f"^stream_index must fit in 64 bits, got {2**64 + 1}$"):
        law_equality_report(5, 2**63 + 1, SEED, jobs=jobs)


def test_law_equality_report_validates_n_first():
    for n in (0, -3):
        for method in ("prufer", "rejection"):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                law_equality_report(n, 10, SEED, method=method)


@pytest.mark.parametrize("n", [5, 300])  # windows of a few blocks, and past 256 halves
def test_tally_law_histograms_rejects_an_unknown_method_before_any_trial(monkeypatch, n):
    def no_trial(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(heights, "_HEIGHT_KERNELS", {"prufer": no_trial, "rejection": no_trial})
    monkeypatch.setattr(heights, "_collision_bins", no_trial)
    with pytest.raises(ValueError) as info:
        heights.tally_law_histograms(n, 1, 0, 3, "bogus")
    assert str(info.value) == "unknown method 'bogus'; use 'rejection' or 'prufer'"


LEVELS = (0.9, 0.95, 0.99, 0.999, 0.9999)


def _tail_errors(dfs, levels=LEVELS):
    """The chi-square tail's relative error against scipy's at the levels' quantiles of each df."""
    from scipy.special import gammaincc, gammaincinv
    errors = []
    for level in levels:
        stats = 2 * gammaincinv(dfs / 2, level)
        want = gammaincc(dfs / 2, stats / 2)
        got = np.array([heights._chi_square_p(float(x), int(df)) for x, df in zip(stats, dfs)])
        errors.append((np.abs(got - want) / want).max())
    return errors


def test_chi_square_tail_matches_scipy():
    assert max(_tail_errors(np.arange(1, 2001))) <= 1e-11


@pytest.mark.parametrize("df", [1, 2, 7, 40, 301, 5000, 10**5])
def test_chi_square_tail_matches_scipy_at_every_level(df):
    # low levels put the statistic deep in the lower tail, where Q = 1 - P is near 1
    assert max(_tail_errors(np.array([df]), (1e-300, 1e-20, 1e-3, 0.1, 0.5, 0.7, 1 - 1e-10))) <= 1e-11


@pytest.mark.parametrize("df", [5000, 10**5, 10**7, 10**8, 10**9])
def test_chi_square_tail_keeps_its_accuracy_at_large_df(df):
    # the plain a log x - x - lgamma(a) in place of the Stirling form fails this from df 10**5 up
    assert max(_tail_errors(np.array([df]))) <= 1e-11


def test_chi_square_tail_edges():
    assert heights._chi_square_p(0.0, 0) == heights._chi_square_p(2.5e-17, 0) == 1.0  # df 0: nothing to test
    assert heights._chi_square_p(0.0, 3) == 1.0
    assert heights._chi_square_p(1.5, 2) == pytest.approx(math.exp(-0.75), rel=1e-15)


def test_p_value_rule_matches_the_quantile_within_1e_9():
    # "statistic <= the 1 - alpha quantile" and "p >= alpha" are one verdict a hair either side of the quantile
    from scipy.special import gammaincinv
    alpha = 1 - heights._LEVEL
    for df in range(1, 200):
        crit = 2 * gammaincinv(df / 2, heights._LEVEL)
        assert heights._chi_square_p(crit * (1 - 1e-9), df) >= alpha, df
        assert heights._chi_square_p(crit * (1 + 1e-9), df) < alpha, df


def test_the_failing_seeds_at_n50_stay_failing():
    # seeds 1000-3999 at n = 50 x 3000: the quantile rule failed these three and no other
    for seed in (1692, 2199, 3412):
        assert not law_equality_report(50, 3000, seed).passed, seed
    report = law_equality_report(50, 3000, 1000)
    assert report.passed and all(c.p_value >= 1 - heights._LEVEL for c in report.checks)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 1000, 5000])
def test_the_float_collision_pmf_rounds_the_exact_one(n):
    pmf = heights._collision_pmf(n)
    assert list(pmf) == list(range(1, n + 1))
    assert list(pmf.values()) == [float(p) for p in exact_collision_pmf(n)]
