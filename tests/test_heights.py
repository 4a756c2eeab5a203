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
    # chunks of 4 trials, so every range spans several; the last range
    # ends at the largest trial whose streams fit in 64 bits
    per_trial = n * n if method == "rejection" else n + 1
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 4 * per_trial)
    k = 5 if method == "rejection" and n > 100 else 15
    for start in (0, 1021, 2**63 - k):
        got = tally_law_histograms(n, seed, start, start + k, method)
        assert got == _per_trial_tallies(n, seed, start, start + k, method)


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
        assert got == _per_trial_tallies(n, seed, start, stop, method)


def test_kernels_match_the_per_stream_samplers_at_large_n():
    seed = 90125
    s = np.arange(6, dtype=np.uint64) * 2
    for n in (heights._ROWS_DECODE_MAX_N, heights._ROWS_DECODE_MAX_N + 1):  # either decode
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


def test_batched_rejection_tallies_keep_the_attempt_cap(monkeypatch):
    # a cap of n attempts leaves about a third of the trees unaccepted
    monkeypatch.setattr(heights, "ATTEMPT_CAP_FACTOR", 1)
    with pytest.raises(RuntimeError, match="30 attempts at n=30"):
        tally_law_histograms(30, SEED, 0, 50, "rejection")


def test_law_equality_report_validates_n_first():
    for n in (0, -3):
        for method in ("prufer", "rejection"):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                law_equality_report(n, 10, SEED, method=method)


@pytest.mark.parametrize("n", [5, 300])  # windows on the vectorised Philox, then on numpy's
def test_tally_law_histograms_rejects_an_unknown_method_before_any_trial(monkeypatch, n):
    def no_trial(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(heights, "_HEIGHT_KERNELS", {"prufer": no_trial, "rejection": no_trial})
    monkeypatch.setattr(heights, "_collision_bins", no_trial)
    with pytest.raises(ValueError) as info:
        heights.tally_law_histograms(n, 1, 0, 3, "bogus")
    assert str(info.value) == "unknown method 'bogus'; use 'rejection' or 'prufer'"


def test_critical_value_matches_scipy_chi2_quantile():
    from scipy.special import gammaincinv
    levels = (0.9, 0.95, 0.99, 0.999, 0.9999)
    dfs = np.arange(1, 2001)
    for level in levels:
        want = 2 * gammaincinv(dfs / 2, level)
        got = np.array([heights._critical_value(int(df), level) for df in dfs])
        assert (np.abs(got - want) / want).max() <= 1e-12, level


@pytest.mark.parametrize("df", [1, 2, 7, 40, 301, 5000, 10**5])
def test_critical_value_matches_scipy_at_every_level(df):
    # lower levels solve on P, from x^a ~ level Gamma(a+1) deep in the tail
    from scipy.special import gammaincinv
    for level in (1e-300, 1e-20, 1e-3, 0.1, 0.5, 0.7, 1 - 1e-10):
        want = 2 * gammaincinv(df / 2, level)
        assert heights._critical_value(df, level) == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("df", [10**7, 10**8, 10**9])
def test_critical_value_keeps_its_accuracy_at_large_df(df):
    # here the plain a log x - x - lgamma(a) would put the quantile off by 2e-12 to 5e-11
    from scipy.special import gammaincinv
    for level in (0.9, 0.999):
        want = 2 * gammaincinv(df / 2, level)
        assert heights._critical_value(df, level) == pytest.approx(want, rel=1e-12)


def test_critical_value_edges():
    assert heights._critical_value(0, 0.999) == heights._critical_value(-4, 0.5) == 0.0
    assert heights._critical_value(3, 0.0) == 0.0
    assert heights._critical_value(3, 1.0) == math.inf


@pytest.mark.parametrize("level", [math.nan, -0.5, 1.5, math.inf])
def test_a_bad_level_is_rejected_before_any_trial(monkeypatch, level):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(montecarlo, "run_trials", no_trial)
    with pytest.raises(ValueError, match="level must be in"):
        law_equality_report(20, 100, SEED, level=level)
    with pytest.raises(ValueError, match="level must be in"):
        heights._critical_value(5, level)
