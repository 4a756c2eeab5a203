import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cayleykit import (
    Estimate,
    Histogram,
    Mapping,
    RngStream,
    check_round_conditionals,
    chi_square_statistic,
    estimate_unique_cyclic,
    exact_counts,
    make_estimate,
    sample_mapping,
    two_sample_chi_square,
    unique_cyclic_vertex,
    wilson_interval,
)
from cayleykit import core, montecarlo
from cayleykit.exploration import Closure, SmallestLabel, explore
from cayleykit.montecarlo import count_unique_cyclic, draw_tables, tally_round_events

SEED = 90125


def test_rng_stream_determinism_and_independence():
    a = sample_mapping(5, RngStream(SEED, 0))
    b = sample_mapping(5, RngStream(SEED, 0))
    c = sample_mapping(5, RngStream(SEED, 1))
    assert a == b
    assert a != c


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)


def test_rng_stream_exact_64_bit_keys():
    # neighbouring seeds and indices at or above 2**63 give distinct streams
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [
            (RngStream(2**63 + 5, 3), RngStream(2**63 + 6, 3)),
            (RngStream(2**64 - 1, 3), RngStream(2**64 - 2, 3)),
            (RngStream(7, 2**64 - 1), RngStream(7, 2**64 - 2)),
        ]:
            assert sample_mapping(50, a) != sample_mapping(50, b)


def _scalar_tables(n, seed, start, stop):
    rows = [RngStream(seed, i).generator().integers(0, n, size=n) for i in range(start, stop)]
    return np.array(rows, dtype=np.int64).reshape(stop - start, n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 100, 256, 257, 1000])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_draw_tables_matches_scalar_streams(n, seed):
    for start, stop in [(0, 130), (1021, 1100), (2**64 - 37, 2**64)]:
        tables = draw_tables(n, seed, start, stop)
        assert tables.dtype == np.int64
        assert np.array_equal(tables, _scalar_tables(n, seed, start, stop))


def _draws_consumed(gen):
    """32-bit draws a fresh Philox generator has handed out so far."""
    state = gen.bit_generator.state
    words = (int(state["state"]["counter"][0]) - 1) * 4 + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


def _rejecting(n, seed, start, stop):
    """Indices whose scalar stream draws past n: a Lemire rejection."""
    hits = []
    for i in range(start, stop):
        gen = RngStream(seed, i).generator()
        gen.integers(0, n, size=n)
        if _draws_consumed(gen) > n:
            hits.append(i)
    return hits


def test_draw_tables_falls_back_on_lemire_rejections():
    # of all n <= 256, n = 244 rejects most often (numpy's threshold
    # 2**32 mod n is 240); under SEED trial 99469 is the first to reject
    n, start, stop = 244, 99_400, 99_500
    assert _rejecting(n, SEED, start, stop) == [99_469]
    assert np.array_equal(draw_tables(n, SEED, start, stop), _scalar_tables(n, SEED, start, stop))


def test_vectorised_draws_at_large_n(monkeypatch):
    # at n = 50000 about one row in five rejects; both the per-row
    # generator and the vectorised draws with fallback give its bits
    n, start, stop = 50_000, 0, 60
    hits = _rejecting(n, SEED, start, stop)
    assert 0 < len(hits) < stop - start
    want = _scalar_tables(n, SEED, start, stop)
    assert np.array_equal(draw_tables(n, SEED, start, stop), want)
    monkeypatch.setattr(montecarlo, "_VECTOR_MAX_N", n)
    assert np.array_equal(draw_tables(n, SEED, start, stop), want)


def test_draw_tables_validation():
    assert draw_tables(5, SEED, 10, 10).shape == (0, 5)
    with pytest.raises(ValueError):
        draw_tables(0, SEED, 0, 10)
    with pytest.raises(ValueError):
        draw_tables(5, 2**64, 0, 10)
    with pytest.raises(ValueError):
        draw_tables(5, SEED, 2**64 - 1, 2**64 + 1)


def test_sample_mapping_trivial_and_scale():
    assert sample_mapping(1, RngStream(SEED, 3)).table == (1,)
    m = sample_mapping(10**6, RngStream(SEED, 4))
    assert m.n == 10**6
    assert min(m.table) >= 1 and max(m.table) <= 10**6


def test_sample_mapping_uniformity_small_exhaustive():
    # n=2: all four tables equally likely, 5 SE tolerance
    trials = 100_000
    counts = {}
    for i in range(trials):
        t = sample_mapping(2, RngStream(SEED, i)).table
        counts[t] = counts.get(t, 0) + 1
    p = 1 / 4
    se = math.sqrt(p * (1 - p) * trials)
    for t in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert abs(counts[t] - trials * p) <= 5 * se


def test_sample_mapping_uniformity_spot_check_n4():
    # spot-check 10 fixed tables out of 256 over a large sample; the
    # batched draw gives the per-trial streams' bits (tested above)
    trials = 1_000_000
    batch = 8192
    hits = np.zeros(256, dtype=np.int64)
    for lo in range(0, trials, batch):
        rows = draw_tables(4, SEED, lo, min(lo + batch, trials))
        codes = rows[:, 0] * 64 + rows[:, 1] * 16 + rows[:, 2] * 4 + rows[:, 3]
        hits += np.bincount(codes, minlength=256)
    p = 1 / 256
    se = math.sqrt(p * (1 - p) * trials)
    spot = [0, 1, 17, 42, 85, 128, 170, 213, 254, 255]
    for code in spot:
        assert abs(int(hits[code]) - trials * p) <= 5 * se


def test_vectorized_counter_matches_object_path():
    # the batched counter must agree with sampling + direct analysis
    n, trials = 12, 400
    expected = sum(
        unique_cyclic_vertex(sample_mapping(n, RngStream(SEED, i))) is not None
        for i in range(trials)
    )
    assert count_unique_cyclic(n, SEED, 0, trials) == expected
    # and splitting the range anywhere tallies to the same total
    assert (
        count_unique_cyclic(n, SEED, 0, 123)
        + count_unique_cyclic(n, SEED, 123, trials)
        == expected
    )


def test_batched_counter_across_chunk_boundaries(monkeypatch):
    # ranges that start off a chunk multiple and span several chunks
    n, start, stop = 3, 1000, 3100
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 512 * n)
    expected = sum(
        unique_cyclic_vertex(sample_mapping(n, RngStream(SEED, i))) is not None
        for i in range(start, stop)
    )
    assert count_unique_cyclic(n, SEED, start, stop) == expected
    top = 2**64
    expected = sum(
        unique_cyclic_vertex(sample_mapping(n, RngStream(SEED, i))) is not None
        for i in range(top - 1500, top)
    )
    assert count_unique_cyclic(n, SEED, top - 1500, top) == expected


def test_tally_round_events_matches_per_trial_path():
    n, start, stop = 7, 1500, 2700
    expected = {}
    for i in range(start, stop):
        trace = explore(sample_mapping(n, RngStream(SEED, i)), SmallestLabel())
        t_prev = 0
        for r, t_cur in zip(trace.rounds, trace.T):
            closed = Closure.SELF_LOOP if r.index == 1 else Closure.PRIOR_ROUND
            obs, succ = expected.get((r.index, t_prev, t_cur), (0, 0))
            expected[(r.index, t_prev, t_cur)] = (obs + 1, succ + (r.closure is closed))
            t_prev = t_cur
    assert tally_round_events(n, SEED, start, stop) == expected


def _explore_tallies(tables):
    """Round-event tallies of 0-based tables, one scalar explore per table."""
    tallies = {}
    for row in np.asarray(tables).tolist():
        trace = explore(Mapping(len(row), tuple(x + 1 for x in row)), SmallestLabel())
        t_prev = 0
        for r, t_cur in zip(trace.rounds, trace.T):
            closed = Closure.SELF_LOOP if r.index == 1 else Closure.PRIOR_ROUND
            obs, succ = tallies.get((r.index, t_prev, t_cur), (0, 0))
            tallies[(r.index, t_prev, t_cur)] = (obs + 1, succ + (r.closure is closed))
            t_prev = t_cur
    return tallies


def _kernel_tallies(tables):
    return montecarlo._round_event_tallies(np.asarray(tables, dtype=np.int64), {})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_round_event_kernel_matches_explore_on_every_table(n):
    tables = np.array(list(itertools.product(range(n), repeat=n)))
    assert _kernel_tallies(tables) == _explore_tallies(tables)
    # batches of uneven sizes fold into one dict
    tallies = {}
    for lo in range(0, len(tables), 7):
        montecarlo._round_event_tallies(tables[lo : lo + 7], tallies)
    assert tallies == _explore_tallies(tables)


@pytest.mark.parametrize("n", [1, 2, 6, 255, 256])
def test_round_event_kernel_on_planted_tables(n):
    identity = list(range(n))
    constant = [n - 1] * n
    cycle = [(v + 1) % n for v in range(n)]
    reverse = identity[::-1]
    planted = [identity, constant, cycle, reverse]
    # each row alone, and all in one lockstep batch
    for row in planted:
        assert _kernel_tallies([row]) == _explore_tallies([row])
    assert _kernel_tallies(planted) == _explore_tallies(planted)
    # identity: n rounds of one vertex each, round 1 a success, later ones not
    expected = {(i, i - 1, i): (1, int(i == 1)) for i in range(1, n + 1)}
    assert _kernel_tallies([identity]) == expected
    # an n-cycle is one round that closes on its start
    assert _kernel_tallies([cycle]) == {(1, 0, n): (1, int(n == 1))}


@pytest.mark.parametrize(
    "n, start, stop",
    [
        (2, 0, 3000),
        (7, 2**63 - 150, 2**63 + 150),  # stream indices at and above 2**63
        (7, 2**64 - 200, 2**64),
        (20, 3000, 3600),  # crosses the chunk boundary at 65536 // 20 = 3276
        (100, 600, 720),  # crosses 655
        (257, 200, 300),  # re-keyed draws, crosses 255
    ],
)
def test_round_event_kernel_matches_explore_on_random_ranges(n, start, stop):
    tables = [
        RngStream(SEED, i).generator().integers(0, n, size=n) for i in range(start, stop)
    ]
    assert tally_round_events(n, SEED, start, stop) == _explore_tallies(tables)


def _scalar_mask(tables):
    """core.unique_cyclic_vertex on each 0-based row."""
    return np.array(
        [
            unique_cyclic_vertex(Mapping(len(row), tuple(x + 1 for x in row))) is not None
            for row in np.asarray(tables).tolist()
        ],
        dtype=bool,
    )


def _checked_mask(tables, monkeypatch):
    """_unique_cyclic_mask of tables, asserting that it squares only the
    rows with exactly one fixed point."""
    tables = np.asarray(tables, dtype=np.int64)
    squared = []

    def spy(rows, *args):
        squared.append(rows.copy())
        return real(rows, *args)

    real = core._pointer_doubling
    with monkeypatch.context() as patch:
        patch.setattr(core, "_pointer_doubling", spy)
        mask = montecarlo._unique_cyclic_mask(tables)
    one_fixed_point = (tables == np.arange(tables.shape[1])).sum(axis=1) == 1
    assert len(squared) == 1 and np.array_equal(squared[0], tables[one_fixed_point])
    return mask


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unique_cyclic_mask_matches_scalar_oracle_on_every_table(n, monkeypatch):
    tables = np.array(list(itertools.product(range(n), repeat=n)))
    expected = _scalar_mask(tables)
    assert expected.sum() == n ** (n - 1)
    assert np.array_equal(_checked_mask(tables, monkeypatch), expected)
    batches = [_checked_mask(tables[lo : lo + 7], monkeypatch) for lo in range(0, len(tables), 7)]
    assert np.array_equal(np.concatenate(batches), expected)


# n where (n - 1).bit_length(), the number of squarings, steps up, and just before
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 128, 129, 256])
def test_unique_cyclic_mask_on_planted_tables(n, monkeypatch):
    identity = list(range(n))
    planted = {
        "identity": (identity, n == 1),
        "constant": ([n // 2] * n, True),
        # v -> v + 1 up to the root n - 1: vertex 0 needs all n - 1 steps
        "path": ([min(v + 1, n - 1) for v in range(n)], True),
        "cycle": ([(v + 1) % n for v in range(n)], n == 1),
    }
    if n >= 2:
        planted["two fixed points"] = ([0, 1] + [0] * (n - 2), False)
    if n >= 3:
        # a path to the root n - 3, and the 2-cycle n - 2 <-> n - 1
        tree = [min(v + 1, n - 3) for v in range(n - 2)]
        planted["tree and 2-cycle"] = (tree + [n - 1, n - 2], False)
    rows = [row for row, _ in planted.values()]
    expected = [unique for _, unique in planted.values()]
    assert _scalar_mask(rows).tolist() == expected
    for name, (row, unique) in planted.items():
        assert _checked_mask([row], monkeypatch).tolist() == [unique], name
    assert _checked_mask(rows, monkeypatch).tolist() == expected
    # the same rows behind a batch of random tables, so every row offset is nonzero
    filler = np.random.default_rng(n).integers(0, n, size=(5, n))
    batch = np.vstack([filler, rows])
    assert np.array_equal(_checked_mask(batch, monkeypatch), _scalar_mask(batch))


def test_estimate_unique_cyclic_trivial_n1():
    est = estimate_unique_cyclic(1, 10, SEED)
    assert est.point == 1.0 and est.successes == 10


def test_estimate_unique_cyclic_matches_enumeration():
    trials = 100_000
    for n in (2, 3, 4, 5):
        exact = exact_counts(n).unique_cyclic / exact_counts(n).total_mappings
        est = estimate_unique_cyclic(n, trials, SEED)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est.point - exact) <= 4 * se, (n, est.point, exact)


def test_estimate_parallel_matches_sequential():
    seq = estimate_unique_cyclic(20, 20_000, SEED, jobs=1)
    par = estimate_unique_cyclic(20, 20_000, SEED, jobs=3)
    assert seq == par


def test_wilson_interval_examples():
    low, high = wilson_interval(0, 10, 1.96)
    assert low == 0.0
    low, high = wilson_interval(10, 10, 1.96)
    # at p-hat = 1 the score upper bound collapses to exactly 1
    assert high == pytest.approx(1.0, abs=1e-12)
    assert low > 0.6
    low, high = wilson_interval(50, 100, 1.96)
    assert (low + high) / 2 == pytest.approx(0.5, abs=1e-3)
    assert high - low == pytest.approx(0.19, abs=0.01)


def test_wilson_interval_properties():
    # bounds ordered and clamped; width shrinks as trials grow
    prev_width = None
    for trials in (10, 100, 1000, 10000):
        succ = trials // 3
        low, high = wilson_interval(succ, trials, 1.96)
        assert 0.0 <= low <= succ / trials <= high <= 1.0
        width = high - low
        if prev_width is not None:
            assert width < prev_width
        prev_width = width


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0, 1.96)
    with pytest.raises(ValueError):
        wilson_interval(5, 4, 1.96)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4, 1.96)
    with pytest.raises(ValueError):
        wilson_interval(1, 4, 0.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_wilson_interval_rejects_a_z_that_is_not_finite_and_positive(z):
    with pytest.raises(ValueError, match="z must be finite and > 0"):
        wilson_interval(1, 4, z)
    with pytest.raises(ValueError, match="z must be finite and > 0"):
        make_estimate(1, 4, z)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_estimate_unique_cyclic_rejects_a_bad_z_before_any_trial(z, monkeypatch):
    def no_trials(*args):
        raise AssertionError("run_trials was called")

    monkeypatch.setattr(montecarlo, "run_trials", no_trials)
    with pytest.raises(ValueError, match=f"^z must be finite and > 0, got {z}$"):
        estimate_unique_cyclic(100, 200_000, 1, z=z)


def test_make_estimate_fields():
    est = make_estimate(25, 100, z=2.5)
    assert isinstance(est, Estimate)
    assert est.point == 0.25 and est.z == 2.5
    assert est.ci_low <= est.point <= est.ci_high


def _histogram_of(samples, lo, hi):
    counts = [0] * (hi - lo + 1)
    for s in samples:
        counts[s - lo] += 1
    return Histogram(lo, tuple(counts), len(samples))


def test_histogram_basics():
    h = _histogram_of([1, 1, 2, 5], 1, 5)
    assert h.counts == (2, 1, 0, 0, 1) and h.total == 4
    assert h.count_of(1) == 2 and h.count_of(7) == 0
    assert list(h.support()) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        Histogram(1, (1, 2), 4)
    with pytest.raises(ValueError):
        Histogram(1, (-1, 5), 4)


def test_chi_square_statistic_examples():
    pmf = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    h = Histogram(1, (60, 40), 100)
    stat, df = chi_square_statistic(h, pmf)
    assert stat == pytest.approx(4.0) and df == 1
    # histogram exactly proportional to the pmf scores zero
    h = Histogram(1, (50, 50), 100)
    stat, df = chi_square_statistic(h, pmf)
    assert stat == 0.0 and df == 1


def test_chi_square_merges_sparse_tail():
    # expected counts 60, 30, 4, 3, 3: the sub-5 bins pool into a tail
    # bin that stands on its own once its mass reaches 5
    pmf = {
        1: Fraction(60, 100),
        2: Fraction(30, 100),
        3: Fraction(4, 100),
        4: Fraction(3, 100),
        5: Fraction(3, 100),
    }
    h = Histogram(1, (60, 30, 4, 3, 3), 100)
    stat, df = chi_square_statistic(h, pmf)
    assert df == 2  # bins 1, 2, and the pooled tail of mass 10
    assert stat == pytest.approx(0.0)
    # expected counts 60, 30, 6, 3, 1: the pooled tail (mass 4) is still
    # under 5, so it folds into the last kept bin
    pmf = {
        1: Fraction(60, 100),
        2: Fraction(30, 100),
        3: Fraction(6, 100),
        4: Fraction(3, 100),
        5: Fraction(1, 100),
    }
    h = Histogram(1, (60, 30, 6, 2, 2), 100)
    stat, df = chi_square_statistic(h, pmf)
    assert df == 2  # bins 1, 2, and bin 3 absorbing the thin tail
    assert stat == pytest.approx(0.0)


def test_chi_square_degenerate_single_bin_has_df_0():
    # one pooled bin: both tests return df 0 and leave the reporting to the caller
    pmf = {1: Fraction(1)}
    h = Histogram(1, (3,), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chi_square_statistic(h, pmf) == (0.0, 0)
        assert two_sample_chi_square(h, h) == (0.0, 0)


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_statistic(Histogram(1, (0,), 0), {1: Fraction(1)})
    with pytest.raises(ValueError, match="cover"):
        chi_square_statistic(Histogram(1, (1, 1), 2), {1: Fraction(1)})


def test_two_sample_chi_square_identical_histograms():
    h = Histogram(1, (500, 300, 200), 1000)
    stat, df = two_sample_chi_square(h, h)
    assert stat == 0.0 and df == 2


def test_check_round_conditionals_trivial_n1():
    report = check_round_conditionals(1, 50, SEED)
    assert len(report.bins) == 1
    b = report.bins[0]
    assert (b.round_index, b.t_prev, b.t_cur) == (1, 0, 1)
    assert b.frequency == 1.0 and b.predicted == 1
    assert not report.flagged_bins(1)


def test_check_round_conditionals_n2_bins():
    report = check_round_conditionals(2, 50_000, SEED)
    by_key = {(b.round_index, b.t_prev, b.t_cur): b for b in report.bins}
    assert by_key[(1, 0, 1)].predicted == 1
    assert by_key[(1, 0, 1)].frequency == 1.0
    assert by_key[(1, 0, 2)].predicted == Fraction(1, 2)
    assert by_key[(2, 1, 2)].predicted == Fraction(1, 2)
    assert not report.flagged_bins(100)


def test_check_round_conditionals_parallel_matches_sequential():
    seq = check_round_conditionals(6, 4000, SEED, jobs=1)
    par = check_round_conditionals(6, 4000, SEED, jobs=2)
    assert seq == par
