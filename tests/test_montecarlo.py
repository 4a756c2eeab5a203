import importlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
from collections import Counter, namedtuple
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
from cayleykit.montecarlo import count_unique_cyclic, run_trials, tally_round_events

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


def draw_tables(n, master_seed, start, stop):
    """0-based int64 tables of trials [start, stop), one row per trial: the
    stream chunker and the draw layer, composed as the batched counters do."""
    chunks = [
        montecarlo._bounded_draws(n, master_seed, streams, 0, n)[0]
        for streams in montecarlo._stream_chunks(master_seed, start, stop, n)
    ]
    return np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.int64)


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
    # at n = 50000 about one row in five rejects; numpy's Philox re-keyed
    # per row and, chosen whatever its cost, the vectorised Philox both
    # give its bits
    n, start, stop = 50_000, 0, 60
    hits = _rejecting(n, SEED, start, stop)
    assert 0 < len(hits) < stop - start
    want = _scalar_tables(n, SEED, start, stop)
    assert np.array_equal(draw_tables(n, SEED, start, stop), want)
    monkeypatch.setattr(montecarlo, "_vectorised_is_cheaper", lambda rows, blocks: True)
    assert np.array_equal(draw_tables(n, SEED, start, stop), want)


@pytest.mark.parametrize("seed", [0, SEED, 2**64 - 1])
def test_keyed_words_set_each_rows_first_block(seed):
    indices = np.array([0, 3, 2**63, 2**64 - 1], dtype=np.uint64)
    first = np.array([0, 1, 2**40, 2**62], dtype=np.int64)
    for blocks in (1, 3):
        want = montecarlo._philox_words(seed, indices, first, blocks)
        assert np.array_equal(montecarlo._keyed_words(seed, indices, first, blocks), want)
        # and one first block for every row, broadcast
        want = montecarlo._philox_words(seed, indices, first[2:3], blocks)
        assert np.array_equal(montecarlo._keyed_words(seed, indices, first[2:3], blocks), want)


def _integers_from(seed, stream, cursor, n, size):
    """stream's next size values of integers(0, n) once cursor halves are handed out."""
    gen = RngStream(seed, stream).generator()
    gen.integers(0, 2**32, size=cursor, dtype=np.uint32)  # the full range: one raw half per value
    return gen.integers(0, n, size=size).tolist()


@pytest.mark.parametrize("n", [100, 3 * 2**30])
@pytest.mark.parametrize("width", [5, 100, 300])
def test_window_reads_every_skip_like_integers(monkeypatch, n, width):
    # each skip c mod 8 twice, from blocks 0 to 80, and one cursor for
    # all, on 16 rows and on those 16 cursors 20 times over.  Windows of
    # 5 halves come from numpy's Philox re-keyed per row on 16 rows and
    # from the vectorised Philox on 320, wider ones from the former.  No
    # half is rejected at n = 100 (2**32 mod n = 96), about a quarter at
    # 3 * 2**30, where the accepted values must be what integers() gives
    # from the cursor on.  numpy.random is loaded, as after a first keyed read
    importlib.import_module("numpy.random")
    sources = []
    for name in ("_philox_words", "_keyed_words"):
        source = getattr(montecarlo, name)
        def spy(*args, name=name, source=source):
            sources.append(name)
            return source(*args)
        monkeypatch.setattr(montecarlo, name, spy)
    every_skip_twice = np.array([0, 1, 2, 3, 4, 5, 6, 7, 9, 18, 27, 36, 45, 54, 63, 640])
    for copies in (1, 20):
        seed, indices = SEED, np.arange(16 * copies, dtype=np.uint64) * 7 + 2**63
        for cursors in (np.tile(every_skip_twice, copies), np.full(16 * copies, 13)):
            values, kept = montecarlo._window(n, seed, indices, cursors, width)
            assert values.shape == kept.shape == (16 * copies, width)
            assert kept.all() == (n == 100)
            for i, c, row, ok in zip(indices.tolist(), cursors.tolist(), values, kept):
                assert row[ok].tolist() == _integers_from(seed, i, c, n, int(ok.sum()))
    vectorised = ["_philox_words"] * 2 if width == 5 else ["_keyed_words"] * 2
    assert sources == ["_keyed_words"] * 2 + vectorised


def test_verify_chunks_stay_on_the_vectorised_philox():
    # verify-cayley --n 100 reads chunks of 655 streams, 13 blocks from cursor 0
    importlib.import_module("numpy.random")  # loaded: the costs decide
    assert montecarlo._vectorised_is_cheaper(655, 13)
    assert not montecarlo._vectorised_is_cheaper(16, 1)
    # a process that has not loaded numpy.random reads every window of up
    # to 32 blocks vectorised, so verify-cayley never pays its import
    code = (
        "import sys; import numpy as np; from cayleykit import montecarlo as m\n"
        "m._window(100, 7, np.arange(3, dtype=np.uint64), np.arange(3), 5)\n"
        "assert m.count_unique_cyclic(100, 7, 0, 1) + m.count_unique_cyclic(100, 7, 0, 700) >= 0\n"
        "assert 'numpy.random' not in sys.modules, 'loaded'\n"
        "m._window(100, 7, np.arange(3, dtype=np.uint64), np.arange(3), 257)\n"
        "assert 'numpy.random' in sys.modules, 'not loaded'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(pathlib.Path(montecarlo.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr


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


def _chunks(draws_per_trial, start, stop):
    chunks = list(montecarlo._stream_chunks(SEED, start, stop, draws_per_trial, stride=2))
    assert np.concatenate(chunks).tolist() == [2 * i for i in range(start, stop)]
    return [len(streams) for streams in chunks]


# recorded before the row floor: the draws a trial of each workload's
# kernels reads (verify-cayley n = 100, check-conditionals n = 20, heights
# Prufer n = 50 and rejection n = 30, and their collision windows) and the
# 2**16 // draws trials of a chunk
@pytest.mark.parametrize("draws, rows", [(14, 4681), (20, 3276), (30, 2184), (51, 1285), (100, 655)])
def test_stream_chunks_keep_the_workloads_chunks(draws, rows):
    assert _chunks(draws, 1000, 1000 + 2 * rows + 5) == [rows, rows, 5]


@pytest.mark.parametrize("draws", [2000, 5000, 10**5])
def test_stream_chunks_keep_a_row_floor_under_a_draw_cap(draws):
    rows = min(montecarlo._CHUNK_ROWS, montecarlo._CHUNK_DRAWS_CAP // draws)
    assert montecarlo._CHUNK_DRAWS // draws < rows and rows * draws <= montecarlo._CHUNK_DRAWS_CAP
    assert _chunks(draws, 7, 7 + 2 * rows + 1) == [rows, rows, 1]


def test_tally_round_events_matches_per_trial_path():
    n, start, stop = 7, 1500, 2700
    tables = [[x - 1 for x in sample_mapping(n, RngStream(SEED, i)).table] for i in range(start, stop)]
    assert _decoded(tally_round_events(n, SEED, start, stop), n) == _explore_tallies(tables)


def _explore_tallies(tables):
    """Round counts of 0-based tables keyed (i, T_{i-1}, T_i, success), one scalar explore per table."""
    tallies = Counter()
    for row in np.asarray(tables).tolist():
        trace = explore(Mapping(len(row), tuple(x + 1 for x in row)), SmallestLabel())
        t_prev = 0
        for r, t_cur in zip(trace.rounds, trace.T):
            closed = Closure.SELF_LOOP if r.index == 1 else Closure.PRIOR_ROUND
            tallies[r.index, t_prev, t_cur, int(r.closure is closed)] += 1
            t_prev = t_cur
    return tallies


def _decoded(tallies, n):
    """[codes, counts] as a Counter keyed (i, T_{i-1}, T_i, success), one code at a time;
    its codes must be distinct and sorted, and its counts positive."""
    codes, counts = (column.tolist() for column in tallies)
    assert codes == sorted(set(codes)) and all(c > 0 for c in counts)
    out = Counter()
    for code, count in zip(codes, counts):
        rest, t = divmod(code >> 1, n + 1)
        out[(*divmod(rest, n + 1), t, code & 1)] = count
    return out


def _kernel_tallies(tables):
    tables = np.asarray(tables, dtype=np.int64)
    return _decoded(montecarlo._round_event_tallies(tables), tables.shape[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_round_event_kernel_matches_explore_on_every_table(n):
    tables = np.array(list(itertools.product(range(n), repeat=n)))
    assert _kernel_tallies(tables) == _explore_tallies(tables)
    # batches of uneven sizes add with + and merge into one tally
    tallies = sum((montecarlo._round_event_tallies(tables[lo : lo + 7]) for lo in range(0, len(tables), 7)), [])
    assert _decoded(montecarlo._merged(tallies), n) == _explore_tallies(tables)


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
    expected = Counter({(i, i - 1, i, int(i == 1)): 1 for i in range(1, n + 1)})
    assert _kernel_tallies([identity]) == expected
    # an n-cycle is one round that closes on its start
    assert _kernel_tallies([cycle]) == Counter({(1, 0, n, int(n == 1)): 1})


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
    tables = _per_trial_tables(n, start, stop)
    assert _decoded(tally_round_events(n, SEED, start, stop), n) == _explore_tallies(tables)


def _per_trial_tables(n, start, stop):
    return [RngStream(SEED, i).generator().integers(0, n, size=n) for i in range(start, stop)]


def test_round_tallies_merge_by_code():
    a = [np.array([3, 8, 9]), np.array([1, 2, 3])]
    b = [np.array([2, 8, 40]), np.array([5, 7, 1])]
    for parts in (a + b, b + a, a + b + a):
        codes, counts = montecarlo._merged(parts)
        assert codes.tolist() == [2, 3, 8, 9, 40] and counts.dtype == np.int64
        assert counts.tolist() == ([5, 2, 11, 6, 1] if len(parts) == 6 else [5, 1, 9, 3, 1])
    assert [c.tolist() for c in montecarlo._merged(a)] == [[3, 8, 9], [1, 2, 3]]
    assert tally_round_events(7, SEED, 10, 10) == []


#: One row of the bin table, as the report's columns give it
Bin = namedtuple("Bin", "round_index t_prev t_cur observations successes predicted frequency deviation_se flagged")


def _oracle_bins(tallies, se_threshold=4.0):
    """Bins of round counts keyed (i, T_{i-1}, T_i, success), one bin at a time in Fractions."""
    bins = []
    for i, t_prev, t_cur in sorted({key[:3] for key in tallies}):
        succ = tallies.get((i, t_prev, t_cur, 1), 0)
        obs = tallies.get((i, t_prev, t_cur, 0), 0) + succ
        predicted = Fraction(1, t_cur) if i == 1 else Fraction(t_prev, t_cur)
        freq = succ / obs
        p = float(predicted)
        se = math.sqrt(p * (1 - p) / obs)
        if se > 0:
            deviation = abs(freq - p) / se
        else:
            deviation = 0.0 if freq == p else math.inf
        bins.append(Bin(i, t_prev, t_cur, obs, succ, predicted, freq, deviation, deviation > se_threshold))
    return bins


def _bins(report):
    """The report's rows, each prediction a Fraction."""
    predicted = map(Fraction, report.numerator, report.denominator)
    return list(map(Bin, report.round_index, report.t_prev, report.t_cur, report.observations, report.successes,
                    predicted, report.frequency, report.deviation_se, report.flagged))


def _assert_report_matches_oracle(report, tallies):
    """Every column of report equals the oracle's bins, the prediction in lowest terms."""
    oracle = _oracle_bins(tallies, report.se_threshold)
    assert _bins(report) == oracle
    assert report.numerator == tuple(b.predicted.numerator for b in oracle)
    assert report.denominator == tuple(b.predicted.denominator for b in oracle)
    for column in ("frequency", "deviation_se"):  # the very floats, printed
        assert [*map(repr, getattr(report, column))] == [repr(getattr(b, column)) for b in oracle]


@pytest.mark.parametrize("n, trials", [(1, 50), (2, 3000), (7, 2000), (20, 2000), (257, 100)])
def test_bin_table_matches_the_per_bin_oracle(n, trials):
    report = check_round_conditionals(n, trials, SEED)
    _assert_report_matches_oracle(report, _explore_tallies(_per_trial_tables(n, 0, trials)))


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_merged_bin_table_matches_the_per_bin_oracle(jobs):
    report = check_round_conditionals(7, 3001, SEED, jobs=jobs)
    _assert_report_matches_oracle(report, _explore_tallies(_per_trial_tables(7, 0, 3001)))


#: Round counts keyed (i, T_{i-1}, T_i, success) that no mapping gives together:
#: T_1 = 1 with p = 1 closed every time (se 0, deviation 0.0) and with a miss
#: (se 0, deviation inf), and 6/8, which reduces to 3/4.
PLANTED = Counter({(1, 0, 1, 1): 4, (1, 0, 1, 0): 1, (1, 0, 2, 1): 3, (2, 1, 2, 0): 2, (2, 6, 8, 1): 5,
                   (2, 6, 8, 0): 2, (3, 2, 3, 1): 9})


def _coded(tallies, n):
    codes = sorted(((i * (n + 1) + t_prev) * (n + 1) + t_cur) * 2 + s for i, t_prev, t_cur, s in tallies)
    keys = {((i * (n + 1) + t_prev) * (n + 1) + t_cur) * 2 + s: c for (i, t_prev, t_cur, s), c in tallies.items()}
    return [np.array(codes), np.array([keys[c] for c in codes])]


@pytest.mark.parametrize("tallies", [PLANTED, Counter({(1, 0, 1, 1): 4}), Counter({(1, 0, 1, 0): 4})])
def test_bin_table_on_planted_tallies(monkeypatch, tallies):
    monkeypatch.setattr(montecarlo, "run_trials", lambda *args: _coded(tallies, 8))
    report = check_round_conditionals(8, 5, SEED)
    _assert_report_matches_oracle(report, tallies)
    by_key = {b[:3]: b for b in zip(report.round_index, report.t_prev, report.t_cur, report.deviation_se)}
    if (1, 0, 1) in by_key:  # se 0: 0.0 when every round closed, else inf
        assert by_key[1, 0, 1][3] == (0.0 if tallies[1, 0, 1, 0] == 0 else math.inf)
    if (2, 6, 8) in by_key:
        k = report.t_cur.index(8)
        assert (report.numerator[k], report.denominator[k]) == (3, 4)


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


@pytest.mark.parametrize("affinity", [True, False])
def test_jobs_above_the_cpus_start_one_worker_per_cpu(monkeypatch, affinity):
    # the caller runs the first part, so w usable CPUs fork w - 1 children
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    total = run_trials(count_unique_cyclic, 5, SEED, 10_000, 5000)
    assert len(forks) == (2 if affinity else 1)
    assert total == run_trials(count_unique_cyclic, 5, SEED, 10_000, 1) == count_unique_cyclic(5, SEED, 0, 10_000)
    assert len(forks) == (2 if affinity else 1)  # --jobs 1 forks nothing


def _parts(n, seed, lo, hi):
    return [(lo, hi, os.getpid())]


def test_without_fork_the_caller_runs_every_trial(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_trials(_parts, 5, SEED, 1000, 2) == [(0, 1000, os.getpid())]


def _faulty(n, seed, lo, hi, fault):
    """A worker whose parts after the first (the children's) fail as `fault` says; the first one raises on "caller"."""
    if lo == 0:
        if fault == "caller":
            raise KeyError("the caller's part failed")
        return 0
    if fault == "raise":
        raise ValueError(f"part [{lo}, {hi}) failed")
    if fault == "exit":
        os._exit(3)
    time.sleep(60)  # "caller": a child still at work when the caller's part fails
    return 1


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_the_fan_out_returns_each_part_once_from_its_own_process(two_cpus):
    parts = run_trials(_parts, 5, SEED, 1001, 2)
    assert [part[:2] for part in parts] == [(0, 501), (501, 1001)]
    assert parts[0][2] == os.getpid() != parts[1][2]  # the first part runs in the caller


def test_a_childs_exception_is_raised_in_the_caller(two_cpus):
    with pytest.raises(ValueError, match=r"^part \[50, 100\) failed$"):
        run_trials(_faulty, 5, SEED, 100, 2, "raise")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_ends_without_a_result_raises_runtime_error(two_cpus):
    message = r"^the worker process of trials \[50, 100\) ended without a result \(exit code 3\)$"
    with pytest.raises(RuntimeError, match=message):
        run_trials(_faulty, 5, SEED, 100, 2, "exit")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_caller_part_kills_the_children(two_cpus):
    started = time.monotonic()
    with pytest.raises(KeyError, match="the caller's part failed"):
        run_trials(_faulty, 5, SEED, 100, 2, "caller")
    assert time.monotonic() - started < 30  # the child's 60 s sleep was cut short
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _no_worker(*args):
    raise AssertionError("a worker ran")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "run, worker",
    [(estimate_unique_cyclic, "count_unique_cyclic"), (check_round_conditionals, "tally_round_events")],
)
def test_a_trial_count_past_the_stream_range_fails_before_any_worker(monkeypatch, run, worker, jobs):
    # trial 2**64 would read stream 2**64, one past the last 64-bit index
    monkeypatch.setattr(montecarlo, worker, _no_worker)
    with pytest.raises(ValueError, match=f"^stream_index must fit in 64 bits, got {2**64}$"):
        run(5, 2**64 + 1, SEED, jobs=jobs)


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
    assert len(report.round_index) == 1
    b = _bins(report)[0]
    assert (b.round_index, b.t_prev, b.t_cur) == (1, 0, 1)
    assert b.frequency == 1.0 and b.predicted == 1
    assert report.flagged_count(1) == 0


def test_check_round_conditionals_n2_bins():
    report = check_round_conditionals(2, 50_000, SEED)
    by_key = {(b.round_index, b.t_prev, b.t_cur): b for b in _bins(report)}
    assert by_key[(1, 0, 1)].predicted == 1
    assert by_key[(1, 0, 1)].frequency == 1.0
    assert by_key[(1, 0, 2)].predicted == Fraction(1, 2)
    assert by_key[(2, 1, 2)].predicted == Fraction(1, 2)
    assert report.flagged_count(100) == 0


def test_check_round_conditionals_parallel_matches_sequential():
    seq = check_round_conditionals(6, 4000, SEED, jobs=1)
    par = check_round_conditionals(6, 4000, SEED, jobs=2)
    assert seq == par
