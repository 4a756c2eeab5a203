"""Per-layer timings: each layer's entry point timed alone on seeded inputs.

Every figure is the median over REPS repetitions of a batch, divided by
the batch size.  Inputs come from RngStream(seed, i), so the same
--seed gives the same inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from workloads import Runner, median, tour_commands

REPS = 5
SUBPROCESS_REPS = 3


def _per_call_us(fn, inputs, reps=REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        times.append(time.perf_counter() - t0)
    return median(times) / len(inputs) * 1e6


def _seconds(fn, reps=REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def montecarlo(seed: int) -> dict:
    from cayleykit.montecarlo import (
        RngStream, count_unique_cyclic, estimate_unique_cyclic, sample_mapping,
        tally_round_events,
    )

    k = 1000
    gens = [RngStream(seed, i).generator() for i in range(k)]
    trials, jobs = 10000, 2
    half = trials // jobs

    def pool_overhead():
        t0 = time.perf_counter()
        estimate_unique_cyclic(100, trials, seed, jobs=jobs)
        wall = time.perf_counter() - t0
        parts = [_seconds(lambda lo=lo: count_unique_cyclic(100, seed, lo, lo + half), reps=1)
                 for lo in range(0, trials, half)]
        return wall - max(parts)

    return {
        "montecarlo.stream_setup_us": (_per_call_us(lambda i: RngStream(seed, i).generator(), range(k)), "us"),
        "montecarlo.bounded_draw_us": (_per_call_us(lambda g: g.integers(0, 100, size=100), gens), "us"),
        "montecarlo.count_unique_cyclic_us_per_trial": (
            _seconds(lambda: count_unique_cyclic(100, seed, 0, 2000), reps=3) / 2000 * 1e6, "us"),
        "montecarlo.pool_overhead_s": (median([pool_overhead() for _ in range(3)]), "s"),
        "montecarlo.sample_mapping_us": (_per_call_us(lambda i: sample_mapping(20, RngStream(seed, i)), range(k)), "us"),
        "montecarlo.tally_round_events_us_per_trial": (
            _seconds(lambda: tally_round_events(20, seed, 0, 1000), reps=3) / 1000 * 1e6, "us"),
    }


def exploration(seed: int) -> dict:
    from cayleykit.exploration import SmallestLabel, explore
    from cayleykit.montecarlo import RngStream, sample_mapping

    mappings = [sample_mapping(20, RngStream(seed, i)) for i in range(1000)]
    strategy = SmallestLabel()
    rounds = sum(explore(m, strategy).K for m in mappings) / len(mappings)
    return {
        "exploration.explore_us": (_per_call_us(lambda m: explore(m, strategy), mappings), "us"),
        "exploration.rounds": (rounds, "rounds/call"),
    }


def trees(seed: int) -> dict:
    from cayleykit.bijection import (
        PruferSequence, mapping_to_rooted_tree, prufer_decode, rooted_tree_to_mapping,
    )
    from cayleykit.core import Mapping, RootedTree, unique_cyclic_vertex
    from cayleykit.heights import (
        sample_collision_count, sample_rooted_tree_prufer, sample_rooted_tree_rejection,
    )
    from cayleykit.montecarlo import RngStream

    k = 500
    tables30 = [tuple(RngStream(seed, i).generator().integers(1, 31, size=30).tolist())
                for i in range(k)]
    mappings30 = [Mapping(30, t) for t in tables30]
    trees30 = [sample_rooted_tree_prufer(30, RngStream(seed, i)) for i in range(k)]
    tree_maps30 = [rooted_tree_to_mapping(t) for t in trees30]
    trees50 = [sample_rooted_tree_prufer(50, RngStream(seed, i)) for i in range(k)]
    shapes50 = [(t.root, t.parent) for t in trees50]
    depth_args = [(t, 1 + (i * 7) % 50) for i, t in enumerate(trees50)]
    words50 = [PruferSequence(50, tuple(RngStream(seed, i).generator().integers(1, 51, size=48).tolist()))
               for i in range(k)]

    rejection_trees = 100
    attempts = 0

    def rejection(i):
        nonlocal attempts
        attempts += sample_rooted_tree_rejection(30, RngStream(seed, i))[1]

    rejection_us = _per_call_us(rejection, range(rejection_trees), reps=3)
    attempts_per_tree = attempts / (3 * rejection_trees)
    return {
        "core.mapping_init_us": (_per_call_us(lambda t: Mapping(30, t), tables30), "us"),
        "core.unique_cyclic_vertex_us": (_per_call_us(unique_cyclic_vertex, mappings30), "us"),
        "bijection.mapping_to_rooted_tree_us": (_per_call_us(mapping_to_rooted_tree, tree_maps30), "us"),
        "heights.sample_rooted_tree_rejection_us": (rejection_us, "us"),
        "heights.rejection_attempts": (attempts_per_tree, "attempts/tree"),
        "heights.acceptance_ratio": (1 / attempts_per_tree, "trees/attempt"),
        "core.rooted_tree_init_us": (_per_call_us(lambda rp: RootedTree(50, *rp), shapes50), "us"),
        "core.depth_us": (_per_call_us(lambda tv: tv[0].depth(tv[1]), depth_args), "us"),
        "heights.sample_rooted_tree_prufer_us": (
            _per_call_us(lambda i: sample_rooted_tree_prufer(50, RngStream(seed, i)), range(k)), "us"),
        "heights.sample_collision_count_us": (
            _per_call_us(lambda i: sample_collision_count(50, RngStream(seed, i)), range(k)), "us"),
        "bijection.prufer_decode_us": (_per_call_us(prufer_decode, words50), "us"),
    }


def enumeration() -> dict:
    from cayleykit.enumeration import exact_counts

    def fresh(n):
        exact_counts.cache_clear()  # a cached call would time a dictionary lookup
        return _seconds(lambda: exact_counts(n), reps=1)

    n6 = median([fresh(6) for _ in range(3)])
    n7 = fresh(7)
    return {
        "enumeration.exact_counts_n6_s": (n6, "s"),
        "enumeration.exact_counts_n7_s": (n7, "s"),
        "enumeration.mappings_per_s": (7**7 / n7, "mappings/s"),
    }


def cli(seed: int, runner: Runner) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(runner.root, "src"))

    def fresh_interpreter(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=runner.root, check=True, timeout=60)
        return proc.stdout

    interpreter = median([_seconds(lambda: fresh_interpreter("pass"), reps=1)
                          for _ in range(SUBPROCESS_REPS)])
    timed_import = ("import time; t = time.perf_counter(); import cayleykit; "
                    "print(time.perf_counter() - t)")
    imports = median([float(fresh_interpreter(timed_import)) for _ in range(SUBPROCESS_REPS)])
    per_command = []
    results = {}
    for cmd in tour_commands(seed):
        times = []
        for _ in range(REPS):
            results[cmd.label] = r = runner.run(cmd, cmd.stdin(results) if cmd.stdin else "")
            times.append(r.seconds)
        per_command.append(median(times))
    return {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imports, "s"),
        "cli.main_in_process_ms": (median(per_command) * 1e3, "ms"),
    }


def run_all(seed: int, runner: Runner) -> dict:
    out = {}
    out.update(montecarlo(seed))
    out.update(exploration(seed))
    out.update(trees(seed))
    out.update(enumeration())
    out.update(cli(seed, runner))
    return out
