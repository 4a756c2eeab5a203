"""The three workloads: their commands, inputs and correctness checks.

A workload is a list of CLI commands run once per round.  Rounds
alternate between two seeds derived from the run's ``--seed``, so every
run checks its outputs on both.  The first round of each seed gets the
full checks; later rounds of the same seed must print the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import runpy
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Callable

import oracles
from oracles import require

SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Result:
    code: int
    out: str
    err: str
    seconds: float


@dataclass
class Command:
    """One CLI call.

    ``entry`` is ``cayleykit.cli`` for a subcommand, or ``cayleykit`` for
    ``python -m cayleykit``.  A contract probe has ``mended`` in place of
    ``check``: it counts as a failed operation until ``mended`` holds.
    """

    label: str
    argv: list[str]
    check: Callable[[Result, dict], None] | None = None
    stdin: Callable[[dict], str] | None = None
    subprocess: bool = False
    entry: str = "cayleykit.cli"
    mended: Callable[[Result], bool] | None = None


class Runner:
    """Runs commands in process (captured stdio) or in a fresh interpreter."""

    def __init__(self, root: str):
        import cayleykit.enumeration

        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # exact_counts is lru_cached; keep the undecorated handle so the
        # cache can be cleared even while the tracer has wrapped the name
        self.clear_exact_counts = cayleykit.enumeration.exact_counts.cache_clear

    def run(self, cmd: Command, stdin_text: str) -> Result:
        if cmd.subprocess:
            return self._run_subprocess(cmd, stdin_text)
        return self._run_in_process(cmd, stdin_text)

    def _run_subprocess(self, cmd: Command, stdin_text: str) -> Result:
        argv = [sys.executable, "-m", cmd.entry, *cmd.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, input=stdin_text, capture_output=True, text=True,
            env=self.env, cwd=self.root, timeout=SUBPROCESS_TIMEOUT_S,
        )
        return Result(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0)

    def _run_in_process(self, cmd: Command, stdin_text: str) -> Result:
        from cayleykit import cli

        self.clear_exact_counts()
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, saved_argv = sys.stdin, sys.argv
        sys.stdin = io.StringIO(stdin_text)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if cmd.entry == "cayleykit.cli":
                    code = cli.main(cmd.argv)
                else:
                    sys.argv = [cmd.entry, *cmd.argv]
                    runpy.run_module(cmd.entry, run_name="__main__", alter_sys=True)
                    code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error is what the interpreter would report
            err.write(traceback.format_exc())
            code = 1
        finally:
            sys.stdin, sys.argv = saved_stdin, saved_argv
        return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def derive_seeds(seed: int) -> tuple[int, int]:
    """The run's two CLI seeds, fixed by --seed."""
    return tuple(random.Random(f"cayleykit-bench/{seed}/{k}").getrandbits(63) for k in (0, 1))


def _json(result: Result) -> dict:
    try:
        return json.loads(result.out)
    except json.JSONDecodeError as exc:
        raise oracles.CheckFailed(f"stdout is not JSON: {exc}") from exc


def _verdict_matches_exit(result: Result, passed: bool) -> None:
    """A statistical gate may fail at its nominal rate; the exit code must say so."""
    require(result.code == (0 if passed else 1), f"exit {result.code} but passed={passed}")


# --------------------------------------------------------------------------- verify_n100

class VerifyN100:
    """verify-cayley --n 100 with --jobs 1 and --jobs 2."""

    name = "verify_n100"
    N = 100
    TRIALS = 20000
    CLASSIFIER_SAMPLE = 2000  # trial indices re-classified by brute force

    def commands(self, seed: int, in_process: bool) -> list[Command]:
        def argv(jobs):
            return ["verify-cayley", "--n", str(self.N), "--trials", str(self.TRIALS),
                    "--seed", str(seed), "--jobs", str(jobs), "--json"]

        return [
            Command("verify_jobs1", argv(1), self._check),
            Command("verify_jobs2", argv(2), self._check_replay),
        ]

    def _check(self, result: Result, results: dict) -> None:
        doc = _json(result)
        n, trials = self.N, self.TRIALS
        require(doc["n"] == n and doc["trials"] == trials, "echoed n/trials")
        k = doc["successes"]
        require(isinstance(k, int) and 0 <= k <= trials, "successes out of range")
        require(doc["point"] == k / trials, "point != successes/trials")
        p = 1.0 / n
        se = math.sqrt(p * (1 - p) / trials)
        dev = abs(k / trials - p)
        # the CLI's own 4-SE gate, recomputed; a 6-SE excursion is a real fault
        require(doc["passed"] == (dev <= 4.0 * se), "CLI verdict disagrees with the 4-SE rule")
        _verdict_matches_exit(result, doc["passed"])
        require(dev <= 6.0 * se, f"estimate {k / trials} is {dev / se:.1f} SE from 1/n")

    def _check_replay(self, result: Result, results: dict) -> None:
        require(result.out == results["verify_jobs1"].out, "--jobs 2 bytes differ from --jobs 1")
        self._check(result, results)

    def seed_checks(self, seed: int) -> None:
        """Brute-force classification of the trials' mappings agrees."""
        from cayleykit.montecarlo import RngStream, count_unique_cyclic, sample_mapping

        n = self.N
        indices = random.Random(seed).sample(range(self.TRIALS), self.CLASSIFIER_SAMPLE)
        tables0 = [[x - 1 for x in sample_mapping(n, RngStream(seed, i)).table] for i in indices]
        wants = oracles.unique_cyclic_bruteforce(tables0)
        for i, want in zip(indices, wants):
            got = count_unique_cyclic(n, seed, i, i + 1)
            require(got == int(want), f"trial {i}: count_unique_cyclic={got}, brute force={want}")
        require(any(wants), "no unique-cyclic trial in the classifier sample")

    def figures(self, times: dict) -> list[tuple[str, float, str]]:
        return [
            ("verify_trials_per_s", self.TRIALS / median(times["verify_jobs1"]), "trials/s"),
            ("verify_jobs2_trials_per_s", self.TRIALS / median(times["verify_jobs2"]), "trials/s"),
        ]


# --------------------------------------------------------------------------- structures

class Structures:
    """Per-trial Python kernels: conditionals, Prufer heights, rejection heights."""

    name = "structures"
    COND_N, COND_TRIALS = 20, 5000
    PRUFER_N, PRUFER_TRIALS = 50, 3000
    REJ_N, REJ_TRIALS = 30, 400
    ATTEMPT_SAMPLE = 200  # rejection trees re-drawn to count attempts

    def commands(self, seed: int, in_process: bool) -> list[Command]:
        s = str(seed)
        return [
            Command("conditionals", ["check-conditionals", "--n", str(self.COND_N), "--trials",
                                     str(self.COND_TRIALS), "--seed", s, "--jobs", "1", "--json"],
                    self._check_conditionals),
            Command("heights_prufer", ["heights", "--n", str(self.PRUFER_N), "--trials",
                                       str(self.PRUFER_TRIALS), "--seed", s, "--method", "prufer",
                                       "--jobs", "1"],
                    lambda r, rs: self._check_heights(r, self.PRUFER_N, self.PRUFER_TRIALS)),
            Command("heights_rejection", ["heights", "--n", str(self.REJ_N), "--trials",
                                          str(self.REJ_TRIALS), "--seed", s, "--method",
                                          "rejection", "--jobs", "1"],
                    lambda r, rs: self._check_heights(r, self.REJ_N, self.REJ_TRIALS)),
        ]

    def _check_conditionals(self, result: Result, results: dict) -> None:
        doc = _json(result)
        n, trials = self.COND_N, self.COND_TRIALS
        require(doc["n"] == n and doc["trials"] == trials, "echoed n/trials")
        round1 = 0
        scores = []
        flagged = False
        for b in doc["bins"]:
            i, t_prev, t_cur = b["round"], b["t_prev"], b["t_cur"]
            obs, succ = b["observations"], b["successes"]
            require(0 <= t_prev < t_cur <= n and 0 <= succ <= obs, f"bin {i},{t_prev},{t_cur}")
            require((i == 1) == (t_prev == 0), "only round 1 starts from T_0 = 0")
            p = Fraction(1, t_cur) if i == 1 else Fraction(t_prev, t_cur)
            require(b["predicted"] == f"{p.numerator}/{p.denominator}", "predicted probability")
            require(b["frequency"] == succ / obs, "frequency != successes/observations")
            round1 += obs if i == 1 else 0
            flagged |= b["flagged"] and obs >= doc["min_obs"]
            if obs * p >= 5 and obs * (1 - p) >= 5:
                pf = float(p)
                scores.append((succ - obs * pf) ** 2 / (obs * pf * (1 - pf)))
        require(round1 == trials, f"round-1 observations sum to {round1}, not {trials}")
        require(doc["passed"] == (not flagged), "passed disagrees with the flagged bins")
        _verdict_matches_exit(result, doc["passed"])
        z = oracles.wilson_hilferty_z(sum(scores), len(scores))
        require(z <= 6.0, f"closure frequencies are off their predictions (z={z:.1f})")

    def _check_heights(self, result: Result, n: int, trials: int) -> None:
        doc = _json(result)
        require(doc["n"] == n and doc["trials"] == trials, "echoed n/trials")
        pmf = oracles.collision_pmf(n)
        for key in ("height_plus_one", "collision"):
            h = doc[key]
            require(h["lo"] == 1 and len(h["counts"]) == n, f"{key} support")
            require(h["total"] == trials and sum(h["counts"]) == trials, f"{key} total")
            z = oracles.chi_square_z(h["counts"], pmf)
            require(z <= 6.0, f"{key} histogram is off the collision law (z={z:.1f})")
        require(doc["exact_law_equal"] is None, "no exact check expected for n > 6")
        require(doc["passed"] == all(c["passed"] for c in doc["checks"]), "passed vs checks")
        _verdict_matches_exit(result, doc["passed"])

    def seed_checks(self, seed: int) -> None:
        from cayleykit.enumeration import exact_collision_pmf
        from cayleykit.heights import sample_rooted_tree_rejection
        from cayleykit.montecarlo import RngStream

        for n in (self.PRUFER_N, self.REJ_N):
            require(list(exact_collision_pmf(n)) == oracles.collision_pmf(n),
                    f"exact_collision_pmf({n}) differs from the falling-factorial law")
        n, k = self.REJ_N, self.ATTEMPT_SAMPLE
        attempts = 0
        for trial in range(k):  # heights draws trial i's tree from stream 2i
            tree, a = sample_rooted_tree_rejection(n, RngStream(seed, 2 * trial))
            oracles.check_rooted_tree(n, tree.root, list(tree.parent))
            attempts += a
        se = math.sqrt(n * (n - 1) / k)  # attempts are geometric with mean n
        require(abs(attempts / k - n) <= 6 * se, f"mean attempts {attempts / k} vs n={n}")

    def figures(self, times: dict) -> list[tuple[str, float, str]]:
        return [
            ("conditionals_trials_per_s", self.COND_TRIALS / median(times["conditionals"]), "trials/s"),
            ("heights_prufer_trials_per_s", self.PRUFER_TRIALS / median(times["heights_prufer"]), "trials/s"),
            ("rejection_trials_per_s", self.REJ_TRIALS / median(times["heights_rejection"]), "trials/s"),
        ]


# --------------------------------------------------------------------------- oracles_cli

class OraclesCli:
    """enumerate --n 7 in process, then short commands in fresh interpreters."""

    name = "oracles_cli"
    SAMPLE_N = 12
    TREE_N = 30

    def commands(self, seed: int, in_process: bool) -> list[Command]:
        sub = not in_process
        s = str(seed)
        return [
            Command("enumerate_n7", ["enumerate", "--n", "7", "--json"], self._check_enumerate),
            *self.short_commands(seed, sub),
            Command("probe_main_module", ["--version"], subprocess=sub, entry="cayleykit",
                    mended=lambda r: r.code == 0 and r.out.startswith("cayleykit ")),
            Command("probe_jobs0", ["check-conditionals", "--n", "5", "--trials", "10",
                                    "--seed", s, "--jobs", "0"], subprocess=sub,
                    mended=lambda r: r.code == 2 and "error:" in r.err
                    and "Traceback" not in r.err),
        ]

    def short_commands(self, seed: int, sub: bool) -> list[Command]:
        s, n = str(seed), self.SAMPLE_N
        rng = random.Random(seed)
        edges = oracles.random_tree_edges(rng, n)
        table = [rng.randint(1, n) for _ in range(n)]

        def tree(method):
            return Command(f"sample_tree_{method}", ["sample-tree", "--n", str(self.TREE_N),
                                                     "--seed", s, "--method", method],
                           self._check_tree, subprocess=sub)

        return [
            Command("sample_function", ["sample-function", "--n", str(n), "--seed", s],
                    self._check_sample_function, subprocess=sub),
            Command("trace", ["trace"], self._check_trace, subprocess=sub,
                    stdin=lambda rs: rs["sample_function"].out),
            tree("rejection"),
            tree("prufer"),
            Command("prufer_encode", ["prufer", "encode"], self._check_prufer_encode,
                    subprocess=sub, stdin=lambda rs: json.dumps({"n": n, "edges": edges})),
            Command("prufer_decode", ["prufer", "decode"],
                    lambda r, rs: self._check_prufer_decode(r, edges), subprocess=sub,
                    stdin=lambda rs: rs["prufer_encode"].out),
            Command("joyal_encode", ["joyal", "encode"], self._check_joyal_encode,
                    subprocess=sub, stdin=lambda rs: json.dumps({"n": n, "table": table})),
            Command("joyal_decode", ["joyal", "decode"],
                    lambda r, rs: self._check_joyal_decode(r, table), subprocess=sub,
                    stdin=lambda rs: rs["joyal_encode"].out),
            Command("enumerate_n5", ["enumerate", "--n", "5", "--json"],
                    self._check_enumerate, subprocess=sub),
        ]

    @staticmethod
    def _ok(result: Result) -> dict:
        require(result.code == 0, f"exit {result.code}: {result.err.strip()[-200:]}")
        return _json(result)

    def _check_enumerate(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        n = doc["n"]
        require(int(doc["total"]) == n**n, "total != n^n")
        require(int(doc["unique_cyclic"]) == n ** (n - 1), "unique_cyclic != n^(n-1)")
        require(int(doc["labelled_trees"]) == n ** (n - 2), "labelled_trees != n^(n-2)")
        got = {int(k): int(v) for k, v in doc["by_cycle_count"].items()}
        require(got == oracles.mappings_by_cycle_count(n), "by_cycle_count != closed form")
        pmf = [Fraction(x) for x in doc["height_pmf"]]
        require(sum(pmf) == 1 and pmf == oracles.collision_pmf(n), "height pmf != collision pmf")

    def _check_sample_function(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        n = self.SAMPLE_N
        require(doc["n"] == n and len(doc["table"]) == n, "mapping shape")
        require(all(1 <= x <= n for x in doc["table"]), "table entry out of range")

    def _check_trace(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        sampled = json.loads(results["sample_function"].out)["table"]
        require(oracles.table_from_trace(doc) == sampled, "trace does not rebuild the table")
        require(doc["T"][-1] == doc["n"] == self.SAMPLE_N, "T_K != n")
        require(doc["K"] == len(doc["rounds"]) == len(doc["T"]), "K != number of rounds")

    def _check_tree(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        oracles.check_rooted_tree(self.TREE_N, doc["root"], doc["parent"])
        if doc["method"] == "rejection":
            require(isinstance(doc["attempts"], int) and doc["attempts"] >= 1, "attempts")

    def _check_prufer_encode(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        n = self.SAMPLE_N
        require(len(doc["seq"]) == n - 2 and all(1 <= x <= n for x in doc["seq"]), "word shape")

    def _check_prufer_decode(self, result: Result, edges) -> None:
        doc = self._ok(result)
        got = sorted([min(e), max(e)] for e in doc["edges"])
        require(got == edges, "prufer decode(encode(tree)) != tree")

    def _check_joyal_encode(self, result: Result, results: dict) -> None:
        doc = self._ok(result)
        oracles.check_rooted_tree(self.SAMPLE_N, doc["tail"], doc["parent"])

    def _check_joyal_decode(self, result: Result, table) -> None:
        doc = self._ok(result)
        require(doc["table"] == table, "joyal decode(encode(mapping)) != mapping")

    def seed_checks(self, seed: int) -> None:
        pass

    def figures(self, times: dict) -> list[tuple[str, float, str]]:
        short = [t for label, ts in times.items()
                 if label != "enumerate_n7" and not label.startswith("probe_") for t in ts]
        return [
            ("enumerate_n7_s", median(times["enumerate_n7"]), "s"),
            ("cli_call_s", median(short), "s"),
        ]


WORKLOADS = {w.name: w for w in (VerifyN100(), Structures(), OraclesCli())}


def tour_commands(seed: int) -> list[Command]:
    """The oracles_cli short commands in process: one pass reaches every layer."""
    return WORKLOADS["oracles_cli"].short_commands(seed, sub=False)
