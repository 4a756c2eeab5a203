"""One benchmark run of one workload, in a fresh interpreter.

Prints ``READY`` once set-up (imports and inputs) is done, then runs
rounds and prints one JSON object as its last line.  run.py starts it;
run it directly only to debug:

    PYTHONPATH=src python3 perfbench/worker.py --workload structures --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import cayleykit
from cayleykit import cli  # noqa: F401  (the entry point every round calls)

import oracles
import speed
from workloads import WORKLOADS, Runner, derive_seeds, median, tour_commands

MIN_ROUNDS = 2  # one per seed


def run_commands(runner: Runner, commands, tracer=None, before=None) -> dict:
    """Run commands in order, each under its own trace id when traced."""
    results = {}
    if tracer:
        tracer.install(cayleykit)
    try:
        for cmd in commands:
            if before:
                before()
            if tracer:
                tracer.new_trace()
            results[cmd.label] = runner.run(cmd, cmd.stdin(results) if cmd.stdin else "")
    finally:
        if tracer:
            tracer.uninstall()
    return results


class Run:
    """Rounds of one workload, their timings, failures and checks."""

    def __init__(self, workload, seed: int, root: str, in_process: bool):
        self.workload = workload
        self.seeds = derive_seeds(seed)
        self.commands = {s: workload.commands(s, in_process) for s in self.seeds}
        self.runner = Runner(root)
        self.first_out: dict[int, dict[str, str]] = {}
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.reference_s: list[float] = []

    def round(self, index: int, tracer=None) -> float:
        """Run one round; return the summed wall time of its commands."""
        seed = self.seeds[index % len(self.seeds)]
        results = run_commands(self.runner, self.commands[seed], tracer,
                               before=lambda: self.reference_s.append(speed.reference()))
        self.check(seed, self.commands[seed], results)
        for label, r in results.items():
            self.times.setdefault(label, []).append(r.seconds)
        return sum(r.seconds for r in results.values())

    def check(self, seed: int, commands, results) -> None:
        first = self.first_out.get(seed)
        for cmd in commands:
            r = results[cmd.label]
            self.attempted += 1
            if cmd.mended is not None:
                self.failed += not cmd.mended(r)
            elif first is None:
                cmd.check(r, results)
            else:
                oracles.require(r.out == first[cmd.label], f"{cmd.label}: output changed between rounds")
        if first is None:
            self.workload.seed_checks(seed)
            self.first_out[seed] = {label: r.out for label, r in results.items()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def untraced(run: Run, seconds: float) -> dict:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run.round(len(rounds)))
    scale = speed.scale(run.reference_s)
    round_s = median(rounds) * scale
    figures = {"round_s": (round_s, "s")}
    scaled = {label: [t * scale for t in ts] for label, ts in run.times.items()}
    figures.update((name, (value, unit)) for name, value, unit in run.workload.figures(scaled))
    figures["round_raw_s"] = (median(rounds), "s")
    figures["reference_ms"] = (median(run.reference_s) * 1e3, "ms")
    figures["rounds"] = (len(rounds), "count")
    metrics = {"round_s": {"value": round_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    return {"metrics": metrics, "figures": figures}


def traced(run: Run, seed: int, seconds: float, root: str) -> dict:
    import probes
    from tracer import Tracer

    layer_metrics = probes.run_all(seed, run.runner)
    tracer = Tracer()
    # each traced round starts with the short commands in process, so that
    # every layer has spans whatever the workload
    tour = tour_commands(run.seeds[0])
    plain, with_spans = [], []
    start = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        pair = len(plain)
        plain.append(run.round(pair))
        results = run_commands(run.runner, tour, tracer)
        for cmd in tour:
            cmd.check(results[cmd.label], results)
        with_spans.append(run.round(pair, tracer))
    rounds = len(with_spans)
    for layer, (self_s, calls) in tracer.layer_totals().items():
        layer_metrics[f"{layer}.self_ms"] = (self_s / rounds * 1e3, "ms/round")
        layer_metrics[f"{layer}.calls"] = (calls / rounds, "calls/round")
    # each traced round is compared with the untraced round just before it,
    # on the same seed, so that the host's drift between pairs cancels
    overhead = median([t / p for t, p in zip(with_spans, plain)]) - 1.0
    layer_metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    layer_metrics["trace.spans"] = (len(tracer.spans) / rounds, "spans/round")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{run.workload.name}.jsonl.gz")
    tracer.write(spans_path)
    layer_metrics["rounds"] = (rounds, "count")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()
               if name != "rounds"}
    return {"metrics": metrics, "figures": layer_metrics, "spans": spans_path}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.dirname(os.path.abspath(cayleykit.__file__)).startswith(src + os.sep):
        print(f"cayleykit was imported from {cayleykit.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # in a traced run every command runs in process, so the tracer sees it
    run = Run(workload, args.seed, root, in_process=bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    try:
        if args.trace:
            result = traced(run, args.seed, args.seconds, root)
        else:
            result = untraced(run, args.seconds)
        correct = True
    except oracles.CheckFailed as exc:
        result = {"metrics": {}, "figures": {}, "error": f"check failed: {exc}"}
        correct = False
    result.update(correct=correct, attempted=run.attempted, failed=run.failed)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
