"""cayleykit benchmark.

Run from the repository root; the library is imported from ``src/``,
not from an installed copy:

    python3 perfbench/run.py --workload verify_n100 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload structures --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload oracles_cli --seed 1 --seconds 15 --stability 10

Each run starts the workload in a fresh interpreter (worker.py).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  ``--stability K`` makes K
runs on seeds seed..seed+K-1 and reports each metric's median and the
spread between its quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("verify_n100", "structures", "oracles_cli")
SETUP_SAMPLES = 5  # fresh interpreters timed to READY; setup_s is their median
SPEED_SAMPLES = 3  # speed.reference() calls before each of them
RUN_TIMEOUT_S = 170


class RunFailed(Exception):
    pass


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start a worker; return its time to READY and the rest of its stdout.

    The worker's process group is killed if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "READY":
        raise RunFailed(f"worker exited with status {code} before set-up finished")
    if not setup_only and not rest.strip():
        raise RunFailed(f"worker exited with status {code} without a result")
    return setup, rest


def run_once(args) -> dict:
    """One run: the set-up samples, then the worker's rounds."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups, references = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            references.extend(speed.reference() for _ in range(SPEED_SAMPLES))
            setups.append(start_worker(args, True, deadline)[0])
    _, out = start_worker(args, False, deadline)
    doc = json.loads(out.strip().splitlines()[-1])
    if not args.trace and doc["correct"]:
        setup_s = statistics.median(setups) * speed.scale(references)
        doc["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        doc["figures"]["setup_s"] = (setup_s, "s")
        doc["figures"]["setup_raw_s"] = (statistics.median(setups), "s")
        doc["figures"]["peak_rss_mb"] = (doc["metrics"]["peak_rss_mb"]["value"], "MB")
    return doc


def stability(args) -> int:
    """Run consecutive seeds; report each figure's median and quartile spread."""
    runs = []
    base = args.seed
    for i in range(args.stability):
        args.seed = base + i
        doc = run_once(args)
        runs.append(doc)
        print(json.dumps({"seed": args.seed, **doc["figures"]}), flush=True)
        if not doc["correct"]:
            print(doc.get("error"), file=sys.stderr)
            return 1
    summary = {}
    for name, (_, unit) in runs[0]["figures"].items():
        values = [r["figures"][name][0] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print(f"{name:44s} {med:12.6g} {unit:14s} IQR/median {spread:7.2%}")
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print(f"failed/attempted per run: {shares}")
    print(json.dumps({"runs": len(runs), "failed_share_constant":
                      len({f / a for f, a in shares}) == 1, "figures": summary}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", type=int, default=0, metavar="K",
                        help="make K runs on consecutive seeds and report their spread")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cayleykit", "__init__.py")):
        print(f"error: no cayleykit sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.stability:
            return stability(args)
        doc = run_once(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not doc["correct"]:
        print(doc["error"], file=sys.stderr)
    for name, (value, unit) in doc["figures"].items():
        print(f"{name} = {value:.6g} {unit}")
    if "spans" in doc:
        print(f"spans written to {doc['spans']}")
    print(f"attempted = {doc['attempted']}, failed = {doc['failed']}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
