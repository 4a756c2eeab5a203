"""Command-line interface: one entry point over all subsystems.

Every randomized subcommand takes an explicit seed (or the pinned
default) and echoes it in its JSON output, so any run can be replayed
byte for byte.  Exit status: 0 on success, 2 on input errors, and 1 in
three cases: a statistical verification failed (its report is on stdout),
the rejection sampler hit its attempt cap (a broken random source), or
numpy cannot be imported (each an ``error:`` line, nothing on stdout).
Each command imports the layers it uses, so ``trace``, ``prufer``,
``joyal``, ``enumerate`` up to n = 5, ``sample-function`` and
``sample-tree`` start without numpy (the samplers load it only for a
stream longer than 2**16 draws).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__

#: Default master seed for randomized subcommands; pinned so that the
#: documented verification runs are reproducible out of the box.
RELEASE_SEED = 20250801


def _read_json(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _emit(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ValueError(f"cannot write output: {exc}") from exc


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _require_counts(args, *names: str) -> None:
    """Reject a count below 1 before the numeric layers are imported,
    checking names in the order the library would check them."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def cmd_sample_function(args) -> int:
    from .core import RngStream, mapping_to_dot, sample_mapping
    m = sample_mapping(args.n, RngStream(args.seed, args.stream))
    if args.dot:
        _emit(args, mapping_to_dot(m))
        return 0
    doc = m.to_json_dict()
    doc["seed"] = args.seed
    doc["stream"] = args.stream
    _emit_json(args, doc)
    return 0


def cmd_trace(args) -> int:
    from .core import Mapping
    from .exploration import SeededRandomOrder, SmallestLabel, explore, trace_to_dot
    m = Mapping.from_json_dict(_read_json(args.input))
    strategy = SmallestLabel() if args.order_seed is None else SeededRandomOrder(args.order_seed)
    t = explore(m, strategy)
    if args.dot:
        _emit(args, trace_to_dot(t))
    else:
        _emit_json(args, t.to_json_dict())
    return 0


def cmd_verify_cayley(args) -> int:
    _require_counts(args, "n", "trials", "jobs")
    if not 0 < args.z < math.inf:  # wilson_interval's check, made before any trial runs
        raise ValueError(f"z must be finite and > 0, got {args.z}")
    from .montecarlo import estimate_unique_cyclic
    est = estimate_unique_cyclic(
        args.n, args.trials, args.seed, z=args.z, jobs=args.jobs
    )
    expected = 1.0 / args.n
    tolerance = 4.0 * math.sqrt(expected * (1.0 - expected) / args.trials)
    passed = abs(est.point - expected) <= tolerance
    if args.json:
        doc = {
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "expected": expected,
            "tolerance": tolerance,
            "passed": passed,
        }
        doc.update(est.to_json_dict())
        _emit_json(args, doc)
    else:
        _emit(
            args,
            f"n={args.n} trials={args.trials} seed={args.seed}\n"
            f"point={est.point:.6g} expected={expected:.6g} "
            f"wilson=[{est.ci_low:.6g}, {est.ci_high:.6g}] (z={est.z})\n"
            f"|point - expected| = {abs(est.point - expected):.3g} "
            f"tolerance(4 SE) = {tolerance:.3g}\n"
            f"{'PASS' if passed else 'FAIL'}\n",
        )
    return 0 if passed else 1


def cmd_check_conditionals(args) -> int:
    _require_counts(args, "trials", "jobs", "n")
    if args.min_obs < 0:
        raise ValueError(f"min_obs must be >= 0, got {args.min_obs}")
    from .montecarlo import check_round_conditionals
    report = check_round_conditionals(args.n, args.trials, args.seed, jobs=args.jobs)
    flagged = report.flagged_bins(args.min_obs)
    passed = not flagged
    if args.json:
        doc = report.to_json_dict()
        doc["min_obs"] = args.min_obs
        doc["passed"] = passed
        _emit_json(args, doc)
    else:
        lines = [
            f"n={args.n} trials={args.trials} seed={args.seed}",
            f"{'round':>5} {'T_prev':>6} {'T_cur':>6} {'obs':>8} "
            f"{'freq':>10} {'predicted':>10} {'dev(SE)':>8} flag",
        ]
        for b in report.bins:
            lines.append(
                f"{b.round_index:>5} {b.t_prev:>6} {b.t_cur:>6} {b.observations:>8} "
                f"{b.frequency:>10.5f} {float(b.predicted):>10.5f} "
                f"{b.deviation_se:>8.2f} {'*' if b.flagged else ''}"
            )
        lines.append(
            f"{'PASS' if passed else 'FAIL'}: {len(flagged)} flagged bins "
            f"with >= {args.min_obs} observations"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if passed else 1


def cmd_enumerate(args) -> int:
    from .enumeration import exact_counts
    counts = exact_counts(args.n)
    if args.json:
        _emit_json(args, counts.to_json_dict())
    else:
        lines = [
            f"n = {counts.n}",
            f"total mappings   = {counts.total_mappings}",
            f"unique cyclic    = {counts.unique_cyclic}",
            f"labelled trees   = {counts.labelled_trees}",
            "by cycle count   = "
            + ", ".join(f"{k}:{v}" for k, v in sorted(counts.by_cycle_count.items())),
        ]
        if counts.height_pmf is not None:
            lines.append(
                "height pmf       = "
                + ", ".join(
                    f"P(H={h})={p.numerator}/{p.denominator}"
                    for h, p in enumerate(counts.height_pmf)
                )
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_sample_tree(args) -> int:
    from .core import RngStream, tree_to_dot
    from .heights import sample_rooted_tree_prufer, sample_rooted_tree_rejection
    stream = RngStream(args.seed, args.stream)
    attempts = None
    if args.method == "rejection":
        tree, attempts = sample_rooted_tree_rejection(args.n, stream)
    else:
        tree = sample_rooted_tree_prufer(args.n, stream)
    if args.dot:
        _emit(args, tree_to_dot(tree))
        return 0
    doc = tree.to_json_dict()
    doc["seed"] = args.seed
    doc["stream"] = args.stream
    doc["method"] = args.method
    if attempts is not None:
        doc["attempts"] = attempts
    _emit_json(args, doc)
    return 0


def cmd_heights(args) -> int:
    _require_counts(args, "n", "trials", "jobs")
    from .heights import law_equality_report
    report = law_equality_report(
        args.n, args.trials, args.seed, method=args.method, jobs=args.jobs
    )
    for check in report.checks:
        if check.df == 0:
            print(f"warning: {check.label}: all probability mass merged into one bin; df=0", file=sys.stderr)
    _emit_json(args, report.to_json_dict())
    return 0 if report.passed else 1


def cmd_prufer(args) -> int:
    from .bijection import PruferSequence, prufer_decode, prufer_encode
    from .core import _json_field, _json_int
    doc = _read_json(args.input)
    if args.direction == "encode":
        try:
            n = _json_int(_json_field(doc, "n"))
            edges = _json_field(doc, "edges")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid edge-list JSON: {exc}") from exc
        seq = prufer_encode(n, edges)
        _emit_json(args, seq.to_json_dict())
    else:
        seq = PruferSequence.from_json_dict(doc)
        edges = prufer_decode(seq)
        _emit_json(args, {"n": seq.n, "edges": [list(e) for e in edges]})
    return 0


def cmd_joyal(args) -> int:
    from .bijection import DoublyRootedTree, joyal_decode, joyal_encode
    from .core import Mapping
    doc = _read_json(args.input)
    if args.direction == "encode":
        m = Mapping.from_json_dict(doc)
        _emit_json(args, joyal_encode(m).to_json_dict())
    else:
        d = DoublyRootedTree.from_json_dict(doc)
        _emit_json(args, joyal_decode(d).to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleykit",
        description=(
            "Random mappings, exploration traces, tree bijections, exact "
            "enumeration, and Monte Carlo verification around Cayley's formula."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="output path (default: stdout)")

    p = sub.add_parser("sample-function", help="sample a uniform random mapping")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=RELEASE_SEED)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    add_output(p)
    p.set_defaults(func=cmd_sample_function)

    p = sub.add_parser("trace", help="explore a mapping and print the trace")
    p.add_argument("--input", help="mapping JSON path (default: stdin)")
    p.add_argument(
        "--order-seed",
        type=int,
        default=None,
        help="seeded random start order (default: smallest label)",
    )
    p.add_argument("--dot", action="store_true", help="emit DOT with reveal labels")
    add_output(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify-cayley", help="Monte Carlo check that P(unique cyclic)=1/n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=RELEASE_SEED)
    p.add_argument("--z", type=float, default=1.96, help="Wilson interval z")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_verify_cayley)

    p = sub.add_parser(
        "check-conditionals", help="compare per-round closure rates with predictions"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=RELEASE_SEED)
    p.add_argument("--min-obs", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_check_conditionals)

    p = sub.add_parser("enumerate", help="exact exhaustive counts over all mappings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample-tree", help="sample a uniform rooted tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=RELEASE_SEED)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--method", choices=["rejection", "prufer"], default="rejection")
    p.add_argument("--dot", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_sample_tree)

    p = sub.add_parser(
        "heights", help="verify the height / first-collision law identity"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=RELEASE_SEED)
    p.add_argument("--method", choices=["rejection", "prufer"], default="prufer")
    p.add_argument("--jobs", type=int, default=1)
    add_output(p)
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("prufer", help="encode/decode labelled trees as sequences")
    p.add_argument("direction", choices=["encode", "decode"])
    p.add_argument("--input", help="JSON path (default: stdin)")
    add_output(p)
    p.set_defaults(func=cmd_prufer)

    p = sub.add_parser("joyal", help="rewire mappings to doubly-rooted trees and back")
    p.add_argument("direction", choices=["encode", "decode"])
    p.add_argument("--input", help="JSON path (default: stdin)")
    add_output(p)
    p.set_defaults(func=cmd_joyal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: an n too large to draw
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # numpy is a dependency; any other missing module is a bug
        if exc.name != "numpy":
            raise
        print(f"error: this command needs numpy, which cannot be imported: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
