"""Command line interface: sample, learn, benchmark.

Each command reads its settings straight from argparse's namespace,
checked once in :func:`run`. All reports are JSON-first
(``"schema": 1``): ``learn`` builds the one per-target report, and the
benchmark table is rendered from the same dictionary that lands in the
JSON file. Exit codes: 0 success, 1 usage error, 2 data or parse error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence

from .bif import BifParseError, load_bif
from .bnet import sample
from .citest import CiEngine
from .data import Dataset, DatasetError, load_csv, save_csv
from .localgraph import elcs
from .mbdiscovery import emb, iamb
from .metrics import LocalScore, aggregate, score_local

SCHEMA_VERSION = 1
ALGOS = ("elcs", "emb", "iamb")


class UsageError(ValueError):
    pass


def _engine(data: Dataset, args: argparse.Namespace) -> CiEngine:
    return CiEngine.g2(data, alpha=args.alpha, reliability_k=args.reliability_k,
                       max_cond_size=args.max_cond)


def _learn_one(engine: CiEngine, target: int, args: argparse.Namespace):
    """Run ``args.algo`` once on ``engine``; returns the learner's output,
    its (parents, children, undecided) index sets, ``ci_tests`` (the
    queries this run added to the engine's count) and ``time_ms``."""
    count = engine.test_count
    start = time.perf_counter()
    if args.algo == "iamb":
        out = iamb(engine, target)
    elif args.algo == "emb":
        out = emb(engine, target, n_structures=args.n_structures)
    else:
        out = elcs(engine, target, n_structures=args.n_structures)
    time_ms = (time.perf_counter() - start) * 1000.0
    sets = ((set(), set(), out) if args.algo == "iamb"  # unoriented
            else (out.parents, out.children, out.undecided))
    return out, sets, engine.test_count - count, time_ms


def cmd_sample(args: argparse.Namespace) -> int:
    data = sample(load_bif(args.bif), args.n, args.seed)
    save_csv(data, args.out)
    print(f"wrote {data.n_rows} rows x {data.n_vars} variables to {args.out} "
          f"(cardinalities in {args.out.with_suffix('.card')})")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    data = load_csv(args.data)
    target = data.index_of(args.target)
    out, sets, ci_tests, time_ms = _learn_one(_engine(data, args), target, args)
    expanded = args.algo == "elcs"
    blanket = out.target_result if expanded else out
    spouses = set() if args.algo == "iamb" else blanket.mb - blanket.pc
    names = data.names
    parents, children, undecided = (sorted(names[v] for v in s) for s in sets)
    report = {
        "schema": SCHEMA_VERSION,
        "algo": args.algo,
        "target": names[target],
        "parents": parents,
        "children": children,
        "undirected": undecided,
        "spouses": sorted(names[v] for v in spouses),
        "ci_tests": ci_tests,
        "time_ms": time_ms,
        "mbs_learned": out.mbs_learned if expanded else 1,
        "conflicts": len(out.graph.conflicts) if expanded else 0,
        "termination": out.termination if expanded else "single-mb",
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    net = load_bif(args.bif)
    names = net.dag.names
    if args.target:
        try:
            targets = [net.dag.index_of(t) for t in args.target]
        except KeyError as exc:
            raise DatasetError(exc.args[0]) from None
    else:
        targets = list(range(net.dag.n_vars))
    report = {
        "schema": SCHEMA_VERSION,
        "command": "benchmark",
        "network": args.bif.stem,
        "n_vars": net.dag.n_vars,
        "n_edges": net.dag.n_edges,
        "algo": args.algo,
        "alpha": args.alpha,
        "reliability_k": args.reliability_k,
        "max_cond": args.max_cond,
        "n_structures": args.n_structures,
        "seed": args.seed,
        "runs": args.runs,
        "targets": [names[t] for t in targets],
        "sizes": [],
    }
    for size in args.sizes:
        size_block = {"size": size, "runs": [], "aggregate": None}
        run_means: list[LocalScore] = []
        for run in range(args.runs):
            run_seed = args.seed + run
            # one engine per dataset: its store is keyed by variable index
            # only, and a target's ci_tests is the count its own run adds
            engine = _engine(sample(net, size, run_seed), args)
            scores = []
            for t in targets:
                _, sets, ci_tests, time_ms = _learn_one(engine, t, args)
                scores.append(score_local(*sets, net.dag, t, ci_tests=ci_tests,
                                          time_ms=time_ms))
            mean = {k: v["mean"] for k, v in aggregate(scores).items()}
            run_means.append(LocalScore(**mean))
            size_block["runs"].append({
                "run": run,
                "seed": run_seed,
                "per_target": [
                    {"target": names[t], **asdict(s)}
                    for t, s in zip(targets, scores)
                ],
                "mean": mean,
            })
        size_block["aggregate"] = aggregate(run_means)
        report["sizes"].append(size_block)
    _print_table(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _print_table(report: dict) -> None:
    cols = [f.name for f in fields(LocalScore)]
    print(f"network={report['network']} algo={report['algo']} "
          f"alpha={report['alpha']} runs={report['runs']}")
    header = f"{'size':>8} {'run':>5} " + " ".join(f"{c:>10}" for c in cols)
    print(header)
    for block in report["sizes"]:
        for row in block["runs"]:
            vals = " ".join(f"{row['mean'][c]:>10.3f}" for c in cols)
            print(f"{block['size']:>8} {row['run']:>5} {vals}")
        agg = block["aggregate"]
        vals = " ".join(f"{agg[c]['mean']:>10.3f}" for c in cols)
        print(f"{block['size']:>8} {'mean':>5} {vals}")
        vals = " ".join(f"{agg[c]['std']:>10.3f}" for c in cols)
        print(f"{block['size']:>8} {'std':>5} {vals}")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="localcausal",
                             description="Local causal structure learning "
                                         "around a target variable.")
    sub = parser.add_subparsers(dest="command")

    def add_engine_flags(p):
        p.add_argument("--alpha", type=float, default=0.01,
                       help="significance level for the G2 test")
        p.add_argument("--reliability-k", type=float, default=5.0,
                       help="rows-per-dof threshold below which a test is "
                            "unreliable (0 disables)")
        p.add_argument("--max-cond", type=int, default=None,
                       help="largest separating set the learners search "
                            "(does not affect iamb)")
        p.add_argument("--algo", choices=ALGOS, default="elcs")
        p.add_argument("--no-n-structures", dest="n_structures",
                       action="store_false",
                       help="disable the N-structure child rule")

    p_sample = sub.add_parser("sample", help="draw rows from a BIF network")
    p_sample.add_argument("bif", type=Path)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=1)
    p_sample.add_argument("--out", type=Path, required=True)

    p_learn = sub.add_parser("learn",
                             help="learn local structure around a target")
    p_learn.add_argument("data", type=Path)
    p_learn.add_argument("--target", required=True)
    p_learn.add_argument("--out", type=Path, default=None)
    add_engine_flags(p_learn)

    p_bench = sub.add_parser("benchmark",
                             help="sample-and-learn sweeps with scoring")
    p_bench.add_argument("bif", type=Path)
    p_bench.add_argument("--sizes", required=True,
                         help="comma separated sample sizes, e.g. 500,5000")
    p_bench.add_argument("--runs", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--target", action="append", default=None,
                         help="score only these targets (repeatable); "
                              "default is every variable")
    p_bench.add_argument("--out", type=Path, default=None)
    add_engine_flags(p_bench)
    return parser


def run(argv: Sequence[str]) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (sample, learn, benchmark)")
    if args.command == "sample":
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        if args.seed < 0:
            raise UsageError("--seed must be nonnegative")
        return cmd_sample(args)
    if args.command == "benchmark":
        try:
            args.sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            raise UsageError(f"bad --sizes value {args.sizes!r}") from None
    if not 0.0 < args.alpha < 1.0:
        raise UsageError("alpha must be in (0, 1)")
    if not (math.isfinite(args.reliability_k) and args.reliability_k >= 0):
        raise UsageError("reliability-k must be finite and nonnegative")
    if args.max_cond is not None and args.max_cond < 0:
        raise UsageError("max-cond must be nonnegative")
    if args.command == "learn":
        return cmd_learn(args)
    if args.seed < 0:
        raise UsageError("seed must be nonnegative")
    if args.runs < 1:
        raise UsageError("runs must be at least 1")
    if any(s < 1 for s in args.sizes):
        raise UsageError("sizes must be positive")
    for name, values in (("size", args.sizes), ("target", args.target or [])):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise UsageError(f"{name} {v!r} is given more than once")
    return cmd_benchmark(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, BifParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is an invariant failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
