"""Command line interface: sample, learn, benchmark.

All reports are JSON-first (``"schema": 1``); the benchmark table is
rendered from the same dictionary that lands in the JSON file. Exit
codes: 0 success, 1 usage error, 2 data or parse error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from .bif import BifParseError, load_bif
from .bnet import CptNetwork, sample
from .citest import CiEngine
from .data import Dataset, DatasetError, load_csv, save_csv
from .localgraph import elcs
from .mbdiscovery import emb, iamb
from .metrics import LocalScore, aggregate, score_local

SCHEMA_VERSION = 1
ALGOS = ("elcs", "elcs2", "emb", "iamb")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Knobs shared by the learn and benchmark commands."""

    algo: str = "elcs"
    alpha: float = 0.01
    reliability_k: float = 5.0
    max_cond: Optional[int] = None
    n_structures: bool = True
    seed: int = 1
    sizes: tuple[int, ...] = ()
    runs: int = 1
    targets: tuple[str, ...] = ()
    out: Optional[Path] = None
    workers: int = 1

    def validate(self) -> None:
        if self.algo not in ALGOS:
            raise UsageError(f"unknown algo {self.algo!r}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError("alpha must be in (0, 1)")
        if not (math.isfinite(self.reliability_k) and self.reliability_k >= 0):
            raise UsageError("reliability-k must be finite and nonnegative")
        if self.max_cond is not None and self.max_cond < 0:
            raise UsageError("max-cond must be nonnegative")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.runs < 1:
            raise UsageError("runs must be at least 1")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        if any(s < 1 for s in self.sizes):
            raise UsageError("sizes must be positive")


def _learn_one(data: Dataset, target: int, config: RunConfig
               ) -> tuple[dict, tuple[set[int], set[int], set[int]]]:
    """Run the configured algorithm once on a fresh engine; returns the
    report, which uses variable names, and the (parents, children,
    undecided) index sets it was built from."""
    engine = CiEngine.g2(data, alpha=config.alpha,
                         reliability_k=config.reliability_k,
                         max_cond_size=config.max_cond)
    start = time.perf_counter()
    if config.algo == "iamb":
        out = iamb(engine, target)
    elif config.algo == "emb":
        out = emb(engine, target, n_structures=config.n_structures)
    else:
        out = elcs(engine, target, rank_spouses=config.algo == "elcs2",
                   n_structures=config.n_structures)
    time_ms = (time.perf_counter() - start) * 1000.0
    expanded = config.algo in ("elcs", "elcs2")
    if config.algo == "iamb":  # an unoriented blanket
        sets, spouses = (set(), set(), out), set()
    else:
        blanket = out.target_result if expanded else out
        sets = (out.parents, out.children, out.undecided)
        spouses = blanket.mb - blanket.pc
    names = data.names
    parents, children, undecided = (sorted(names[v] for v in s) for s in sets)
    report = {
        "schema": SCHEMA_VERSION,
        "algo": config.algo,
        "target": names[target],
        "parents": parents,
        "children": children,
        "undirected": undecided,
        "spouses": sorted(names[v] for v in spouses),
        "ci_tests": engine.test_count,
        "time_ms": time_ms,
        "mbs_learned": out.mbs_learned if expanded else 1,
        "conflicts": len(out.graph.conflicts) if expanded else 0,
        "termination": out.termination if expanded else "single-mb",
    }
    return report, sets


def cmd_sample(bif: Path, n: int, seed: int, out: Path) -> int:
    net = load_bif(bif)
    data = sample(net, n, seed)
    save_csv(data, out)
    print(f"wrote {data.n_rows} rows x {data.n_vars} variables to {out} "
          f"(cardinalities in {out.with_suffix('.card')})")
    return 0


def cmd_learn(data_path: Path, target_name: str, config: RunConfig) -> int:
    data = load_csv(data_path)
    target = data.index_of(target_name)
    report, _ = _learn_one(data, target, config)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if config.out is not None:
        config.out.write_text(text + "\n", encoding="utf-8")
    return 0


def _bench_target(data: Dataset, net: CptNetwork, target: int,
                  config: RunConfig) -> LocalScore:
    report, (parents, children, undecided) = _learn_one(data, target, config)
    return score_local(parents, children, undecided, net.dag, target,
                       ci_tests=report["ci_tests"],
                       time_ms=report["time_ms"])


def _score_dict(s: LocalScore) -> dict:
    return {"arr_p": s.arr_p, "arr_r": s.arr_r, "shd": s.shd, "fdr": s.fdr,
            "ci_tests": s.ci_tests, "time_ms": s.time_ms}


def cmd_benchmark(bif: Path, config: RunConfig) -> int:
    net = load_bif(bif)
    names = net.dag.names
    if config.targets:
        try:
            targets = [net.dag.index_of(t) for t in config.targets]
        except KeyError as exc:
            raise DatasetError(exc.args[0]) from None
    else:
        targets = list(range(net.dag.n_vars))
    report = {
        "schema": SCHEMA_VERSION,
        "command": "benchmark",
        "network": bif.stem,
        "n_vars": net.dag.n_vars,
        "n_edges": net.dag.n_edges,
        "algo": config.algo,
        "alpha": config.alpha,
        "reliability_k": config.reliability_k,
        "max_cond": config.max_cond,
        "n_structures": config.n_structures,
        "seed": config.seed,
        "runs": config.runs,
        "targets": [names[t] for t in targets],
        "sizes": [],
    }
    pool = (ProcessPoolExecutor(max_workers=config.workers)
            if config.workers > 1 else contextlib.nullcontext())
    with pool as executor:
        mapper = executor.map if executor is not None else map
        for size in config.sizes:
            size_block = {"size": size, "runs": [], "aggregate": None}
            run_means: list[LocalScore] = []
            for run in range(config.runs):
                run_seed = config.seed + run
                data = sample(net, size, run_seed)
                scores = list(mapper(_bench_target, repeat(data), repeat(net),
                                     targets, repeat(config)))
                mean = {k: v["mean"] for k, v in aggregate(scores).items()}
                run_means.append(LocalScore(**mean))
                size_block["runs"].append({
                    "run": run,
                    "seed": run_seed,
                    "per_target": [
                        {"target": names[t], **_score_dict(s)}
                        for t, s in zip(targets, scores)
                    ],
                    "mean": mean,
                })
            size_block["aggregate"] = aggregate(run_means)
            report["sizes"].append(size_block)
    _print_table(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    if config.out is not None:
        config.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _print_table(report: dict) -> None:
    cols = ["arr_p", "arr_r", "shd", "fdr", "ci_tests", "time_ms"]
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
        p.add_argument("--no-n-structures", action="store_true",
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
    p_bench.add_argument("--workers", type=int, default=1)
    add_engine_flags(p_bench)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (sample, learn, benchmark)")
    if args.command == "sample":
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        if args.seed < 0:
            raise UsageError("--seed must be nonnegative")
        return cmd_sample(args.bif, args.n, args.seed, args.out)

    config = RunConfig(
        algo=args.algo,
        alpha=args.alpha,
        reliability_k=args.reliability_k,
        max_cond=args.max_cond,
        n_structures=not args.no_n_structures,
        out=args.out,
    )
    if args.command == "learn":
        config.validate()
        return cmd_learn(args.data, args.target, config)
    # benchmark
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise UsageError(f"bad --sizes value {args.sizes!r}") from None
    config.sizes = sizes
    config.runs = args.runs
    config.seed = args.seed
    config.targets = tuple(args.target or ())
    config.workers = args.workers
    config.validate()
    return cmd_benchmark(args.bif, config)


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
