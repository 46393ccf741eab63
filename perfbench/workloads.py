"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``) and then runs
one *pass*: a fixed amount of work on those inputs. The learn workloads
follow ``localcausal benchmark``'s call sequence — ``load_bif`` →
``sample`` → one fresh ``CiEngine`` plus the learner per target →
``score_local`` — through the module attributes, so the tracer's
wrappers see every call.

Each workload loads a different layer, so an optimisation has one
workload that shows its gain and one where the prediction is "no
change"; ``WHY`` records the reason for each.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from localcausal import (bif, bnet, citest, data, localgraph, mbdiscovery,
                         metrics)
from localcausal.assets import asset_path


@dataclass
class PassResult:
    """Outcome of one pass.

    ``latencies`` holds one entry per item that completed (a target
    learn, or one round trip for ``io-100k``); ``answers`` the
    per-item answers the digest is built from; ``problems`` every
    failed correctness gate.
    """

    seconds: float = 0.0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    latencies: list[float] = field(default_factory=list)
    answers: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    ci_tests: int = 0
    problems: list[str] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        text = json.dumps(self.answers, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fail(result: PassResult, what: str, exc: Exception) -> None:
    result.failures[type(exc).__name__] += 1
    print(f"failed {what}: "
          f"{''.join(traceback.format_exception_only(exc)).strip()}",
          file=sys.stderr, flush=True)


def _check_partition(result: PassResult, key, target: int, out) -> bool:
    p, c, u = out.parents, out.children, out.undecided
    if (p & c) or (p & u) or (c & u) or target in (p | c | u):
        result.problems.append(
            f"{key}: parents/children/undecided overlap or hold the target")
        return False
    return True


def _learn(result: PassResult, key, engine, target: int, algo: str, truth,
           tracer, inputs):
    """One target run; returns the outcome, or None when it failed.

    ``truth`` is the generating DAG; ``inputs`` identifies the dataset
    (or oracle DAG) for the tracer's repeat counts.
    """
    if tracer is not None:
        tracer.begin_run(inputs)
    result.attempted += 1
    start = time.perf_counter()
    try:
        if algo == "emb":
            out = mbdiscovery.emb(engine, target)
        else:
            out = localgraph.elcs(engine, target)
    except Exception as exc:  # count by type and keep going
        _fail(result, str(key), exc)
        return None
    seconds = time.perf_counter() - start
    tests = engine.test_count
    result.latencies.append(seconds)
    result.ci_tests += tests
    result.answers.append([key, sorted(out.parents), sorted(out.children),
                           sorted(out.undecided), tests])
    if _check_partition(result, key, target, out):
        result.scores.append(metrics.score_local(
            out.parents, out.children, out.undecided, truth, target,
            ci_tests=tests, time_ms=1000.0 * seconds))
    return out


class LearnWorkload:
    """``algo`` on every chosen target of ``runs`` sampled datasets.

    A pass is what ``localcausal benchmark NET --sizes ROWS --runs RUNS
    --seed RUNS*seed --algo ALGO`` computes: dataset ``r`` is
    ``sample(net, rows, runs * seed + r)``, so no two seeds share one.
    """

    learns = True

    def __init__(self, name: str, network: str, rows: int, targets,
                 algo: str, runs: int):
        self.name = name
        self.network = network
        self.rows = rows
        self.targets = targets
        self.algo = algo
        self.runs = runs

    def setup(self, seed: int):
        net = bif.load_bif(asset_path(self.network))
        return net, [bnet.sample(net, self.rows, self.runs * seed + r)
                     for r in range(self.runs)]

    def run_pass(self, inputs, tracer=None) -> PassResult:
        net, datasets = inputs
        result = PassResult()
        start = time.perf_counter()
        for r, dataset in enumerate(datasets):
            for t in self.targets:
                engine = citest.CiEngine.g2(dataset)
                _learn(result, f"{r}:{net.dag.names[t]}", engine, t,
                       self.algo, net.dag, tracer, dataset)
        result.seconds = time.perf_counter() - start
        return result


def random_dag(rng: np.random.Generator, n: int, mean_degree: float):
    """Random order and exactly ``round(mean_degree * n / 2)`` edges,
    drawn uniformly from the forward pairs.

    The edge count is fixed because a DAG's cost grows fast with its
    density: an edge count drawn per pair would make the work of a pass
    swing between seeds.
    """
    order = rng.permutation(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    parents = [set() for _ in range(n)]
    for k in rng.choice(len(pairs), size=round(mean_degree * n / 2),
                        replace=False):
        i, j = pairs[k]
        parents[order[j]].add(int(order[i]))
    return bnet.Dag(tuple(f"V{i}" for i in range(n)),
                    tuple(frozenset(s) for s in parents))


class OracleWorkload:
    """``elcs`` on one seeded target of each of many random DAGs,
    d-separation backend, gated on an exact blanket and on zero wrong
    arrows.

    One target per DAG, not every target: the targets of one DAG share
    its cost (a DAG with a large spouse pool blows up most of them), so
    the work per pass is steadier across seeds with more DAGs.
    """

    learns = True

    def __init__(self, name: str, n_dags: int, nodes: int,
                 mean_degree: float):
        self.name = name
        self.n_dags = n_dags
        self.nodes = nodes
        self.mean_degree = mean_degree

    def setup(self, seed: int):
        rng = np.random.Generator(np.random.PCG64(seed))
        return [(random_dag(rng, self.nodes, self.mean_degree),
                 int(rng.integers(self.nodes)))
                for _ in range(self.n_dags)]

    def run_pass(self, cases, tracer=None) -> PassResult:
        result = PassResult()
        start = time.perf_counter()
        for d, (dag, t) in enumerate(cases):
            key = f"{d}:{t}"
            out = _learn(result, key, citest.CiEngine.oracle(dag), t,
                         "elcs", dag, tracer, dag)
            if out is None:
                continue
            truth = bnet.true_mb(dag, t)
            blanket = out.target_result
            if blanket.pc != truth.pc or blanket.mb != truth.mb:
                result.problems.append(f"{key}: blanket not exact")
            wrong = set(out.graph.directed_edges()) - set(dag.edges())
            if wrong:
                result.problems.append(f"{key}: {len(wrong)} wrong arrows")
        result.seconds = time.perf_counter() - start
        return result


class IoWorkload:
    """``sample`` → ``save_csv`` → ``load_csv``, checking the round trip."""

    learns = False

    def __init__(self, name: str, network: str, rows: int, workdir: Path):
        self.name = name
        self.network = network
        self.rows = rows
        self.workdir = workdir

    def setup(self, seed: int):
        return bif.load_bif(asset_path(self.network)), seed

    def run_pass(self, inputs, tracer=None) -> PassResult:
        net, seed = inputs
        path = self.workdir / f"{self.name}.csv"
        result = PassResult(attempted=1)
        clock = time.perf_counter
        start = clock()
        try:
            sampled = bnet.sample(net, self.rows, seed)
            t1 = clock()
            data.save_csv(sampled, path)
            t2 = clock()
            loaded = data.load_csv(path)
            t3 = clock()
        except Exception as exc:  # count by type and keep going
            _fail(result, "round trip", exc)
            result.seconds = clock() - start
            return result
        result.seconds = t3 - start
        result.latencies.append(t3 - start)
        result.phases = {"sample_s": t1 - start, "save_s": t2 - t1,
                         "load_s": t3 - t2,
                         "csv_mb": path.stat().st_size / 1e6}
        same = (loaded.names == sampled.names
                and loaded.cardinalities == sampled.cardinalities
                and np.array_equal(loaded.columns, sampled.columns))
        if not same:
            result.problems.append("CSV round trip changed the dataset")
        digest = hashlib.sha256(loaded.columns.tobytes()).hexdigest()[:16]
        result.answers.append([list(loaded.names), digest])
        return result

    def cleanup(self) -> None:
        for suffix in (".csv", ".card"):
            (self.workdir / f"{self.name}{suffix}").unlink(missing_ok=True)


WHY = {
    "alarm-5k": "counting-bound: contingency is most of the time inside "
                "ci_test; the case for dense counting and a result store "
                "(emb on three datasets, so a pass's work hardly moves "
                "with the seed)",
    "child10-1k": "200 variables, small tables with many strata: "
                  "g2_statistic costs as much as contingency, and spouse "
                  "search scans every non-member",
    "oracle-12": "d-separation backend, data layer idle: engine overhead, "
                 "d_separated and learner bookkeeping; exact-blanket and "
                 "zero-wrong-arrow gates",
    "io-100k": "sample, save_csv and load_csv at 100k rows: the learners "
               "are idle and CSV/BIF I/O dominate",
}


def build(name: str, workdir: Path):
    if name == "alarm-5k":
        return LearnWorkload(name, "alarm", 5000, range(0, 37, 3),
                             algo="emb", runs=3)
    if name == "child10-1k":
        return LearnWorkload(name, "child10", 1000, range(0, 200, 20),
                             algo="emb", runs=6)
    if name == "oracle-12":
        return OracleWorkload(name, n_dags=600, nodes=12, mean_degree=2.0)
    if name == "io-100k":
        return IoWorkload(name, "alarm", 100_000, workdir)
    raise KeyError(name)

