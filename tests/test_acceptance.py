"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion with the measured values. Everything here is self-contained:
random suites are regenerated from fixed seeds inside each test, and
reference results come from the independent implementations in
``oracles.py``, never from the code under test.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from localcausal import (
    CiEngine,
    Dag,
    LocalGraph,
    UNDIRECTED,
    aggregate,
    chi2_sf,
    ContingencyTable,
    elcs,
    emb,
    g2_statistic,
    iamb,
    load_bif,
    meek_closure,
    sample,
    score_local,
    true_mb,
)
from localcausal.assets import NAMES, asset_path
from localcausal.cli import main as cli_main

from oracles import chi2_sf_numeric, g2_brute, random_dag


def dag_suite(n_dags=200, seed=20260814):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [random_dag(rng, max_nodes=10, p=0.3) for _ in range(n_dags)]


def names(dag, members):
    return {dag.names[i] for i in members}


def test_criterion_1_oracle_blanket_exactness():
    start = time.monotonic()
    checked = 0
    for dag in dag_suite():
        for t in range(dag.n_vars):
            result = emb(CiEngine.oracle(dag), t)
            truth = true_mb(dag, t)
            assert result.mb == set(truth.mb), (dag.parents, t)
            assert result.pc == set(truth.pc), (dag.parents, t)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS - {checked} blankets exact on 200 DAGs "
          f"in {elapsed:.1f}s")


def test_criterion_2_oracle_orientation_soundness():
    wrong = 0
    checked = 0
    for dag in dag_suite():
        true_edges = set(dag.edges())
        for t in range(dag.n_vars):
            out = elcs(CiEngine.oracle(dag), t)
            for a, b in out.graph.directed_edges():
                checked += 1
                if (a, b) not in true_edges:
                    wrong += 1
    assert wrong == 0
    print(f"\n[criterion 2] PASS - {checked} directed edges, 0 wrong")


def test_criterion_3_trace_walkthrough():
    net = load_bif(asset_path("trace"))
    dag = net.dag
    result = emb(CiEngine.oracle(dag), dag.index_of("T"))
    assert names(dag, result.pc) == {"A", "B", "L", "K", "E", "J"}
    spouse_union = set().union(*result.spouses.values())
    assert names(dag, spouse_union) == {"C", "D"}
    assert names(dag, result.parents) == {"E", "J"}
    assert names(dag, result.children) == {"A", "B", "K", "L"}
    assert result.undecided == set()
    print("\n[criterion 3] PASS - trace blanket PC/SP/P/C/UN all exact")


def test_criterion_4_n_structure_ablation():
    net = load_bif(asset_path("trace"))
    t = net.dag.index_of("T")

    with_n, without_n = [], []
    for seed in range(10):
        data = sample(net, 5000, seed=seed)
        a = CiEngine(data=data, alpha=0.01)
        b = CiEngine(data=data, alpha=0.01)
        elcs(a, t)
        elcs(b, t, n_structures=False)
        with_n.append(a.test_count)
        without_n.append(b.test_count)
    mean_with = sum(with_n) / len(with_n)
    mean_without = sum(without_n) / len(without_n)
    assert mean_with <= mean_without

    oracle_a = elcs(CiEngine.oracle(net.dag), t)
    oracle_b = elcs(CiEngine.oracle(net.dag), t, n_structures=False)
    assert (oracle_a.parents, oracle_a.children, oracle_a.undecided) == \
        (oracle_b.parents, oracle_b.children, oracle_b.undecided)
    print(f"\n[criterion 4] PASS - mean tests {mean_with:.1f} (shortcut) <= "
          f"{mean_without:.1f} (ablated); oracle partitions identical")


def test_criterion_5_alarm_accuracy():
    start = time.monotonic()
    net = load_bif(asset_path("alarm"))
    scores = []
    for seed in range(10):
        data = sample(net, 5000, seed=seed)
        for t in range(net.dag.n_vars):
            out = elcs(CiEngine(data=data, alpha=0.01), t)
            scores.append(score_local(out.parents, out.children,
                                      out.undecided, net.dag, t))
    agg = aggregate(scores)
    elapsed = time.monotonic() - start
    arr_p, arr_r = agg["arr_p"]["mean"], agg["arr_r"]["mean"]
    shd, fdr = agg["shd"]["mean"], agg["fdr"]["mean"]
    assert arr_p >= 0.75, agg
    assert arr_r >= 0.70, agg
    assert shd <= 0.9, agg
    assert fdr <= 0.15, agg
    assert elapsed < 600.0
    print(f"\n[criterion 5] PASS - alarm 10x5000: arrP={arr_p:.3f} "
          f"arrR={arr_r:.3f} shd={shd:.3f} fdr={fdr:.3f} in {elapsed:.0f}s")


def test_criterion_6_g2_and_chi2_against_references():
    rng = np.random.Generator(np.random.PCG64(20260814))
    for _ in range(1000):
        rx, ry, s = rng.integers(2, 5, size=3)
        counts = rng.integers(0, 40, size=(rx, ry, s)).astype(np.int64)
        table = ContingencyTable(counts, int(counts.sum()))
        stat, dof = g2_statistic(table)
        brute_stat, brute_dof = g2_brute(counts)
        assert stat == pytest.approx(brute_stat, abs=1e-9)
        assert dof == brute_dof

    grid = [(x, dof)
            for dof in (1, 2, 3, 4, 5, 6, 8, 10, 15, 25)
            for x in (0.5, 2.0, 5.0, 10.0, 25.0)]
    assert len(grid) == 50
    for x, dof in grid:
        assert chi2_sf(x, dof) == pytest.approx(
            chi2_sf_numeric(x, dof), abs=1e-8)
    print("\n[criterion 6] PASS - 1000 tables within 1e-9, "
          "50 tail points within 1e-8")


def test_criterion_7_meek_closure_properties():
    rng = np.random.Generator(np.random.PCG64(20260814))
    for _ in range(100):
        dag = random_dag(rng)
        g = LocalGraph(dag.n_vars)
        for a, b in dag.edges():
            if rng.random() < 0.5:
                g.orient(a, b)
            else:
                g.ensure_undirected(a, b)
        g.visited = set(range(dag.n_vars))

        perm = list(rng.permutation(dag.n_vars))
        twin = LocalGraph(dag.n_vars)
        for (a, b), mark in g.pairs():
            if mark == UNDIRECTED:
                twin.ensure_undirected(perm[a], perm[b])
            else:
                twin.orient(perm[mark[0]], perm[mark[1]])
        twin.visited = {perm[v] for v in g.visited}

        meek_closure(g)
        first = dict(g.pairs())
        meek_closure(g)
        assert dict(g.pairs()) == first  # idempotent

        meek_closure(twin)
        mapped = {}
        inverse = {p: i for i, p in enumerate(perm)}
        for (a, b), mark in twin.pairs():
            key = tuple(sorted((inverse[a], inverse[b])))
            mapped[key] = mark if mark == UNDIRECTED else \
                (inverse[mark[0]], inverse[mark[1]])
        assert mapped == first  # scan-order independent

    net = load_bif(asset_path("collider_chain"))
    dag = net.dag
    out = elcs(CiEngine.oracle(dag), dag.index_of("T"))
    y, t = dag.index_of("Y"), dag.index_of("T")
    assert (y, t) in out.graph.directed_edges()
    assert out.parents == {y}
    print("\n[criterion 7] PASS - 100 closures idempotent and "
          "order-independent; chain rule directs Y into T")


def test_criterion_8_metrics_hand_examples_and_shd_property():
    net = load_bif(asset_path("trace"))
    dag = net.dag
    t = dag.index_of("T")
    ix = dag.index_of

    s = score_local({ix("E"), ix("J")}, {ix("A"), ix("B"), ix("K"), ix("L")},
                    set(), dag, t)
    assert (s.arr_p, s.arr_r, s.shd, s.fdr) == (1.0, 1.0, 0, 0.0)

    s = score_local({ix("E")}, {ix("A"), ix("B"), ix("K")},
                    {ix("J"), ix("L")}, dag, t)
    assert s.arr_p == pytest.approx(4 / 6)
    assert s.arr_r == pytest.approx(4 / 6)
    assert (s.shd, s.fdr) == (2, 0.0)

    s = score_local({ix("E"), ix("J")},
                    {ix("A"), ix("B"), ix("K"), ix("L"), ix("D")},
                    set(), dag, t)
    assert s.arr_p == pytest.approx(6 / 7)
    assert s.arr_r == pytest.approx(1.0)
    assert s.shd == 1
    assert s.fdr == pytest.approx(1 / 7)

    true_p, true_c = set(dag.parents[t]), set(dag.children[t])
    rng = np.random.Generator(np.random.PCG64(515151))
    others = [v for v in range(dag.n_vars)
              if v != t and v not in true_p | true_c]
    for _ in range(200):
        p, c, u = set(true_p), set(true_c), set()
        for _ in range(int(rng.integers(0, 3))):
            move = rng.integers(0, 4)
            pool = sorted(p | c)
            if move == 0 and pool:  # drop a member
                (p if (v := pool[rng.integers(len(pool))]) in p
                 else c).discard(v)
            elif move == 1 and pool:  # flip a member's direction
                v = pool[rng.integers(len(pool))]
                (p if v in p else c).discard(v)
                (c if v in true_p else p).add(v)
            elif move == 2 and pool:  # blur a member to undecided
                v = pool[rng.integers(len(pool))]
                (p if v in p else c).discard(v)
                u.add(v)
            elif move == 3 and others:  # graft an outsider
                c.add(others[rng.integers(len(others))])
        s = score_local(p, c, u, dag, t)
        perfect = p == true_p and c == true_c and not u
        assert (s.shd == 0) == perfect, (p, c, u)
    print("\n[criterion 8] PASS - three hand examples exact; "
          "shd=0 iff perfect over 200 perturbations")


def test_criterion_9_benchmark_determinism(tmp_path):
    def strip_times(obj):
        if isinstance(obj, dict):
            return {k: strip_times(v) for k, v in obj.items()
                    if k != "time_ms"}
        if isinstance(obj, list):
            return [strip_times(v) for v in obj]
        return obj

    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["benchmark", str(asset_path("trace")),
                         "--sizes", "500,1000", "--runs", "2", "--seed", "7",
                         "--target", "T", "--target", "I",
                         "--out", str(out)])
        assert code == 0
        reports.append(json.loads(out.read_text()))
    assert strip_times(reports[0]) == strip_times(reports[1])
    assert reports[0] != reports[1] or True  # time_ms may coincide
    print("\n[criterion 9] PASS - repeated benchmark JSON identical "
          "apart from time_ms")


def test_budget_every_network_algorithm_and_target():
    # --max-cond caps only the separator search, so every learner runs
    # to the end at every budget, and no recorded separating set is
    # larger than the budget
    start = time.monotonic()
    runs = 0
    for name in NAMES:
        net = load_bif(asset_path(name))
        data = sample(net, 500, seed=1)
        n = data.n_vars
        for k in range(4):
            for algo in ("elcs", "elcs2", "emb", "iamb"):
                if name == "child10" and k == 0 and algo.startswith("elcs"):
                    # with no separators every PC candidate survives, and
                    # the expansion visits all 200 variables: about 600k
                    # tests and 20 s per target
                    continue
                for t in sorted({0, n // 2, n - 1}):
                    engine = CiEngine.g2(data, max_cond_size=k)
                    if algo == "iamb":
                        iamb(engine, t)
                    else:
                        out = (emb(engine, t) if algo == "emb" else
                               elcs(engine, t, rank_spouses=algo == "elcs2")
                               .target_result)
                        assert all(len(z) <= k
                                   for z in out.sepsets.values())
                    runs += 1
    elapsed = time.monotonic() - start
    print(f"\n[budget] PASS - {runs} runs at max_cond 0-3 on "
          f"{len(NAMES)} networks in {elapsed:.1f}s")


def test_smoke_child10_completes_in_time():
    start = time.monotonic()
    net = load_bif(asset_path("child10"))
    data = sample(net, 1000, seed=0)
    for t in range(net.dag.n_vars):
        elcs(CiEngine(data=data, alpha=0.01), t)
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    print(f"\n[smoke] PASS - child10 (200 vars, n=1000) all targets "
          f"in {elapsed:.0f}s")
