import numpy as np
import pytest

from localcausal import (
    CiEngine,
    Dag,
    d_separated,
    find_separator,
    recog_pc,
    true_mb,
)

from oracles import conditioning_sets, random_dag


def test_conditioning_sets_order(monkeypatch):
    # a separator search asks its pool's subsets in the reference order
    got = conditioning_sets({3, 1, 2}, limit=2)
    assert got == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    dag = Dag.from_edges("abcdef", [("a", "e"), ("e", "f")])  # b, c, d isolated
    asked, miss = [], CiEngine._miss
    monkeypatch.setattr(CiEngine, "_miss",
                        lambda self, x, y, z: asked.append(z) or miss(self, x, y, z))
    eng = CiEngine.oracle(dag, max_cond_size=2)
    assert find_separator(eng, 5, 0, [3, 1, 2, 2]) is None
    assert asked == got and eng.test_count == len(got)


def test_conditioning_sets_limits():
    assert conditioning_sets([1, 2], limit=0) == []
    assert conditioning_sets([], limit=None) == []
    eng = CiEngine.oracle(Dag.from_edges("abc", [("a", "b"), ("b", "c")]))
    assert find_separator(eng, 0, 2, []) is None
    assert eng.test_count == 0


def test_find_separator_chain():
    dag = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    eng = CiEngine.oracle(dag)
    assert find_separator(eng, 0, 2, [1]) == frozenset({1})


def test_find_separator_collider_returns_none():
    dag = Dag.from_edges("abc", [("a", "b"), ("c", "b")])
    eng = CiEngine.oracle(dag)
    # a and c are only dependent GIVEN b, so b never separates them
    assert find_separator(eng, 0, 2, [1]) is None


def test_find_separator_respects_budget():
    dag = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    eng = CiEngine.oracle(dag, max_cond_size=0)
    assert find_separator(eng, 0, 2, [1]) is None
    assert eng.test_count == 0


def test_recog_pc_trace(trace_net):
    dag = trace_net.dag
    names = dag.names
    t = dag.index_of("T")
    eng = CiEngine.oracle(dag)
    pc, sepsets = recog_pc(eng, t)
    # I is a false positive at this stage: only its spouse D can unmask it
    assert {names[i] for i in pc} == {"A", "B", "E", "J", "K", "L", "I"}
    assert sepsets.keys() == {dag.index_of("C"), dag.index_of("D")}
    assert sepsets[dag.index_of("C")] == frozenset({dag.index_of("E")})
    assert sepsets[dag.index_of("D")] == frozenset()


def test_recog_pc_edgeless():
    dag = Dag(("a", "b", "c"), (frozenset(), frozenset(), frozenset()))
    eng = CiEngine.oracle(dag)
    pc, sepsets = recog_pc(eng, 0)
    assert pc == set()
    assert sepsets == {1: frozenset(), 2: frozenset()}


def test_recog_pc_chain_endpoints():
    dag = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    eng = CiEngine.oracle(dag)
    pc, sepsets = recog_pc(eng, 0)
    assert pc == {1}
    assert sepsets[2] == frozenset({1})


def test_recog_pc_deterministic(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    eng1 = CiEngine.oracle(dag)
    eng2 = CiEngine.oracle(dag)
    assert recog_pc(eng1, t) == recog_pc(eng2, t)
    assert eng1.test_count == eng2.test_count


def test_recog_pc_sound_and_witnessed_on_random_dags():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(50):
        dag = random_dag(rng)
        t = int(rng.integers(dag.n_vars))
        eng = CiEngine.oracle(dag)
        pc, sepsets = recog_pc(eng, t)
        truth = true_mb(dag, t)
        # never loses a true member
        assert truth.pc <= pc
        # anything pruned carries a genuine separating set
        for x, z in sepsets.items():
            assert x not in pc
            assert d_separated(dag, t, x, z)
        # members and sepset owners partition the other variables
        assert pc.isdisjoint(sepsets)
        assert pc | set(sepsets) == set(range(dag.n_vars)) - {t}
