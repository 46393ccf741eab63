import numpy as np
import pytest

from localcausal import (
    CiEngine,
    Dag,
    Dataset,
    MbResult,
    distinguish_pc,
    emb,
    iamb,
    recog_pc,
    recog_spouses,
    sample,
    true_mb,
)
from localcausal.mbdiscovery import _remove_false_pc

from oracles import random_dag


def by_name(dag, members):
    return {dag.names[i] for i in members}


def spouse_names(dag, spouses):
    return {dag.names[k]: by_name(dag, v) for k, v in spouses.items()}


@pytest.fixture()
def trace_stages(trace_net):
    dag = trace_net.dag
    eng = CiEngine.oracle(dag)
    t = dag.index_of("T")
    pc, sepsets = recog_pc(eng, t)
    return dag, eng, t, pc, sepsets


def test_recog_spouses_trace(trace_stages):
    dag, eng, t, pc, sepsets = trace_stages
    sp, csp = recog_spouses(eng, t, pc, sepsets)
    assert spouse_names(dag, csp) == {
        "A": {"C"}, "B": {"C"}, "I": {"D"}, "K": {"D"},
    }
    # pruning separates C from B (via {A, T}) but cannot touch the others
    assert spouse_names(dag, sp) == {
        "A": {"C"}, "B": set(), "I": {"D"}, "K": {"D"},
    }


def test_recog_spouses_collider_single_vstructure():
    dag = Dag.from_edges(("X", "Z", "Y"), [("X", "Z"), ("Y", "Z")])
    eng = CiEngine.oracle(dag)
    x = dag.index_of("X")
    pc, sepsets = recog_pc(eng, x)
    sp, csp = recog_spouses(eng, x, pc, sepsets)
    assert spouse_names(dag, sp) == {"Z": {"Y"}}
    assert spouse_names(dag, csp) == {"Z": {"Y"}}


def test_recog_spouses_chain_empty():
    dag = Dag.from_edges(("X", "T", "Y"), [("X", "T"), ("T", "Y")])
    eng = CiEngine.oracle(dag)
    t = dag.index_of("T")
    pc, sepsets = recog_pc(eng, t)
    sp, csp = recog_spouses(eng, t, pc, sepsets)
    assert sp == {}
    assert csp == {}


def test_remove_false_pc_trace(trace_stages):
    dag, eng, t, pc, sepsets = trace_stages
    sp, _ = recog_spouses(eng, t, pc, sepsets)
    pc2, sp2, found = _remove_false_pc(eng, t, pc, sp)
    assert by_name(dag, pc2) == {"A", "B", "E", "J", "K", "L"}
    assert spouse_names(dag, sp2) == {"A": {"C"}, "K": {"D"}}
    # I leaves once its spouse D joins the pool; the set that separated
    # it is returned for the next spouse scan
    assert spouse_names(dag, found) == {"I": {"D", "K"}}


def test_remove_false_pc_keeps_true_members(trace_stages):
    dag, eng, t, pc, sepsets = trace_stages
    sp, _ = recog_spouses(eng, t, pc, sepsets)
    pc2, sp2, _ = _remove_false_pc(eng, t, pc, sp)
    # a second pass over an already clean set is a no-op
    pc3, sp3, found = _remove_false_pc(eng, t, pc2, sp2)
    assert pc3 == pc2
    assert sp3 == sp2
    assert found == {}


def test_remove_false_pc_empty():
    dag = Dag.from_edges("ab", [("a", "b")])
    eng = CiEngine.oracle(dag)
    assert _remove_false_pc(eng, 0, set(), {}) == (set(), {}, {})


def test_distinguish_trace(trace_stages):
    dag, eng, t, pc, sepsets = trace_stages
    sp, csp = recog_spouses(eng, t, pc, sepsets)
    pc2, sp2, _ = _remove_false_pc(eng, t, pc, sp)
    p, c, un = distinguish_pc(eng, t, pc2, sp2, csp)
    assert by_name(dag, p) == {"E", "J"}
    assert by_name(dag, c) == {"A", "B", "K", "L"}
    assert un == set()


def test_distinguish_trace_without_n_structures(trace_stages):
    # B is only identified through the shared candidate spouse C; without
    # that rule it stays undecided while everything else is unchanged
    dag, eng, t, pc, sepsets = trace_stages
    sp, csp = recog_spouses(eng, t, pc, sepsets)
    pc2, sp2, _ = _remove_false_pc(eng, t, pc, sp)
    p, c, un = distinguish_pc(eng, t, pc2, sp2, csp, n_structures=False)
    assert by_name(dag, p) == {"E", "J"}
    assert by_name(dag, c) == {"A", "K", "L"}
    assert by_name(dag, un) == {"B"}


def test_distinguish_collider_both_parents():
    dag = Dag.from_edges(("X", "T", "Y"), [("X", "T"), ("Y", "T")])
    eng = CiEngine.oracle(dag)
    t = dag.index_of("T")
    p, c, un = distinguish_pc(eng, t, {0, 2}, {}, {})
    assert p == {0, 2}
    assert c == set()
    assert un == set()


def test_distinguish_chain_all_undecided():
    dag = Dag.from_edges(("X", "T", "Y"), [("X", "T"), ("T", "Y")])
    eng = CiEngine.oracle(dag)
    t = dag.index_of("T")
    p, c, un = distinguish_pc(eng, t, {0, 2}, {}, {})
    assert (p, c) == (set(), set())
    assert un == {0, 2}


def test_emb_trace(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    eng = CiEngine.oracle(dag)
    res = emb(eng, t)
    assert by_name(dag, res.pc) == {"A", "B", "E", "J", "K", "L"}
    assert by_name(dag, res.mb) == {"A", "B", "C", "D", "E", "J", "K", "L"}
    assert by_name(dag, res.parents) == {"E", "J"}
    assert by_name(dag, res.children) == {"A", "B", "K", "L"}
    assert res.undecided == set()
    assert spouse_names(dag, res.spouses) == {"A": {"C"}, "K": {"D"}}
    res.validate()
    # every recorded separator replays as an independence
    for x, sep in res.sepsets.items():
        assert eng.ci_test(t, x, sep).independent
    # the member evicted for being separable is among the recorded ones
    assert dag.index_of("I") in res.sepsets


def test_emb_deterministic(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    e1, e2 = CiEngine.oracle(dag), CiEngine.oracle(dag)
    r1, r2 = emb(e1, t), emb(e2, t)
    assert (r1.pc, r1.spouses, r1.parents, r1.children, r1.undecided) == \
        (r2.pc, r2.spouses, r2.parents, r2.children, r2.undecided)
    assert e1.test_count == e2.test_count


def test_emb_single_node():
    dag = Dag(("only",), (frozenset(),))
    res = emb(CiEngine.oracle(dag), 0)
    assert res.pc == set() and res.mb == set()
    assert res.parents == set() and res.children == set()
    assert res.undecided == set() and res.spouses == {}


def test_emb_collider_chain(collider_chain_net):
    dag = collider_chain_net.dag
    ry = emb(CiEngine.oracle(dag), dag.index_of("Y"))
    assert by_name(dag, ry.parents) == {"F", "X"}
    assert by_name(dag, ry.children) == {"T"}
    rt = emb(CiEngine.oracle(dag), dag.index_of("T"))
    assert by_name(dag, rt.undecided) == {"Y", "Z"}
    assert rt.parents == set() and rt.children == set()


def test_emb_rediscovers_spouse_evicted_from_pc():
    # 5 -> 2 <- 9 makes 5 a spouse of 9, but no subset of 9's direct
    # neighbors separates them (the separator needs 8), so 5 starts out
    # as a PC candidate of 9 and only the false-member removal evicts
    # it; the follow-up spouse scan must then claim it through 2.
    edges = [(0, 1), (8, 1), (9, 1), (4, 2), (5, 2), (9, 2), (1, 3),
             (6, 3), (6, 4), (6, 5), (8, 5), (8, 6), (9, 6), (2, 7),
             (4, 7), (5, 7)]
    names = tuple(f"v{i}" for i in range(10))
    dag = Dag.from_edges(names, [(f"v{a}", f"v{b}") for a, b in edges])
    for t in range(10):
        truth = true_mb(dag, t)
        res = emb(CiEngine.oracle(dag), t)
        assert res.pc == truth.pc, f"pc mismatch at target {t}"
        assert res.mb == truth.mb, f"mb mismatch at target {t}"
    spouse_of_9 = emb(CiEngine.oracle(dag), 9).spouses
    assert 5 in spouse_of_9[2]


def test_emb_exact_on_random_dags():
    rng = np.random.Generator(np.random.PCG64(424242))
    for _ in range(50):
        dag = random_dag(rng)
        for t in range(dag.n_vars):
            truth = true_mb(dag, t)
            res = emb(CiEngine.oracle(dag), t)
            assert res.mb == truth.mb
            assert res.pc == truth.pc
            # orientation soundness: claimed roles are true roles
            assert res.parents <= set(dag.parents[t])
            assert res.children <= set(dag.children[t])
            res.validate()


def test_emb_no_n_structures_only_moves_children_to_undecided():
    rng = np.random.Generator(np.random.PCG64(2718))
    moved = 0
    for _ in range(60):
        dag = random_dag(rng)
        for t in range(dag.n_vars):
            with_n = emb(CiEngine.oracle(dag), t)
            without = emb(CiEngine.oracle(dag), t, n_structures=False)
            assert without.mb == with_n.mb
            assert without.pc == with_n.pc
            assert without.parents == with_n.parents
            assert without.children <= with_n.children
            assert without.undecided >= with_n.undecided
            moved += len(with_n.children - without.children)
    assert moved > 0  # the rule must actually fire somewhere


def test_mbresult_validate_partition():
    bad = MbResult(target=0, pc={1, 2}, spouses={}, candidate_spouses={},
                   sepsets={}, parents={1}, children=set(), undecided=set())
    with pytest.raises(ValueError, match="cover pc"):
        bad.validate()


def test_mbresult_validate_overlap():
    bad = MbResult(target=0, pc={1}, spouses={}, candidate_spouses={},
                   sepsets={}, parents={1}, children={1}, undecided=set())
    with pytest.raises(ValueError, match="disjoint"):
        bad.validate()


def test_mbresult_validate_target_in_its_blanket():
    for pc, spouses in (({0, 1}, {}), ({1}, {1: {0}})):
        bad = MbResult(target=0, pc=pc, spouses=spouses, candidate_spouses={},
                       sepsets={}, parents=pc, children=set(), undecided=set())
        with pytest.raises(ValueError, match="own blanket"):
            bad.validate()


def test_mbresult_validate_spouse_key_outside_pc():
    bad = MbResult(target=0, pc={1}, spouses={2: {3}}, candidate_spouses={},
                   sepsets={}, parents={1}, children=set(), undecided=set())
    with pytest.raises(ValueError, match="outside pc"):
        bad.validate()


def test_mbresult_validate_spouse_overlapping_pc():
    bad = MbResult(target=0, pc={1, 2}, spouses={1: {2}},
                   candidate_spouses={}, sepsets={}, parents={1, 2},
                   children=set(), undecided=set())
    with pytest.raises(ValueError, match="disjoint from pc"):
        bad.validate()


def test_iamb_trace(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    mb = iamb(CiEngine.oracle(dag), t)
    assert by_name(dag, mb) == {"A", "B", "C", "D", "E", "J", "K", "L"}


def test_iamb_edgeless():
    dag = Dag(("a", "b", "c"), (frozenset(),) * 3)
    assert iamb(CiEngine.oracle(dag), 0) == set()


def test_iamb_chain():
    dag = Dag.from_edges(("X", "T", "Y"), [("X", "T"), ("T", "Y")])
    t = dag.index_of("T")
    assert iamb(CiEngine.oracle(dag), t) == {0, 2}


def test_iamb_matches_true_mb_on_random_dags():
    rng = np.random.Generator(np.random.PCG64(555))
    for _ in range(25):
        dag = random_dag(rng)
        for t in range(dag.n_vars):
            assert iamb(CiEngine.oracle(dag), t) == true_mb(dag, t).mb


def test_iamb_grow_skips_tests_without_evidence(alarm_net):
    # On this sample CATECHOL's conditioning set soon splits 2000 rows
    # into strata of about one row, where most tests have dof 0. Taken
    # as dependent, those tests grow the blanket to all 36 other
    # variables; the true blanket has 5 members.
    data = sample(alarm_net, 2000, seed=1)
    t = data.index_of("CATECHOL")
    assert len(true_mb(alarm_net.dag, t).mb) == 5
    assert len(iamb(CiEngine.g2(data), t)) <= 10


@pytest.mark.parametrize("target, member", [
    ("HYPOVOLEMIA", "STROKEVOLUME"), ("LVFAILURE", "STROKEVOLUME"), ("HR", "CO")])
def test_iamb_grow_breaks_ties_on_the_lower_index(alarm_net, target, member):
    # A copy of a blanket member a > t, appended as the last column, has
    # the same (t, .) table as a at every grow step, so bit-equal G². The
    # lower index wins: a is kept, and the copy, separated by a, never
    # enters.
    data = sample(alarm_net, 2000, seed=1)
    t, a = data.index_of(target), data.index_of(member)
    mb = iamb(CiEngine.g2(data), t)
    assert a > t and a in mb
    copy = Dataset((*data.names, f"{member}_copy"),
                   (*data.cardinalities, data.cardinalities[a]),
                   np.vstack([data.columns, data.columns[a]]))
    assert iamb(CiEngine.g2(copy), t) == mb
