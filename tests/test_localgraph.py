import numpy as np
import pytest

from localcausal import (
    CiEngine,
    Dag,
    LocalGraph,
    apply_orientations,
    elcs,
    emb,
    meek_closure,
    true_mb,
)

from oracles import UNDIRECTED, graph_marks, meek_closure_brute, random_dag


def test_marks_and_neighbors():
    g = LocalGraph(4)
    assert not g.adjacent(0, 1) and graph_marks(g) == {}
    g.ensure_undirected(1, 0)
    assert g.undirected == [{1}, {0}, set(), set()]
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    # already-marked pairs are left alone
    g.orient(0, 1)
    g.ensure_undirected(0, 1)
    assert graph_marks(g) == {(0, 1): (0, 1)}
    assert g.children[0] == {1} and g.parents[1] == {0}
    assert not any(g.undirected) and not g.parents[0] and not g.children[1]


def test_orient_never_flips():
    g = LocalGraph(3)
    assert g.orient(0, 1)
    assert g.orient(0, 1)  # same direction is fine
    assert not g.orient(1, 0)
    assert graph_marks(g) == {(0, 1): (0, 1)}
    assert g.conflicts == [(0, 1)]


def test_partition():
    g = LocalGraph(4)
    g.orient(1, 0)
    g.orient(0, 2)
    g.ensure_undirected(0, 3)
    assert g.partition(0) == ({1}, {2}, {3})
    assert g.partition(3) == (set(), set(), {0})


def test_apply_orientations_trace(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    result = emb(CiEngine.oracle(dag), t)
    g = apply_orientations(LocalGraph(dag.n_vars), t, result)
    ix = dag.index_of
    expect = {(ix("E"), t), (ix("J"), t), (t, ix("A")), (t, ix("B")),
              (t, ix("K")), (t, ix("L"))}
    assert set(g.directed_edges()) == expect
    marks = graph_marks(g)
    assert len(marks) == 6  # no undirected leftovers

    again = apply_orientations(g, t, result)
    assert graph_marks(again) == marks
    assert again.conflicts == []


def test_apply_orientations_conflict(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    e = dag.index_of("E")
    result = emb(CiEngine.oracle(dag), t)
    g = LocalGraph(dag.n_vars)
    g.orient(t, e)  # wrong way on purpose
    apply_orientations(g, t, result)
    assert e in g.children[t] and e not in g.parents[t]  # existing arrow wins
    assert g.conflicts == [(min(t, e), max(t, e))]


def meek_fixture(n, directed=(), undirected=(), visited=()):
    g = LocalGraph(n)
    for a, b in undirected:
        g.ensure_undirected(a, b)
    for a, b in directed:
        g.orient(a, b)
    g.visited |= set(visited)
    return g


def test_meek_r1():
    # x -> y, y - t, x and t non-adjacent: y -> t
    g = meek_fixture(3, directed=[(0, 1)], undirected=[(1, 2)],
                     visited=[0, 1, 2])
    meek_closure(g)
    assert 2 in g.children[1]


def test_meek_r2():
    # a -> b -> c with a - c: a -> c
    g = meek_fixture(3, directed=[(0, 1), (1, 2)], undirected=[(0, 2)],
                     visited=[0, 1, 2])
    meek_closure(g)
    assert 2 in g.children[0]


def test_meek_r3_needs_a_visited_witness():
    # a - b, a - c, a - d, c -> b, d -> b, c and d non-adjacent
    base = dict(directed=[(2, 1), (3, 1)],
                undirected=[(0, 1), (0, 2), (0, 3)])
    g = meek_fixture(4, visited=[0, 1], **base)
    meek_closure(g)
    # neither witness visited: an undiscovered c - d edge could still
    # exist, so the rule must hold its fire
    assert 1 in g.undirected[0]
    g = meek_fixture(4, visited=[0, 1, 2], **base)
    meek_closure(g)
    assert 1 in g.children[0]


def test_meek_r4():
    # a - b, a - c, c -> d, d -> b, b and c non-adjacent: a -> b.
    # a - d keeps R1 from demanding the reverse arrow through d -> b,
    # which would otherwise contest the pair and block both.
    g = meek_fixture(4, directed=[(2, 3), (3, 1)],
                     undirected=[(0, 1), (0, 2), (0, 3)],
                     visited=[0, 1, 2, 3])
    meek_closure(g)
    assert g.children[0] == {1} and g.undirected[0] == {2, 3}


def test_meek_undirected_triangle_is_fixed_point():
    g = meek_fixture(3, undirected=[(0, 1), (1, 2), (0, 2)],
                     visited=[0, 1, 2])
    meek_closure(g)
    assert set(graph_marks(g).values()) == {UNDIRECTED}


def test_meek_skips_unvisited_pairs():
    g = meek_fixture(3, directed=[(0, 1)], undirected=[(1, 2)],
                     visited=[0, 1])
    meek_closure(g)
    assert 2 in g.undirected[1]


def test_meek_contested_pair_stays_undirected():
    # R1 wants 1 -> 2 (via 0 -> 1) and 2 -> 1 (via 3 -> 2) at once
    g = meek_fixture(4, directed=[(0, 1), (3, 2)], undirected=[(1, 2)],
                     visited=[0, 1, 2, 3])
    meek_closure(g)
    assert 2 in g.undirected[1]
    assert g.conflicts == [(1, 2)]


def test_meek_contested_pair_logged_once():
    g = meek_fixture(4, directed=[(0, 1), (3, 2)], undirected=[(1, 2)],
                     visited=[0, 1, 2, 3])
    meek_closure(g)
    meek_closure(g)
    assert g.conflicts == [(1, 2)]


def random_pdag(rng):
    """A random partial orientation of a random DAG, everything visited."""
    dag = random_dag(rng)
    g = LocalGraph(dag.n_vars)
    for a, b in dag.edges():
        if rng.random() < 0.5:
            g.orient(a, b)
        else:
            g.ensure_undirected(a, b)
    g.visited = set(range(dag.n_vars))
    return g


def relabeled(g, perm):
    out = LocalGraph(g.n_vars)
    for (a, b), mark in graph_marks(g).items():
        if mark == UNDIRECTED:
            out.ensure_undirected(perm[a], perm[b])
        else:
            out.orient(perm[mark[0]], perm[mark[1]])
    out.visited = {perm[v] for v in g.visited}
    return out


def test_meek_idempotent_and_order_independent():
    rng = np.random.Generator(np.random.PCG64(1234))
    for _ in range(100):
        g = random_pdag(rng)
        before = graph_marks(g)
        perm = list(rng.permutation(g.n_vars))
        twin = relabeled(g, perm)

        meek_closure(g)
        first = graph_marks(g)
        meek_closure(g)
        assert graph_marks(g) == first  # idempotent

        # monotone: nothing is deleted or un-directed
        for key, mark in before.items():
            assert key in first
            if mark != UNDIRECTED:
                assert first[key] == mark

        # scan order is induced by variable indexes; relabeling the
        # variables and mapping back must land on the same fixed point
        meek_closure(twin)
        inverse = {p: i for i, p in enumerate(perm)}
        assert graph_marks(relabeled(twin, inverse)) == first


def test_meek_matches_brute_force_with_some_variables_visited():
    # Like the graph elcs grows: an edge is known only if one of its
    # ends is visited, so unvisited R3 witnesses can look non-adjacent
    # when they are not. Arrows are drawn either way along the DAG's
    # edges, so rules can also contest a pair.
    rng = np.random.Generator(np.random.PCG64(4242))
    contested = 0
    for _ in range(300):
        dag = random_dag(rng, p=0.6)
        g = LocalGraph(dag.n_vars)
        g.visited = {v for v in range(dag.n_vars) if rng.random() < 0.5}
        for a, b in dag.edges():
            if a not in g.visited and b not in g.visited:
                continue
            r = rng.random()
            if r < 0.5:
                g.ensure_undirected(a, b)
            else:
                g.orient(*((a, b) if r < 0.9 else (b, a)))
        want, want_contested = meek_closure_brute(graph_marks(g), g.visited)
        meek_closure(g)
        assert graph_marks(g) == want
        assert set(g.conflicts) == want_contested
        contested += bool(want_contested)
    assert contested > 0


def test_elcs_trace_resolves_in_one_blanket(trace_net):
    dag = trace_net.dag
    t = dag.index_of("T")
    eng = CiEngine.oracle(dag)
    out = elcs(eng, t)
    ix = dag.index_of
    assert out.parents == {ix("E"), ix("J")}
    assert out.children == {ix(v) for v in "ABKL"}
    assert out.undecided == set()
    assert out.termination == "resolved"
    assert out.mbs_learned == 1
    assert out.graph.visited == {t}
    assert out.target_result.target == t


def test_elcs_trace_without_n_structures_matches(trace_net):
    # B needs a second blanket (its own) plus propagation instead of the
    # N-structure shortcut, so more work, same answer
    dag = trace_net.dag
    t = dag.index_of("T")
    e1 = CiEngine.oracle(dag)
    base = elcs(e1, t)
    e2 = CiEngine.oracle(dag)
    out = elcs(e2, t, n_structures=False)
    assert (out.parents, out.children, out.undecided) == \
        (base.parents, base.children, base.undecided)
    assert out.termination == "resolved"
    assert out.mbs_learned == 2
    assert e2.test_count > e1.test_count


def test_elcs_collider_chain(collider_chain_net):
    # F -> Y <- X, Y -> T -> Z: the target's own blanket decides nothing,
    # Y's blanket directs Y -> T, and propagation finishes with T -> Z
    dag = collider_chain_net.dag
    t = dag.index_of("T")
    out = elcs(CiEngine.oracle(dag), t)
    assert out.parents == {dag.index_of("Y")}
    assert out.children == {dag.index_of("Z")}
    assert out.undecided == set()
    assert out.termination == "resolved"
    assert out.graph.visited == {dag.index_of(v) for v in "TYZ"}
    y, z = dag.index_of("Y"), dag.index_of("Z")
    assert y in out.graph.parents[t] and z in out.graph.children[t]


def test_elcs_chain_is_unidentifiable():
    dag = Dag.from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    t = dag.index_of("c")
    out = elcs(CiEngine.oracle(dag), t)
    assert out.parents == set() and out.children == set()
    assert out.undecided == {dag.index_of("b"), dag.index_of("d")}
    assert out.termination == "all-visited"
    assert out.mbs_learned == 4
    assert out.graph.visited == set(range(4))


def test_elcs_duplicate_enqueues_visit_once(monkeypatch):
    import localcausal.localgraph as localgraph

    learned = []

    def counting_emb(engine, x, **kwargs):
        learned.append(x)
        return emb(engine, x, **kwargs)

    monkeypatch.setattr(localgraph, "emb", counting_emb)
    dag = Dag.from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    out = elcs(CiEngine.oracle(dag), 2)
    assert sorted(learned) == sorted(out.graph.visited)
    assert out.mbs_learned == len(learned)


@pytest.mark.parametrize("name", ["B", "C", "E"])
def test_elcs_closes_once_per_blanket(trace_net, monkeypatch, name):
    # a pop of a visited variable changes nothing, so propagation runs
    # once per blanket learned and never on a revisit
    import localcausal.localgraph as localgraph

    calls = []

    def counting_closure(graph):
        calls.append(len(graph.visited))
        return meek_closure(graph)

    monkeypatch.setattr(localgraph, "meek_closure", counting_closure)
    dag = trace_net.dag
    out = elcs(CiEngine.oracle(dag), dag.index_of(name))
    assert out.mbs_learned > 1
    assert calls == list(range(1, out.mbs_learned + 1))


def test_elcs_meek_r3_gate_regression():
    # Dense sink: without the visited-witness gate on R3, the first
    # blanket at b sees c -> b and d -> b with c, d not yet adjacent in
    # the local graph and wrongly directs a -> b (the true edge is
    # b -> a). Every orientation must agree with the generating DAG.
    edges = [("u", "c"), ("u", "d"), ("c", "a"), ("d", "a"), ("b", "a"),
             ("c", "b"), ("d", "b"), ("e", "b"), ("f", "b")]
    dag = Dag.from_edges("ucdabef", edges)
    true_edges = set(dag.edges())
    for t in range(dag.n_vars):
        out = elcs(CiEngine.oracle(dag), t)
        assert all(e in true_edges for e in out.graph.directed_edges())


def test_elcs_orientations_sound_on_random_dags():
    rng = np.random.Generator(np.random.PCG64(90210))
    for _ in range(40):
        dag = random_dag(rng)
        true_edges = set(dag.edges())
        for t in range(dag.n_vars):
            out = elcs(CiEngine.oracle(dag), t)
            assert all(e in true_edges
                       for e in out.graph.directed_edges())
            # the reported partition covers exactly the learned PC
            truth = true_mb(dag, t)
            assert out.parents | out.children | out.undecided == truth.pc


def test_elcs_stats_track_engine():
    dag = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    eng = CiEngine.oracle(dag)
    out = elcs(eng, 1)
    assert eng.test_count > 0
    assert out.termination in {"resolved", "queue-exhausted", "all-visited"}
