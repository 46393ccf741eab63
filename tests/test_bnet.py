import pickle

import numpy as np
import pytest

from localcausal import (
    CptNetwork,
    CycleError,
    Dag,
    d_separated,
    load_bif,
    sample,
    topo_order,
    true_mb,
)
from localcausal.assets import asset_path

from oracles import (
    d_separated_moral,
    descendants,
    d_separated_paths,
    random_dag,
    random_dag_fixed_edges,
    random_network,
    sample_reference,
)


def diamond():
    # a -> b, a -> c, b -> d, c -> d
    return Dag.from_edges("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_dag_construction_and_views():
    dag = diamond()
    assert dag.n_vars == 4
    assert dag.n_edges == 4
    assert dag.parents[3] == frozenset({1, 2})
    assert dag.children[0] == frozenset({1, 2})
    assert dag.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert dag.index_of("d") == 3
    with pytest.raises(KeyError):
        dag.index_of("zz")
    assert descendants(dag, 0) == frozenset({1, 2, 3})
    assert descendants(dag, 3) == frozenset()


def test_dag_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        Dag(("a", "a"), (frozenset(), frozenset()))
    with pytest.raises(ValueError, match="align"):
        Dag(("a", "b"), (frozenset(),))
    with pytest.raises(ValueError, match="bad parent set"):
        Dag(("a",), (frozenset({0}),))
    with pytest.raises(ValueError, match="bad parent set"):
        Dag(("a", "b"), (frozenset({5}), frozenset()))


def test_dag_rejects_cycles():
    with pytest.raises(CycleError, match="directed cycle through a, b"):
        Dag(("a", "b"), (frozenset({1}), frozenset({0})))


def test_cycle_error_names_the_stuck_variables_in_index_order():
    # c hangs below the cycle, so it is named too; a pickled error (as a
    # worker process would send it) keeps its message and names
    with pytest.raises(CycleError) as err:
        Dag(("c", "b", "a"), (frozenset({1}), frozenset({2}), frozenset({1})))
    assert str(err.value) == "directed cycle through a, b, c"
    assert err.value.names == ("c", "b", "a")
    again = pickle.loads(pickle.dumps(err.value))
    assert (str(again), again.names) == (str(err.value), err.value.names)


def test_topo_order_is_stable():
    dag = diamond()
    assert topo_order(dag) == [0, 1, 2, 3]
    # among simultaneously ready variables the lowest index goes first
    flat = Dag(("x", "y", "z"), (frozenset(), frozenset(), frozenset()))
    assert topo_order(flat) == [0, 1, 2]


def test_d_separation_chain_fork_collider():
    chain = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    assert not d_separated(chain, 0, 2)
    assert d_separated(chain, 0, 2, (1,))

    fork = Dag.from_edges("abc", [("b", "a"), ("b", "c")])
    assert not d_separated(fork, 0, 2)
    assert d_separated(fork, 0, 2, (1,))

    collider = Dag.from_edges("abc", [("a", "b"), ("c", "b")])
    assert d_separated(collider, 0, 2)
    assert not d_separated(collider, 0, 2, (1,))


def test_d_separation_opens_collider_via_descendant():
    # a -> b <- c, b -> d: conditioning on d opens the collider at b
    dag = Dag.from_edges("abcd", [("a", "b"), ("c", "b"), ("b", "d")])
    assert d_separated(dag, 0, 2)
    assert not d_separated(dag, 0, 2, (3,))


def test_d_separation_rejects_overlap():
    dag = diamond()
    for args in [(0, 0), (0, 1, (0,)), (0, 1, (2, 1)), (1, 1, (2,))]:
        with pytest.raises(ValueError, match="x, y and z must be distinct"):
            d_separated(dag, *args)
    # every index must name a variable: no silent answer, no aliasing of
    # a negative index onto the end of the graph
    chain = Dag.from_edges("abc", [("a", "b"), ("b", "c")])
    for args in [(0, 7), (7, 0), (0, 3), (-3, 2), (2, -1), (0, 2, (-2,)),
                 (0, 2, (3,)), (0, 2, (1, 9))]:
        with pytest.raises(ValueError, match="out of range"):
            d_separated(chain, *args)


def test_d_separation_trace_facts(trace_net):
    dag = trace_net.dag
    ix = dag.index_of
    t, c, d, e, a, j, k, i_, l_ = map(ix, "TCDEAJKIL")
    assert not d_separated(dag, c, t)
    assert d_separated(dag, c, t, (e,))
    assert not d_separated(dag, c, t, (e, a))
    assert d_separated(dag, d, t)
    assert not d_separated(dag, d, t, (k,))
    assert d_separated(dag, e, j)
    assert not d_separated(dag, e, j, (t,))
    assert d_separated(dag, l_, e, (t,))
    assert d_separated(dag, i_, t, (k, d))
    assert not d_separated(dag, i_, t, (k,))


def test_d_separation_matches_path_enumeration():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(200):
        dag = random_dag(rng)
        n = dag.n_vars
        for _ in range(20):
            x, y = rng.choice(n, size=2, replace=False)
            pool = [v for v in range(n) if v not in (x, y)]
            size = int(rng.integers(0, min(3, len(pool)) + 1))
            z = tuple(int(v) for v in rng.choice(pool, size=size, replace=False))
            got = d_separated(dag, int(x), int(y), z)
            want = d_separated_paths(dag, int(x), int(y), z)
            assert got == want


def test_adjacent_pairs_are_connected_given_any_z():
    # an edge answers "connected" without a walk: check it against path
    # enumeration for both directions of every edge, and check that a
    # query is still refused before that answer
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(100):
        dag = random_dag(rng)
        n = dag.n_vars
        for parent, child in dag.edges():
            pool = [v for v in range(n) if v not in (parent, child)]
            for _ in range(3):
                size = int(rng.integers(0, min(4, len(pool)) + 1))
                z = tuple(int(v) for v in rng.choice(pool, size=size, replace=False))
                for x, y in ((parent, child), (child, parent)):
                    assert d_separated(dag, x, y, z) is False
                    assert d_separated_paths(dag, x, y, z) is False
            for args in [(parent, child, (child,)), (child, parent, (child,)),
                         (parent, parent, ()), (child, parent, (*pool[:1], parent))]:
                with pytest.raises(ValueError, match="must be distinct"):
                    d_separated(dag, *args)
            for args in [(parent, child, (n,)), (child, parent, (-1,))]:
                with pytest.raises(ValueError, match="out of range"):
                    d_separated(dag, *args)
            with pytest.raises(TypeError):
                d_separated(dag, parent, child, (0.5,))


def test_moral_graph_reference_matches_path_enumeration():
    rng = np.random.Generator(np.random.PCG64(22))
    answers = []
    for _ in range(100):
        dag = random_dag(rng)
        n = dag.n_vars
        for _ in range(10):
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            pool = [v for v in range(n) if v not in (x, y)]
            size = int(rng.integers(0, min(4, len(pool)) + 1))
            z = tuple(int(v) for v in rng.choice(pool, size=size, replace=False))
            answers.append(d_separated_moral(dag, x, y, z))
            assert answers[-1] == d_separated_paths(dag, x, y, z)
    assert 0.1 < sum(answers) / len(answers) < 0.9


def large_dags():
    """The bundled alarm, insurance and child10 DAGs, then seeded random
    DAGs of 65-150 nodes: bitsets past one 64-bit word."""
    dags = [load_bif(asset_path(name)).dag
            for name in ("alarm", "insurance", "child10")]
    rng = np.random.Generator(np.random.PCG64(8))
    for degree in (2.0, 2.0, 3.0, 3.0, 4.0, 4.0):
        dags.append(random_dag_fixed_edges(rng, int(rng.integers(65, 151)),
                                           degree))
    return dags


def test_d_separation_matches_moral_graph_on_large_dags():
    rng = np.random.Generator(np.random.PCG64(9))
    for dag in large_dags():
        n = dag.n_vars
        answers = []
        for _ in range(1000):
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            # draw z mostly near x and y, where it can block or open trails
            near = (dag.parents[x] | dag.children[x] | dag.parents[y]
                    | dag.children[y] | set(rng.choice(n, size=8))) - {x, y}
            pool = sorted(near)
            size = int(rng.integers(0, min(8, len(pool)) + 1))
            z = tuple(int(v) for v in rng.choice(pool, size=size, replace=False))
            answers.append(d_separated(dag, x, y, z))
            assert answers[-1] == d_separated_moral(dag, x, y, z), (n, x, y, z)
            # NumPy integers index the same variables
            assert d_separated(dag, np.int64(x), np.int64(y),
                               np.array(z, dtype=np.int64)) == answers[-1]
        assert 0 < sum(answers) < len(answers)


def test_d_separation_given_the_empty_set_matches_moral_graph_on_large_dags():
    # z = () is read off the ancestor bitsets: every ordered pair, with
    # bitsets past one 64-bit word on child10 and the random DAGs
    for dag in large_dags():
        answers = [d_separated(dag, x, y, ()) for x in range(dag.n_vars)
                   for y in range(dag.n_vars) if x != y]
        want = [d_separated_moral(dag, x, y, ()) for x in range(dag.n_vars)
                for y in range(dag.n_vars) if x != y]
        assert answers == want
        assert 0 < sum(answers) < len(answers)


def test_d_separation_rejects_non_integer_indexes():
    dag = diamond()
    for args in [(0.0, 3), (0, 3.0), ("0", 3), (0, 3, (1.0,)), (0, 3, (1, "2")),
                 (0, 3, (None,)), (0, None)]:
        with pytest.raises(TypeError):
            d_separated(dag, *args)


def test_true_mb_trace(trace_net):
    dag = trace_net.dag
    names = dag.names
    mb = true_mb(dag, dag.index_of("T"))
    assert {names[i] for i in mb.pc} == {"A", "B", "E", "J", "K", "L"}
    assert {names[i] for i in mb.spouses} == {"C", "D"}
    assert {names[i] for i in mb.mb} == {"A", "B", "C", "D", "E", "J", "K", "L"}


def test_true_mb_collider_chain(collider_chain_net):
    dag = collider_chain_net.dag
    names = dag.names
    mb_t = true_mb(dag, dag.index_of("T"))
    assert {names[i] for i in mb_t.mb} == {"Y", "Z"}
    assert mb_t.spouses == frozenset()
    mb_y = true_mb(dag, dag.index_of("Y"))
    assert {names[i] for i in mb_y.pc} == {"F", "X", "T"}
    assert mb_y.spouses == frozenset()


def test_cpt_network_validation():
    dag = Dag.from_edges("ab", [("a", "b")])
    good_a = np.array([[0.3, 0.7]])
    good_b = np.array([[0.2, 0.8], [0.6, 0.4]])
    CptNetwork(dag, (2, 2), (good_a, good_b))
    with pytest.raises(ValueError, match="shape"):
        CptNetwork(dag, (2, 2), (good_a, good_a))
    with pytest.raises(ValueError, match="sum to 1"):
        CptNetwork(dag, (2, 2), (np.array([[0.5, 0.6]]), good_b))
    with pytest.raises(ValueError, match="cover every"):
        CptNetwork(dag, (2,), (good_a, good_b))


def test_cpt_network_rejects_cardinality_1():
    dag = Dag.from_edges("ab", [("a", "b")])
    with pytest.raises(ValueError, match="at least 2"):
        CptNetwork(dag, (1, 2), (np.array([[1.0]]), np.array([[0.2, 0.8]])))


def test_sample_deterministic(trace_net):
    a = sample(trace_net, 100, seed=42)
    b = sample(trace_net, 100, seed=42)
    c = sample(trace_net, 100, seed=43)
    assert np.array_equal(a.columns, b.columns)
    assert not np.array_equal(a.columns, c.columns)
    assert a.cardinalities == trace_net.cardinalities
    assert a.names == trace_net.names


def test_sample_empty_and_negative(trace_net):
    empty = sample(trace_net, 0, seed=1)
    assert empty.n_rows == 0
    with pytest.raises(ValueError):
        sample(trace_net, -1, seed=1)


def test_sample_matches_cpts_empirically(trace_net):
    data = sample(trace_net, 40000, seed=7)
    dag = trace_net.dag
    c = dag.index_of("C")
    e = dag.index_of("E")
    # root marginal
    p_c1 = data.columns[c].mean()
    assert p_c1 == pytest.approx(0.45, abs=0.01)
    # conditional row: P(E=1 | C=0) = 0.25, P(E=1 | C=1) = 0.75
    mask0 = data.columns[c] == 0
    assert data.columns[e][mask0].mean() == pytest.approx(0.25, abs=0.015)
    assert data.columns[e][~mask0].mean() == pytest.approx(0.75, abs=0.015)


def test_sample_random_networks_round_trip():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(5):
        dag = random_dag(rng)
        net = random_network(rng, dag)
        data = sample(net, 50, seed=2)
        assert data.n_vars == dag.n_vars
        assert data.n_rows == 50
        for v in range(dag.n_vars):
            assert data.columns[v].max() < net.cardinalities[v]


@pytest.mark.parametrize("network", ["trace", "alarm", "child10"])
def test_sample_matches_reference_bit_for_bit(network):
    net = load_bif(asset_path(network))
    for seed in (0, 1, 17):
        for n in (0, 1, 5000):
            data = sample(net, n, seed)
            assert np.array_equal(data.columns, sample_reference(net, n, seed).columns)
            assert data.columns.dtype == np.int32


def test_sample_matches_reference_on_random_networks():
    rng = np.random.Generator(np.random.PCG64(12))
    for i in range(20):
        net = random_network(rng, random_dag(rng, max_nodes=12), max_card=6)
        data = sample(net, 3000, seed=i)
        assert np.array_equal(data.columns, sample_reference(net, 3000, i).columns)
