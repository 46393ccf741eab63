import math

import numpy as np
import pytest

import localcausal.citest
from localcausal import (
    CiEngine,
    Dag,
    Dataset,
    chi2_sf,
    contingency,
    g2_statistic,
    sample,
)
from localcausal.data import ContingencyTable

from oracles import chi2_sf_numeric, contingency_brute, g2_brute


def table_from(counts) -> ContingencyTable:
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return ContingencyTable(arr, int(arr.sum()))


def test_g2_uniform_table_is_zero():
    stat, dof = g2_statistic(table_from([[25, 25], [25, 25]]))
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert dof == 1


def test_g2_skewed_table_frozen_value():
    # 2 * (2*30*ln(1.5) + 2*10*ln(0.5)) = 20.9299...
    stat, dof = g2_statistic(table_from([[30, 10], [10, 30]]))
    expected = 2 * (2 * 30 * math.log(1.5) + 2 * 10 * math.log(0.5))
    assert stat == pytest.approx(20.92992575, abs=1e-7)
    assert stat == pytest.approx(expected, abs=1e-12)
    assert dof == 1
    brute_stat, brute_dof = g2_brute(table_from([[30, 10], [10, 30]]).counts)
    assert stat == pytest.approx(brute_stat, abs=1e-12)
    assert dof == brute_dof


def test_g2_two_strata_diagonal():
    # In each stratum z = 0 and z = 1: five rows of x = y = 0, five of
    # x = y = 1.
    xy = [0] * 5 + [1] * 5
    cols = np.array([xy * 2, xy * 2, [0] * 10 + [1] * 10], dtype=np.int32)
    data = Dataset(("x", "y", "z"), (2, 2, 2), cols)
    table = contingency(data, 0, 1, (2,))
    brute = contingency_brute(cols, data.cardinalities, 0, 1, (2,))
    assert sorted(brute) == [(0,), (1,)]
    assert table.n == 20
    for s, key in enumerate(sorted(brute)):
        assert brute[key].tolist() == [[5, 0], [0, 5]]
        assert np.array_equal(table.counts[:, :, s], brute[key])
    stat, dof = g2_statistic(table)
    assert stat == pytest.approx(40 * math.log(2), abs=1e-12)
    assert dof == 2


def test_g2_empty_rows_reduce_dof():
    stat, dof = g2_statistic(table_from([[10, 5], [0, 0]]))
    assert dof == 0
    assert stat == pytest.approx(0.0, abs=1e-12)


def test_g2_empty_table():
    stat, dof = g2_statistic(table_from([[0, 0], [0, 0]]))
    assert (stat, dof) == (0.0, 0)


def test_g2_matches_brute_force_on_random_tables():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(100):
        rx, ry, s = rng.integers(2, 5, size=3)
        counts = rng.integers(0, 30, size=(rx, ry, s)).astype(np.int64)
        table = ContingencyTable(counts, int(counts.sum()))
        stat, dof = g2_statistic(table)
        brute_stat, brute_dof = g2_brute(counts)
        assert stat == pytest.approx(brute_stat, abs=1e-9)
        assert dof == brute_dof


def test_chi2_sf_standard_quantiles():
    assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
    assert chi2_sf(6.634896601021213, 1) == pytest.approx(0.01, abs=1e-9)
    assert chi2_sf(0.0, 3) == pytest.approx(1.0, abs=1e-12)


def test_chi2_sf_matches_numerical_integration():
    for dof in (1, 2, 5):
        for x in (0.5, 2.0, 7.5):
            assert chi2_sf(x, dof) == pytest.approx(
                chi2_sf_numeric(x, dof), abs=1e-10
            )


def test_chi2_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-0.5, 1)


def chain_dag():
    # a -> b -> c
    return Dag(("a", "b", "c"),
               (frozenset(), frozenset({0}), frozenset({1})))


def test_engine_requires_exactly_one_backend():
    dag = chain_dag()
    data = Dataset(("a", "b"), (2, 2), np.zeros((2, 4), dtype=np.int32))
    with pytest.raises(ValueError):
        CiEngine(data=None, dag=None)
    with pytest.raises(ValueError):
        CiEngine(data=data, dag=dag)


def test_engine_validates_parameters():
    data = Dataset(("a", "b"), (2, 2), np.zeros((2, 4), dtype=np.int32))
    with pytest.raises(ValueError):
        CiEngine.g2(data, alpha=0.0)
    with pytest.raises(ValueError):
        CiEngine.g2(data, alpha=1.0)
    for k in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            CiEngine.g2(data, reliability_k=k)


def test_oracle_engine_chain():
    eng = CiEngine.oracle(chain_dag())
    assert eng.is_oracle
    assert eng.n_vars == 3
    r = eng.ci_test(0, 2)
    assert not r.independent
    assert r.statistic == 1.0 and r.p_value == 0.0 and r.reliable
    r = eng.ci_test(0, 2, (1,))
    assert r.independent
    assert r.statistic == 0.0 and r.p_value == 1.0
    assert eng.test_count == 2


def test_oracle_assoc_is_binary():
    eng = CiEngine.oracle(chain_dag())
    assert eng.ci_test(0, 2).statistic == 1.0
    assert eng.ci_test(0, 2, (1,)).statistic == 0.0
    assert eng.test_count == 2


def test_engine_counter_is_monotone():
    eng = CiEngine.oracle(chain_dag())
    before = eng.test_count
    eng.ci_test(0, 1)
    eng.ci_test(1, 2)
    eng.ci_test(0, 2)
    assert eng.test_count == before + 3


def test_engine_rejects_bad_indexes():
    eng = CiEngine.oracle(chain_dag())
    with pytest.raises(ValueError):
        eng.ci_test(0, 0)
    with pytest.raises(ValueError):
        eng.ci_test(0, 1, (0,))
    with pytest.raises(ValueError):
        eng.ci_test(0, 5)
    with pytest.raises(ValueError):
        eng.ci_test(0, 1, (7,))


def test_engine_conditioning_budget():
    # the budget caps only the separator search; the engine answers and
    # counts a query of any size
    eng = CiEngine.oracle(chain_dag(), max_cond_size=0)
    eng.ci_test(0, 1)
    assert eng.ci_test(0, 2, (1,)).independent
    assert eng.test_count == 2


def test_engine_deduplicates_conditioning_set():
    eng = CiEngine.oracle(chain_dag(), max_cond_size=1)
    r = eng.ci_test(0, 2, (1, 1))
    assert r.independent


def independent_pair_data(n=2000, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    cols = np.stack([x, y]).astype(np.int32)
    return Dataset(("x", "y"), (2, 2), cols)


def test_data_engine_detects_independence_and_dependence():
    data = independent_pair_data()
    eng = CiEngine.g2(data, alpha=0.01)
    assert eng.ci_test(0, 1).independent

    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.integers(0, 2, size=2000)
    noise = rng.random(2000) < 0.05
    y = np.where(noise, 1 - x, x)
    data2 = Dataset(("x", "y"), (2, 2), np.stack([x, y]).astype(np.int32))
    eng2 = CiEngine.g2(data2, alpha=0.01)
    r = eng2.ci_test(0, 1)
    assert not r.independent
    assert r.reliable
    assert r.statistic > 100


def test_data_engine_assoc_returns_statistic():
    data = independent_pair_data()
    eng = CiEngine.g2(data)
    table = contingency(data, 0, 1)
    stat, _ = g2_statistic(table)
    assert eng.ci_test(0, 1).statistic == pytest.approx(stat, abs=1e-12)


def test_unreliable_test_forced_dependent():
    # 8 rows conditioned on two ternary variables: far below 5 * dof.
    rng = np.random.Generator(np.random.PCG64(9))
    cols = np.stack([
        rng.integers(0, 2, size=8),
        rng.integers(0, 2, size=8),
        rng.integers(0, 3, size=8),
        rng.integers(0, 3, size=8),
    ]).astype(np.int32)
    data = Dataset(("x", "y", "u", "v"), (2, 2, 3, 3), cols)
    eng = CiEngine.g2(data, alpha=0.01, reliability_k=5.0)
    r = eng.ci_test(0, 1, (2, 3))
    if r.dof > 0:
        assert not r.reliable
        assert not r.independent


def test_dof_zero_is_dependent_by_default():
    cols = np.array([[0, 0, 0, 0], [0, 1, 0, 1]], dtype=np.int32)
    data = Dataset(("x", "y"), (2, 2), cols)
    r = CiEngine.g2(data).ci_test(0, 1)
    assert r.dof == 0
    assert not r.independent
    assert not r.reliable
    assert r.p_value == 1.0


def test_dof_zero_with_reliability_disabled_is_independent():
    cols = np.array([[0, 0, 0, 0], [0, 1, 0, 1]], dtype=np.int32)
    data = Dataset(("x", "y"), (2, 2), cols)
    r = CiEngine.g2(data, reliability_k=0.0).ci_test(0, 1)
    assert r.dof == 0
    assert r.independent
    assert r.reliable


def test_engine_is_deterministic():
    data = independent_pair_data()
    eng = CiEngine.g2(data)
    first = eng.ci_test(0, 1)
    second = eng.ci_test(0, 1)
    assert first == second


def store_streams(alarm_net):
    """(engine factory, query stream) for alarm data and the oracle chain;
    each stream repeats queries and swaps x and y."""
    data = sample(alarm_net, 2000, 3)
    rng = np.random.Generator(np.random.PCG64(31))
    queries = []
    for _ in range(60):
        x, y = (int(v) for v in rng.choice(data.n_vars, size=2, replace=False))
        pool = [v for v in range(data.n_vars) if v not in (x, y)]
        z = [int(v) for v in rng.choice(pool, size=int(rng.integers(0, 4)),
                                         replace=False)]
        queries.append((x, y, tuple(z)))
    alarm = queries + [(y, x, tuple(reversed(z))) for x, y, z in queries[::2]]
    alarm += queries[::3]
    chain = [(0, 2, ()), (2, 0, ()), (0, 2, (1,)), (2, 0, (1,)), (0, 1, ()),
             (1, 0, ()), (0, 2, (1, 1)), (0, 2, ())]
    return [(lambda: CiEngine.g2(data), alarm),
            (lambda: CiEngine.oracle(chain_dag()), chain)]


def canonical(x, y, z):
    return (min(x, y), max(x, y), tuple(sorted(set(z))))


def counting(monkeypatch):
    """Count the calls that reach the data and oracle backends."""
    calls = []
    for name in ("contingency", "d_separated"):
        original = getattr(localcausal.citest, name)

        def wrapper(*args, _original=original):
            calls.append(args[1:])
            return _original(*args)

        monkeypatch.setattr(localcausal.citest, name, wrapper)
    return calls


def test_engine_store_answers_like_fresh_engines(alarm_net):
    for make, stream in store_streams(alarm_net):
        engine = make()
        for x, y, z in stream:
            assert engine.ci_test(x, y, z) == make().ci_test(x, y, z)


def test_engine_counts_every_query_including_repeats(alarm_net):
    for make, stream in store_streams(alarm_net):
        engine = make()
        for i, (x, y, z) in enumerate(stream, start=1):
            engine.ci_test(x, y, z)
            assert engine.test_count == i
        assert len({canonical(*q) for q in stream}) < len(stream)


def test_engine_computes_each_canonical_key_once(alarm_net, monkeypatch):
    calls = counting(monkeypatch)
    for make, stream in store_streams(alarm_net):
        calls.clear()
        engine = make()
        for x, y, z in stream:
            engine.ci_test(x, y, z)
        keys = {canonical(*q) for q in stream}
        assert len(calls) == len(keys)
        assert {(x, y, tuple(z)) for x, y, z in calls} == keys


def test_engines_share_no_results(alarm_net, monkeypatch):
    calls = counting(monkeypatch)
    for make, stream in store_streams(alarm_net):
        first, second = make(), make()
        for x, y, z in stream:
            first.ci_test(x, y, z)
        calls.clear()
        for x, y, z in stream:
            second.ci_test(x, y, z)
        assert len(calls) == len({canonical(*q) for q in stream})
        assert second.test_count == len(stream)


def test_engine_is_symmetric_in_x_and_y(alarm_net):
    for make, stream in store_streams(alarm_net):
        for x, y, z in stream:
            assert make().ci_test(x, y, z) == make().ci_test(y, x, z)
