import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

import localcausal.citest
from localcausal import (
    CiEngine,
    Dag,
    Dataset,
    DatasetError,
    chi2_sf,
    contingency,
    elcs,
    emb,
    find_separator,
    g2_statistic,
    load_bif,
    sample,
)
from localcausal.assets import asset_path
from localcausal.data import ContingencyTable

from oracles import (chi2_sf_numeric, conditioning_sets, contingency_brute,
                     g2_brute, random_dag_fixed_edges)


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


def pinned_g2_tables():
    """Seeded tables for the G² bit pins: sparse ones, one stratum or
    many, an empty row and empty columns, and one row-fill-shaped
    (G, rx, ry, 1) stack with an empty row and an empty column."""
    rng = np.random.Generator(np.random.PCG64(2026))
    tables = []
    for shape in [(2, 2, 1), (3, 4, 1), (2, 3, 5), (4, 2, 7), (5, 5, 3),
                  (3, 3, 40), (4, 4, 100)]:
        keep = rng.random(shape) < 0.7
        tables.append(rng.integers(0, 60, size=shape) * keep)
    counts = rng.integers(1, 60, size=(4, 3, 6))
    counts[2] = 0           # an empty row in every stratum
    counts[:, 1, ::2] = 0   # an empty column in every other stratum
    tables.append(counts)
    stack = rng.integers(0, 60, size=(5, 3, 2, 1))
    stack[1, 0] = 0
    stack[3, :, 1] = 0
    return tables, stack


# float.hex of each statistic and its dof, recorded at 164dbf8, where _g2
# summed with ndarray.sum: a rewrite of _g2 must keep every bit
G2_PINS = [
    ("0x1.566d3e5fc8f30p+1", 1), ("0x1.740c2cea5b5f2p+6", 6),
    ("0x1.2d32a97726008p+8", 9), ("0x1.a800ae7131065p+8", 19),
    ("0x1.0a6f08b19b886p+10", 48), ("0x1.f5d515dbd1366p+11", 141),
    ("0x1.4b56b754df080p+14", 877), ("0x1.4fe9fd01cbdf4p+8", 18),
]
G2_STACK_PINS = [
    ("0x1.2422887fc73ecp+6", 2), ("0x1.075771b9c9c94p+5", 1),
    ("0x1.f127125a7b544p+0", 2), ("0x0.0p+0", 0), ("0x1.076dee2f94319p+3", 2),
]


def test_g2_bits_are_pinned():
    tables, stack = pinned_g2_tables()
    got = [g2_statistic(ContingencyTable(c, int(c.sum()))) for c in tables]
    assert [(s.hex(), d) for s, d in got] == G2_PINS
    for layout in (stack, stack.transpose(0, 2, 1, 3)):  # as a row fill lays it
        stat, dof = localcausal.citest._g2(layout)
        got = list(zip(map(float.hex, stat.tolist()), dof.tolist()))
        assert got == [(s.hex(), d) for s, d in (
            g2_statistic(ContingencyTable(t, int(t.sum()))) for t in layout)]
        if layout is stack:
            assert got == G2_STACK_PINS


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


def chi2_sf_points():
    """(x, dof) from 1e-8 through x = dof to far tails, at dof 1-60, 100,
    440, 1000 and 5000: the closed forms, the series, the continued
    fraction and the edges between them."""
    points = []
    for dof in [*range(1, 61), 100, 440, 1000, 5000]:
        sd = math.sqrt(2 * dof)
        xs = [1e-8, 1e-3, 0.5, 2.0, 1399.0, 1401.0, 2000.0, 5000.0]
        xs += [dof * f for f in (0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 5.0)]
        xs += [dof + k * sd for k in (-3, -1, 1, 3, 10, 30)]
        points += [(x, dof) for x in xs if x > 0]
    return points


def test_chi2_sf_matches_mpmath_at_every_dof_and_tail():
    for x, dof in chi2_sf_points():
        with mpmath.workdps(40):
            true = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2,
                                   regularized=True)
        got = chi2_sf(x, dof)
        if true >= mpmath.mpf("1e-300"):
            assert abs(got - true) <= 1e-12 * true, (x, dof, got, float(true))
        else:   # e.g. dof 2, x = 5000: underflow to 0.0 is allowed
            assert abs(got - true) <= 1e-300, (x, dof, got)


def test_chi2_sf_edge_arguments():
    for dof in (1, 2, 31, 5000):
        assert chi2_sf(math.inf, dof) == 0.0
        assert chi2_sf(0.0, dof) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(math.nan, dof)
    assert chi2_sf(3.5, np.int64(4)) == chi2_sf(3.5, 4)
    for dof in (2.0, 2.5, np.float64(3.0), "3", None):
        with pytest.raises(TypeError):
            chi2_sf(3.5, dof)


def test_chi2_sf_agrees_with_scipy_on_an_elcs_sweep(alarm_net):
    special = pytest.importorskip("scipy.special")
    engine = CiEngine.g2(sample(alarm_net, 2000, 1))
    for target in range(alarm_net.dag.n_vars):
        elcs(engine, target)
    tested = [r for r in engine._results.values() if r.dof > 0]
    assert len(tested) > 1000
    for r in tested:
        ref = float(special.gammaincc(r.dof / 2, r.statistic / 2))
        assert (r.p_value > engine.alpha) == (ref > engine.alpha), r
        assert abs(r.p_value - ref) <= 1e-11 * ref + 1e-300, (r, ref)


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
    # the cap is an integer, NumPy's included, but not a bool
    for size in (-1, 1.5, "2", True, False, np.bool_(True), np.int64(-1)):
        with pytest.raises(ValueError):
            CiEngine.g2(data, max_cond_size=size)
        with pytest.raises(ValueError):
            CiEngine.oracle(chain_dag(), max_cond_size=size)
    for size in (None, 0, 3, np.int64(2), np.int32(0)):
        for engine in (CiEngine.g2(data, max_cond_size=size),
                       CiEngine.oracle(chain_dag(), max_cond_size=size)):
            assert engine.max_cond_size == size
            assert size is None or type(engine.max_cond_size) is int


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


def test_oracle_results_are_two_pinned_values():
    # both verdicts on the chain a -> b -> c and on the collider
    # a -> b <- c whose descendant d opens it
    collider = Dag.from_edges("abcd", [("a", "b"), ("c", "b"), ("b", "d")])
    pinned = {False: (False, 1.0, 0.0, 0, True), True: (True, 0.0, 1.0, 0, True)}
    for dag, queries in [(chain_dag(), [((0, 2, ()), False), ((0, 2, (1,)), True)]),
                         (collider, [((0, 2, ()), True), ((0, 2, (3,)), False)])]:
        eng = CiEngine.oracle(dag)
        for (x, y, z), separated in queries:
            r = eng.ci_test(x, y, z)
            fields = tuple(getattr(r, f.name) for f in dataclasses.fields(r))
            assert fields == pinned[separated]
            assert [type(v) for v in fields] == [bool, float, float, int, bool]
            assert eng.ci_test(y, x, z) is r
            assert eng.ci_test(x, y, tuple(reversed(z))) is r
            assert eng.ci_test(x, y, z) is r


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


def engine_makers(alarm_net, cap=None):
    """Fresh-engine factories over alarm, with ``max_cond_size=cap``:
    data, then the oracle."""
    data = sample(alarm_net, 500, 2)
    return [lambda: CiEngine.g2(data, max_cond_size=cap),
            lambda: CiEngine.oracle(alarm_net.dag, max_cond_size=cap)]


RANGE, OVERLAP = "variable index out of range", "x, y and z must be distinct"
BAD_QUERIES = [
    ((3, 3, ()), OVERLAP), ((3, 3, (5,)), OVERLAP), ((3, 5, (3,)), OVERLAP),
    ((3, 5, (5,)), OVERLAP), ((5, 3, (1, 5, 8)), OVERLAP),
    ((3, 5, [8, 3, 1]), OVERLAP), ((37, 5, ()), RANGE), ((5, 37, ()), RANGE),
    ((-1, 5, ()), RANGE), ((5, -1, (1,)), RANGE), ((3, 5, (37,)), RANGE),
    ((3, 5, (-1,)), RANGE), ((3, 5, (1, 40)), RANGE), ((3, 5, (-2, 8)), RANGE),
    ((3, 5, {8, 99}), RANGE),
]


# indexes that operator.index refuses, next to keys a warm store holds
NOT_INDEXES = [
    (1.0, 3, ()), (1, 3.0, ()), (1.0, 3, (5,)), (1, 3, (5.0,)),
    (1, 3, (5, 8.0)), (1, 3, [8, 5.0]), (1, 3, {5.0}), (np.float64(1), 3, ()),
    (1, 3, (np.float64(5),)), ("1", 3, ()), (1, 3, ("5",)), (None, 3, ()),
]


def test_engine_rejects_bad_indexes(alarm_net):
    # each query is checked at its miss, by the engine on data and by
    # d_separated under the oracle: either way a plain ValueError, never
    # a DatasetError (exit 2, "bad data") for what is a caller's bug;
    # and a store that holds the valid keys around a bad query still
    # does not answer it. An index that operator.index refuses (1.0 ==
    # 1, and hashes alike) raises TypeError, at a hit as at a miss. A
    # separator search checks x, y and its pool before it asks anything,
    # so one that would ask nothing (an empty pool, or a cap of 0) still
    # refuses a bad one
    near = [0, 1, 3, 5, 8, 36]
    valid = [(x, y, z) for x in near for y in near if x != y
             for k in range(3) for z in itertools.combinations(
                 [v for v in near if v not in (x, y)], k)]
    searches = BAD_QUERIES + [((3, 3, []), OVERLAP), ((1, 99, []), RANGE),
                              ((-1, 2, []), RANGE), ((1, 99, [5]), RANGE)]
    for cap in (None, 0):
        for make in engine_makers(alarm_net, cap):
            fresh, warm = make(), make()
            for x, y, z in valid:
                warm.ci_test(x, y, z)
            for engine in (fresh, warm):
                count = engine.test_count
                for (x, y, z), message in BAD_QUERIES:
                    with pytest.raises(ValueError, match=message) as info:
                        engine.ci_test(x, y, z)
                    assert not isinstance(info.value, DatasetError), (x, y, z)
                for (x, y, pool), message in searches:
                    with pytest.raises(ValueError, match=message) as info:
                        find_separator(engine, x, y, pool)
                    assert not isinstance(info.value, DatasetError), (x, y, pool)
                for x, y, z in NOT_INDEXES:
                    with pytest.raises(TypeError):
                        engine.ci_test(x, y, z)
                    with pytest.raises(TypeError):
                        find_separator(engine, x, y, z or [5])
                assert engine.test_count == count


def test_refused_separator_search_asks_nothing(alarm_net):
    # a search whose x, y or pool is bad raises before its first query,
    # wherever the bad member sits in the pool and whatever the cap: the
    # counter and the store are as they were, on a fresh or a warm engine
    bad = [((1, 3, [5, 8, 3]), OVERLAP), ((1, 3, [1, 5, 8]), OVERLAP),
           ((1, 3, [5, 8, 37]), RANGE), ((1, 3, [-1, 5, 8]), RANGE),
           ((1, 3, {8, 5, 99}), RANGE), ((1, 37, [5]), RANGE),
           ((-1, 3, [5]), RANGE), ((3, 3, [5]), OVERLAP)]
    for cap in (None, 1):
        for make in engine_makers(alarm_net, cap):
            for warm in (False, True):
                engine = make()
                if warm:
                    for z in [(5,), (8,), (5, 8)]:
                        engine.ci_test(1, 3, z)
                count, store = engine.test_count, list(engine._results.items())
                for (x, y, pool), message in bad:
                    with pytest.raises(ValueError, match=message):
                        engine.first_independent(x, y, pool)
                    assert engine.test_count == count, (x, y, pool)
                    assert list(engine._results.items()) == store, (x, y, pool)


def test_engine_canonicalises_z_before_the_lookup(alarm_net, monkeypatch):
    # z in any order, with repeats, as a list, set or array, or of NumPy
    # ints finds the stored key: no backend call, and the query counts
    calls = counting(monkeypatch)
    x, y, z = 5, 3, (1, 8, 12)
    for make in engine_makers(alarm_net):
        variants = [(8, 1, 12), (12, 8, 1, 8), [1, 12, 8], {12, 1, 8},
                    frozenset(z), np.array([12, 1, 8]), iter([8, 12, 1]),
                    tuple(np.int64(v) for v in z), np.array(z, dtype=np.int32)]
        engine = make()
        stored = engine.ci_test(x, y, z)
        calls.clear()
        for i, w in enumerate(variants, start=1):
            assert engine.ci_test(x, y, w) is stored
            assert engine.ci_test(np.int64(y), x, z) is stored
            assert engine.test_count == 1 + 2 * i
        assert calls == []


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
    """Record the work that reaches the backends: ("pair", x, y, z) for
    a key computed alone, ("row", x, tables) for a level-0 row fill that
    ran G² on that many tables."""
    calls, tables = [], [0]
    for name in ("contingency", "d_separated"):
        original = getattr(localcausal.citest, name)

        def wrapper(*args, _original=original):
            calls.append(("pair", *args[1:3], tuple(args[3])))
            return _original(*args)

        monkeypatch.setattr(localcausal.citest, name, wrapper)
    fill_row, g2 = CiEngine._fill_row, localcausal.citest._g2

    def count_g2(counts):
        tables[0] += len(counts) if counts.ndim == 4 else 1
        return g2(counts)

    def row(engine, x):
        start = tables[0]
        fill_row(engine, x)
        calls.append(("row", x, tables[0] - start))

    monkeypatch.setattr(localcausal.citest, "_g2", count_g2)
    monkeypatch.setattr(CiEngine, "_fill_row", row)
    return calls


def expected_work(engine, stream):
    """The backend work a fresh engine owes ``stream``: each level-0 miss
    on data fills its first argument's row with the pairs not stored yet,
    each other miss computes its key alone, and a key already stored
    costs nothing."""
    stored, work = set(), []
    for x, y, z in stream:
        key = canonical(x, y, z)
        if key in stored:
            continue
        if key[2] or engine.is_oracle:
            work.append(("pair", *key))
            stored.add(key)
        else:
            row = {canonical(x, u, ()) for u in range(engine.n_vars) if u != x}
            work.append(("row", x, len(row - stored)))
            stored |= row
    return work


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
        assert calls == expected_work(engine, stream)
        pairs = [c[1:] for c in calls if c[0] == "pair"]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {canonical(*q) for q in stream
                              if q[2] or engine.is_oracle}
        assert any(c[0] == "row" for c in calls) != engine.is_oracle


def test_engines_share_no_results(alarm_net, monkeypatch):
    calls = counting(monkeypatch)
    for make, stream in store_streams(alarm_net):
        first, second = make(), make()
        for x, y, z in stream:
            first.ci_test(x, y, z)
        calls.clear()
        for x, y, z in stream:
            second.ci_test(x, y, z)
        assert calls == expected_work(second, stream)
        assert second.test_count == len(stream)


def row_kernel_datasets(alarm_net):
    """(dataset, reliability_k) pairs: bundled-network samples,
    degenerate data (no rows, one row, a constant column, sparse strata
    with empty rows and columns) and 63, 64 and 65 rows, around the
    first word boundary of the value bitsets."""
    nets = [(alarm_net, 2000), (load_bif(asset_path("child10")), 300),
            (load_bif(asset_path("insurance")), 1000)]
    out = [(sample(net, n, 4), 5.0) for net, n in nets]
    rng = np.random.Generator(np.random.PCG64(12))
    cols = rng.integers(0, 2, size=(5, 30)).astype(np.int32)
    cols[2] = 0                      # constant column
    cols[4] = 3 * (cols[4] == 1)     # codes 0 and 3 only: empty rows
    cards = (2, 3, 3, 2, 4)
    names = tuple("abcde")
    for n in (0, 1, 6, 30):
        for k in (5.0, 0.0):
            out.append((Dataset(names, cards, cols[:, :n].copy()), k))
    cards = (3, 2, 4, 3)             # a word of value bits and either side
    cols = rng.integers(0, np.array(cards)[:, None], size=(4, 65)).astype(np.int32)
    for n in (63, 64, 65):
        out.append((Dataset(tuple("wxyz"), cards, cols[:, :n].copy()), 5.0))
    return out


@pytest.mark.parametrize("words", [localcausal.citest._ROW_WORDS, 1])
def test_row_fill_matches_per_pair_computation(alarm_net, monkeypatch, words):
    # words=1 ANDs one partner at a time
    monkeypatch.setattr(localcausal.citest, "_ROW_WORDS", words)
    for data, k in row_kernel_datasets(alarm_net):
        n = data.n_vars
        for x in sorted({0, n // 3, n - 1}):
            engine = CiEngine.g2(data, reliability_k=k)
            engine.ci_test(x, (x + 1) % n)
            for u in range(n):
                if u != x:   # u < x and u > x: both table orientations
                    key = (min(x, u), max(x, u), ())
                    assert engine.ci_test(u, x) == engine._compute(*key)
        if data.n_rows == 0:
            r = CiEngine.g2(data, reliability_k=k).ci_test(0, 1)
            assert (r.statistic, r.dof, r.p_value) == (0.0, 0, 1.0)


def test_level0_queries_ask_the_scanned_variable_first(monkeypatch):
    # the learners put the scanned variable first, so a row fill answers
    # a whole scan; asking the other way round fills a row per partner,
    # whose tables mostly answer pairs nobody asked
    net = load_bif(asset_path("child10"))
    data = sample(net, 1000, 1)
    asked, ci_test = set(), CiEngine.ci_test
    calls = counting(monkeypatch)

    def spy_test(engine, x, y, z=()):
        if not z:
            asked.add((id(engine), min(x, y), max(x, y)))
        return ci_test(engine, x, y, z)

    monkeypatch.setattr(CiEngine, "ci_test", spy_test)
    engines = []   # kept alive, so that no two share an id
    for target in range(0, net.dag.n_vars, 20):
        engines.append(CiEngine.g2(data))
        emb(engines[-1], target)
    assert sum(c[2] for c in calls if c[0] == "row") <= 1.25 * len(asked)


def separator_searches(alarm_net):
    """(engine factory taking max_cond_size, searches) on alarm data, the
    alarm DAG, two random 12-node DAGs and 4 rows of alarm data, fewer
    than ``reliability_k``. A search is (x, y, pool); pools hold 0 to 5
    variables, and every search is asked again with x and y swapped, so
    that later ones meet a warm store."""
    data, few = sample(alarm_net, 500, 6), sample(alarm_net, 4, 6)
    rng = np.random.Generator(np.random.PCG64(41))
    dags = [alarm_net.dag] + [random_dag_fixed_edges(rng, 12) for _ in range(2)]
    makers = [(lambda cap: CiEngine.g2(data, max_cond_size=cap), data.n_vars)]
    makers += [(lambda cap, dag=dag: CiEngine.oracle(dag, max_cond_size=cap),
                dag.n_vars) for dag in dags]
    makers.append((lambda cap: CiEngine.g2(few, max_cond_size=cap), few.n_vars))
    out = []
    for make, n in makers:
        searches = []
        for _ in range(40):
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            others = [v for v in range(n) if v not in (x, y)]
            size = int(rng.integers(0, 6))
            searches.append((x, y, [int(v) for v in
                                    rng.choice(others, size=size, replace=False)]))
        out.append((make, searches + [(y, x, pool[::-1]) for x, y, pool in searches]))
    return out


def unwinnable(engine, x, y) -> bool:
    """Whether no z can separate x and y: adjacent under the oracle, or
    fewer rows than ``reliability_k`` on data."""
    dag = engine._dag
    if dag is None:
        return engine._data.n_rows < engine.reliability_k
    return x in dag.parents[y] or y in dag.parents[x]


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_separator_search_matches_a_ci_test_loop(alarm_net, cap):
    # the engine's one search loop against a ci_test loop: the same
    # separator, the same counter steps, and the same store, key for key
    # and in the same order, except that a search no z can win (adjacent
    # variables under the oracle, too few rows on data) stores nothing:
    # every one of its queries is "dependent"
    left_out = 0
    for make, searches in separator_searches(alarm_net):
        loop, engine = make(cap), make(cap)
        assert any(not pool for _, _, pool in searches)
        for x, y, pool in searches:
            before = loop.test_count, engine.test_count
            want = next((frozenset(z) for z in conditioning_sets(pool, cap)
                         if loop.ci_test(x, y, z).independent), None)
            assert find_separator(engine, x, y, pool) == want, (x, y, pool)
            assert engine.test_count - before[1] == loop.test_count - before[0]
        assert engine.test_count == loop.test_count
        skipped = [key for key in loop._results if unwinnable(loop, *key[:2])]
        assert list(engine._results.items()) == [
            item for item in loop._results.items() if item[0] not in skipped]
        assert not any(loop._results[key].independent for key in skipped)
        left_out += len(skipped)
    assert left_out or cap == 0


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_oracle_search_between_adjacent_variables_only_counts(
        alarm_net, monkeypatch, cap):
    # no z separates an edge: the search returns None and steps the
    # counter by the number of subsets it would have asked, with no
    # backend call and nothing stored; a bad pool member, or a bad x or y
    # (a negative one would wrap in Dag.bitsets), raises and counts nothing
    rng = np.random.Generator(np.random.PCG64(47))
    dags = [alarm_net.dag] + [random_dag_fixed_edges(rng, 12) for _ in range(3)]
    calls = counting(monkeypatch)
    for dag in dags:
        n = dag.n_vars
        engine = CiEngine.oracle(dag, max_cond_size=cap)
        for a, b in dag.edges():
            others = [v for v in range(n) if v not in (a, b)]
            pool = [int(v) for v in rng.choice(others, size=int(rng.integers(0, 7)),
                                                 replace=False)]
            c = others[0]
            bad = [([min(a, b)], OVERLAP), ([b, c], OVERLAP), ([n], RANGE),
                   ([-1], RANGE), ([c, n + 3], RANGE), ([-2, c], RANGE)]
            for x, y in ((a, b), (b, a)):
                count = engine.test_count
                assert find_separator(engine, x, y, pool) is None
                assert engine.test_count == count + len(conditioning_sets(pool, cap))
                assert calls == [] and engine._results == {}
                count = engine.test_count
                for members, message in bad:
                    with pytest.raises(ValueError, match=message):
                        engine.first_independent(x, y, pool + members)
                for x2, y2 in ((x - n, y), (x, y - n), (x + n, y), (x, y + n)):
                    with pytest.raises(ValueError, match=RANGE):
                        engine.first_independent(x2, y2, [c])
                assert engine.test_count == count
                calls.clear()
        assert engine._results == {}


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_data_search_below_reliability_k_only_counts(alarm_net, monkeypatch, cap):
    # with fewer rows than reliability_k every test is unreliable, so no
    # z separates any pair: the search returns None and steps the counter
    # by the number of subsets it would have asked, computing no table
    # and storing nothing. At reliability_k rows it walks its subsets
    rng = np.random.Generator(np.random.PCG64(43))
    calls = counting(monkeypatch)
    for n, k in ((0, 5.0), (4, 5.0), (4, 4.5), (1, 2.0), (4, 4.0), (0, 0.0)):
        engine = CiEngine.g2(sample(alarm_net, n, 7), reliability_k=k,
                             max_cond_size=cap)
        n_vars = engine.n_vars
        for _ in range(15):
            x, y = (int(v) for v in rng.choice(n_vars, size=2, replace=False))
            others = [v for v in range(n_vars) if v not in (x, y)]
            pool = [int(v) for v in rng.choice(others, size=int(rng.integers(1, 7)),
                                                 replace=False)]
            count, z = engine.test_count, find_separator(engine, x, y, pool)
            if n < k:
                assert z is None and calls == [] and engine._results == {}
                assert engine.test_count == count + len(conditioning_sets(pool, cap))
        assert (calls == []) == (n < k or cap == 0), (n, k)
        calls.clear()


def test_engine_is_symmetric_in_x_and_y(alarm_net):
    for make, stream in store_streams(alarm_net):
        for x, y, z in stream:
            assert make().ci_test(x, y, z) == make().ci_test(y, x, z)


NO_SCIPY = textwrap.dedent("""
    import sys
    from localcausal import (CiEngine, chi2_sf, d_separated, elcs, emb, load_bif,
                             load_csv, sample, save_csv)
    from localcausal.assets import asset_path
    from localcausal.cli import main

    net = load_bif(asset_path("alarm"))
    data = sample(net, 2000, 1)
    save_csv(data, sys.argv[1])
    assert (load_csv(sys.argv[1]).columns == data.columns).all()
    assert not d_separated(net.dag, 0, 1, (2,))
    oracle = CiEngine.oracle(net.dag)
    assert elcs(oracle, 0).mbs_learned >= 1 and oracle.test_count > 0
    engine = CiEngine.g2(data)
    emb(engine, 14)
    stored = engine._results.values()
    assert any(r.dof > 0 for r in stored), "no G2 p-value computed"
    assert any(r.dof > 0 for k, r in engine._results.items() if k[2])
    assert all(0.0 < chi2_sf(x, dof) < 1.0 for x, dof in
               [(12.5, 7), (12.5, 40), (4900.0, 5000), (5100.0, 5000), (1420.0, 3)])
    assert main(["learn", sys.argv[1], "--target", "STROKEVOLUME",
                 "--out", sys.argv[1] + ".json"]) == 0
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    assert not loaded, loaded
""")


def test_scipy_never_loads(tmp_path):
    # a fresh interpreter: this one may have loaded scipy as a reference
    src = Path(localcausal.citest.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY,
                           str(tmp_path / "alarm.csv")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
