"""Conditional independence testing.

Two interchangeable backends sit behind :class:`CiEngine`: a G²
likelihood-ratio test on discrete data, and a d-separation oracle over a
known DAG. Learners only ever talk to the engine, so swapping data for
ground truth never touches algorithm code. The engine answers and counts
every query; reported test counts in benchmarks are exactly this
counter. Beneath the counter each engine memoises its results, so a
repeated query costs a lookup but still counts as a test; a query is
checked only at its miss. An unconditional data query that misses the
store computes its first variable against each variable not yet paired
with it in the store, in one pass (a row fill) and bit for bit as the
per-pair path would, each count the popcount of an AND of two of the
dataset's value bitsets; under the oracle it is one AND of two ancestor
bitsets. p-values come from :func:`chi2_sf`, which needs only ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .bnet import Dag, d_separated
from .data import ContingencyTable, Dataset, contingency

_ROW_WORDS = 1 << 20  # words per row-fill AND: bounds its temporaries
_CLOSED_DOF = 30     # chi2_sf's closed forms up to here: O(dof) terms, each cheap
_EPS = 2.0 ** -53


@dataclass(frozen=True, slots=True)
class CiResult:
    """Outcome of one conditional independence query.

    ``independent`` is the verdict actually used by learners. For the
    data backend it equals ``p_value > alpha`` whenever ``reliable`` is
    true. ``reliable=False`` is the one "no evidence" answer (fewer than
    ``reliability_k`` rows per dof, or dof 0 unless ``reliability_k`` is
    0); such tests are forced to dependent so that sparse strata never
    delete structure.
    """

    independent: bool
    statistic: float
    p_value: float
    dof: int
    reliable: bool


# The oracle's two answers, shared by every engine and key.
_SEPARATED = CiResult(True, 0.0, 1.0, 0, True)
_CONNECTED = CiResult(False, 1.0, 0.0, 0, True)


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function Q(dof/2, x/2), from ``math`` alone.

    Up to ``_CLOSED_DOF`` dof, while exp(-x/2) is a normal float, it sums
    the closed forms of Abramowitz & Stegun 26.4.4 (even dof) and 26.4.5
    (odd dof: erfc plus a sum) term by term from exp(-x/2). Elsewhere, as
    Cephes' ``igamc`` does, it scales the series for 1 - Q (x < dof) or the
    continued fraction for Q by a prefactor taken in log space. Relative
    error is under 1e-12 where Q >= 1e-300. ``dof`` is an integer >= 1 (a
    float raises TypeError) and ``x`` is >= 0 (NaN raises ValueError).
    """
    dof = index(dof)
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if not x >= 0:
        raise ValueError("statistic must be nonnegative")
    a, y = dof / 2, x / 2
    if dof <= _CLOSED_DOF and y < 700:
        q, term, c = 0.0, math.exp(-y), 1.0
        if dof & 1:
            q, term, c = math.erfc(math.sqrt(y)), term * math.sqrt(4 * y / math.pi), 1.5
        while c <= a:
            q += term
            term *= y / c
            c += 1
        return q
    if y == 0 or y == math.inf:  # the logs below need 0 < y < inf
        return float(y == 0)
    if a < 15:
        lp = a * math.log(y) - y - math.lgamma(a)
    else:  # lgamma(a) = (a - 1/2) ln a - a + ln(2 pi) / 2 + s
        t, u = (y - a) / a, 1 / (a * a)
        s = (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / a
        lp = a * (math.log1p(t) - t) + 0.5 * math.log(a / (2 * math.pi)) - s
    if y < a:
        r, term, total = a, 1.0, 1.0
        while term > total * _EPS:
            r += 1
            term *= y / r
            total += term
        return 1 - math.exp(lp) * total / a
    b = y + 1 - a
    c, d = math.inf, 1 / b
    q, i = d, 1
    while True:
        an, b = i * (a - i), b + 2
        d, c = 1 / (an * d + b), b + an / c
        q *= d * c
        if abs(d * c - 1) <= _EPS:
            return math.exp(lp) * q
        i += 1


def g2_statistic(table: ContingencyTable) -> tuple[float, int]:
    """G² statistic and degrees of freedom for a stratified table.

    statistic = 2 * sum_ijk N_ijk * ln(N_ijk * N_..k / (N_i.k * N_.jk)),
    with zero cells contributing zero. Degrees of freedom are summed per
    stratum as (nonzero rows - 1) * (nonzero columns - 1), floored at 0,
    so strata with empty rows or columns do not inflate the p-value.
    """
    stat, dof = _g2(table.counts)
    return float(stat), int(dof)


def _g2(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G² and dof of one (rx, ry, n_strata) table, or of each table in a
    (G, rx, ry, n_strata) stack.

    Each table's terms are summed as one contiguous row, the same
    pairwise order as a flat sum over that table alone, so a table gives
    the same bits whatever stack it sits in. Its dof counts nonzero
    N_i.k * N_.jk, less nonzero N_i.k and N_.jk, plus nonzero N_..k.
    Sums call ``np.add.reduce`` directly and the terms fill one buffer:
    fewer temporaries and Python-level calls on these small tables.
    """
    c = np.ascontiguousarray(counts, dtype=np.float64)
    row = np.add.reduce(c, axis=-2, keepdims=True)      # N_i.k
    col = np.add.reduce(c, axis=-3, keepdims=True)      # N_.jk
    tot = np.add.reduce(row, axis=-3, keepdims=True)    # N_..k
    rc = row * col
    terms = np.ones(c.shape)
    np.divide(c * tot, rc, out=terms, where=c > 0)
    np.log(terms, out=terms)
    terms *= c
    stat = 2.0 * np.add.reduce(terms.reshape(*c.shape[:-3], -1), axis=-1)
    axes = None if c.ndim == 3 else (1, 2, 3)   # None: numpy's fast count
    nz = [np.count_nonzero(a, axis=axes) for a in (rc, row, col, tot)]
    return np.maximum(stat, 0.0), nz[0] - nz[1] - nz[2] + nz[3]


class CiEngine:
    """Conditional independence authority with a monotone query counter.

    Build one with :meth:`g2` (discrete data) or :meth:`oracle` (known
    DAG). Queries are symmetric and deterministic: each distinct
    ``(min(x, y), max(x, y), sorted z)`` is computed once, in that order,
    and stored for the life of the engine, so (x, y, z) and (y, x, z)
    give the same result. The store belongs to this engine alone. On
    data, an unconditional query that misses the store fills the rest of
    its first variable's row (see :meth:`ci_test`); every other miss is
    computed alone. An oracle miss stores one of two shared results, one
    per verdict. A separator search, :meth:`first_independent`, takes a
    pool and enumerates, caps and checks its subsets itself; a search no
    subset can win (adjacent variables under the oracle, fewer rows than
    ``reliability_k`` on data) only counts its subsets, so the store
    holds none of them. ``max_cond_size``, None or a nonnegative integer
    (not a bool), caps only that search.
    """

    def __init__(self, *, data: Optional[Dataset] = None, dag: Optional[Dag] = None,
                 alpha: float = 0.01, reliability_k: float = 5.0,
                 max_cond_size: Optional[int] = None):
        if (data is None) == (dag is None):
            raise ValueError("exactly one of data or dag is required")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not (math.isfinite(reliability_k) and reliability_k >= 0):
            raise ValueError("reliability_k must be finite and nonnegative")
        if max_cond_size is not None:
            if isinstance(max_cond_size, bool) or not isinstance(
                    max_cond_size, (int, np.integer)) or max_cond_size < 0:
                raise ValueError("max_cond_size must be None or an int >= 0")
            max_cond_size = int(max_cond_size)
        self._data = data
        self._dag = dag
        self._n_vars = (data if dag is None else dag).n_vars
        self.alpha = alpha
        self.reliability_k = reliability_k
        self.max_cond_size = max_cond_size
        self._count = 0
        self._results: dict[tuple[int, int, tuple[int, ...]], CiResult] = {}

    @classmethod
    def g2(cls, data: Dataset, alpha: float = 0.01, reliability_k: float = 5.0,
           max_cond_size: Optional[int] = None) -> "CiEngine":
        return cls(data=data, alpha=alpha, reliability_k=reliability_k,
                   max_cond_size=max_cond_size)

    @classmethod
    def oracle(cls, dag: Dag, max_cond_size: Optional[int] = None) -> "CiEngine":
        return cls(dag=dag, max_cond_size=max_cond_size)

    @property
    def is_oracle(self) -> bool:
        return self._dag is not None

    @property
    def n_vars(self) -> int:
        return self._n_vars

    @property
    def test_count(self) -> int:
        return self._count

    def ci_test(self, x: int, y: int, z: Iterable[int] = ()) -> CiResult:
        """Test x against y given z. Every call increments the counter,
        repeats included; only a query not seen before is computed.

        Indexes go through ``operator.index``, so a float raises TypeError
        at a hit as at a miss. A query is checked once, at its miss, and
        only valid keys are stored, so a hit returns at once; plain ints
        and an empty tuple z are the key as they stand, and any other z is
        sorted and deduplicated first. A bad index or an overlap of x, y
        and z raises ValueError, under the oracle from :func:`d_separated`.
        On data, a miss with empty z computes and stores, in one pass, x
        against every variable whose pair with x is not stored yet.
        Ask unconditional queries with the variable being scanned first,
        so that one row answers the whole scan.
        """
        if not (type(x) is int is type(y)):
            x, y = index(x), index(y)
        if type(z) is not tuple or z:
            z = tuple(sorted(set(map(index, z))))
        result = (self._results.get((x, y, z) if x < y else (y, x, z))
                  or self._miss(x, y, z))
        self._count += 1
        return result

    def first_independent(self, x: int, y: int, pool: Iterable[int]
                          ) -> Optional[frozenset[int]]:
        """First z, a non-empty subset of ``pool`` of at most
        ``max_cond_size`` members, given which x and y are independent,
        or None. Subsets are asked in ascending size, lexicographic
        within a size (pool sorted by index), each counted and answered
        as :meth:`ci_test` would; the empty set is never a witness, and
        reaching the cap means no separator of a permitted size exists.
        x, y and the pool are checked once, before any query: a bad index
        or an overlap raises ValueError and leaves the counter and the
        store as they were. When no z can win (x and y adjacent under the
        oracle, or fewer rows than ``reliability_k`` on data, where every
        test is unreliable) the search only counts its subsets, stores
        nothing and returns None."""
        x, y = index(x), index(y)
        pool = sorted(set(map(index, pool)))
        self._check(x, y, pool)
        cap = self.max_cond_size
        top = len(pool) if cap is None else min(cap, len(pool))
        dag = self._dag
        if (self._data.n_rows < self.reliability_k if dag is None
                else (dag.bitsets[0][x] | dag.bitsets[1][x]) >> y & 1):
            self._count += sum(math.comb(len(pool), k) for k in range(1, top + 1))
            return None
        results, lo, hi = self._results, min(x, y), max(x, y)
        for k in range(1, top + 1):
            for z in combinations(pool, k):
                result = results.get((lo, hi, z)) or self._miss(x, y, z)
                self._count += 1
                if result.independent:
                    return frozenset(z)
        return None

    def _check(self, x: int, y: int, z: Sequence[int]) -> None:
        """Refuse an index outside the variables, or x, y and sorted z
        that overlap."""
        n = self._n_vars
        if not (0 <= x < n and 0 <= y < n) or (z and (z[0] < 0 or z[-1] >= n)):
            raise ValueError("variable index out of range")
        if x == y or x in z or y in z:
            raise ValueError("x, y and z must be distinct")

    def _miss(self, x: int, y: int, z: tuple[int, ...]) -> CiResult:
        """Check, compute and store a query the store does not hold."""
        key = (x, y, z) if x < y else (y, x, z)
        if self._dag is not None:
            result = _SEPARATED if d_separated(self._dag, *key) else _CONNECTED
        else:
            self._check(x, y, z)
            if not z:
                self._fill_row(x)
                return self._results[key]
            result = self._compute(*key)
        self._results[key] = result
        return result

    def _compute(self, x: int, y: int, z: tuple[int, ...]) -> CiResult:
        table = contingency(self._data, x, y, z)
        stat, dof = g2_statistic(table)
        return self._verdict(stat, dof, table.n)

    def _verdict(self, stat: float, dof: int, n: int) -> CiResult:
        p = chi2_sf(stat, dof) if dof else 1.0
        reliable = (dof > 0 or self.reliability_k == 0) and n >= self.reliability_k * dof
        return CiResult(independent=reliable and p > self.alpha,
                        statistic=stat, p_value=p, dof=dof, reliable=reliable)

    def _fill_row(self, x: int) -> None:
        """Compute and store x against every partner whose level-0 pair
        the store lacks. Partners that share a cardinality and a side of
        x are counted together, each count the popcount of an AND of two
        rows of :attr:`Dataset.value_bits`, at most ``_ROW_WORDS`` words
        ANDed at a time. Each table is laid out as ``(min, max)`` before
        its G² so that it matches the per-pair path bit for bit."""
        cards, n, results = self._data.cardinalities, self._data.n_rows, self._results
        bits, first = self._data.value_bits
        rx = cards[x]
        x_bits = bits[first[x]:first[x] + rx, None]
        groups: dict[tuple[int, bool], list[int]] = {}
        for u in range(self._n_vars):
            if u != x and ((u, x, ()) if u < x else (x, u, ())) not in results:
                groups.setdefault((cards[u], u < x), []).append(u)
        for (r, before), members in groups.items():
            step = max(1, _ROW_WORDS // max(rx * r * bits.shape[1], 1))
            for i in range(0, len(members), step):
                us = members[i:i + step]
                rows = bits[first[us][:, None, None] + np.arange(r)]
                counts = np.bitwise_count(x_bits & rows).sum(axis=-1)[..., None]
                stat, dof = _g2(counts.transpose(0, 2, 1, 3) if before else counts)
                for u, s, d in zip(us, stat.tolist(), dof.tolist()):
                    key = (u, x, ()) if before else (x, u, ())
                    results[key] = self._verdict(s, d, n)
