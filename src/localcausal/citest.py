"""Conditional independence testing.

Two interchangeable backends sit behind :class:`CiEngine`: a G²
likelihood-ratio test on discrete data, and a d-separation oracle over a
known DAG. Learners only ever talk to the engine, so swapping data for
ground truth (or capping the conditioning size) never touches algorithm
code. The engine counts every query; reported test counts in benchmarks
are exactly this counter. Beneath the counter each engine memoises its
results, so a repeated query costs a lookup but still counts as a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.special import gammaincc

from .bnet import Dag, d_separated
from .data import ContingencyTable, Dataset, contingency


class CondSizeExceeded(ValueError):
    """Conditioning set larger than the engine's budget.

    Callers treat this as "no separating set exists at this size" rather
    than as an independence verdict.
    """


@dataclass(frozen=True)
class CiResult:
    """Outcome of one conditional independence query.

    ``independent`` is the verdict actually used by learners. For the
    data backend it equals ``p_value > alpha`` whenever ``reliable`` is
    true; unreliable tests are forced to dependent so that sparse strata
    never delete structure.
    """

    independent: bool
    statistic: float
    p_value: float
    dof: int
    reliable: bool


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function, the regularized upper incomplete
    gamma Q(dof/2, x/2)."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    return float(gammaincc(dof / 2.0, x / 2.0))


def g2_statistic(table: ContingencyTable) -> tuple[float, int]:
    """G² statistic and degrees of freedom for a stratified table.

    statistic = 2 * sum_ijk N_ijk * ln(N_ijk * N_..k / (N_i.k * N_.jk)),
    with zero cells contributing zero. Degrees of freedom are summed per
    stratum as (nonzero rows - 1) * (nonzero columns - 1), floored at 0,
    so strata with empty rows or columns do not inflate the p-value.
    """
    counts = table.counts
    if counts.size == 0 or table.n == 0:
        return 0.0, 0
    c = counts.astype(np.float64)
    row = c.sum(axis=1, keepdims=True)        # N_i.k
    col = c.sum(axis=0, keepdims=True)        # N_.jk
    tot = row.sum(axis=0, keepdims=True)      # N_..k
    ratio = np.divide(c * tot, row * col, out=np.ones_like(c), where=c > 0)
    stat = 2.0 * float((c * np.log(ratio)).sum())
    nz_rows = (row[:, 0] > 0).sum(axis=0)
    nz_cols = (col[0] > 0).sum(axis=0)
    dof = int(np.maximum(nz_rows - 1, 0) @ np.maximum(nz_cols - 1, 0))
    return max(stat, 0.0), dof


class CiEngine:
    """Conditional independence authority with a monotone query counter.

    Build one with :meth:`g2` (discrete data) or :meth:`oracle` (known
    DAG). Queries are symmetric and deterministic: each distinct
    ``(min(x, y), max(x, y), sorted z)`` is computed once, in that order,
    and stored for the life of the engine, so (x, y, z) and (y, x, z)
    give the same result. The store belongs to this engine alone.
    """

    def __init__(self, *, data: Optional[Dataset] = None, dag: Optional[Dag] = None,
                 alpha: float = 0.01, reliability_k: float = 5.0,
                 max_cond_size: Optional[int] = None):
        if (data is None) == (dag is None):
            raise ValueError("exactly one of data or dag is required")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if reliability_k < 0:
            raise ValueError("reliability_k must be nonnegative")
        self._data = data
        self._dag = dag
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
        return self._dag.n_vars if self._dag is not None else self._data.n_vars

    @property
    def test_count(self) -> int:
        return self._count

    def _check(self, x: int, y: int, z: tuple[int, ...]) -> tuple[int, ...]:
        z = tuple(sorted(set(z)))
        n = self.n_vars
        if not (0 <= x < n and 0 <= y < n) or any(not 0 <= v < n for v in z):
            raise ValueError("variable index out of range")
        if x == y or x in z or y in z:
            raise ValueError("x, y and z must be distinct")
        if self.max_cond_size is not None and len(z) > self.max_cond_size:
            raise CondSizeExceeded(
                f"conditioning set of size {len(z)} exceeds budget "
                f"{self.max_cond_size}"
            )
        return z

    def ci_test(self, x: int, y: int, z: Iterable[int] = ()) -> CiResult:
        """Test x against y given z. Every call increments the counter,
        repeats included; only a query not seen before is computed."""
        key = (min(x, y), max(x, y), self._check(x, y, tuple(z)))
        self._count += 1
        if key not in self._results:
            self._results[key] = self._compute(*key)
        return self._results[key]

    def _compute(self, x: int, y: int, z: tuple[int, ...]) -> CiResult:
        if self._dag is not None:
            indep = d_separated(self._dag, x, y, z)
            return CiResult(independent=indep, statistic=0.0 if indep else 1.0,
                            p_value=1.0 if indep else 0.0, dof=0, reliable=True)
        table = contingency(self._data, x, y, z)
        stat, dof = g2_statistic(table)
        if dof == 0:
            # No informative stratum: the sample cannot speak to this
            # query, so fall back on the conservative-dependent rule
            # unless the reliability heuristic is disabled.
            disabled = self.reliability_k == 0
            return CiResult(independent=disabled, statistic=stat, p_value=1.0,
                            dof=0, reliable=disabled)
        p = chi2_sf(stat, dof)
        reliable = table.n >= self.reliability_k * dof
        indep = (p > self.alpha) if reliable else False
        return CiResult(independent=indep, statistic=stat, p_value=p,
                        dof=dof, reliable=reliable)
