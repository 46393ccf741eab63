"""Parents-and-children discovery around a target variable.

``recog_pc`` admits candidates in order of unconditional association and
interleaves elimination after every admission: a member leaves as soon
as some subset of the other current members separates it from the
target. Removed variables keep the separating set that evicted them;
unconditionally independent variables keep the empty set. The output is
a superset of the true parents and children under a faithful engine,
possibly with extra descendants that only a later spouse-aware pass can
clear.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

from .citest import CiEngine

# Separating sets recorded during the search, keyed by pruned variable.
Sepsets = dict[int, frozenset[int]]


def conditioning_sets(pool: Iterable[int], limit: Optional[int] = None
                      ) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of ``pool`` in ascending cardinality,
    lexicographic within a cardinality (pool sorted by index). ``limit``
    caps the size."""
    pool = sorted(pool)
    top = len(pool) if limit is None else min(limit, len(pool))
    for k in range(1, top + 1):
        yield from combinations(pool, k)


def find_separator(engine: CiEngine, a: int, b: int,
                   pool: Iterable[int]) -> Optional[frozenset[int]]:
    """First subset of ``pool`` rendering a and b independent, or None.

    Enumeration starts at single-element sets: callers only reach this
    search for pairs already known dependent unconditionally, so the
    empty set is never a witness. ``engine.max_cond_size`` caps the
    enumeration, and this search is the only place the cap applies:
    hitting it simply means no separator was found at a permitted size.
    """
    for z in conditioning_sets(pool, engine.max_cond_size):
        if engine.ci_test(a, b, z).independent:
            return frozenset(z)
    return None


def recog_pc(engine: CiEngine, target: int) -> tuple[set[int], Sepsets]:
    """Learn the parents-and-children set of ``target``.

    Returns the surviving members and the separating sets of everything
    pruned along the way. Candidates are admitted in descending
    association order (ties by index); elimination sweeps every current
    member after each admission and applies removals immediately.
    """
    sepsets: Sepsets = {}
    strength: dict[int, float] = {}
    candidates = []
    for x in range(engine.n_vars):
        if x == target:
            continue
        r = engine.ci_test(target, x, ())
        if r.independent:
            sepsets[x] = frozenset()
        else:
            strength[x] = r.statistic
            candidates.append(x)
    candidates.sort(key=lambda x: (-strength[x], x))

    pc: list[int] = []  # admission order
    for x in candidates:
        pc.append(x)
        for y in list(pc):
            if y not in pc:
                continue  # evicted earlier in this sweep
            z = find_separator(engine, target, y, (m for m in pc if m != y))
            if z is not None:
                pc.remove(y)
                sepsets[y] = z
    return set(pc), sepsets
