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

from .citest import CiEngine

# Separating sets recorded during the search, keyed by pruned variable.
Sepsets = dict[int, frozenset[int]]


find_separator = CiEngine.first_independent


def recog_pc(engine: CiEngine, target: int) -> tuple[set[int], Sepsets]:
    """Learn the parents-and-children set of ``target``.

    Returns the surviving members and the separating sets of everything
    pruned along the way. Candidates are admitted in descending
    association order (ties by index); elimination sweeps every current
    member after each admission and applies removals immediately.
    """
    sepsets: Sepsets = {}
    strength: dict[int, float] = {}
    for x in range(engine.n_vars):
        if x == target:
            continue
        r = engine.ci_test(target, x, ())
        if r.independent:
            sepsets[x] = frozenset()
        else:
            strength[x] = r.statistic

    pc: list[int] = []  # admission order
    for x in sorted(strength, key=lambda x: (-strength[x], x)):
        pc.append(x)
        for y in list(pc):
            z = find_separator(engine, target, y, (m for m in pc if m != y))
            if z is not None:
                pc.remove(y)
                sepsets[y] = z
    return set(pc), sepsets
