"""Local graph state and the queue-driven expansion learner.

The graph stores one mark per unordered variable pair: absent,
undirected, or directed. Blanket results stamp their orientations onto
the graph; Meek's rules then propagate orientations between visited
variables. Expansion (:func:`elcs`) starts at the target, learns a
blanket per popped variable, and stops as soon as every edge at the
target is directed, the queue drains, or everything has been visited.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .citest import CiEngine
from .mbdiscovery import MbResult, emb

UNDIRECTED = "undirected"


@dataclass(frozen=True)
class Conflict:
    """A rejected attempt to overwrite an existing mark."""

    pair: tuple[int, int]
    existing: object
    claimed: tuple[int, int]
    source: str


class LocalGraph:
    """Pairwise edge marks over ``n_vars`` variables.

    A pair is keyed by its sorted index tuple. Its mark is either
    missing (absent), the module constant ``UNDIRECTED``, or a
    ``(src, dst)`` tuple. Directed marks are never overwritten; a
    contradicting claim is recorded in ``conflicts`` and dropped.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self._marks: dict[tuple[int, int], object] = {}
        self._adj: dict[int, set[int]] = {}
        self.visited: set[int] = set()
        self.conflicts: list[Conflict] = []

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def mark(self, a: int, b: int):
        """None (absent), UNDIRECTED, or the (src, dst) direction."""
        return self._marks.get(self._key(a, b))

    def adjacent(self, a: int, b: int) -> bool:
        return self._key(a, b) in self._marks

    def neighbors(self, v: int) -> set[int]:
        return self._adj.get(v, set())

    def ensure_undirected(self, a: int, b: int) -> None:
        """Mark the pair undirected if it is currently absent."""
        key = self._key(a, b)
        if key not in self._marks:
            self._marks[key] = UNDIRECTED
            self._adj.setdefault(a, set()).add(b)
            self._adj.setdefault(b, set()).add(a)

    def orient(self, src: int, dst: int, source: str = "") -> bool:
        """Direct the pair src -> dst; refuse to flip an existing arrow.

        Returns True when the mark now points src -> dst.
        """
        key = self._key(src, dst)
        existing = self._marks.get(key)
        if existing == (src, dst):
            return True
        if existing is None or existing == UNDIRECTED:
            self._marks[key] = (src, dst)
            self._adj.setdefault(src, set()).add(dst)
            self._adj.setdefault(dst, set()).add(src)
            return True
        self.conflicts.append(Conflict(key, existing, (src, dst), source))
        return False

    def pairs(self) -> Iterator[tuple[tuple[int, int], object]]:
        yield from sorted(self._marks.items())

    def directed_edges(self) -> list[tuple[int, int]]:
        return sorted(m for m in self._marks.values() if m is not UNDIRECTED)

    def partition(self, v: int) -> tuple[set[int], set[int], set[int]]:
        """Split v's neighbors by mark: (into v, out of v, undirected)."""
        parents, children, undecided = set(), set(), set()
        for u in self.neighbors(v):
            m = self.mark(u, v)
            if m == UNDIRECTED:
                undecided.add(u)
            elif m == (u, v):
                parents.add(u)
            else:
                children.add(u)
        return parents, children, undecided


def apply_orientations(graph: LocalGraph, target: int, result: MbResult) -> LocalGraph:
    """Stamp a blanket result onto the graph.

    Every PC member becomes adjacent to the target; members already
    oriented in the result upgrade the pair to a directed mark. Existing
    arrows win over new claims (the conflict is logged).
    """
    for y in sorted(result.pc):
        graph.ensure_undirected(target, y)
    for y in sorted(result.parents):
        graph.orient(y, target, source=f"blanket({target})")
    for y in sorted(result.children):
        graph.orient(target, y, source=f"blanket({target})")
    return graph


def _rule_demands(graph: LocalGraph, a: int, b: int) -> bool:
    """True when some propagation rule wants the arrow a -> b."""
    adj = graph.adjacent
    # R1: w -> a, a - b, w and b non-adjacent  =>  a -> b
    for w in graph.neighbors(a):
        if graph.mark(w, a) == (w, a) and w != b and not adj(w, b):
            return True
    # R2: a -> w -> b with a - b  =>  a -> b
    for w in graph.neighbors(a):
        if graph.mark(a, w) == (a, w) and graph.mark(w, b) == (w, b):
            return True
    # R3: a - c, a - d, c -> b, d -> b, c and d non-adjacent  =>  a -> b.
    # The witnesses' non-adjacency only means something once one of them
    # has been visited (its neighborhood is then fully recorded); before
    # that, an undiscovered c-d edge could make this rule misfire.
    undirected_at_a = [w for w in graph.neighbors(a)
                       if w != b and graph.mark(a, w) == UNDIRECTED]
    into_b = {w for w in undirected_at_a if graph.mark(w, b) == (w, b)}
    for c in into_b:
        for d in into_b:
            if (c < d and not adj(c, d)
                    and (c in graph.visited or d in graph.visited)):
                return True
    # R4: a - c, c -> d, d -> b, b and c non-adjacent  =>  a -> b
    # Sound because b -> a would force either a directed cycle through
    # c .. d .. b .. a or an unmarked collider b -> a <- c.
    for c in undirected_at_a:
        if adj(c, b):
            continue
        for d in graph.neighbors(c):
            if graph.mark(c, d) == (c, d) and graph.mark(d, b) == (d, b):
                return True
    return False


def meek_closure(graph: LocalGraph) -> LocalGraph:
    """Propagate orientations to a fixed point.

    Each sweep evaluates every rule against the current marks and only
    then applies the demanded arrows, so the result does not depend on
    scan order. Only pairs whose two endpoints have been visited are
    eligible for orientation; rule premises may use any mark. A pair
    demanded in both directions within one sweep is left undirected and
    logged as a conflict.
    """
    while True:
        demands: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for (a, b), mark in graph.pairs():
            if mark != UNDIRECTED:
                continue
            if a not in graph.visited or b not in graph.visited:
                continue
            if _rule_demands(graph, a, b):
                demands.setdefault((a, b), set()).add((a, b))
            if _rule_demands(graph, b, a):
                demands.setdefault((a, b), set()).add((b, a))
        changed = False
        for key in sorted(demands):
            want = demands[key]
            if len(want) == 2:
                first, second = sorted(want)
                if not any(c.pair == key for c in graph.conflicts):
                    graph.conflicts.append(
                        Conflict(key, UNDIRECTED, first, "meek-contested"))
                continue
            (src, dst), = want
            if graph.orient(src, dst, source="meek"):
                changed = True
        if not changed:
            return graph


@dataclass
class ElcsOutcome:
    """Final local structure around the target.

    ``parents``/``children``/``undecided`` are read back from the graph
    marks after propagation, so an orientation earned by a later blanket
    or by a Meek rule counts. ``target_result`` is the blanket learned
    for the target itself (spouses live there); ``mbs_learned`` counts
    the blankets learned and ``termination`` says why the walk stopped.
    """

    target: int
    parents: set[int]
    children: set[int]
    undecided: set[int]
    graph: LocalGraph
    mbs_learned: int
    termination: str
    target_result: MbResult = field(repr=False)


RESOLVED = "resolved"
QUEUE_EXHAUSTED = "queue-exhausted"
ALL_VISITED = "all-visited"


def elcs(engine: CiEngine, target: int, n_structures: bool = True
         ) -> ElcsOutcome:
    """Queue-driven local structure learning around ``target``.

    Pops start at the target; a visited pop is skipped, and every other
    pop gets a blanket learned and stamped onto the graph, its undecided
    members enqueued, and one propagation. The walk stops when the
    target has no undirected edge left, when the queue empties, or when
    every variable has been visited, whichever comes first.
    """
    graph = LocalGraph(engine.n_vars)
    queue: deque[int] = deque([target])
    termination = QUEUE_EXHAUSTED
    while queue:
        x = queue.popleft()
        if x in graph.visited:
            continue
        graph.visited.add(x)
        result = emb(engine, x, n_structures=n_structures)
        if x == target:  # always the first pop
            target_result = result
        apply_orientations(graph, x, result)
        queue.extend(sorted(result.undecided))
        meek_closure(graph)
        if not graph.partition(target)[2]:
            termination = RESOLVED
            break
        if queue and len(graph.visited) == engine.n_vars:
            termination = ALL_VISITED
            break
    parents, children, undecided = graph.partition(target)
    return ElcsOutcome(target=target, parents=parents, children=children,
                       undecided=undecided, graph=graph,
                       mbs_learned=len(graph.visited), termination=termination,
                       target_result=target_result)
