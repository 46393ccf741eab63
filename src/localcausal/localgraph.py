"""Local graph state and the queue-driven expansion learner.

The graph keeps, per variable, the arrows into it, the arrows out of it
and its undirected edges. Blanket results stamp their orientations onto
the graph; Meek's rules then propagate orientations between visited
variables. Expansion (:func:`elcs`) starts at the target, learns a
blanket per popped variable, and stops as soon as every edge at the
target is directed, the queue drains, or everything has been visited.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .citest import CiEngine
from .mbdiscovery import MbResult, emb


class LocalGraph:
    """Edge marks over ``n_vars`` variables, stored per variable.

    ``parents[v]`` holds the arrows into v, ``children[v]`` the arrows
    out of v and ``undirected[v]`` v's undirected neighbours; an edge
    sits in the sets of both its ends, and callers read these sets
    directly. Directed marks are never overwritten; a contradicting
    claim is dropped, and its pair, lower index first, is appended to
    ``conflicts``.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.parents: list[set[int]] = [set() for _ in range(n_vars)]
        self.children: list[set[int]] = [set() for _ in range(n_vars)]
        self.undirected: list[set[int]] = [set() for _ in range(n_vars)]
        self.visited: set[int] = set()
        self.conflicts: list[tuple[int, int]] = []

    def adjacent(self, a: int, b: int) -> bool:
        return (b in self.undirected[a] or b in self.children[a]
                or b in self.parents[a])

    def ensure_undirected(self, a: int, b: int) -> None:
        """Mark the pair undirected if it is currently absent."""
        if not self.adjacent(a, b):
            self.undirected[a].add(b)
            self.undirected[b].add(a)

    def orient(self, src: int, dst: int) -> bool:
        """Direct the pair src -> dst; refuse to flip an existing arrow.

        Returns True when the mark now points src -> dst.
        """
        if dst in self.parents[src]:
            self.conflicts.append((src, dst) if src < dst else (dst, src))
            return False
        self.undirected[src].discard(dst)
        self.undirected[dst].discard(src)
        self.children[src].add(dst)
        self.parents[dst].add(src)
        return True

    def directed_edges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a in range(self.n_vars)
                      for b in self.children[a])

    def partition(self, v: int) -> tuple[set[int], set[int], set[int]]:
        """Split v's neighbors by mark: (into v, out of v, undirected)."""
        return set(self.parents[v]), set(self.children[v]), set(self.undirected[v])


def apply_orientations(graph: LocalGraph, target: int, result: MbResult) -> LocalGraph:
    """Stamp a blanket result onto the graph.

    Every PC member becomes adjacent to the target; members already
    oriented in the result upgrade the pair to a directed mark. Existing
    arrows win over new claims (the conflict is logged).
    """
    for y in sorted(result.pc):
        graph.ensure_undirected(target, y)
    for y in sorted(result.parents):
        graph.orient(y, target)
    for y in sorted(result.children):
        graph.orient(target, y)
    return graph


def _rule_demands(graph: LocalGraph, a: int, b: int) -> bool:
    """True when some propagation rule wants the undirected a - b to
    become a -> b."""
    adj = graph.adjacent
    into_b = graph.parents[b]
    # R1: w -> a, w and b non-adjacent
    if any(not adj(w, b) for w in graph.parents[a]):
        return True
    # R2: a -> w -> b
    if graph.children[a] & into_b:
        return True
    # R3: a - c, a - d, c -> b, d -> b, c and d non-adjacent. The
    # witnesses' non-adjacency only means something once one of them
    # has been visited (its neighborhood is then fully recorded); before
    # that, an undiscovered c-d edge could make this rule misfire.
    if any(not adj(c, d) and (c in graph.visited or d in graph.visited)
           for c, d in combinations(graph.undirected[a] & into_b, 2)):
        return True
    # R4: a - c, c -> d, d -> b, b and c non-adjacent. Sound because
    # b -> a would force either a directed cycle through c .. d .. b .. a
    # or an unmarked collider b -> a <- c.
    return any(not adj(c, b) and graph.children[c] & into_b
               for c in graph.undirected[a] - {b})


def meek_closure(graph: LocalGraph) -> LocalGraph:
    """Propagate orientations to a fixed point.

    Each sweep evaluates every rule against the current marks and only
    then applies the demanded arrows, so the result does not depend on
    scan order. Only undirected pairs whose two endpoints have been
    visited are eligible for orientation; rule premises may use any
    mark. A pair demanded in both directions within one sweep is left
    undirected and its pair is logged once as a conflict.
    """
    while True:
        demands = []
        for a in graph.visited:
            for b in graph.undirected[a] & graph.visited:
                if a > b:
                    continue
                forward, back = _rule_demands(graph, a, b), _rule_demands(graph, b, a)
                if forward and back:
                    if (a, b) not in graph.conflicts:
                        graph.conflicts.append((a, b))
                elif forward or back:
                    demands.append((a, b) if forward else (b, a))
        if not demands:
            return graph
        for src, dst in demands:
            graph.orient(src, dst)


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
        if not graph.undirected[target]:
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
