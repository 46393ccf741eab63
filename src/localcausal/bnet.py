"""Directed acyclic graphs, CPT networks, d-separation and sampling."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, NamedTuple

import numpy as np

from .data import Dataset


class CycleError(ValueError):
    """The graph has a directed cycle through ``names``, in index order."""

    def __init__(self, message: str, names: tuple[str, ...] = ()):
        super().__init__(message)
        self.names = names


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named variables.

    ``parents[i]`` is the set of parent indexes of variable ``i``.
    Acyclicity is checked at construction.
    """

    names: tuple[str, ...]
    parents: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.names) != len(self.parents):
            raise ValueError("names and parents must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        n = len(self.names)
        for i, ps in enumerate(self.parents):
            if i in ps or any(not 0 <= p < n for p in ps):
                raise ValueError(f"bad parent set for variable {self.names[i]!r}")
        topo_order(self)  # raises CycleError on a cycle

    @classmethod
    def from_edges(cls, names: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Dag":
        names = tuple(names)
        index = {nm: i for i, nm in enumerate(names)}
        parents = [set() for _ in names]
        for src, dst in edges:
            parents[index[dst]].add(index[src])
        return cls(names, tuple(frozenset(p) for p in parents))

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @cached_property
    def children(self) -> tuple[frozenset[int], ...]:
        ch = [set() for _ in self.names]
        for i, ps in enumerate(self.parents):
            for p in ps:
                ch[p].add(i)
        return tuple(frozenset(c) for c in ch)

    @cached_property
    def bitsets(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Parents, children and ancestors-or-self of each variable, as
        int bitsets (bit ``v`` stands for variable ``v``)."""
        anc = [0] * self.n_vars
        for v in topo_order(self):
            anc[v] = 1 << v
            for p in self.parents[v]:
                anc[v] |= anc[p]
        return (tuple(sum(1 << p for p in ps) for ps in self.parents),
                tuple(sum(1 << c for c in cs) for cs in self.children), tuple(anc))

    @property
    def n_edges(self) -> int:
        return sum(len(p) for p in self.parents)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, i) for i in range(self.n_vars) for p in sorted(self.parents[i])]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


def topo_order(dag: Dag) -> list[int]:
    """Topological order by Kahn's algorithm, lowest index first among
    ready variables, so the order is unique and stable."""
    n = len(dag.parents)
    indeg = [len(p) for p in dag.parents]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in dag.children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != n:
        stuck = tuple(dag.names[i] for i in range(n) if indeg[i] > 0)
        raise CycleError(f"directed cycle through {', '.join(sorted(stuck))}", stuck)
    return order


def d_separated(dag: Dag, x: int, y: int, z: Iterable[int] = ()) -> bool:
    """True when x and y are d-separated by z.

    Bayes-ball reachability (Shachter, UAI 1998) over the int bitsets of
    :attr:`Dag.bitsets`, one whole frontier per step; Python ints have no
    width limit. A trail passes a non-collider only outside z, and a
    collider only when the node or one of its descendants is in z; given
    z = ∅, x and y are d-connected exactly when they share an
    ancestor-or-self, and an edge is d-connected given any z. Indexes go
    through ``operator.index``, z's in the loop that builds its bitsets.
    Raises ValueError for an index outside ``range(dag.n_vars)`` and when
    x, y and z overlap, before any answer.
    """
    x, y, n = index(x), index(y), len(dag.names)
    parents, children, ancestors = dag.bitsets
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("variable index out of range")
    blocked = opened = 0  # z, and the colliders it opens: z and its ancestors
    for v in map(index, z):  # Python ints: NumPy's would wrap past 64 bits
        if not 0 <= v < n:
            raise ValueError("variable index out of range")
        blocked |= 1 << v
        opened |= ancestors[v]
    if x == y or (blocked >> x | blocked >> y) & 1:
        raise ValueError("x, y and z must be distinct")
    if (parents[x] | children[x]) >> y & 1:
        return False  # no set separates an edge
    if not blocked:
        return not ancestors[x] & ancestors[y]
    # up: reached from a child, or the start; down: reached from a parent.
    up = new_up = 1 << x
    down = new_down = 0
    while new_up or new_down:
        to_up = to_down = 0
        frontier = new_up & ~blocked  # on to parents (up) and children (down)
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            to_up |= parents[bit.bit_length() - 1]
            to_down |= children[bit.bit_length() - 1]
        frontier = new_down & ~blocked  # on to children (down)
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            to_down |= children[bit.bit_length() - 1]
        frontier = new_down & opened  # through an open collider to parents (up)
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            to_up |= parents[bit.bit_length() - 1]
        new_up, new_down = to_up & ~up, to_down & ~down
        if (new_up | new_down) >> y & 1:
            return False
        up |= new_up
        down |= new_down
    return True


class TrueMb(NamedTuple):
    pc: frozenset[int]
    spouses: frozenset[int]
    mb: frozenset[int]


def true_mb(dag: Dag, t: int) -> TrueMb:
    """Parents-and-children, spouses and Markov blanket of t in ``dag``."""
    pc = dag.parents[t] | dag.children[t]
    spouses = set()
    for c in dag.children[t]:
        spouses |= dag.parents[c]
    spouses -= pc | {t}
    return TrueMb(frozenset(pc), frozenset(spouses), frozenset(pc | spouses))


@dataclass(frozen=True)
class CptNetwork:
    """DAG plus one conditional probability table per variable.

    ``cpts[i]`` has shape (number of parent configurations, r_i); rows
    follow C-order (ravel) over the parent values taken in ascending
    parent index. Every row sums to 1.
    """

    dag: Dag
    cardinalities: tuple[int, ...]
    cpts: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.cardinalities) != self.dag.n_vars or len(self.cpts) != self.dag.n_vars:
            raise ValueError("cardinalities and cpts must cover every variable")
        if any(r < 2 for r in self.cardinalities):
            raise ValueError("every cardinality must be at least 2")
        for i, cpt in enumerate(self.cpts):
            rows = 1
            for p in sorted(self.dag.parents[i]):
                rows *= self.cardinalities[p]
            if cpt.shape != (rows, self.cardinalities[i]):
                raise ValueError(f"cpt shape mismatch for {self.dag.names[i]!r}")
            if (cpt < 0).any() or not np.allclose(cpt.sum(axis=1), 1.0, atol=1e-9):
                raise ValueError(f"cpt rows for {self.dag.names[i]!r} must sum to 1")

    @property
    def names(self) -> tuple[str, ...]:
        return self.dag.names


def sample(net: CptNetwork, n: int, seed: int) -> Dataset:
    """Draw ``n`` rows by forward (ancestral) sampling.

    Determinism contract: the generator is NumPy's PCG64 seeded with
    ``seed``; variables consume draws in topological order (ties broken
    by lowest index) and, within a variable, in row order. Identical
    (net, n, seed) therefore always produce the identical dataset, and
    cardinalities are copied from the network, never re-inferred.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    columns = np.zeros((net.dag.n_vars, n), dtype=np.int32)
    u, cut, rows, hit = np.empty(n), np.empty(n), np.empty(n, np.intp), np.empty(n, bool)
    for v in topo_order(net.dag):
        rng.random(out=u)
        cdf = np.cumsum(net.cpts[v], axis=1).T.copy()  # one row per state
        rows.fill(0)  # parent configuration, C order over sorted parents
        for p in sorted(net.dag.parents[v]):
            rows *= net.cardinalities[p]
            rows += columns[p]
        for k in range(net.cardinalities[v] - 1):  # monotone cdf: codes stop at r - 1
            # rows are in range; "clip" only spares take's buffered bounds check
            np.greater(u, np.take(cdf[k], rows, out=cut, mode="clip"), out=hit)
            columns[v] += hit
    return Dataset(net.dag.names, tuple(net.cardinalities), columns)
