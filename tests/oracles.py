"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way: path
enumeration instead of reachability, triple loops instead of vectorized
counting, numerical integration instead of special functions. The test
suite compares the fast package code against these.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import mpmath
import numpy as np

from localcausal import CptNetwork, Dag, Dataset, DatasetError
from localcausal.bnet import topo_order

UNDIRECTED = "undirected"  # the mark of an undirected edge in graph_marks


def conditioning_sets(pool, limit=None) -> list[tuple[int, ...]]:
    """Non-empty subsets of ``pool`` in ascending size, lexicographic
    within a size (pool sorted by index), at most ``limit`` members each:
    the order a separator search asks them in."""
    pool = sorted(set(pool))
    top = len(pool) if limit is None else min(limit, len(pool))
    return [z for k in range(1, top + 1) for z in itertools.combinations(pool, k)]


def descendants(dag: Dag, v: int) -> frozenset[int]:
    """Variables reachable from v along directed edges, v excluded."""
    seen: set[int] = set()
    stack = list(dag.children[v])
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(dag.children[u])
    return frozenset(seen)


def g2_brute(counts: np.ndarray) -> tuple[float, int]:
    """G-squared statistic and degrees of freedom by direct looping."""
    rx, ry, n_strata = counts.shape
    stat = 0.0
    dof = 0
    for k in range(n_strata):
        stratum = counts[:, :, k]
        n_k = int(stratum.sum())
        nz_rows = sum(1 for i in range(rx) if stratum[i, :].sum() > 0)
        nz_cols = sum(1 for j in range(ry) if stratum[:, j].sum() > 0)
        dof += max(0, nz_rows - 1) * max(0, nz_cols - 1)
        for i in range(rx):
            for j in range(ry):
                n_ijk = int(stratum[i, j])
                if n_ijk == 0:
                    continue
                n_ik = int(stratum[i, :].sum())
                n_jk = int(stratum[:, j].sum())
                stat += 2.0 * n_ijk * math.log(n_ijk * n_k / (n_ik * n_jk))
    return stat, dof


def chi2_sf_numeric(x: float, dof: int) -> float:
    """Chi-squared survival function by numerical integration."""
    mpmath.mp.dps = 30
    half = mpmath.mpf(dof) / 2
    norm = mpmath.mpf(2) ** half * mpmath.gamma(half)

    def pdf(t):
        return t ** (half - 1) * mpmath.exp(-t / 2) / norm

    return float(mpmath.quad(pdf, [x, mpmath.inf]))


def contingency_brute(columns: np.ndarray, cards: tuple[int, ...],
                      x: int, y: int, z: tuple[int, ...]) -> dict:
    """Recount the x/y table per z-assignment with plain Python loops."""
    z = tuple(sorted(z))
    table: dict[tuple, np.ndarray] = {}
    for row in range(columns.shape[1]):
        key = tuple(int(columns[v, row]) for v in z)
        if key not in table:
            table[key] = np.zeros((cards[x], cards[y]), dtype=np.int64)
        table[key][int(columns[x, row]), int(columns[y, row])] += 1
    return table


def _all_simple_paths(adj: dict[int, set[int]], x: int, y: int):
    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        for nxt in adj[node]:
            if nxt in path:
                continue
            if nxt == y:
                yield path + [y]
            else:
                stack.append((nxt, path + [nxt]))


def d_separated_paths(dag: Dag, x: int, y: int, z) -> bool:
    """d-separation decided by enumerating every undirected simple path."""
    z = frozenset(z)
    n = dag.n_vars
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        for p in dag.parents[v]:
            adj[v].add(p)
            adj[p].add(v)

    def has_conditioned_descendant(v: int) -> bool:
        if v in z:
            return True
        return bool(descendants(dag, v) & z)

    for path in _all_simple_paths(adj, x, y):
        blocked = False
        for pos in range(1, len(path) - 1):
            prev, mid, nxt = path[pos - 1], path[pos], path[pos + 1]
            collider = prev in dag.parents[mid] and nxt in dag.parents[mid]
            if collider:
                if not has_conditioned_descendant(mid):
                    blocked = True
                    break
            elif mid in z:
                blocked = True
                break
        if not blocked:
            return False
    return True


def d_separated_moral(dag: Dag, x: int, y: int, z) -> bool:
    """d-separation decided on the moralised ancestral graph (Lauritzen
    et al., Networks 1990): keep x, y, z and their ancestors, marry the
    parents of every kept node, drop directions, delete z, and ask
    whether x still reaches y."""
    z = frozenset(z)
    keep = {x, y} | set(z)
    stack = list(keep)
    while stack:
        for p in dag.parents[stack.pop()]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    adj: dict[int, set[int]] = {v: set() for v in keep}
    for v in keep:
        for p in dag.parents[v]:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in itertools.combinations(dag.parents[v], 2):
            adj[p].add(q)
            adj[q].add(p)
    seen = {x}
    stack = [x]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen and u not in z:
                seen.add(u)
                stack.append(u)
    return y not in seen


def random_dag(rng: np.random.Generator, max_nodes: int = 10,
               p: float = 0.3) -> Dag:
    """Random DAG: random order, each forward pair is an edge with prob p."""
    n = int(rng.integers(4, max_nodes + 1))
    order = rng.permutation(n)
    parents = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                parents[order[j]].add(int(order[i]))
    names = tuple(f"v{i}" for i in range(n))
    return Dag(names, tuple(frozenset(s) for s in parents))


def random_dag_fixed_edges(rng: np.random.Generator, n: int,
                           mean_degree: float = 2.0) -> Dag:
    """Random order and exactly ``round(mean_degree * n / 2)`` edges drawn
    uniformly from the forward pairs: the model of perfbench's
    ``random_dag``."""
    order = rng.permutation(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    parents = [set() for _ in range(n)]
    for k in rng.choice(len(pairs), size=round(mean_degree * n / 2),
                        replace=False):
        i, j = pairs[k]
        parents[order[j]].add(int(order[i]))
    names = tuple(f"V{i}" for i in range(n))
    return Dag(names, tuple(frozenset(s) for s in parents))


def graph_marks(graph) -> dict:
    """A ``LocalGraph``'s edges as ``{(a, b): mark}`` with a < b, read
    from its per-variable sets: ``UNDIRECTED`` or the ``(src, dst)``
    arrow. This is the form :func:`meek_closure_brute` takes."""
    marks = {}
    for a in range(graph.n_vars):
        for b in graph.undirected[a]:
            marks[min(a, b), max(a, b)] = UNDIRECTED
        for b in graph.children[a]:
            marks[min(a, b), max(a, b)] = (a, b)
    return marks


def meek_closure_brute(marks: dict, visited) -> tuple[dict, set]:
    """Meek's rules R1-R4 to a fixed point by trying every triple and
    quadruple of variables.

    ``marks`` maps a sorted pair to ``UNDIRECTED`` or its ``(src, dst)``
    arrow. Each sweep collects the arrows every rule demands on the
    undirected pairs whose ends are both visited, then applies them all
    at once; R3 also needs one of its two witnesses visited. A pair
    demanded both ways stays undirected for that sweep. Returns the
    closed marks and the pairs that were ever demanded both ways.
    """
    marks = dict(marks)
    nodes = sorted({v for pair in marks for v in pair})

    def mark(a, b):
        return marks.get((min(a, b), max(a, b)))

    def arrow(a, b):
        return mark(a, b) == (a, b)

    def line(a, b):
        return mark(a, b) == UNDIRECTED

    def demanded(a, b):
        rest = [v for v in nodes if v not in (a, b)]
        r1 = any(arrow(w, a) and mark(w, b) is None for w in rest)
        r2 = any(arrow(a, w) and arrow(w, b) for w in rest)
        r3 = any(line(a, c) and line(a, d) and arrow(c, b) and arrow(d, b)
                 and mark(c, d) is None and (c in visited or d in visited)
                 for c, d in itertools.combinations(rest, 2))
        r4 = any(line(a, c) and arrow(c, d) and arrow(d, b)
                 and mark(c, b) is None
                 for c, d in itertools.permutations(rest, 2))
        return r1 or r2 or r3 or r4

    contested = set()
    while True:
        new = {}
        for (a, b), m in marks.items():
            if m != UNDIRECTED or a not in visited or b not in visited:
                continue
            want = [e for e in ((a, b), (b, a)) if demanded(*e)]
            if len(want) == 2:
                contested.add((a, b))
            elif want:
                new[(a, b)] = want[0]
        if not new:
            return marks, contested
        marks.update(new)


def random_network(rng: np.random.Generator, dag: Dag,
                   max_card: int = 3) -> CptNetwork:
    """Seeded CPTs over a given DAG, probabilities kept away from 0 and 1."""
    cards = tuple(int(rng.integers(2, max_card + 1))
                  for _ in range(dag.n_vars))
    cpts = []
    for v in range(dag.n_vars):
        n_rows = 1
        for par in sorted(dag.parents[v]):
            n_rows *= cards[par]
        q = rng.dirichlet(np.full(cards[v], 0.5), size=n_rows)
        rows = 0.1 + (1.0 - 0.1 * cards[v]) * q
        cpts.append(rows / rows.sum(axis=1, keepdims=True))
    return CptNetwork(dag, cards, tuple(cpts))


def load_csv_reference(path) -> Dataset:
    """Parse a dataset file one cell at a time with ``str`` methods.

    Same grammar and messages as ``load_csv`` without a sidecar, so the
    cardinalities are inferred. A cell beyond int32 makes the int32 store
    raise ``OverflowError``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file, expected a header row")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    if any(not n for n in names):
        raise DatasetError(f"{path}: empty name in header")
    if len(set(names)) != len(names):
        raise DatasetError(f"{path}: duplicate name in header")

    n_vars = len(names)
    rows = np.empty((max(len(lines) - 1, 0), n_vars), dtype=np.int32)
    kept = 0
    for rownum, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_vars:
            raise DatasetError(
                f"{path}: row {rownum} has {len(cells)} cells, expected {n_vars}"
            )
        for j, cell in enumerate(cells):
            s = cell.strip()
            if not (s.isascii() and s.isdigit()):
                raise DatasetError(
                    f"{path}: row {rownum}, column {names[j]!r}: "
                    f"{cell.strip()!r} is not a nonnegative base-10 integer"
                )
            rows[kept, j] = int(s)
        kept += 1
    columns = rows[:kept].T.copy()
    maxima = columns.max(axis=1, initial=-1)
    return Dataset(names, tuple(max(int(m) + 1, 2) for m in maxima), columns)


def save_csv_reference(data: Dataset) -> bytes:
    """The bytes of a dataset file, formatted one cell at a time."""
    out = [",".join(data.names)]
    out.extend(",".join(str(int(v)) for v in row) for row in data.columns.T)
    return ("\n".join(out) + "\n").encode("utf-8")


def sample_reference(net: CptNetwork, n: int, seed: int) -> Dataset:
    """Forward sampling with a cumulative CPT row per sampled row."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = topo_order(net.dag)
    columns = np.zeros((net.dag.n_vars, n), dtype=np.int32)
    for v in order:
        u = rng.random(n)
        ps = sorted(net.dag.parents[v])
        if ps:
            dims = tuple(net.cardinalities[p] for p in ps)
            rows = np.ravel_multi_index(columns[ps].astype(np.int64), dims)
            probs = net.cpts[v][rows]
        else:
            probs = np.broadcast_to(net.cpts[v][0], (n, net.cardinalities[v]))
        cdf = np.cumsum(probs, axis=1)
        codes = (u[:, None] > cdf).sum(axis=1)
        columns[v] = np.minimum(codes, net.cardinalities[v] - 1)
    return Dataset(net.dag.names, tuple(net.cardinalities), columns)
