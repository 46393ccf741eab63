"""Markov blanket discovery with edge orientation around a target.

The pipeline (``emb``) runs four stages:

1. parents-and-children search (:func:`recog_pc`),
2. spouse recognition against each PC member (:func:`recog_spouses`),
3. removal of false PC members using the spouses found for them
   (:func:`_remove_false_pc`),
4. orientation of the surviving members (:func:`distinguish_pc`).

Stages 2 and 3 repeat until the PC set stops shrinking, because a
member evicted in stage 3 may itself be a spouse that stage 2 skipped
while it still looked like a direct neighbour.

Stage 4 first marks members with confirmed spouses as children, then
applies the N-structure rule: a member whose candidate spouses include
an already confirmed spouse must also be a child, because a variable
that both separates and reconnects that spouse can only sit at the
child end of its edge with the target. Unconditional-independence /
conditional-dependence pair patterns then pin down parents, and the
reverse pattern pins down extra children.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .citest import CiEngine
from .pcdiscovery import Sepsets, find_separator, recog_pc

SpouseMap = dict[int, set[int]]


@dataclass
class MbResult:
    """Markov blanket of ``target`` split into oriented roles.

    ``spouses`` maps each PC member to the spouses confirmed through it;
    keys with no confirmed spouses are omitted. ``candidate_spouses``
    keeps the pre-pruning candidates (including those of PC members that
    were later discarded), which the N-structure rule consumes.
    ``parents``, ``children`` and ``undecided`` partition ``pc``.
    """

    target: int
    pc: set[int]
    spouses: SpouseMap
    candidate_spouses: SpouseMap
    sepsets: Sepsets
    parents: set[int] = field(default_factory=set)
    children: set[int] = field(default_factory=set)
    undecided: set[int] = field(default_factory=set)

    @property
    def mb(self) -> set[int]:
        out = set(self.pc)
        for sp in self.spouses.values():
            out |= sp
        return out

    def validate(self) -> None:
        roles = (self.parents, self.children, self.undecided)
        if self.parents | self.children | self.undecided != self.pc:
            raise ValueError("parents/children/undecided must cover pc")
        if sum(len(r) for r in roles) != len(self.pc):
            raise ValueError("parents/children/undecided must be disjoint")
        if self.target in self.mb:
            raise ValueError("target cannot appear in its own blanket")
        for y, sp in self.spouses.items():
            if y not in self.pc:
                raise ValueError("spouse key outside pc")
            if sp & (self.pc | {self.target}):
                raise ValueError("spouses must be disjoint from pc")


def recog_spouses(engine: CiEngine, target: int, pc: set[int],
                  sepsets: Sepsets) -> tuple[SpouseMap, SpouseMap]:
    """Find spouse candidates of ``target`` through each PC member, then
    prune them; returns (pruned, candidates).

    A non-member X becomes a candidate through Y when X is dependent on
    the target given {Y} plus X's recorded separating set, after X has
    shown dependence given the PC members it is unconditionally linked
    to. Pruning visits the PC members Y, and each Y's candidates X, in
    ascending index order, and drops X from Y's set as soon as anything
    in the remaining pool separates the pair. On data a different order
    can change both the test count and the result, because a dropped
    candidate leaves the pools of the ones visited after it.
    """
    csp: SpouseMap = {}
    for x in range(engine.n_vars):
        if x == target or x in pc:
            continue
        # y's row answers the whole scan
        temp = [y for y in sorted(pc)
                if not engine.ci_test(y, x, ()).independent]
        if engine.ci_test(x, target, temp).independent:
            continue
        sep_x = sepsets.get(x, frozenset())
        for y in temp:
            if not engine.ci_test(x, target, {y} | sep_x).independent:
                csp.setdefault(y, set()).add(x)

    sp: SpouseMap = {y: set(v) for y, v in csp.items()}
    for y in sorted(sp):
        members = sp[y]
        for x in sorted(members):
            pool = (members | {target} | pc) - {x, y}
            if find_separator(engine, x, y, pool) is not None:
                members.discard(x)
    return sp, csp


def _remove_false_pc(engine: CiEngine, target: int, pc: set[int],
                     spouses: SpouseMap
                     ) -> tuple[set[int], SpouseMap, Sepsets]:
    """Drop PC members separable from the target once their own spouses
    join the conditioning pool; their spouse sets are cleared. Returns
    (pc, spouses, sepsets), the last holding the separating set found
    for each removed member, so the caller can treat it like any other
    separated variable afterwards.

    Every member is checked against the full incoming pool, not a pool
    that shrinks as members fall: a false member's separating set may
    itself contain another false member (for instance two descendants
    reached through a common true member), and dropping one early would
    make the other unremovable.
    """
    found: dict[int, frozenset[int]] = {}
    for y in sorted(pc):
        pool = (spouses.get(y, set()) | pc) - {y}
        z = find_separator(engine, target, y, pool)
        if z is not None:
            found[y] = z
    pc = pc - found.keys()
    spouses = {y: v for y, v in spouses.items() if y in pc and v}
    return pc, spouses, found


def distinguish_pc(engine: CiEngine, target: int, pc: set[int],
                   spouses: SpouseMap, candidates: SpouseMap,
                   n_structures: bool = True
                   ) -> tuple[set[int], set[int], set[int]]:
    """Partition ``pc`` into (parents, children, undecided).

    Order of evidence: confirmed spouses make children; the N-structure
    rule extends that through shared candidate spouses; a pair of
    members that are independent apart but dependent given the target
    are both parents; a member that loses its dependence on some parent
    once the target is conditioned on is a child.
    """
    children = {y for y in pc if spouses.get(y)}
    if n_structures:
        confirmed: set[int] = set()
        for y in children:
            confirmed |= spouses.get(y, set())
        for x in sorted(pc - children):
            if candidates.get(x, set()) & confirmed:
                children.add(x)

    parents: set[int] = set()
    rest = sorted(pc - children)
    for i, x in enumerate(rest):
        for y in rest[i + 1:]:
            if engine.ci_test(x, y, ()).independent:
                if not engine.ci_test(x, y, (target,)).independent:
                    parents.add(x)
                    parents.add(y)

    for x in sorted(pc - parents - children):
        for y in sorted(parents):
            if not engine.ci_test(x, y, ()).independent:
                if engine.ci_test(x, y, (target,)).independent:
                    children.add(x)
                    break
    return parents, children, pc - parents - children


def emb(engine: CiEngine, target: int, n_structures: bool = True) -> MbResult:
    """Markov blanket of ``target`` with members oriented where the
    evidence allows; see the module docstring for the stages.

    Spouse recognition and false-member removal repeat until the PC set
    is stable. A single pass is not enough when a true spouse starts out
    inside the PC candidates: the PC search alone cannot separate it
    (its separating set needs another spouse, which that search never
    conditions on), so it only leaves during false-member removal, and
    only a fresh spouse scan over the shrunken set can pick it back up
    as the spouse it really is. Each removed member's separating set is
    recorded so later scans condition on it like any other non-member.
    """
    pc, sepsets = recog_pc(engine, target)
    while True:
        sp, csp = recog_spouses(engine, target, pc, sepsets)
        pc, sp, found = _remove_false_pc(engine, target, pc, sp)
        if not found:
            break
        sepsets.update(found)
    parents, children, undecided = distinguish_pc(
        engine, target, pc, sp, csp, n_structures=n_structures)
    result = MbResult(target=target, pc=pc, spouses=sp,
                      candidate_spouses=csp, sepsets=sepsets,
                      parents=parents, children=children,
                      undecided=undecided)
    result.validate()
    return result


def iamb(engine: CiEngine, target: int) -> set[int]:
    """Grow-shrink Markov blanket baseline.

    Grow adds the variable with the strongest association given the
    current blanket while that association is significant; shrink then
    removes members that the rest of the blanket separates. Ties break
    on the lower index, so runs are reproducible. Grow skips unreliable
    tests: in near-empty strata nearly every candidate looks dependent.
    """
    mb: list[int] = []
    while True:
        grow = []
        for x in range(engine.n_vars):
            if x == target or x in mb:
                continue
            r = engine.ci_test(target, x, mb)
            if r.reliable and not r.independent:
                grow.append((-r.statistic, x))
        if not grow:
            break
        mb.append(min(grow)[1])
    changed = True
    while changed:
        changed = False
        for x in sorted(mb):
            rest = [m for m in mb if m != x]
            if engine.ci_test(target, x, rest).independent:
                mb.remove(x)
                changed = True
    return set(mb)
