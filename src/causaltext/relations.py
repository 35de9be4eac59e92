"""Relation sets: the verbalized statistical facts extracted from a premise."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import BoundsError, ConsistencyError
from .graphs import Dag, _ancestor_mask, _d_connected
from .matrix import _bits, is_acyclic
from .variables import VariableTable

Pair = tuple[int, int]
CondStatement = tuple[Pair, frozenset[int]]


def _canon_pair(p: Iterable[int]) -> Pair:
    a, b = p
    if a == b:
        raise ConsistencyError(f"a relation needs two distinct variables, got ({a}, {b})")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Dependencies, independencies, and declared cause-effect pairs.

    All entries are index pairs into ``vars``. Unordered pairs are stored
    with the smaller index first; ``declared_causes`` keeps its order
    (cause, effect). Conditional independencies pair the variable pair with
    its conditioning index set.

    Equality compares the label sequence and the relational content;
    presentation aliases do not participate, so a story-style premise and
    its symbolic source carry equal relation sets.
    """

    vars: VariableTable
    dependencies: frozenset[Pair] = frozenset()
    uncond_indep: frozenset[Pair] = frozenset()
    cond_indep: frozenset[CondStatement] = frozenset()
    declared_causes: frozenset[Pair] = frozenset()

    def _key(self):
        return (self.vars.names, self.dependencies, self.uncond_indep,
                self.cond_indep, self.declared_causes)

    def __eq__(self, other):
        if not isinstance(other, RelationSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __post_init__(self):
        n = len(self.vars)
        object.__setattr__(self, "dependencies",
                           frozenset(_canon_pair(p) for p in self.dependencies))
        object.__setattr__(self, "uncond_indep",
                           frozenset(_canon_pair(p) for p in self.uncond_indep))
        object.__setattr__(self, "cond_indep",
                           frozenset((_canon_pair(p), frozenset(c)) for p, c in self.cond_indep))
        object.__setattr__(self, "declared_causes",
                           frozenset((int(a), int(b)) for a, b in self.declared_causes))
        for coll in (self.dependencies, self.uncond_indep, self.declared_causes):
            for a, b in coll:
                if not (0 <= a < n and 0 <= b < n):
                    raise BoundsError(f"pair ({a}, {b}) out of range for {n} variables")
        overlap = self.dependencies & self.uncond_indep
        if overlap:
            names = ", ".join(f"{self.vars.label(a)}-{self.vars.label(b)}" for a, b in sorted(overlap))
            raise ConsistencyError(f"pair(s) listed both dependent and independent: {names}")
        for (a, b), cond in self.cond_indep:
            if not (0 <= a < n and 0 <= b < n):
                raise BoundsError(f"pair ({a}, {b}) out of range for {n} variables")
            if a in cond or b in cond:
                raise ConsistencyError(
                    f"conditioning set of {self.vars.label(a)}-{self.vars.label(b)} contains the pair")
            for v in cond:
                if not 0 <= v < n:
                    raise BoundsError(f"conditioning index {v} out of range")
        pa = [0] * n
        for a, b in self.declared_causes:
            if a == b:
                raise ConsistencyError("a variable cannot cause itself")
            pa[b] |= 1 << a
        if not is_acyclic(pa):
            raise ConsistencyError("declared cause-effect relation is cyclic")

    # -- queries -----------------------------------------------------------

    def independence_conds(self, pair: Pair) -> tuple[frozenset[int], ...]:
        """Every conditioning set under which the pair is stated independent.

        The empty set appears first when the pair is unconditionally
        independent; conditional sets follow in sorted order.
        """
        pair = _canon_pair(pair)
        conds = []
        if pair in self.uncond_indep:
            conds.append(frozenset())
        conds.extend(sorted((c for p, c in self.cond_indep if p == pair),
                            key=lambda s: (len(s), tuple(sorted(s)))))
        return tuple(conds)

    def is_empty(self) -> bool:
        return not (self.dependencies or self.uncond_indep or self.cond_indep
                    or self.declared_causes)

    def as_dict(self) -> dict:
        lab = self.vars.label
        return {
            "dependencies": [[lab(a), lab(b)] for a, b in sorted(self.dependencies)],
            "unconditional_independencies":
                [[lab(a), lab(b)] for a, b in sorted(self.uncond_indep)],
            "conditional_independencies": [
                {"pair": [lab(a), lab(b)], "given": [lab(v) for v in sorted(c)]}
                for (a, b), c in sorted(self.cond_indep,
                                        key=lambda e: (e[0], tuple(sorted(e[1]))))
            ],
            "declared_causes": [[lab(a), lab(b)] for a, b in sorted(self.declared_causes)],
        }

    @classmethod
    def from_dict(cls, table: VariableTable, data: dict) -> "RelationSet":
        """Inverse of :meth:`as_dict`; an absent list reads as empty."""
        idx = table.index

        def pairs(key):
            return frozenset((idx(a), idx(b)) for a, b in data.get(key, ()))

        return cls(table, pairs("dependencies"), pairs("unconditional_independencies"),
                   frozenset(((idx(e["pair"][0]), idx(e["pair"][1])),
                              frozenset(map(idx, e["given"])))
                             for e in data.get("conditional_independencies", ())),
                   pairs("declared_causes"))


def relations_from_dag(dag: Dag, table: VariableTable | None = None,
                       max_cond: int | None = None,
                       minimal: bool = True) -> RelationSet:
    """Relation set a faithful observer would report for ``dag``.

    ``max_cond`` defaults to ``n - 2``, which is always enough to separate
    every non-adjacent pair, so the dependencies are exactly the adjacent
    pairs.

    An adjacent pair is a dependency untested, since no set separates it.
    Every other pair tries candidate subsets in size order, up to
    ``max_cond``; a pair no subset separates is a dependency. With
    ``minimal`` (the default) a subset that contains a separating set found
    earlier is skipped untested, since it cannot be minimal, so only the
    sets with no separating proper subset are kept, which is the terse
    premise style. Its candidates are drawn from the pair's ancestors
    ``An({x, y}) \\ {x, y}`` alone, since every minimal d-separator lies
    there (Tian, Paz & Pearl, "Finding minimal d-separators", 1998).
    Otherwise every separating subset of the other nodes is verbalized.
    """
    table = table or VariableTable.letters(dag.n)
    n = dag.n
    if len(table) != n:
        raise BoundsError("variable table size must match the graph")
    if n < 2:
        return RelationSet(table)
    if max_cond is None:
        max_cond = n - 2
    if not 0 <= max_cond <= n - 2:
        raise BoundsError(f"max_cond must be between 0 and n-2={n - 2}, got {max_cond}")
    pa = [dag.parent_mask(i) for i in range(n)]
    ch = [dag.child_mask(i) for i in range(n)]
    deps = set()
    uncond = set()
    cond = set()
    for x, y in combinations(range(n), 2):
        if dag.adjacent(x, y):
            deps.add((x, y))
            continue
        pool = _ancestor_mask(pa, 1 << x | 1 << y) if minimal else (1 << n) - 1
        rest = [1 << v for v in _bits(pool) if v != x and v != y]
        found: list[int] = []
        for size in range(max_cond + 1):
            for sub in combinations(rest, size):
                z = sum(sub)
                if minimal and any(f & z == f for f in found):
                    continue
                if not _d_connected(pa, ch, x, y, z):
                    found.append(z)
        if not found:
            deps.add((x, y))
        for z in found:
            if z:
                cond.add(((x, y), frozenset(_bits(z))))
            else:
                uncond.add((x, y))
    return RelationSet(table, frozenset(deps), frozenset(uncond), frozenset(cond))
