"""Relation sets: the verbalized statistical facts extracted from a premise.

numpy is imported only inside the table code, so it loads on the first
call of ``relation_table`` or ``relations_from_dag``; ``RelationSet`` and
``relation_set`` run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import BoundsError, ConsistencyError
from .graphs import Dag, _separated
from .matrix import _bits, is_acyclic
from .variables import VariableTable

Pair = tuple[int, int]
CondStatement = tuple[Pair, frozenset[int]]


def _canon_pair(a: int, b: int, n: int) -> Pair:
    """The pair ``(a, b)`` with the smaller index first, checked to join two
    distinct variables among ``n``."""
    if a == b:
        raise ConsistencyError(f"a relation needs two distinct variables, got ({a}, {b})")
    if a > b:
        a, b = b, a
    if a < 0 or b >= n:
        raise BoundsError(f"pair ({a}, {b}) out of range for {n} variables")
    return a, b


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
        # one pass per field: each entry is canonicalised and checked as it is read
        n = len(self.vars)
        lab = self.vars.label
        deps = frozenset([_canon_pair(a, b, n) for a, b in self.dependencies])
        uncond = frozenset([_canon_pair(a, b, n) for a, b in self.uncond_indep])
        overlap = deps & uncond
        if overlap:
            names = ", ".join(f"{lab(a)}-{lab(b)}" for a, b in sorted(overlap))
            raise ConsistencyError(f"pair(s) listed both dependent and independent: {names}")
        cond = []
        for (a, b), given in self.cond_indep:
            a, b = pair = _canon_pair(a, b, n)
            given = frozenset(given)
            if a in given or b in given:
                raise ConsistencyError(f"conditioning set of {lab(a)}-{lab(b)} contains the pair")
            for v in given:
                if not 0 <= v < n:
                    raise BoundsError(f"conditioning index {v} out of range")
            cond.append((pair, given))
        causes = []
        pa = [0] * n
        for a, b in self.declared_causes:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n):
                raise BoundsError(f"pair ({a}, {b}) out of range for {n} variables")
            if a == b:
                raise ConsistencyError("a variable cannot cause itself")
            pa[b] |= 1 << a
            causes.append((a, b))
        if causes and not is_acyclic(pa):
            raise ConsistencyError("declared cause-effect relation is cyclic")
        object.__setattr__(self, "dependencies", deps)
        object.__setattr__(self, "uncond_indep", uncond)
        object.__setattr__(self, "cond_indep", frozenset(cond))
        object.__setattr__(self, "declared_causes", frozenset(causes))

    def as_dict(self) -> dict:
        names = self.vars.names
        cond = sorted((pair, tuple(sorted(given))) for pair, given in self.cond_indep)
        return {
            "dependencies": [[names[a], names[b]] for a, b in sorted(self.dependencies)],
            "unconditional_independencies":
                [[names[a], names[b]] for a, b in sorted(self.uncond_indep)],
            "conditional_independencies": [
                {"pair": [names[a], names[b]], "given": [names[v] for v in given]}
                for (a, b), given in cond
            ],
            "declared_causes": [[names[a], names[b]] for a, b in sorted(self.declared_causes)],
        }

    @classmethod
    def from_dict(cls, table: VariableTable, data: dict) -> "RelationSet":
        """Inverse of :meth:`as_dict`; an absent list reads as empty."""
        idx = table.index

        def pairs(key):
            return [(idx(a), idx(b)) for a, b in data.get(key, ())]

        return cls(table, pairs("dependencies"), pairs("unconditional_independencies"),
                   [((idx(e["pair"][0]), idx(e["pair"][1])), frozenset(map(idx, e["given"])))
                    for e in data.get("conditional_independencies", ())],
                   pairs("declared_causes"))

TABLE_BLOCK = 256  # graphs tested together by relation_table


@lru_cache(maxsize=None)
def _candidates(n: int):
    """Queries of the relation table on ``n`` nodes.

    Returns the pair ends as ``(2, P, 1)`` node masks, one row per pair of
    ``combinations(range(n), 2)``; the candidate conditioning sets ``z``,
    ``(P, C)`` node masks, every subset of each pair's other nodes; the
    table bits ``1 << z``; and ``inside``, where ``inside[c, d]`` says that
    candidate ``d`` is a proper subset of candidate ``c``. Candidate ``c``
    of every pair picks the same positions among its other nodes, so one
    ``inside`` serves all pairs.
    """
    import numpy as np
    picks = range(1 << n - 2)
    pairs = list(combinations(range(n), 2))
    ends = np.array([[[1 << a] for a, _ in pairs], [[1 << b] for _, b in pairs]])
    z = np.array([[sum(1 << others[k] for k in _bits(s)) for s in picks]
                  for others in ([v for v in range(n) if v not in pair] for pair in pairs)])
    inside = np.array([[d != c and d & c == d for d in picks] for c in picks])
    return ends, z, np.int64(1) << z, inside


def relation_table(n: int, masks: np.ndarray, minimal: bool = True) -> np.ndarray:
    """Separating sets of every pair, for every graph in ``masks``.

    ``masks`` is an int64 array of edge bitmasks on ``n`` nodes. Entry
    ``[r, p]`` of the returned ``(len(masks), P)`` int64 table has bit ``z``
    set iff node set ``z`` is a kept separating set of pair
    ``combinations(range(n), 2)[p]`` in graph ``r``: a set of the pair's
    other nodes that d-separates the pair. An entry of 0 makes the pair a
    dependency, which holds exactly for the adjacent pairs. With
    ``minimal`` a set is kept only when no proper subset of it separates
    the pair, so the table holds the minimal separators, which all lie in
    ``An({x, y})`` (Tian, Paz & Pearl, "Finding minimal d-separators",
    1998); otherwise it holds every separating set.

    Every pair and candidate of up to ``TABLE_BLOCK`` graphs is tested at
    once (``_separated``), so the cost per graph falls with the number of
    graphs in a call while the temporaries stay a few MB.
    """
    import numpy as np
    if n < 2:
        return np.zeros((len(masks), 0), dtype=np.int64)
    ends, z, bit, inside = _candidates(n)
    blocks = []
    for lo in range(0, max(len(masks), 1), TABLE_BLOCK):
        seps = _separated(n, masks[lo:lo + TABLE_BLOCK], ends, z)
        if minimal:
            seps &= ~(seps @ inside.T)
        blocks.append((seps * bit).sum(axis=-1))
    return np.concatenate(blocks)


@lru_cache(maxsize=1 << 15)  # n=6 closure tables hold 19,005 distinct entries
def _cond_statements(pair: Pair, seps: int) -> tuple[CondStatement, ...]:
    """The conditional statements of one relation_table entry, made once
    and shared by every row that holds the entry."""
    return tuple((pair, frozenset(_bits(z))) for z in _bits(seps & ~1))


def relation_set(row: Sequence[int], table: VariableTable) -> RelationSet:
    """The relation set of one row of :func:`relation_table`.

    Entry ``p`` of the row belongs to pair
    ``combinations(range(len(table)), 2)[p]``:
    0 makes it a dependency, bit 0 an unconditional independence and every
    other bit ``z`` a conditional one given node set ``z`` of the pair's
    other nodes. Such entries are canonical and in range by construction,
    so the set is built without ``RelationSet``'s checks; it equals, and
    hashes as, the checked ``RelationSet(table, deps, uncond, cond)``.
    """
    deps, uncond, cond = [], [], []
    for pair, seps in zip(combinations(range(len(table)), 2), row):
        if not seps:
            deps.append(pair)
            continue
        if seps & 1:
            uncond.append(pair)
        if seps > 1:
            cond += _cond_statements(pair, seps)
    rels = object.__new__(RelationSet)
    rels.__dict__.update(vars=table, dependencies=frozenset(deps),
                         uncond_indep=frozenset(uncond), cond_indep=frozenset(cond),
                         declared_causes=frozenset())
    return rels


def relations_from_dag(dag: Dag, table: VariableTable | None = None,
                       minimal: bool = True) -> RelationSet:
    """Relation set a faithful observer would report for ``dag``.

    The dependencies are exactly the adjacent pairs; every other pair is
    stated independent given each of its minimal separating sets (the terse
    premise style), or with ``minimal=False`` given every separating set.
    This is the one-row case of :func:`relation_table`.
    """
    import numpy as np
    table = table or VariableTable.letters(dag.n)
    n = dag.n
    if len(table) != n:
        raise BoundsError("variable table size must match the graph")
    seps = relation_table(n, np.array([dag.mask]), minimal)
    return relation_set(seps[0].tolist(), table)
