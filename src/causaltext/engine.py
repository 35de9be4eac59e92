"""The deterministic nine-step matrix pipeline over a relation set.

Steps 3 through 8 transform an adjacency matrix: build the fully connected
start matrix, delete unconditionally and conditionally independent pairs,
list candidate collider pairs, filter them against the stated
independencies, and zero the collider rows so the surviving asymmetric cells
encode orientation. An optional propagation pass orients further edges.
Every step is a pure function, and the harness grades replies against them
one step at a time. ``run_c2p`` runs their row-mask kernels in one pass,
reading the step-7 colliders straight off the step-5 rows without listing
the step-6 candidates; it builds the final matrix, and its
:class:`EngineTrace` builds every other step's matrix or candidate list on
its first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .matrix import AdjMatrix, _bits
from .relations import Pair, RelationSet
from .variables import VariableTable


@dataclass(frozen=True)
class ColliderCandidates:
    """Per-row lists of column pairs that could point into the row variable."""

    vars: VariableTable
    rows: dict[int, tuple[Pair, ...]]

    def to_mapping(self) -> dict[str, list[list[str]]]:
        names = self.vars.names
        return {names[r]: [[names[a], names[b]] for a, b in pairs]
                for r, pairs in sorted(self.rows.items())}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[Sequence[str]]],
                     vars: VariableTable) -> "ColliderCandidates":
        """Inverse of :meth:`to_mapping`."""
        idx = vars.index
        return cls(vars, {idx(r): tuple([(idx(a), idx(b)) for a, b in pairs])
                          for r, pairs in mapping.items()})


def initial_matrix(vars: VariableTable, declared: Iterable[Pair] = ()) -> AdjMatrix:
    """Fully connected start matrix, with declared effect-to-cause cells zeroed.

    For each declared pair (cause, effect) the cell [effect][cause] is set
    to 0, so the surviving [cause][effect] = 1 already encodes orientation.
    """
    return AdjMatrix._from_rows(vars, _initial_rows(len(vars), declared))


def apply_unconditional(matrix: AdjMatrix, rels: RelationSet) -> AdjMatrix:
    """Zero both cells of every unconditionally independent pair."""
    _require_shared_table(matrix, rels)
    return AdjMatrix._from_rows(matrix.vars, _without_pairs(matrix.rows, rels.uncond_indep))


def apply_conditional(matrix: AdjMatrix, rels: RelationSet) -> AdjMatrix:
    """Zero both cells of every conditionally independent pair.

    The conditioning sets themselves touch no other cell.
    """
    _require_shared_table(matrix, rels)
    pairs = (pair for pair, _cond in rels.cond_indep)
    return AdjMatrix._from_rows(matrix.vars, _without_pairs(matrix.rows, pairs))


def candidate_pairs(matrix: AdjMatrix) -> ColliderCandidates:
    """For each row with at least two 1-valued columns, all column pairs."""
    columns = range(matrix.n)
    rows: dict[int, tuple[Pair, ...]] = {}
    for r, mask in enumerate(matrix.rows):
        if mask.bit_count() >= 2:
            rows[r] = tuple(combinations([c for c in columns if mask >> c & 1], 2))
    return ColliderCandidates(matrix.vars, rows)


def filter_collider_pairs(cands: ColliderCandidates,
                          rels: RelationSet) -> ColliderCandidates:
    """Keep only the column pairs whose independence certifies a collider.

    A pair survives iff some stated independence for it conditions on a set
    that excludes the row variable, which is exactly the criterion under
    which the row is an orientable collider.
    """
    certified = _certified(rels)
    kept: dict[int, tuple[Pair, ...]] = {}
    for r, pairs in cands.rows.items():
        survivors = tuple((a, b) for a, b in pairs
                          if certified.get((a, b) if a < b else (b, a), 0) >> r & 1)
        if survivors:
            kept[r] = survivors
    return ColliderCandidates(cands.vars, kept)


def orient_colliders(matrix: AdjMatrix, filtered: ColliderCandidates) -> AdjMatrix:
    """Zero the row cells of every kept pair, leaving the inward columns intact.

    After this pass cells[c1][r] = cells[c2][r] = 1 with the mirror cells 0,
    which encodes c1 -> r <- c2.
    """
    return AdjMatrix._from_rows(matrix.vars, _oriented(matrix.rows, filtered.rows))


def propagate_orientations(matrix: AdjMatrix) -> AdjMatrix:
    """Orient chains until fixpoint: a -> b with b - c undirected and a, c
    non-adjacent forces b -> c (otherwise a new collider would appear).

    Rule applications see the orientations made before them; for one
    ``a -> b`` all eligible ``c`` orient at once, since ``b -> c`` changes
    neither the adjacencies nor ``a -> b``. No pass can delete an edge.
    """
    matrix.validate_pdag()
    ch = matrix.child_masks()
    und = matrix.undirected_masks()
    adj = matrix.adjacency_masks()
    rows = list(matrix.rows)
    changed = True
    while changed:
        changed = False
        for a in range(matrix.n):
            for b in _bits(ch[a]):
                forced = und[b] & ~adj[a]
                if not forced:
                    continue
                und[b] &= ~forced
                ch[b] |= forced
                for c in _bits(forced):
                    und[c] &= ~(1 << b)
                    rows[c] &= ~(1 << b)
                changed = True
    return AdjMatrix._from_rows(matrix.vars, rows)


class _built_on_read:
    """A method whose value is built on the attribute's first read and kept
    in the instance's ``__dict__``, where later reads find it first.

    This is ``functools.cached_property`` without the lock it takes before
    Python 3.12, which would make a report that reads every step slower
    than building the steps eagerly.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.build(instance)
        return value


@dataclass(frozen=True)
class EngineTrace:
    """Every intermediate artifact of one pipeline run, keyed step_3..step_9.

    The trace holds the row masks of steps 3, 4, 5, 8 and 9, keyed by step,
    and the collider pairs step 7 kept, keyed by row. Each ``step_*`` value
    is built on its first read and kept: the matrices through
    ``AdjMatrix._from_rows``, so their width and diagonal are checked, and
    ``step_6`` as ``candidate_pairs(step_5)``. ``run_c2p`` builds ``final``
    before it returns, so a caller that reads only ``final`` builds nothing
    more.

    ``step_9`` holds the matrix the reasoning question is answered from; it
    equals ``step_8`` unless propagation ran.
    """

    vars: VariableTable
    rows: dict[int, tuple[int, ...]]
    kept: dict[int, tuple[Pair, ...]]

    @_built_on_read
    def step_3(self) -> AdjMatrix:
        return AdjMatrix._from_rows(self.vars, self.rows[3])

    @_built_on_read
    def step_4(self) -> AdjMatrix:
        return AdjMatrix._from_rows(self.vars, self.rows[4])

    @_built_on_read
    def step_5(self) -> AdjMatrix:
        return AdjMatrix._from_rows(self.vars, self.rows[5])

    @_built_on_read
    def step_6(self) -> ColliderCandidates:
        return candidate_pairs(self.step_5)

    @_built_on_read
    def step_7(self) -> ColliderCandidates:
        return ColliderCandidates(self.vars, self.kept)

    @_built_on_read
    def step_8(self) -> AdjMatrix:
        return AdjMatrix._from_rows(self.vars, self.rows[8])

    @_built_on_read
    def step_9(self) -> AdjMatrix:
        rows = self.rows[9]
        return self.step_8 if rows == self.rows[8] else AdjMatrix._from_rows(self.vars, rows)

    @property
    def final(self) -> AdjMatrix:
        return self.step_9

    def as_dict(self) -> dict:
        """The steps' mappings. When no propagation ran, ``step_9`` is the
        ``step_8`` matrix and shares its mapping, so it is encoded once;
        no reader of a report changes its matrices."""
        step_8 = self.step_8.to_mapping()
        return {
            "step_3": self.step_3.to_mapping(),
            "step_4": self.step_4.to_mapping(),
            "step_5": self.step_5.to_mapping(),
            "step_6": self.step_6.to_mapping(),
            "step_7": self.step_7.to_mapping(),
            "step_8": step_8,
            "step_9": step_8 if self.step_9 is self.step_8 else self.step_9.to_mapping(),
        }


def run_c2p(rels: RelationSet, propagate: bool = False) -> EngineTrace:
    """Run steps 3 to 9 in one pass over row masks, through the kernels of
    the step functions, and return their trace."""
    r3 = _initial_rows(len(rels.vars), rels.declared_causes)
    r4 = _without_pairs(r3, rels.uncond_indep)
    r5 = _without_pairs(r4, (pair for pair, _cond in rels.cond_indep))
    kept = _kept_pairs(r5, _certified(rels))
    r8 = _oriented(r5, kept)
    r9 = (propagate_orientations(AdjMatrix._from_rows(rels.vars, r8)).rows
          if propagate else r8)
    trace = EngineTrace(rels.vars, {3: r3, 4: r4, 5: r5, 8: r8, 9: r9}, kept)
    trace.final  # every caller reads it, so this pass builds it
    return trace


# ---------------------------------------------------------------------------
# row-mask kernels, shared by the step functions and run_c2p


def _initial_rows(n: int, declared: Iterable[Pair]) -> tuple[int, ...]:
    """The rows of :func:`initial_matrix` on ``n`` variables."""
    full = (1 << n) - 1
    rows = [full ^ 1 << r for r in range(n)]
    for cause, effect in declared:
        rows[effect] &= ~(1 << cause)
    return tuple(rows)


def _without_pairs(rows: Sequence[int], pairs: Iterable[Pair]) -> tuple[int, ...]:
    """``rows`` with both cells of every pair set to 0."""
    rows = list(rows)
    for a, b in pairs:
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
    return tuple(rows)


def _certified(rels: RelationSet) -> dict[Pair, int]:
    """Per stated independent pair (a, b), a < b, the rows its statements
    certify as colliders.

    Bit r is set iff a stated independence of the pair conditions on a set
    without r; an unconditional one certifies every row.
    """
    certified = dict.fromkeys(rels.uncond_indep, -1)
    for pair, cond in rels.cond_indep:
        given = 0
        for v in cond:
            given |= 1 << v
        certified[pair] = certified.get(pair, 0) | ~given
    return certified


def _kept_pairs(rows: Sequence[int], certified: Mapping[Pair, int]) -> dict[int, tuple[Pair, ...]]:
    """Steps 6 and 7 on step 5's row masks, without listing the candidates.

    Row r keeps the pair (a, b) iff both cells [r][a] and [r][b] are 1 and
    the pair certifies r. Rows and their pairs come in ascending order, as
    ``candidate_pairs`` lists them.
    """
    kept: dict[int, list[Pair]] = {}
    for (a, b), certifies in certified.items():
        both = 1 << a | 1 << b
        for r, row in enumerate(rows):
            if row & both == both and certifies >> r & 1:
                kept.setdefault(r, []).append((a, b))
    return {r: tuple(sorted(kept[r])) for r in sorted(kept)}


def _oriented(rows: Sequence[int], kept: Mapping[int, Iterable[Pair]]) -> tuple[int, ...]:
    """``rows`` with the row cells of every kept pair set to 0."""
    rows = list(rows)
    for r, pairs in kept.items():
        for c1, c2 in pairs:
            rows[r] &= ~(1 << c1 | 1 << c2)
    return tuple(rows)


def _require_shared_table(matrix: AdjMatrix, rels: RelationSet) -> None:
    if matrix.vars != rels.vars:
        raise ConfigError("matrix and relation set must share one variable table")
