"""The deterministic nine-step matrix pipeline over a relation set.

Steps 3 through 8 transform an adjacency matrix: build the fully connected
start matrix, delete unconditionally and conditionally independent pairs,
list candidate collider pairs, filter them against the stated
independencies, and zero the collider rows so the surviving asymmetric cells
encode orientation. An optional propagation pass orients further edges.
Every step is a pure function; ``run_c2p`` composes them and keeps each
intermediate artifact for auditing.
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
        lab = self.vars.label
        return {lab(r): [[lab(a), lab(b)] for a, b in pairs]
                for r, pairs in sorted(self.rows.items())}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[Sequence[str]]],
                     vars: VariableTable) -> "ColliderCandidates":
        """Inverse of :meth:`to_mapping`."""
        idx = vars.index
        return cls(vars, {idx(r): tuple((idx(a), idx(b)) for a, b in pairs)
                          for r, pairs in mapping.items()})


def initial_matrix(vars: VariableTable, declared: Iterable[Pair] = ()) -> AdjMatrix:
    """Fully connected start matrix, with declared effect-to-cause cells zeroed.

    For each declared pair (cause, effect) the cell [effect][cause] is set
    to 0, so the surviving [cause][effect] = 1 already encodes orientation.
    """
    full = (1 << len(vars)) - 1
    rows = [full ^ 1 << r for r in range(len(vars))]
    for cause, effect in declared:
        rows[effect] &= ~(1 << cause)
    return AdjMatrix._from_rows(vars, rows)


def apply_unconditional(matrix: AdjMatrix, rels: RelationSet) -> AdjMatrix:
    """Zero both cells of every unconditionally independent pair."""
    _require_shared_table(matrix, rels)
    return _without_pairs(matrix, rels.uncond_indep)


def apply_conditional(matrix: AdjMatrix, rels: RelationSet) -> AdjMatrix:
    """Zero both cells of every conditionally independent pair.

    The conditioning sets themselves touch no other cell.
    """
    _require_shared_table(matrix, rels)
    return _without_pairs(matrix, (pair for pair, _cond in rels.cond_indep))


def candidate_pairs(matrix: AdjMatrix) -> ColliderCandidates:
    """For each row with at least two 1-valued columns, all column pairs."""
    rows: dict[int, tuple[Pair, ...]] = {}
    for r, mask in enumerate(matrix.rows):
        ones = list(_bits(mask))
        if len(ones) >= 2:
            rows[r] = tuple(combinations(ones, 2))
    return ColliderCandidates(matrix.vars, rows)


def filter_collider_pairs(cands: ColliderCandidates,
                          rels: RelationSet) -> ColliderCandidates:
    """Keep only the column pairs whose independence certifies a collider.

    A pair survives iff some stated independence for it conditions on a set
    that excludes the row variable, which is exactly the criterion under
    which the row is an orientable collider.
    """
    # bit r of certified[pair] is set iff a stated independence of the pair
    # conditions on a set without r; an unconditional one certifies every row
    certified: dict[Pair, int] = {}
    for (a, b), cond in [*((pair, ()) for pair in rels.uncond_indep), *rels.cond_indep]:
        certified[a, b] = certified[b, a] = certified.get((a, b), 0) | ~sum(1 << v for v in cond)
    kept: dict[int, tuple[Pair, ...]] = {}
    for r, pairs in cands.rows.items():
        survivors = tuple(pair for pair in pairs if certified.get(pair, 0) >> r & 1)
        if survivors:
            kept[r] = survivors
    return ColliderCandidates(cands.vars, kept)


def orient_colliders(matrix: AdjMatrix, filtered: ColliderCandidates) -> AdjMatrix:
    """Zero the row cells of every kept pair, leaving the inward columns intact.

    After this pass cells[c1][r] = cells[c2][r] = 1 with the mirror cells 0,
    which encodes c1 -> r <- c2.
    """
    rows = list(matrix.rows)
    for r, pairs in filtered.rows.items():
        for c1, c2 in pairs:
            rows[r] &= ~(1 << c1 | 1 << c2)
    return AdjMatrix._from_rows(matrix.vars, rows)


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


@dataclass(frozen=True)
class EngineTrace:
    """Every intermediate artifact of one pipeline run, keyed step_3..step_9.

    ``step_9`` holds the matrix the reasoning question is answered from; it
    equals ``step_8`` unless propagation ran.
    """

    step_3: AdjMatrix
    step_4: AdjMatrix
    step_5: AdjMatrix
    step_6: ColliderCandidates
    step_7: ColliderCandidates
    step_8: AdjMatrix
    step_9: AdjMatrix

    @property
    def final(self) -> AdjMatrix:
        return self.step_9

    def as_dict(self) -> dict:
        return {
            "step_3": self.step_3.to_mapping(),
            "step_4": self.step_4.to_mapping(),
            "step_5": self.step_5.to_mapping(),
            "step_6": self.step_6.to_mapping(),
            "step_7": self.step_7.to_mapping(),
            "step_8": self.step_8.to_mapping(),
            "step_9": self.step_9.to_mapping(),
        }


def run_c2p(rels: RelationSet, propagate: bool = False) -> EngineTrace:
    """Compose the full matrix pipeline and keep every intermediate step."""
    m3 = initial_matrix(rels.vars, rels.declared_causes)
    m4 = apply_unconditional(m3, rels)
    m5 = apply_conditional(m4, rels)
    cands = candidate_pairs(m5)
    kept = filter_collider_pairs(cands, rels)
    m8 = orient_colliders(m5, kept)
    m9 = propagate_orientations(m8) if propagate else m8
    return EngineTrace(m3, m4, m5, cands, kept, m8, m9)


def _without_pairs(matrix: AdjMatrix, pairs: Iterable[Pair]) -> AdjMatrix:
    """Copy of ``matrix`` with both cells of every pair set to 0."""
    rows = list(matrix.rows)
    for a, b in pairs:
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
    return AdjMatrix._from_rows(matrix.vars, rows)


def _require_shared_table(matrix: AdjMatrix, rels: RelationSet) -> None:
    if matrix.vars != rels.vars:
        raise ConfigError("matrix and relation set must share one variable table")
