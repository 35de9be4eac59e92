"""Typed causal claims and their evaluation against graphs and matrices."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_
from typing import Sequence

from .errors import ConfigError, ConsistencyError
from .graphs import Dag, Mec, dag_extensions
from .matrix import AdjMatrix, _bits
from .variables import VariableTable

YES = "Yes"
NO = "No"
UNDETERMINED = "Undetermined"

MODE_RULE_BASED = "rule-based"
MODE_EXTENSION_QUANTIFIED = "extension-quantified"


class HypothesisKind(str, Enum):
    DIRECT_CAUSE = "direct_cause"
    INDIRECT_CAUSE = "indirect_cause"
    CAUSE = "cause"
    COMMON_EFFECT = "common_effect"
    COMMON_CAUSE = "common_cause"


SYMMETRIC_KINDS = (HypothesisKind.COMMON_EFFECT, HypothesisKind.COMMON_CAUSE)


@dataclass(frozen=True)
class Hypothesis:
    """A causal claim about two variables, identified by label."""

    kind: HypothesisKind
    subject: str
    object: str

    def __post_init__(self):
        object.__setattr__(self, "kind", HypothesisKind(self.kind))
        if self.subject == self.object:
            raise ConsistencyError("hypothesis subject and object must differ")

    def resolve(self, table: VariableTable) -> tuple[int, int]:
        return table.index(self.subject), table.index(self.object)


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer with supporting evidence.

    Yes/No verdicts carry a witness (edge, path, collider list) or a
    counterexample count; Undetermined may carry quantification counts.
    """

    answer: str
    witness: dict | None = None

    def __post_init__(self):
        if self.answer not in (YES, NO, UNDETERMINED):
            raise ConfigError(f"bad verdict value {self.answer!r}")

    def as_dict(self) -> dict:
        return {"answer": self.answer, "witness": self.witness}


def binary_answer(value) -> str:
    """Collapse to Yes/No for scoring: anything but Yes counts as No."""
    answer = value.answer if isinstance(value, Verdict) else value
    return YES if answer == YES else NO


def holds_in_dag(h: Hypothesis, dag: Dag, table: VariableTable | None = None) -> bool:
    """Truth of the claim in a single fully oriented graph."""
    table = table or VariableTable.letters(dag.n)
    s, o = h.resolve(table)
    kind = h.kind
    if kind is HypothesisKind.DIRECT_CAUSE:
        return (s, o) in dag.edges
    if kind is HypothesisKind.CAUSE:
        return o in dag.descendants(s)
    if kind is HypothesisKind.INDIRECT_CAUSE:
        # a directed path of length >= 2; a parallel direct edge is allowed
        return any(z != o and o in dag.descendants(z) for z in dag.children(s))
    if kind is HypothesisKind.COMMON_EFFECT:
        return bool(dag.child_mask(s) & dag.child_mask(o))
    if kind is HypothesisKind.COMMON_CAUSE:
        return bool(dag.parent_mask(s) & dag.parent_mask(o))
    raise ConfigError(f"unhandled hypothesis kind {kind}")


def label_against_mec(h: Hypothesis, mec: Mec, table: VariableTable | None = None) -> str:
    """Yes iff the claim holds in every member of the equivalence class."""
    table = table or VariableTable.letters(mec.n)
    return YES if all(holds_in_dag(h, d, table) for d in mec.members) else NO


# ---------------------------------------------------------------------------
# evaluation against a partially oriented matrix


def evaluate_on_pdag(h: Hypothesis, matrix: AdjMatrix,
                     mode: str = MODE_EXTENSION_QUANTIFIED) -> Verdict:
    """Answer a claim from a PDAG-encoded matrix.

    Both modes read one criterion, ``_holds``. ``rule-based`` reads it on the
    directed edges (Yes), then on the directed and undirected edges
    (Undetermined), and otherwise answers No; it never contradicts
    quantification. ``extension-quantified`` reads it on each consistent
    extension: all hold -> Yes, none -> No, mixed -> Undetermined.
    """
    if mode == MODE_RULE_BASED:
        return _rule_based(h, matrix)
    if mode == MODE_EXTENSION_QUANTIFIED:
        return _extension_quantified(h, matrix)
    raise ConfigError(f"unknown evaluation mode {mode!r}")


def _holds(kind: HypothesisKind, ch: Sequence[int], s: int, o: int):
    """Evidence for the claim when ``ch[v]`` masks the nodes ``v`` points
    into: the edge bit, the mask of shared children, the mask of shared
    parents, or a directed path. Falsy when the claim fails."""
    if kind is HypothesisKind.DIRECT_CAUSE:
        return ch[s] >> o & 1
    if kind is HypothesisKind.COMMON_EFFECT:
        return ch[s] & ch[o]
    if kind is HypothesisKind.COMMON_CAUSE:
        both = 1 << s | 1 << o
        return sum(1 << p for p, c in enumerate(ch) if c & both == both)
    # a path of length >= 2 for an indirect cause; a parallel edge is allowed
    return _reach(ch, s, o, 2 if kind is HypothesisKind.INDIRECT_CAUSE else 1)


def _witness(kind: HypothesisKind, evidence, table: VariableTable, s: int, o: int) -> dict:
    """The evidence of ``_holds`` in variable labels."""
    if kind is HypothesisKind.DIRECT_CAUSE:
        return {"edge": [table.label(s), table.label(o)]}
    if kind is HypothesisKind.COMMON_EFFECT:
        return {"colliders": [table.label(z) for z in _bits(evidence)]}
    if kind is HypothesisKind.COMMON_CAUSE:
        return {"confounders": [table.label(z) for z in _bits(evidence)]}
    return {"path": [table.label(v) for v in evidence]}


def _extension_quantified(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    table = matrix.vars
    s, o = h.resolve(table)
    n = matrix.n
    full = (1 << n) - 1
    extensions = dag_extensions(matrix)
    if not extensions:
        raise ConsistencyError("matrix admits no consistent extension")
    found = [_holds(h.kind, [m >> i * n & full for i in range(n)], s, o)
             for m in extensions]
    total = len(extensions)
    holds = sum(map(bool, found))
    if holds == total:
        # colliders and confounders shared by every extension; the first
        # extension's path
        evidence = reduce(and_, found) if h.kind in SYMMETRIC_KINDS else found[0]
        witness = _witness(h.kind, evidence, table, s, o)
        witness["extensions"] = total
        return Verdict(YES, witness)
    if not holds:
        return Verdict(NO, {"counterexamples": total, "extensions": total})
    return Verdict(UNDETERMINED, {"holds_in": holds, "extensions": total})


def _rule_based(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    matrix.validate_pdag()
    table = matrix.vars
    s, o = h.resolve(table)
    sure = _holds(h.kind, matrix.child_masks(), s, o)
    if sure:
        return Verdict(YES, _witness(h.kind, sure, table, s, o))
    if _holds(h.kind, matrix.rows, s, o):  # some orientation of the rest
        return Verdict(UNDETERMINED)
    return Verdict(NO, {"counterexamples": 1})


def _reach(ch: Sequence[int], s: int, o: int, min_len: int) -> list[int] | None:
    """A simple path ``s -> ... -> o`` of at least ``min_len`` edges along the
    child masks ``ch``, found depth first, or None."""
    stack = [(s, [s], 1 << s)]
    while stack:
        node, path, on_path = stack.pop()
        for nxt in _bits(ch[node] & ~on_path):
            cand = path + [nxt]
            if nxt == o:
                if len(cand) - 1 >= min_len:
                    return cand
                continue
            stack.append((nxt, cand, on_path | 1 << nxt))
    return None
