"""Typed causal claims and their evaluation against graphs and matrices."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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

    ``rule-based`` reads orientations straight off the matrix and returns
    Undetermined whenever a relevant edge is unoriented; it never contradicts
    quantification. ``extension-quantified`` checks the claim in every
    consistent extension: all hold -> Yes, none -> No, mixed -> Undetermined.
    """
    if mode == MODE_RULE_BASED:
        return _rule_based(h, matrix)
    if mode == MODE_EXTENSION_QUANTIFIED:
        return _extension_quantified(h, matrix)
    raise ConfigError(f"unknown evaluation mode {mode!r}")


def _extension_quantified(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    table = matrix.vars
    extensions = dag_extensions(matrix)
    if not extensions:
        raise ConsistencyError("matrix admits no consistent extension")
    results = [holds_in_dag(h, d, table) for d in extensions]
    total = len(extensions)
    if all(results):
        witness = _common_witness(h, extensions, table)
        witness["extensions"] = total
        return Verdict(YES, witness)
    if not any(results):
        return Verdict(NO, {"counterexamples": total, "extensions": total})
    return Verdict(UNDETERMINED,
                   {"holds_in": sum(results), "extensions": total})


def _common_witness(h: Hypothesis, extensions: list[Dag], table: VariableTable) -> dict:
    s, o = h.resolve(table)
    kind = h.kind
    if kind is HypothesisKind.DIRECT_CAUSE:
        return {"edge": [table.label(s), table.label(o)]}
    if kind is HypothesisKind.COMMON_EFFECT:
        shared = set(range(len(table)))
        for d in extensions:
            shared &= set(_bits(d.child_mask(s) & d.child_mask(o)))
        return {"colliders": [table.label(z) for z in sorted(shared)]}
    if kind is HypothesisKind.COMMON_CAUSE:
        shared = set(range(len(table)))
        for d in extensions:
            shared &= set(_bits(d.parent_mask(s) & d.parent_mask(o)))
        return {"confounders": [table.label(z) for z in sorted(shared)]}
    # cause / indirect cause: exhibit one directed path from the first extension
    first = extensions[0]
    path = _reach([first.child_mask(v) for v in range(first.n)], s, o,
                  2 if kind is HypothesisKind.INDIRECT_CAUSE else 1)
    return {"path": [table.label(v) for v in path] if path else None}


def _rule_based(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    matrix.validate_pdag()
    table = matrix.vars
    s, o = h.resolve(table)
    kind = h.kind
    possible = matrix.rows  # a -> b holds in some orientation of the rest

    if kind is HypothesisKind.COMMON_CAUSE:
        pa = matrix.parent_masks()
        und = matrix.undirected_masks()
        certain = pa[s] & pa[o]
        if certain:
            return Verdict(YES, {"confounders": [table.label(z) for z in _bits(certain)]})
        if (pa[s] | und[s]) & (pa[o] | und[o]):
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    ch = matrix.child_masks()
    if kind is HypothesisKind.DIRECT_CAUSE:
        if (ch[s] >> o) & 1:
            return Verdict(YES, {"edge": [table.label(s), table.label(o)]})
        if (possible[s] >> o) & 1:  # not directed, so undirected
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    if kind is HypothesisKind.COMMON_EFFECT:
        certain = ch[s] & ch[o]
        if certain:
            return Verdict(YES, {"colliders": [table.label(z) for z in _bits(certain)]})
        if possible[s] & possible[o]:
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    if kind in (HypothesisKind.CAUSE, HypothesisKind.INDIRECT_CAUSE):
        min_len = 2 if kind is HypothesisKind.INDIRECT_CAUSE else 1
        sure = _reach(ch, s, o, min_len)
        if sure:
            return Verdict(YES, {"path": [table.label(v) for v in sure]})
        if _reach(possible, s, o, min_len):
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    raise ConfigError(f"unhandled hypothesis kind {kind}")


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
