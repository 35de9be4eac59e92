"""Typed causal claims and their evaluation against graphs and matrices."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_

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

    Both modes read one criterion per claim kind on packed edge masks: the
    kind's reader in ``_READERS``. ``rule-based`` reads it on the directed
    edges (Yes), then on the directed and undirected edges (Undetermined),
    and otherwise answers No; it never contradicts quantification.
    ``extension-quantified`` picks the reader once and calls it on each
    extension mask from ``dag_extensions``: all hold -> Yes, none -> No,
    mixed -> Undetermined. An extension then costs one reader call: a few
    shifts and ANDs, or a breadth-first reach for a cause or indirect-cause
    claim. A Yes path witness is searched once, in the directed edges or the
    first extension.
    """
    if mode == MODE_RULE_BASED:
        return _rule_based(h, matrix)
    if mode == MODE_EXTENSION_QUANTIFIED:
        return _extension_quantified(h, matrix)
    raise ConfigError(f"unknown evaluation mode {mode!r}")


def _direct_cause(mask: int, n: int, s: int, o: int) -> int:
    """The edge bit of ``s -> o``."""
    return mask >> s * n + o & 1


def _common_effect(mask: int, n: int, s: int, o: int) -> int:
    """The node mask of the children of both ``s`` and ``o``."""
    return mask >> s * n & mask >> o * n & (1 << n) - 1


def _common_cause(mask: int, n: int, s: int, o: int) -> int:
    """The parents of both ``s`` and ``o``, as bits ``p * n``: bit ``p * n``
    of columns ``s`` and ``o``, for each node ``p``."""
    return mask >> s & mask >> o & ((1 << n * n) - 1) // ((1 << n) - 1)


def _cause(mask: int, n: int, s: int, o: int) -> int:
    """1 if a directed path leads from ``s`` to ``o``."""
    return _reaches(mask, n, s, o, mask >> s * n & (1 << n) - 1)


def _indirect_cause(mask: int, n: int, s: int, o: int) -> int:
    """1 if a directed path of two or more edges leads from ``s`` to ``o``;
    a parallel edge ``s -> o`` is allowed."""
    return _reaches(mask, n, s, o, mask >> s * n & (1 << n) - 1 & ~(1 << o))


def _reaches(mask: int, n: int, s: int, o: int, reach: int) -> int:
    """1 if ``o`` is reached breadth first from the node set ``reach`` without
    re-entering ``s``, so also on the cyclic ``AdjMatrix.rows``."""
    frontier = reach
    keep = (1 << n) - 1 ^ 1 << s
    while frontier and not reach >> o & 1:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= mask >> (low.bit_length() - 1) * n
            frontier ^= low
        frontier = step & keep & ~reach
        reach |= frontier
    return reach >> o & 1


# one reader per kind: evidence for the claim on a packed edge mask (bit
# ``a * n + b`` for ``a -> b``), zero when it fails
_READERS = {
    HypothesisKind.DIRECT_CAUSE: _direct_cause,
    HypothesisKind.INDIRECT_CAUSE: _indirect_cause,
    HypothesisKind.CAUSE: _cause,
    HypothesisKind.COMMON_EFFECT: _common_effect,
    HypothesisKind.COMMON_CAUSE: _common_cause,
}


def _witness(kind: HypothesisKind, evidence: int, table: VariableTable,
             s: int, o: int, mask: int) -> dict:
    """A reader's evidence in variable labels: the edge, the shared children,
    the shared parents (bits ``p * n``), or for a path kind a path searched
    in the packed edge mask ``mask``."""
    n = len(table)
    if kind is HypothesisKind.DIRECT_CAUSE:
        return {"edge": [table.label(s), table.label(o)]}
    if kind is HypothesisKind.COMMON_EFFECT:
        return {"colliders": [table.label(z) for z in _bits(evidence)]}
    if kind is HypothesisKind.COMMON_CAUSE:
        return {"confounders": [table.label(b // n) for b in _bits(evidence)]}
    path = _reach(mask, n, s, o, 2 if kind is HypothesisKind.INDIRECT_CAUSE else 1)
    return {"path": [table.label(v) for v in path]}


def _extension_quantified(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    table = matrix.vars
    s, o = h.resolve(table)
    n = matrix.n
    extensions = dag_extensions(matrix)
    if not extensions:
        raise ConsistencyError("matrix admits no consistent extension")
    read = _READERS[h.kind]
    found = [e for m in extensions if (e := read(m, n, s, o))]
    total, holds = len(extensions), len(found)
    if holds == total:
        # colliders and confounders shared by every extension; the first
        # extension's path
        witness = _witness(h.kind, reduce(and_, found), table, s, o, extensions[0])
        witness["extensions"] = total
        return Verdict(YES, witness)
    if not holds:
        return Verdict(NO, {"counterexamples": total, "extensions": total})
    return Verdict(UNDETERMINED, {"holds_in": holds, "extensions": total})


def _rule_based(h: Hypothesis, matrix: AdjMatrix) -> Verdict:
    matrix.validate_pdag()
    table = matrix.vars
    s, o = h.resolve(table)
    n = matrix.n
    read = _READERS[h.kind]
    directed = sum(ch << i * n for i, ch in enumerate(matrix.child_masks()))
    if sure := read(directed, n, s, o):
        return Verdict(YES, _witness(h.kind, sure, table, s, o, directed))
    rows = sum(row << i * n for i, row in enumerate(matrix.rows))
    if read(rows, n, s, o):  # some orientation of the rest
        return Verdict(UNDETERMINED)
    return Verdict(NO, {"counterexamples": 1})


def _reach(mask: int, n: int, s: int, o: int, min_len: int) -> list[int] | None:
    """A simple path ``s -> ... -> o`` of at least ``min_len`` edges along the
    packed edge mask ``mask``, found depth first, or None."""
    full = (1 << n) - 1
    stack = [(s, [s], 1 << s)]
    while stack:
        node, path, on_path = stack.pop()
        for nxt in _bits(mask >> node * n & full & ~on_path):
            cand = path + [nxt]
            if nxt == o:
                if len(cand) - 1 >= min_len:
                    return cand
                continue
            stack.append((nxt, cand, on_path | 1 << nxt))
    return None
