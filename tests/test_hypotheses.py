import gc
from itertools import combinations, permutations

import pytest

from causaltext.engine import run_c2p
from causaltext.errors import ConfigError, ConsistencyError, PdagError
from causaltext.graphs import Dag, dag_extensions
from causaltext.hypotheses import (MODE_EXTENSION_QUANTIFIED, MODE_RULE_BASED,
                                   NO, UNDETERMINED, YES, Hypothesis,
                                   SYMMETRIC_KINDS, HypothesisKind, Verdict,
                                   binary_answer,
                                   evaluate_on_pdag, holds_in_dag,
                                   label_against_mec)
from causaltext.matrix import AdjMatrix
from causaltext.pipeline import solve_text
from causaltext.relations import relations_from_dag
from causaltext.variables import VariableTable

from conftest import (FIVE_VAR_STEP_8, JUNK_FOOD_STEP_8, pdag_encoding,
                      reference_encodings)
from oracles import all_dags, group_mecs
from test_graphs import brute_force_extensions

COLLIDER = Dag(3, [(0, 2), (1, 2)])
CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(2, 0), (2, 1)])

KINDS = list(HypothesisKind)


def H(kind, s, o):
    return Hypothesis(kind, s, o)


def every_claim(table):
    """Every claim over ``table``: each symmetric kind once per pair."""
    n = len(table)
    return [H(kind, table.label(i), table.label(j)) for kind in KINDS
            for i, j in (combinations(range(n), 2) if kind in SYMMETRIC_KINDS
                         else permutations(range(n), 2))]


def reference_rule_based(h, matrix):
    """Rule-based verdict read cell by cell off the matrix."""
    matrix.validate_pdag()
    table = matrix.vars
    s, o = h.resolve(table)
    cells = matrix.cells
    n = matrix.n
    kind = h.kind

    def directed(a, b):
        return cells[a][b] == 1 and cells[b][a] == 0

    def undirected(a, b):
        return cells[a][b] == 1 and cells[b][a] == 1

    def possible(a, b):
        # could a -> b hold in some orientation of the remaining edges
        return cells[a][b] == 1

    if kind is HypothesisKind.DIRECT_CAUSE:
        if directed(s, o):
            return Verdict(YES, {"edge": [table.label(s), table.label(o)]})
        if undirected(s, o):
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    if kind is HypothesisKind.COMMON_EFFECT:
        certain = [z for z in range(n) if z not in (s, o)
                   and directed(s, z) and directed(o, z)]
        if certain:
            return Verdict(YES, {"colliders": [table.label(z) for z in certain]})
        open_ = [z for z in range(n) if z not in (s, o)
                 and possible(s, z) and possible(o, z)]
        if open_:
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    if kind is HypothesisKind.COMMON_CAUSE:
        certain = [z for z in range(n) if z not in (s, o)
                   and directed(z, s) and directed(z, o)]
        if certain:
            return Verdict(YES, {"confounders": [table.label(z) for z in certain]})
        open_ = [z for z in range(n) if z not in (s, o)
                 and possible(z, s) and possible(z, o)]
        if open_:
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    if kind in (HypothesisKind.CAUSE, HypothesisKind.INDIRECT_CAUSE):
        min_len = 2 if kind is HypothesisKind.INDIRECT_CAUSE else 1
        sure = reference_reach(n, lambda a, b: directed(a, b), s, o, min_len)
        if sure:
            return Verdict(YES, {"path": [table.label(v) for v in sure]})
        maybe = reference_reach(n, lambda a, b: possible(a, b), s, o, min_len)
        if maybe:
            return Verdict(UNDETERMINED)
        return Verdict(NO, {"counterexamples": 1})

    raise ConfigError(f"unhandled hypothesis kind {kind}")


def reference_quantified(h, members, table, got):
    """Extension-quantified verdict rebuilt from the class members with
    ``holds_in_dag``. A path witness is taken from ``got``: which path is
    shown is checked by the path-witness test."""
    total = len(members)
    holds = sum(holds_in_dag(h, d, table) for d in members)
    if not holds:
        return {"answer": NO, "witness": {"counterexamples": total, "extensions": total}}
    if holds < total:
        return {"answer": UNDETERMINED, "witness": {"holds_in": holds, "extensions": total}}
    s, o = h.resolve(table)
    if h.kind is HypothesisKind.DIRECT_CAUSE:
        witness = {"edge": [table.label(s), table.label(o)]}
    elif h.kind is HypothesisKind.COMMON_EFFECT:
        shared = set.intersection(*({z for a, z in d.edges if a == s and (o, z) in d.edges}
                                    for d in members))
        witness = {"colliders": [table.label(z) for z in sorted(shared)]}
    elif h.kind is HypothesisKind.COMMON_CAUSE:
        shared = set.intersection(*({z for z, b in d.edges if b == s and (z, o) in d.edges}
                                    for d in members))
        witness = {"confounders": [table.label(z) for z in sorted(shared)]}
    else:
        witness = {"path": got["witness"]["path"]}
    witness["extensions"] = total
    return {"answer": YES, "witness": witness}


def reference_reach(n, step, s, o, min_len):
    stack = [(s, [s])]
    while stack:
        node, path = stack.pop()
        for nxt in range(n):
            if nxt in path or not step(node, nxt):
                continue
            cand = path + [nxt]
            if nxt == o:
                if len(cand) - 1 >= min_len:
                    return cand
                continue
            stack.append((nxt, cand))
    return None


class TestHoldsInDag:
    def test_collider(self):
        assert holds_in_dag(H(HypothesisKind.DIRECT_CAUSE, "A", "C"), COLLIDER)
        assert holds_in_dag(H(HypothesisKind.COMMON_EFFECT, "A", "B"), COLLIDER)
        assert not holds_in_dag(H(HypothesisKind.COMMON_CAUSE, "A", "B"), COLLIDER)

    def test_chain(self):
        assert holds_in_dag(H(HypothesisKind.INDIRECT_CAUSE, "A", "C"), CHAIN)
        assert not holds_in_dag(H(HypothesisKind.DIRECT_CAUSE, "A", "C"), CHAIN)
        assert holds_in_dag(H(HypothesisKind.CAUSE, "A", "C"), CHAIN)

    def test_fork(self):
        assert holds_in_dag(H(HypothesisKind.COMMON_CAUSE, "A", "B"), FORK)
        assert not holds_in_dag(H(HypothesisKind.COMMON_EFFECT, "A", "B"), FORK)

    def test_indirect_allows_parallel_direct_edge(self):
        both = Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert holds_in_dag(H(HypothesisKind.INDIRECT_CAUSE, "A", "C"), both)
        assert holds_in_dag(H(HypothesisKind.DIRECT_CAUSE, "A", "C"), both)

    def test_subject_object_must_differ(self):
        with pytest.raises(ConsistencyError):
            H(HypothesisKind.CAUSE, "A", "A")


class TestLabelAgainstMec:
    def test_single_member_collider(self):
        mecs = group_mecs([COLLIDER])
        assert label_against_mec(H(HypothesisKind.DIRECT_CAUSE, "A", "C"), mecs[0]) == YES

    def test_chain_skeleton_is_undecided(self):
        members = [CHAIN, Dag(3, [(1, 0), (2, 1)]), Dag(3, [(1, 0), (1, 2)])]
        mec = group_mecs(members)[0]
        assert len(mec.members) == 3
        assert label_against_mec(H(HypothesisKind.DIRECT_CAUSE, "A", "B"), mec) == NO

    def test_monotone_direct_implies_cause(self):
        for dag in all_dags(4):
            table = VariableTable.letters(4)
            for i, j in permutations(range(4), 2):
                direct = holds_in_dag(
                    H(HypothesisKind.DIRECT_CAUSE, table.label(i), table.label(j)),
                    dag, table)
                if direct:
                    assert holds_in_dag(
                        H(HypothesisKind.CAUSE, table.label(i), table.label(j)),
                        dag, table)


class TestEvaluateOnPdag:
    def test_five_var_collider_witnesses(self):
        matrix = AdjMatrix.from_mapping(FIVE_VAR_STEP_8)
        verdict = evaluate_on_pdag(H(HypothesisKind.COMMON_EFFECT, "A", "B"), matrix)
        assert verdict.answer == YES
        assert verdict.witness["colliders"] == ["D", "E"]
        rule = evaluate_on_pdag(H(HypothesisKind.COMMON_EFFECT, "A", "B"), matrix,
                                MODE_RULE_BASED)
        assert rule.answer == YES
        assert rule.witness["colliders"] == ["D", "E"]

    def test_junk_food_direct_cause(self):
        matrix = AdjMatrix.from_mapping(JUNK_FOOD_STEP_8)
        for mode in (MODE_RULE_BASED, MODE_EXTENSION_QUANTIFIED):
            verdict = evaluate_on_pdag(H(HypothesisKind.DIRECT_CAUSE, "A", "C"),
                                       matrix, mode)
            assert verdict.answer == YES

    def test_single_undirected_edge_undetermined(self):
        matrix = AdjMatrix(VariableTable.letters(2), [[0, 1], [1, 0]])
        for mode in (MODE_RULE_BASED, MODE_EXTENSION_QUANTIFIED):
            verdict = evaluate_on_pdag(H(HypothesisKind.DIRECT_CAUSE, "A", "B"),
                                       matrix, mode)
            assert verdict.answer == UNDETERMINED

    def test_inconsistent_matrix_raises(self):
        cells = [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
        matrix = AdjMatrix(VariableTable.letters(4), cells)
        with pytest.raises(ConsistencyError):
            evaluate_on_pdag(H(HypothesisKind.CAUSE, "A", "D"), matrix)

    def test_rule_based_matches_cell_reference(self):
        claims = {}
        for n, states in reference_encodings():
            matrix = pdag_encoding(n, states)
            if n not in claims:
                claims[n] = every_claim(matrix.vars)
            try:
                expected = [reference_rule_based(h, matrix) for h in claims[n]]
            except PdagError:
                with pytest.raises(PdagError):
                    evaluate_on_pdag(claims[n][0], matrix, MODE_RULE_BASED)
                continue
            got = [evaluate_on_pdag(h, matrix, MODE_RULE_BASED) for h in claims[n]]
            assert got == expected, states

    def test_quantified_matches_reference_on_every_encoding(self):
        # every encoding on 1-4 nodes and a seeded 5-node sample, against
        # holds_in_dag over the brute-force extensions; a path witness must
        # be a simple directed path of the first extension
        claims = {}
        raised = {PdagError: 0, ConsistencyError: 0}
        for n, states in reference_encodings():
            matrix = pdag_encoding(n, states)
            table = matrix.vars
            if n not in claims:
                claims[n] = every_claim(table)
            try:
                members = brute_force_extensions(matrix)
                error = None if members else ConsistencyError
            except PdagError:
                error = PdagError
            if error:
                with pytest.raises(error):
                    evaluate_on_pdag(claims[n][0], matrix)
                raised[error] += 1
                continue
            for h in claims[n]:
                got = evaluate_on_pdag(h, matrix).as_dict()
                assert got == reference_quantified(h, members, table, got), (states, h)
                if "path" in got["witness"]:
                    path = [table.index(v) for v in got["witness"]["path"]]
                    s, o = h.resolve(table)
                    assert (path[0], path[-1]) == (s, o)
                    assert len(path) - 1 >= (2 if h.kind is HypothesisKind.INDIRECT_CAUSE
                                             else 1)
                    assert len(set(path)) == len(path)
                    assert all(e in members[0].edges for e in zip(path, path[1:]))
        assert all(raised.values()), raised

    def test_solve_leaves_no_reference_cycle(self):
        # a verdict over several extensions leaves nothing for the cyclic
        # collector: every object of the call is freed by reference counting
        premise = ("Suppose there is a closed system of 3 variables, A, B and C."
                   " All statistical relations among these 3 variables are as"
                   " follows: A correlates with B. A correlates with C. B"
                   " correlates with C. However, B and C are independent given A.")
        claim = "A directly affects B."
        warm = solve_text(premise, claim)
        assert warm.trace.final.undirected_masks() == [6, 1, 1]
        assert warm.verdict.witness == {"holds_in": 2, "extensions": 3}
        # five variables that all correlate: the 120 extensions of the
        # complete undirected graph, through the deep search and its leaves
        labels = "ABCDE"
        full = ("Suppose there is a closed system of 5 variables, A, B, C, D and E."
                " All statistical relations among these 5 variables are as follows: "
                + " ".join(f"{x} correlates with {y}." for x, y in combinations(labels, 2)))
        full_claim = "A directly affects E."
        warm = solve_text(full, full_claim)
        assert warm.trace.final.undirected_masks() == [31 ^ 1 << i for i in range(5)]
        assert warm.verdict.witness == {"holds_in": 60, "extensions": 120}
        gc.collect()
        gc.disable()
        try:
            solve_text(premise, claim)
            assert gc.collect() == 0
            solve_text(full, full_claim)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_verdict_serialization(self):
        v = Verdict(YES, {"edge": ["A", "B"]})
        assert v.as_dict() == {"answer": "Yes", "witness": {"edge": ["A", "B"]}}
        assert binary_answer(v) == YES
        assert binary_answer(Verdict(UNDETERMINED)) == NO

    def test_rule_based_never_contradicts_quantified(self):
        # exhaustive over every three-node class and every claim
        table = VariableTable.letters(3)
        for mec in group_mecs(all_dags(3)):
            matrix = run_c2p(relations_from_dag(mec.members[0], table)).final
            for kind in KINDS:
                for i, j in permutations(range(3), 2):
                    h = H(kind, table.label(i), table.label(j))
                    rule = evaluate_on_pdag(h, matrix, MODE_RULE_BASED)
                    quant = evaluate_on_pdag(h, matrix, MODE_EXTENSION_QUANTIFIED)
                    if rule.answer != UNDETERMINED:
                        assert rule.answer == quant.answer, (mec.digest(), h)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantified_agrees_with_mec_labels(self, n):
        # reconstructing the matrix and quantifying over its extensions must
        # reproduce the every-member label for every class and claim
        table = VariableTable.letters(n)
        for mec in group_mecs(all_dags(n)):
            matrix = run_c2p(relations_from_dag(mec.members[0], table)).final
            assert sorted(dag_extensions(matrix)) == sorted(d.mask for d in mec.members)
            for kind in KINDS:
                for i, j in permutations(range(n), 2):
                    h = H(kind, table.label(i), table.label(j))
                    verdict = evaluate_on_pdag(h, matrix)
                    assert binary_answer(verdict) == label_against_mec(h, mec, table)
                    got = verdict.as_dict()
                    assert got == reference_quantified(h, mec.members, table, got), \
                        (mec.digest(), h)

    @pytest.mark.parametrize("n", [3, 4])
    def test_path_witness_lies_in_first_extension(self, n):
        # every Yes cause / indirect-cause verdict exhibits a simple directed
        # path from s to o, long enough for the claim, along edges of the
        # first extension of the final matrix
        table = VariableTable.letters(n)
        checked = {HypothesisKind.CAUSE: 0, HypothesisKind.INDIRECT_CAUSE: 0}
        for mec in group_mecs(all_dags(n)):
            matrix = run_c2p(relations_from_dag(mec.members[0], table)).final
            first = Dag.from_mask(n, dag_extensions(matrix)[0])
            for kind, min_len in ((HypothesisKind.CAUSE, 1),
                                  (HypothesisKind.INDIRECT_CAUSE, 2)):
                for s, o in permutations(range(n), 2):
                    verdict = evaluate_on_pdag(H(kind, table.label(s), table.label(o)),
                                               matrix)
                    if verdict.answer != YES:
                        continue
                    path = [table.index(v) for v in verdict.witness["path"]]
                    assert (path[0], path[-1]) == (s, o)
                    assert len(path) - 1 >= min_len
                    assert len(set(path)) == len(path)
                    assert all(e in first.edges for e in zip(path, path[1:]))
                    checked[kind] += 1
        # three nodes admit no indirect cause that holds in a whole class
        assert checked[HypothesisKind.CAUSE], checked
        assert checked[HypothesisKind.INDIRECT_CAUSE] or n == 3, checked

    def test_quantified_agrees_with_mec_labels_sampled_n5(self):
        import random
        table = VariableTable.letters(5)
        mecs = group_mecs(all_dags(5))
        for mec in random.Random(13).sample(mecs, 120):
            matrix = run_c2p(relations_from_dag(mec.members[0], table)).final
            assert sorted(dag_extensions(matrix)) == sorted(d.mask for d in mec.members)
            for kind in KINDS:
                for i, j in permutations(range(5), 2):
                    h = H(kind, table.label(i), table.label(j))
                    verdict = evaluate_on_pdag(h, matrix)
                    assert binary_answer(verdict) == label_against_mec(h, mec, table)
                    got = verdict.as_dict()
                    assert got == reference_quantified(h, mec.members, table, got), \
                        (mec.digest(), h)
