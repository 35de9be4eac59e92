import json
import random
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext import engine
from causaltext.engine import (ColliderCandidates, apply_conditional,
                               apply_unconditional, candidate_pairs,
                               filter_collider_pairs, initial_matrix,
                               orient_colliders, propagate_orientations,
                               run_c2p)
from causaltext.errors import ConsistencyError, PdagError
from causaltext.fixtures import FIVE_VAR_HYPOTHESIS, FIVE_VAR_PREMISE
from causaltext.graphs import mec_index
from causaltext.matrix import AdjMatrix
from causaltext.pipeline import solve_text
from causaltext.relations import (RelationSet, relation_set, relation_table,
                                  relations_from_dag)
from causaltext.variables import VariableTable

from conftest import (FIVE_VAR_STEP_3, FIVE_VAR_STEP_4, FIVE_VAR_STEP_5,
                      FIVE_VAR_STEP_6, FIVE_VAR_STEP_7, FIVE_VAR_STEP_8,
                      JUNK_FOOD_STEP_3, JUNK_FOOD_STEP_4, JUNK_FOOD_STEP_6,
                      JUNK_FOOD_STEP_8, pdag_encoding, reference_encodings,
                      relation_docs)
from oracles import (all_dags, directed_edges, oriented_colliders, skeleton,
                     skeleton_pairs, undirected_pairs, v_structures)


def ones(matrix):
    return sum(sum(row) for row in matrix.cells)


def reference_propagate(matrix):
    """Chain propagation one cell at a time over a cell grid."""
    matrix.validate_pdag()
    cells = [list(row) for row in matrix.cells]
    n = matrix.n

    def adjacent(i, j):
        return cells[i][j] or cells[j][i]

    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not (cells[a][b] and not cells[b][a]):
                    continue  # need a directed a -> b
                for c in range(n):
                    if c in (a, b) or not (cells[b][c] and cells[c][b]):
                        continue  # need an undirected b - c
                    if not adjacent(a, c):
                        cells[c][b] = 0
                        changed = True
    return AdjMatrix(matrix.vars, cells)


class TestSteps:
    def test_initial_matrix_plain(self):
        m = initial_matrix(VariableTable.letters(3))
        assert m.to_mapping() == {
            "A": {"A": 0, "B": 1, "C": 1},
            "B": {"A": 1, "B": 0, "C": 1},
            "C": {"A": 1, "B": 1, "C": 0},
        }

    def test_initial_matrix_five_vars(self, five_var):
        m = initial_matrix(five_var.variables)
        assert m.to_mapping() == FIVE_VAR_STEP_3

    def test_initial_matrix_declared_cause(self):
        table = VariableTable.letters(2)
        m = initial_matrix(table, [(0, 1)])
        assert m.cell(0, 1) == 1 and m.cell(1, 0) == 0

    def test_apply_unconditional_five_var(self, five_var):
        m = apply_unconditional(initial_matrix(five_var.variables), five_var.relations)
        assert m.to_mapping() == FIVE_VAR_STEP_4

    def test_apply_unconditional_identity_and_total(self):
        table = VariableTable.letters(3)
        m = initial_matrix(table)
        empty = RelationSet(table)
        assert apply_unconditional(m, empty) == m
        everything = RelationSet(table, uncond_indep={(0, 1), (0, 2), (1, 2)})
        assert ones(apply_unconditional(m, everything)) == 0

    def test_apply_conditional_five_var(self, five_var):
        m4 = AdjMatrix.from_mapping(FIVE_VAR_STEP_4, five_var.variables)
        m5 = apply_conditional(m4, five_var.relations)
        assert m5.to_mapping() == FIVE_VAR_STEP_5

    def test_apply_conditional_idempotent(self, five_var):
        m4 = AdjMatrix.from_mapping(FIVE_VAR_STEP_4, five_var.variables)
        once = apply_conditional(m4, five_var.relations)
        assert apply_conditional(once, five_var.relations) == once

    def test_candidates_five_var(self, five_var):
        m5 = AdjMatrix.from_mapping(FIVE_VAR_STEP_5, five_var.variables)
        assert candidate_pairs(m5).to_mapping() == FIVE_VAR_STEP_6

    def test_candidates_zero_matrix(self):
        table = VariableTable.letters(3)
        m = AdjMatrix(table, [[0] * 3 for _ in range(3)])
        assert candidate_pairs(m).rows == {}

    def test_candidates_one_row(self):
        table = VariableTable.letters(3)
        m = AdjMatrix(table, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert candidate_pairs(m).to_mapping() == {"A": [["B", "C"]]}

    def test_filter_five_var_both_modes(self, five_var):
        m5 = AdjMatrix.from_mapping(FIVE_VAR_STEP_5, five_var.variables)
        cands = candidate_pairs(m5)
        kept = filter_collider_pairs(cands, five_var.relations)
        assert kept.to_mapping() == FIVE_VAR_STEP_7

    def test_candidates_from_mapping_inverts_to_mapping(self, five_var):
        trace = run_c2p(five_var.relations)
        for cands in (trace.step_6, trace.step_7):
            mapping = cands.to_mapping()
            back = ColliderCandidates.from_mapping(mapping, five_var.variables)
            assert back == cands and back.to_mapping() == mapping

    def test_orient_five_var(self, five_var):
        m5 = AdjMatrix.from_mapping(FIVE_VAR_STEP_5, five_var.variables)
        kept = filter_collider_pairs(candidate_pairs(m5), five_var.relations)
        assert orient_colliders(m5, kept).to_mapping() == FIVE_VAR_STEP_8

    def test_orient_empty_identity(self, five_var):
        m5 = AdjMatrix.from_mapping(FIVE_VAR_STEP_5, five_var.variables)
        empty = ColliderCandidates(five_var.variables, {})
        assert orient_colliders(m5, empty) == m5

    def test_orient_idempotent(self, five_var):
        m5 = AdjMatrix.from_mapping(FIVE_VAR_STEP_5, five_var.variables)
        kept = filter_collider_pairs(candidate_pairs(m5), five_var.relations)
        once = orient_colliders(m5, kept)
        assert orient_colliders(once, kept) == once


class TestPropagation:
    def test_basic_chain_orientation(self):
        table = VariableTable.letters(3)
        # A -> B directed, B - C undirected, A and C non-adjacent
        m = AdjMatrix(table, [[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        out = propagate_orientations(m)
        assert directed_edges(out) == {(0, 1), (1, 2)}

    def test_triangle_untouched(self):
        table = VariableTable.letters(3)
        # A -> B, B - C, A - C: adjacency of A and C blocks the rule
        m = AdjMatrix(table, [[0, 1, 1], [0, 0, 1], [1, 1, 0]])
        assert propagate_orientations(m) == m

    def test_five_var_matrix_orients_the_hub_chain(self, five_var):
        # C -> D is directed, D - E undirected, and C, E are non-adjacent, so
        # the chain rule fires and orients D -> E (the orientation every
        # consistent extension carries anyway)
        m8 = AdjMatrix.from_mapping(FIVE_VAR_STEP_8, five_var.variables)
        out = propagate_orientations(m8)
        assert (3, 4) in directed_edges(out)
        assert skeleton_pairs(out) == skeleton_pairs(m8)
        assert oriented_colliders(out) == oriented_colliders(m8)

    def test_propagation_runs_to_fixpoint(self):
        table = VariableTable.letters(4)
        # A -> B, B - C, C - D in a path: two successive rule applications
        m = AdjMatrix(table, [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
        ])
        out = propagate_orientations(m)
        assert directed_edges(out) == {(0, 1), (1, 2), (2, 3)}

    def test_matches_cell_reference(self):
        for n, states in reference_encodings():
            matrix = pdag_encoding(n, states)
            try:
                expected = reference_propagate(matrix)
            except PdagError:
                with pytest.raises(PdagError):
                    propagate_orientations(matrix)
                continue
            assert propagate_orientations(matrix) == expected, states


class TestRunPipeline:
    def test_five_var_trace(self, five_var):
        trace = run_c2p(five_var.relations)
        d = trace.as_dict()
        assert d["step_3"] == FIVE_VAR_STEP_3
        assert d["step_4"] == FIVE_VAR_STEP_4
        assert d["step_5"] == FIVE_VAR_STEP_5
        assert d["step_6"] == FIVE_VAR_STEP_6
        assert d["step_7"] == FIVE_VAR_STEP_7
        assert d["step_8"] == FIVE_VAR_STEP_8
        assert d["step_9"] == FIVE_VAR_STEP_8  # no propagation by default

    def test_junk_food_trace(self, junk_food):
        trace = run_c2p(junk_food.relations)
        d = trace.as_dict()
        assert d["step_3"] == JUNK_FOOD_STEP_3
        assert d["step_4"] == JUNK_FOOD_STEP_4
        assert d["step_5"] == JUNK_FOOD_STEP_4
        assert d["step_6"] == JUNK_FOOD_STEP_6
        assert d["step_7"] == JUNK_FOOD_STEP_6
        assert d["step_8"] == JUNK_FOOD_STEP_8

    def test_no_relations_leaves_complete_graph(self):
        table = VariableTable.letters(4)
        trace = run_c2p(RelationSet(table))
        assert ones(trace.final) == 12
        assert undirected_pairs(trace.final) == {
            (i, j) for i in range(4) for j in range(i + 1, 4)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_equivalence_exhaustive(self, n):
        table = VariableTable.letters(n)
        for dag in all_dags(n):
            trace = run_c2p(relations_from_dag(dag, table))
            assert skeleton_pairs(trace.final) == skeleton(dag)
            assert oriented_colliders(trace.final) == v_structures(dag)

    def test_oracle_equivalence_closure_premises(self):
        # the full separation closure gives the same reconstruction
        table = VariableTable.letters(4)
        for dag in all_dags(4):
            rels = relations_from_dag(dag, table, minimal=False)
            trace = run_c2p(rels)
            assert skeleton_pairs(trace.final) == skeleton(dag)
            assert oriented_colliders(trace.final) == v_structures(dag)

    def test_declared_cause_orientation_survives(self):
        rng = random.Random(3)
        table = VariableTable.letters(4)
        dags = [d for d in all_dags(4) if d.edges]
        for dag in rng.sample(dags, 60):
            declared = {rng.choice(sorted(dag.edges))}
            rels = relations_from_dag(dag, table)
            rels = RelationSet(table, rels.dependencies, rels.uncond_indep,
                               rels.cond_indep, frozenset(declared))
            final = run_c2p(rels).final
            for cause, effect in declared:
                assert final.cell(cause, effect) == 1
                assert final.cell(effect, cause) == 0


def reference_filter(cands, rels):
    """Step 7 pair by pair: list every conditioning set the pair is stated
    independent under, the empty set for an unconditional statement, and
    keep the pair at row ``r`` iff one of them leaves ``r`` out."""
    def independence_conds(pair):
        pair = tuple(sorted(pair))
        conds = [frozenset()] if pair in rels.uncond_indep else []
        return conds + [c for p, c in rels.cond_indep if p == pair]

    kept = {}
    for r, pairs in cands.rows.items():
        survivors = tuple(pair for pair in pairs
                          if any(r not in cond for cond in independence_conds(pair)))
        if survivors:
            kept[r] = survivors
    return ColliderCandidates(cands.vars, kept)


def every_candidate(table):
    """Every pair of other nodes, in both orders, at every row."""
    n = len(table)
    return ColliderCandidates(table, {
        r: tuple(p for a, b in combinations([v for v in range(n) if v != r], 2)
                 for p in ((a, b), (b, a)))
        for r in range(n)})


class TestFilterReference:
    @given(relation_docs())
    @settings(max_examples=200, deadline=None)
    def test_drawn_relation_sets(self, doc):
        cands = every_candidate(doc.variables)
        assert filter_collider_pairs(cands, doc.relations) \
            == reference_filter(cands, doc.relations)

    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "closure"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_class(self, n, minimal):
        table = VariableTable.letters(n)
        cands = every_candidate(table)
        idx = mec_index(n)
        masks, starts = idx.members(np.arange(idx.group_count))
        for row in relation_table(n, masks[starts[:-1]], minimal=minimal).tolist():
            rels = relation_set(row, table)
            assert filter_collider_pairs(cands, rels) == reference_filter(cands, rels)


@st.composite
def relation_sets(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    table = VariableTable.letters(n)
    deps, uncond, cond = set(), set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            bucket = draw(st.sampled_from(["dep", "uncond", "cond", "none"]))
            if bucket == "dep":
                deps.add((i, j))
            elif bucket == "uncond":
                uncond.add((i, j))
            elif bucket == "cond":
                rest = [v for v in range(n) if v not in (i, j)]
                if rest:
                    size = draw(st.integers(min_value=1, max_value=len(rest)))
                    cond.add(((i, j), frozenset(draw(st.permutations(rest))[:size])))
    rank = draw(st.permutations(range(n)))  # declared causes follow it, so stay acyclic
    causes = {(i, j) if rank[i] < rank[j] else (j, i)
              for i, j in combinations(range(n), 2) if draw(st.booleans())}
    return RelationSet(table, frozenset(deps), frozenset(uncond), frozenset(cond),
                       frozenset(causes))


class TestProperties:
    @given(relation_sets())
    @settings(max_examples=80, deadline=None)
    def test_monotone_and_idempotent(self, rels):
        trace = run_c2p(rels)
        counts = [ones(trace.step_3), ones(trace.step_4), ones(trace.step_5),
                  ones(trace.step_8), ones(trace.step_9)]
        assert counts == sorted(counts, reverse=True)
        assert apply_unconditional(trace.step_4, rels) == trace.step_4
        assert apply_conditional(trace.step_5, rels) == trace.step_5


def composed_steps(rels, propagate):
    """Steps 3 to 9 as the public step functions compute them one call at a time."""
    m3 = initial_matrix(rels.vars, rels.declared_causes)
    m4 = apply_unconditional(m3, rels)
    m5 = apply_conditional(m4, rels)
    cands = candidate_pairs(m5)
    kept = filter_collider_pairs(cands, rels)
    m8 = orient_colliders(m5, kept)
    m9 = propagate_orientations(m8) if propagate else m8
    return {"step_3": m3, "step_4": m4, "step_5": m5, "step_6": cands,
            "step_7": kept, "step_8": m8, "step_9": m9}


def assert_fused_pass_matches_steps(rels):
    for propagate in (False, True):
        try:
            steps = composed_steps(rels, propagate)
        except PdagError as err:
            with pytest.raises(PdagError, match=f"^{re.escape(str(err))}$"):
                run_c2p(rels, propagate)
            continue
        trace = run_c2p(rels, propagate)
        for key, value in steps.items():
            assert getattr(trace, key) == value, (key, propagate, rels)
        expected = json.dumps({key: value.to_mapping() for key, value in steps.items()})
        assert json.dumps(trace.as_dict()) == expected


def n3_premises():
    """Every n=3 relation set whose pairs are each dependent, independent,
    independent given the third variable or unstated, crossed with every
    orientation of declared causes; the sets ``RelationSet`` rejects as
    cyclic are skipped."""
    table = VariableTable.letters(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for kinds in product(("dep", "uncond", "cond", "none"), repeat=3):
        stated = {kind: {p for p, k in zip(pairs, kinds) if k == kind}
                  for kind in ("dep", "uncond", "cond")}
        cond = {(p, frozenset({3 - sum(p)})) for p in stated["cond"]}
        for ways in product((None, "forward", "backward"), repeat=3):
            declared = {p if w == "forward" else p[::-1]
                        for p, w in zip(pairs, ways) if w is not None}
            try:
                yield RelationSet(table, stated["dep"], stated["uncond"], cond, declared)
            except ConsistencyError:
                continue


class TestFusedPass:
    def test_every_n3_premise_with_declared_causes(self):
        premises = list(n3_premises())
        assert len(premises) == 1600  # 1,728 drawn, 128 with a cyclic declared relation
        for rels in premises:
            assert_fused_pass_matches_steps(rels)

    @given(relation_sets())
    @settings(max_examples=200, deadline=None)
    def test_drawn_relation_sets(self, rels):
        assert_fused_pass_matches_steps(rels)

    def test_steps_built_only_when_read(self, monkeypatch):
        expected = solve_text(FIVE_VAR_PREMISE, FIVE_VAR_HYPOTHESIS).verdict

        def refuse(matrix):
            raise RuntimeError("step 6 was built")

        monkeypatch.setattr(engine, "candidate_pairs", refuse)
        result = solve_text(FIVE_VAR_PREMISE, FIVE_VAR_HYPOTHESIS)
        assert result.verdict == expected
        with pytest.raises(RuntimeError, match="step 6 was built"):
            result.report()

    @pytest.mark.parametrize("propagate", [False, True])
    def test_final_built_by_the_pass(self, monkeypatch, propagate):
        # the final matrix is built inside run_c2p, so a caller that reads
        # only ``final`` builds no matrix of its own
        trace = engine.run_c2p(solve_text(FIVE_VAR_PREMISE).doc.relations, propagate)

        def refuse(*args):
            raise RuntimeError("a matrix was built after run_c2p returned")

        monkeypatch.setattr(AdjMatrix, "_from_rows", refuse)
        assert trace.final.rows == trace.rows[9]
        with pytest.raises(RuntimeError, match="after run_c2p returned"):
            trace.step_3

    def test_final_mapping_encoded_once_without_propagation(self, monkeypatch):
        # step_9 is the step_8 matrix unless propagation ran: as_dict encodes
        # steps 3, 4, 5 and 8 and gives step_9 the step-8 mapping
        calls, real = [], AdjMatrix.to_mapping
        monkeypatch.setattr(AdjMatrix, "to_mapping", lambda m: calls.append(m) or real(m))
        d = engine.run_c2p(solve_text(FIVE_VAR_PREMISE).doc.relations).as_dict()
        assert d["step_9"] is d["step_8"] and len(calls) == 4
