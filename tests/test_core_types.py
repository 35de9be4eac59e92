from itertools import combinations

import pytest

from causaltext.errors import (BoundsError, ConsistencyError, PdagError,
                               UnknownVariableError)
from causaltext.matrix import AdjMatrix
from causaltext.relations import RelationSet
from causaltext.variables import VariableTable

from conftest import pdag_cells, reference_encodings
from oracles import (directed_edges, oriented_colliders, skeleton_pairs,
                     undirected_pairs)


def reference_views(cells):
    """Skeleton, directed edges, undirected pairs, colliders and parent masks,
    read cell by cell off a grid."""
    n = len(cells)
    skel = {(i, j) for i in range(n) for j in range(i + 1, n)
            if cells[i][j] or cells[j][i]}
    directed = {(i, j) for i in range(n) for j in range(n)
                if i != j and cells[i][j] and not cells[j][i]}
    undirected = {(i, j) for i in range(n) for j in range(i + 1, n)
                  if cells[i][j] and cells[j][i]}
    colliders = set()
    for c in range(n):
        parents = sorted(r for r, t in directed if t == c)
        for x, y in combinations(parents, 2):
            if (x, y) not in skel:
                colliders.add((x, c, y))
    pa = [0] * n
    for r, c in directed:
        pa[c] |= 1 << r
    return skel, directed, undirected, colliders, pa


class TestVariableTable:
    def test_order_defines_indices(self):
        t = VariableTable(["B", "A"])
        assert t.index("B") == 0 and t.index("A") == 1
        assert t.label(1) == "A"

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(ConsistencyError):
            VariableTable(["A", "A"])
        with pytest.raises(ConsistencyError):
            VariableTable(["A", " "])
        with pytest.raises(ConsistencyError):
            VariableTable([])

    def test_alias_lookup_is_case_insensitive(self):
        t = VariableTable(["CD", "BHM"], {"CD": "central density"})
        assert t.index("Central Density") == 0
        assert t.index("bhm") == 1
        with pytest.raises(UnknownVariableError):
            t.index("velocity")

    @pytest.mark.parametrize("names, aliases, mention, index", [
        (["B", "A"], {}, "A", 1),
        (["CD", "BHM"], {}, "cd", 0),
        (["CD", "BHM"], {"BHM": "black hole mass"}, "Black HOLE mass", 1),
        (["CD", "BHM"], {"BHM": "black hole mass"}, " black hole mass ", 1),
        (["ab", "AB"], {}, "ab", 0),
        (["ab", "AB"], {}, "AB", 1),
        (["ab", "AB"], {}, "Ab", 0),
        (["A", "B"], {"A": "a"}, "a", 0),
    ], ids=["exact", "folded-label", "alias-any-case", "alias-padded",
            "case-pair-first", "case-pair-second", "case-pair-folded", "own-alias"])
    def test_index_lookup_order(self, names, aliases, mention, index):
        # the exact label, then the case-folded mention, where the first of
        # two labels that differ only in case wins
        assert VariableTable(names, aliases).index(mention) == index

    def test_index_rejects_unknown_mention(self):
        t = VariableTable(["ab", "AB"], {"ab": "alpha"})
        with pytest.raises(UnknownVariableError, match="unknown variable mention: 'beta'"):
            t.index("beta")

    def test_alias_collisions(self):
        with pytest.raises(ConsistencyError):
            VariableTable(["A", "B"], {"A": "b"})  # collides with another label
        with pytest.raises(ConsistencyError):
            VariableTable(["A", "B"], {"A": "same", "B": "same"})
        # an identity alias is allowed
        t = VariableTable(["A", "B"], {"A": "A"})
        assert t.index("A") == 0

    def test_letters(self):
        assert VariableTable.letters(3).names == ("A", "B", "C")
        with pytest.raises(ConsistencyError):
            VariableTable.letters(7)


class TestAdjMatrix:
    def test_shape_and_cell_validation(self):
        t = VariableTable.letters(2)
        with pytest.raises(PdagError):
            AdjMatrix(t, [[0, 1]])
        with pytest.raises(PdagError):
            AdjMatrix(t, [[1, 1], [1, 0]])  # non-zero diagonal
        with pytest.raises(PdagError):
            AdjMatrix(t, [[0, 2], [1, 0]])  # non-binary cell

    def test_row_constructor_checks_width_and_diagonal(self):
        t = VariableTable.letters(2)
        assert AdjMatrix._from_rows(t, [0b10, 0b01]) == AdjMatrix(t, [[0, 1], [1, 0]])
        for rows in ([0b11, 0], [0b100, 0], [0b10]):  # diagonal, width, row count
            with pytest.raises(PdagError):
                AdjMatrix._from_rows(t, rows)

    def test_views_match_cell_reference(self):
        for n, states in reference_encodings():
            cells = pdag_cells(n, states)
            m = AdjMatrix(VariableTable.letters(n), cells)
            names = m.vars.names
            assert m.cells == tuple(tuple(row) for row in cells)
            assert m.to_mapping() == {names[r]: {names[c]: cells[r][c] for c in range(n)}
                                      for r in range(n)}
            assert AdjMatrix.from_mapping(m.to_mapping()) == m
            assert (skeleton_pairs(m), directed_edges(m), undirected_pairs(m),
                    oriented_colliders(m), m.parent_masks()) == reference_views(cells)

    def test_mapping_roundtrip(self):
        mapping = {"A": {"A": 0, "B": 1}, "B": {"A": 0, "B": 0}}
        m = AdjMatrix.from_mapping(mapping)
        assert m.to_mapping() == mapping
        assert directed_edges(m) == {(0, 1)}
        assert undirected_pairs(m) == frozenset()
        assert skeleton_pairs(m) == {(0, 1)}

    def test_oriented_colliders(self):
        mapping = {
            "A": {"A": 0, "B": 0, "C": 1},
            "B": {"A": 0, "B": 0, "C": 1},
            "C": {"A": 0, "B": 0, "C": 0},
        }
        m = AdjMatrix.from_mapping(mapping)
        assert oriented_colliders(m) == {(0, 2, 1)}

    def test_directed_cycle_detection(self):
        cells = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        m = AdjMatrix(VariableTable.letters(3), cells)
        with pytest.raises(PdagError):
            m.validate_pdag()
        # an undirected triangle is fine
        ok = AdjMatrix(VariableTable.letters(3),
                       [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        ok.validate_pdag()


# single-defect inputs and the exception each raises, pinned as the readers
# raised them before they became one pass over each row or field
T3 = VariableTable.letters(3)
GOOD_CELLS = ((0, 1, 1), (1, 0, 1), (0, 0, 0))


def with_cell(r, c, v):
    return [[v if (i, j) == (r, c) else x for j, x in enumerate(row)]
            for i, row in enumerate(GOOD_CELLS)]


def as_mapping(cells, drop=None):
    mapping = {T3.label(r): {T3.label(c): v for c, v in enumerate(row)}
               for r, row in enumerate(cells)}
    if drop:
        del mapping[drop[0]][drop[1]]
    return mapping


NOT_SQUARE = "matrix must be 3x3 to match its variable table"
MATRIX_DEFECTS = {
    "value 2": (with_cell(1, 2, 2), None, PdagError, "cell [1][2] must be 0 or 1, got 2"),
    "value x": (with_cell(1, 2, "x"), None, ValueError,
                "invalid literal for int() with base 10: 'x'"),
    "diagonal 1": (with_cell(2, 2, 1), None, PdagError, "diagonal cell [2][2] must be 0"),
    "missing column": (GOOD_CELLS, ("B", "C"), KeyError, "'C'"),
}
CELL_DEFECTS = {
    "short row": ([[0, 1, 1], [1, 0], [0, 0, 0]], PdagError, NOT_SQUARE),
    "long row": ([[0, 1, 1], [1, 0, 1, 0], [0, 0, 0]], PdagError, NOT_SQUARE),
    "missing row": (GOOD_CELLS[:2], PdagError, NOT_SQUARE),
    "extra row": ([*GOOD_CELLS, (0, 0, 0)], PdagError, NOT_SQUARE),
}
RELATION_DEFECTS = {
    "self pair": (dict(dependencies={(1, 1)}), ConsistencyError,
                  "a relation needs two distinct variables, got (1, 1)"),
    "self independence": (dict(uncond_indep={(2, 2)}), ConsistencyError,
                          "a relation needs two distinct variables, got (2, 2)"),
    "self conditional": (dict(cond_indep={((0, 0), frozenset({2}))}), ConsistencyError,
                         "a relation needs two distinct variables, got (0, 0)"),
    "self cause": (dict(declared_causes={(1, 1)}), ConsistencyError,
                   "a variable cannot cause itself"),
    "index out of range": (dict(dependencies={(0, 5)}), BoundsError,
                           "pair (0, 5) out of range for 3 variables"),
    "independence out of range": (dict(uncond_indep={(3, 1)}), BoundsError,
                                  "pair (1, 3) out of range for 3 variables"),
    "negative index": (dict(dependencies={(-1, 1)}), BoundsError,
                       "pair (-1, 1) out of range for 3 variables"),
    "conditional out of range": (dict(cond_indep={((0, 4), frozenset({1}))}), BoundsError,
                                 "pair (0, 4) out of range for 3 variables"),
    "conditioning index out of range": (dict(cond_indep={((0, 1), frozenset({7}))}),
                                        BoundsError, "conditioning index 7 out of range"),
    "cause out of range": (dict(declared_causes={(0, 3)}), BoundsError,
                           "pair (0, 3) out of range for 3 variables"),
    "dependent and independent": (dict(dependencies={(0, 1)}, uncond_indep={(1, 0)}),
                                  ConsistencyError,
                                  "pair(s) listed both dependent and independent: A-B"),
    "conditioning set holds its pair": (dict(cond_indep={((0, 1), frozenset({1, 2}))}),
                                        ConsistencyError,
                                        "conditioning set of A-B contains the pair"),
    "cyclic cause": (dict(declared_causes={(0, 1), (1, 2), (2, 0)}), ConsistencyError,
                     "declared cause-effect relation is cyclic"),
}
DICT_DEFECTS = {
    "self pair": (dict(dependencies=[["B", "B"]]), ConsistencyError,
                  "a relation needs two distinct variables, got (1, 1)"),
    "self conditional": (dict(conditional_independencies=[{"pair": ["A", "A"],
                                                           "given": ["C"]}]),
                         ConsistencyError, "a relation needs two distinct variables, got (0, 0)"),
    "self cause": (dict(declared_causes=[["B", "B"]]), ConsistencyError,
                   "a variable cannot cause itself"),
    "unknown label": (dict(dependencies=[["A", "Q"]]), UnknownVariableError,
                      "unknown variable mention: 'Q'"),
    "unknown conditioning label": (dict(conditional_independencies=[{"pair": ["A", "B"],
                                                                     "given": ["Z"]}]),
                                   UnknownVariableError, "unknown variable mention: 'Z'"),
    "dependent and independent": (dict(dependencies=[["A", "B"]],
                                       unconditional_independencies=[["B", "A"]]),
                                  ConsistencyError,
                                  "pair(s) listed both dependent and independent: A-B"),
    "conditioning set holds its pair": (dict(conditional_independencies=[
        {"pair": ["A", "B"], "given": ["B", "C"]}]), ConsistencyError,
        "conditioning set of A-B contains the pair"),
    "cyclic cause": (dict(declared_causes=[["A", "B"], ["B", "C"], ["C", "A"]]),
                     ConsistencyError, "declared cause-effect relation is cyclic"),
    "three ends": (dict(dependencies=[["A", "B", "C"]]), ValueError,
                   "too many values to unpack (expected 2)"),
}


def assert_raises_exactly(build, error, message):
    with pytest.raises(Exception) as caught:
        build()
    assert (caught.type, str(caught.value)) == (error, message)


class TestReaderErrors:
    @pytest.mark.parametrize("defect", MATRIX_DEFECTS)
    @pytest.mark.parametrize("vars", [None, T3], ids=["own-table", "given-table"])
    def test_from_mapping(self, defect, vars):
        cells, drop, error, message = MATRIX_DEFECTS[defect]
        assert_raises_exactly(lambda: AdjMatrix.from_mapping(as_mapping(cells, drop), vars),
                              error, message)

    @pytest.mark.parametrize("defect", [d for d in MATRIX_DEFECTS if d != "missing column"])
    def test_cells(self, defect):
        cells, _, error, message = MATRIX_DEFECTS[defect]
        assert_raises_exactly(lambda: AdjMatrix(T3, cells), error, message)

    @pytest.mark.parametrize("defect", CELL_DEFECTS)
    def test_cells_not_square(self, defect):
        cells, error, message = CELL_DEFECTS[defect]
        assert_raises_exactly(lambda: AdjMatrix(T3, cells), error, message)

    def test_mapping_rows_missing_or_extra(self):
        short = as_mapping(GOOD_CELLS)
        del short["C"]
        assert_raises_exactly(lambda: AdjMatrix.from_mapping(short, T3), KeyError, "'C'")
        # a table read off the row keys ignores the columns beyond it
        assert AdjMatrix.from_mapping(short).cells == ((0, 1), (1, 0))

    @pytest.mark.parametrize("defect", RELATION_DEFECTS)
    def test_relation_set(self, defect):
        fields, error, message = RELATION_DEFECTS[defect]
        assert_raises_exactly(lambda: RelationSet(T3, **fields), error, message)

    @pytest.mark.parametrize("defect", DICT_DEFECTS)
    def test_relation_dict(self, defect):
        data, error, message = DICT_DEFECTS[defect]
        assert_raises_exactly(lambda: RelationSet.from_dict(T3, data), error, message)


class TestRelationSet:
    def test_pairs_are_canonicalized(self):
        t = VariableTable.letters(3)
        rels = RelationSet(t, dependencies={(2, 0)})
        assert rels.dependencies == {(0, 2)}

    def test_dependency_independence_conflict(self):
        t = VariableTable.letters(2)
        with pytest.raises(ConsistencyError):
            RelationSet(t, dependencies={(0, 1)}, uncond_indep={(1, 0)})

    def test_conditioning_set_excludes_pair(self):
        t = VariableTable.letters(3)
        with pytest.raises(ConsistencyError):
            RelationSet(t, cond_indep={((0, 1), frozenset({1, 2}))})

    def test_declared_cycle_rejected(self):
        t = VariableTable.letters(3)
        with pytest.raises(ConsistencyError):
            RelationSet(t, declared_causes={(0, 1), (1, 2), (2, 0)})

    def test_same_pair_may_be_uncond_and_cond(self):
        # the closure style lists both a marginal and a conditional statement
        t = VariableTable.letters(3)
        rels = RelationSet(t, uncond_indep={(1, 0)},
                           cond_indep={((1, 0), frozenset({2}))})
        assert rels.uncond_indep == {(0, 1)}
        assert rels.cond_indep == {((0, 1), frozenset({2}))}
