from itertools import combinations

import pytest

from causaltext.errors import (ConsistencyError, PdagError,
                               UnknownVariableError)
from causaltext.matrix import AdjMatrix
from causaltext.relations import RelationSet
from causaltext.variables import VariableTable

from conftest import pdag_cells, reference_encodings


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
            assert (m.skeleton_pairs(), m.directed_edges(), m.undirected_pairs(),
                    m.oriented_colliders(), m.parent_masks()) == reference_views(cells)

    def test_mapping_roundtrip(self):
        mapping = {"A": {"A": 0, "B": 1}, "B": {"A": 0, "B": 0}}
        m = AdjMatrix.from_mapping(mapping)
        assert m.to_mapping() == mapping
        assert m.directed_edges() == {(0, 1)}
        assert m.undirected_pairs() == frozenset()
        assert m.skeleton_pairs() == {(0, 1)}

    def test_oriented_colliders(self):
        mapping = {
            "A": {"A": 0, "B": 0, "C": 1},
            "B": {"A": 0, "B": 0, "C": 1},
            "C": {"A": 0, "B": 0, "C": 0},
        }
        m = AdjMatrix.from_mapping(mapping)
        assert m.oriented_colliders() == {(0, 2, 1)}

    def test_directed_cycle_detection(self):
        cells = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        m = AdjMatrix(VariableTable.letters(3), cells)
        with pytest.raises(PdagError):
            m.validate_pdag()
        # an undirected triangle is fine
        ok = AdjMatrix(VariableTable.letters(3),
                       [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        ok.validate_pdag()


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
