"""Per-DAG reference graph code the tests compare the package against.

Nothing in the package calls these. Each reads a graph one DAG (or one
matrix row) at a time, independently of the packed tables of
``causaltext.graphs`` (``MecIndex``, ``dag_extensions``), so a test can
check the table code against them.
"""

from itertools import combinations

from causaltext.errors import BoundsError
from causaltext.graphs import Dag, Mec, _dag_masks
from causaltext.matrix import AdjMatrix, _bits
from causaltext.variables import VariableTable


def all_dags(n: int) -> list[Dag]:
    """Every labeled DAG on ``n`` nodes once, in edge-bitmask order."""
    return [Dag.from_mask(n, m) for m in _dag_masks(n).tolist()]


def adjacent(dag: Dag, i: int, j: int) -> bool:
    return bool((dag.parent_mask(i) >> j) & 1 or (dag.child_mask(i) >> j) & 1)


def skeleton(dag: Dag) -> frozenset[tuple[int, int]]:
    """The undirected edge set: orientation dropped, pairs stored (small, large)."""
    return frozenset((min(p, c), max(p, c)) for p, c in dag.edges)


def v_structures(dag: Dag) -> frozenset[tuple[int, int, int]]:
    """All triples ``(x, c, y)`` with x -> c <- y and x, y non-adjacent (x < y)."""
    out = set()
    for c in range(dag.n):
        parents = sorted(_bits(dag.parent_mask(c)))
        for a in range(len(parents)):
            for b in range(a + 1, len(parents)):
                x, y = parents[a], parents[b]
                if not adjacent(dag, x, y):
                    out.add((x, c, y))
    return frozenset(out)


def group_mecs(dags) -> list[Mec]:
    """Partition DAGs into Markov equivalence classes.

    Member order within a class and class order in the result are both
    deterministic (edge-bitmask order, then class key order).
    """
    dags = list(dags)
    if not dags:
        return []
    n = dags[0].n
    groups: dict[tuple, list[Dag]] = {}
    for d in dags:
        if d.n != n:
            raise BoundsError("all DAGs must share the same node count")
        groups.setdefault((skeleton(d), v_structures(d)), []).append(d)
    mecs = [
        Mec(n, skel, vst, tuple(sorted(members, key=lambda d: d.mask)))
        for (skel, vst), members in groups.items()
    ]
    mecs.sort(key=lambda m: (tuple(sorted(m.skeleton)), tuple(sorted(m.vstructs))))
    return mecs


def class_pattern(n: int, skel, vstructs) -> AdjMatrix:
    """The pattern of the class with key ``(skel, vstructs)``: v-structure
    edges oriented, all others undirected. Not the CPDAG, which differs in
    48 of 185 classes at n=4."""
    rows = [0] * n
    for i, j in skel:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    for x, c, y in vstructs:
        rows[c] &= ~(1 << x | 1 << y)
    return AdjMatrix._from_rows(VariableTable.letters(n), rows)


# views of a matrix as pair and triple sets, read off its node-set masks


def skeleton_pairs(m: AdjMatrix) -> frozenset[tuple[int, int]]:
    """Unordered pairs connected by any edge."""
    return frozenset((i, j) for i, adj in enumerate(m.adjacency_masks())
                     for j in _bits(adj) if i < j)


def directed_edges(m: AdjMatrix) -> frozenset[tuple[int, int]]:
    """Ordered pairs ``(r, c)`` with an oriented edge r -> c."""
    return frozenset((r, c) for r, ch in enumerate(m.child_masks())
                     for c in _bits(ch))


def undirected_pairs(m: AdjMatrix) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, und in enumerate(m.undirected_masks())
                     for j in _bits(und) if i < j)


def oriented_colliders(m: AdjMatrix) -> frozenset[tuple[int, int, int]]:
    """Triples ``(x, c, y)`` with directed x -> c <- y and x, y non-adjacent."""
    adj = m.adjacency_masks()
    return frozenset((x, c, y) for c, pa in enumerate(m.parent_masks())
                     for x, y in combinations(_bits(pa), 2)
                     if not (adj[x] >> y) & 1)
