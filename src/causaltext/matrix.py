"""Adjacency matrices whose asymmetric 0/1 cells encode edge orientation.

The encoding contract, shared by every consumer in the package:

* ``cells[r][c] == 1 and cells[c][r] == 1``  ->  undirected edge r - c
* ``cells[r][c] == 1 and cells[c][r] == 0``  ->  directed edge r -> c
* ``cells[r][c] == 0 and cells[c][r] == 0``  ->  no edge

The diagonal is always zero. A matrix is a valid partially directed acyclic
graph (PDAG) when its directed edges contain no cycle.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import PdagError
from .variables import VariableTable


def is_acyclic(pa: Sequence[int]) -> bool:
    """True iff the graph whose node ``i`` has parent bitmask ``pa[i]`` has no
    directed cycle.

    Each sweep places every node whose parents are all placed; a sweep that
    places nothing new leaves only nodes on or below a cycle.
    """
    placed = 0
    full = (1 << len(pa)) - 1
    while placed != full:
        before = placed
        for i, p in enumerate(pa):
            if not p & ~placed:
                placed |= 1 << i
        if placed == before:
            return False
    return True


class AdjMatrix:
    """Immutable n-by-n 0/1 matrix bound to a variable table."""

    __slots__ = ("_vars", "_cells")

    def __init__(self, vars: VariableTable, cells: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in cells)
        n = len(vars)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise PdagError(f"matrix must be {n}x{n} to match its variable table")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise PdagError(f"cell [{i}][{j}] must be 0 or 1, got {v}")
            if row[i] != 0:
                raise PdagError(f"diagonal cell [{i}][{i}] must be 0")
        self._vars = vars
        self._cells = rows

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Mapping[str, int]],
                     vars: VariableTable | None = None) -> "AdjMatrix":
        """Build from a label-keyed dict of dicts, e.g. ``{"A": {"A": 0, "B": 1}, ...}``."""
        if vars is None:
            vars = VariableTable(list(mapping))
        cells = [[int(mapping[r][c]) for c in vars.names] for r in vars.names]
        return cls(vars, cells)

    @property
    def vars(self) -> VariableTable:
        return self._vars

    @property
    def n(self) -> int:
        return len(self._vars)

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return self._cells

    def cell(self, r: int, c: int) -> int:
        return self._cells[r][c]

    def with_zeros(self, positions: Iterable[tuple[int, int]]) -> "AdjMatrix":
        """Copy of the matrix with the given ``(row, col)`` cells set to 0."""
        rows = [list(r) for r in self._cells]
        for r, c in positions:
            rows[r][c] = 0
        return AdjMatrix(self._vars, rows)

    def to_mapping(self) -> dict[str, dict[str, int]]:
        names = self._vars.names
        return {names[r]: {names[c]: self._cells[r][c] for c in range(self.n)}
                for r in range(self.n)}

    # -- structural views -------------------------------------------------

    def skeleton_pairs(self) -> frozenset[tuple[int, int]]:
        """Unordered pairs connected by any edge."""
        out = set()
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self._cells[i][j] or self._cells[j][i]:
                    out.add((i, j))
        return frozenset(out)

    def directed_edges(self) -> frozenset[tuple[int, int]]:
        """Ordered pairs ``(r, c)`` with an oriented edge r -> c."""
        out = set()
        for i in range(self.n):
            for j in range(self.n):
                if i != j and self._cells[i][j] and not self._cells[j][i]:
                    out.add((i, j))
        return frozenset(out)

    def undirected_pairs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self._cells[i][j] and self._cells[j][i]:
                    out.add((i, j))
        return frozenset(out)

    def oriented_colliders(self) -> frozenset[tuple[int, int, int]]:
        """Triples ``(x, c, y)`` with directed x -> c <- y and x, y non-adjacent."""
        directed = self.directed_edges()
        skel = self.skeleton_pairs()
        out = set()
        for c in range(self.n):
            parents = sorted(r for r, t in directed if t == c)
            for a in range(len(parents)):
                for b in range(a + 1, len(parents)):
                    x, y = parents[a], parents[b]
                    if (x, y) not in skel:
                        out.add((x, c, y))
        return frozenset(out)

    def parent_masks(self) -> list[int]:
        """One bitmask per node of its parents along the directed edges."""
        pa = [0] * self.n
        for r, c in self.directed_edges():
            pa[c] |= 1 << r
        return pa

    def validate_pdag(self) -> None:
        """Raise :class:`PdagError` if the directed edges contain a cycle."""
        if not is_acyclic(self.parent_masks()):
            raise PdagError("directed edges of the matrix contain a cycle")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjMatrix):
            return NotImplemented
        return self._vars == other._vars and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self._vars, self._cells))

    def __repr__(self) -> str:
        return f"AdjMatrix({self._vars.names}, {self._cells})"
