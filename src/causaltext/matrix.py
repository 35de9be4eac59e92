"""Adjacency matrices whose asymmetric 0/1 cells encode edge orientation.

The encoding contract, shared by every consumer in the package:

* ``cells[r][c] == 1 and cells[c][r] == 1``  ->  undirected edge r - c
* ``cells[r][c] == 1 and cells[c][r] == 0``  ->  directed edge r -> c
* ``cells[r][c] == 0 and cells[c][r] == 0``  ->  no edge

The diagonal is always zero. A matrix is a valid partially directed acyclic
graph (PDAG) when its directed edges contain no cycle.

Storage is one int per row: bit ``c`` of row ``r`` equals ``cells[r][c]``,
so row ``r`` is the node set ``r`` may point into. ``cells``, ``cell`` and
``to_mapping`` are views of those rows. Other modules read node-set masks,
one per node, as :class:`~causaltext.graphs.Dag` does: ``rows``,
``parent_masks``, ``child_masks``, ``undirected_masks`` and
``adjacency_masks``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import PdagError
from .variables import VariableTable


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


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


def _row_mask(i: int, row, keys: Sequence) -> int:
    """Row ``i`` read into its bitmask in one pass: bit ``j`` is
    ``int(row[keys[j]])``, which must be 0 or 1, and bit ``i`` must be 0."""
    mask, bit = 0, 1
    for key in keys:
        v = int(row[key])
        if v == 1:
            mask |= bit
        elif v:
            raise PdagError(f"cell [{i}][{bit.bit_length() - 1}] must be 0 or 1, got {v}")
        bit <<= 1
    if mask >> i & 1:
        raise PdagError(f"diagonal cell [{i}][{i}] must be 0")
    return mask


class AdjMatrix:
    """Immutable n-by-n 0/1 matrix bound to a variable table."""

    __slots__ = ("_vars", "_rows", "_cols")

    def __init__(self, vars: VariableTable, cells: Iterable[Iterable[int]]):
        n = len(vars)
        rows = []
        for i, row in enumerate(cells):
            row = tuple(row)
            if len(row) != n or i >= n:
                raise PdagError(f"matrix must be {n}x{n} to match its variable table")
            rows.append(_row_mask(i, row, range(n)))
        if len(rows) != n:
            raise PdagError(f"matrix must be {n}x{n} to match its variable table")
        self._vars = vars
        self._rows = tuple(rows)
        self._cols = None

    @classmethod
    def _from_rows(cls, vars: VariableTable, rows: Iterable[int]) -> "AdjMatrix":
        """Build from row masks, checking only the row count, width and diagonal."""
        self = object.__new__(cls)
        self._vars = vars
        self._rows = tuple(rows)
        self._cols = None
        n = len(vars)
        full = (1 << n) - 1
        bad = len(self._rows) != n
        for i, row in enumerate(self._rows):
            bad |= row & ~(full ^ 1 << i)
        if bad:
            raise PdagError(f"matrix must be {n} rows of width {n} with a zero diagonal")
        return self

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Mapping[str, int]],
                     vars: VariableTable | None = None) -> "AdjMatrix":
        """Build from a label-keyed dict of dicts, e.g. ``{"A": {"A": 0, "B": 1}, ...}``.

        Each row is read straight into its bitmask, its cells and diagonal
        checked as it is read; keys beyond the table's labels are ignored.
        """
        if vars is None:
            vars = VariableTable(list(mapping))
        names = vars.names
        rows = [_row_mask(i, mapping[r], names) for i, r in enumerate(names)]
        return cls._from_rows(vars, rows)

    @property
    def vars(self) -> VariableTable:
        return self._vars

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[int, ...]:
        """Per node, its children and undirected neighbours."""
        return self._rows

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        columns = range(self.n)
        return tuple(tuple((row >> c) & 1 for c in columns) for row in self._rows)

    def cell(self, r: int, c: int) -> int:
        return (self._rows[r] >> c) & 1

    def to_mapping(self) -> dict[str, dict[str, int]]:
        # each row starts as a copy of the all-zero row; only its set bits are written
        names = self._vars.names
        zero = dict.fromkeys(names, 0)
        out = {}
        for name, row in zip(names, self._rows):
            cells = out[name] = zero.copy()
            while row:
                low = row & -row
                cells[names[low.bit_length() - 1]] = 1
                row ^= low
        return out

    def _columns(self) -> tuple[int, ...]:
        """Per node, the nodes whose row marks it 1; computed on first use."""
        if self._cols is None:
            cols = [0] * len(self._rows)
            for r, row in enumerate(self._rows):
                for c in _bits(row):
                    cols[c] |= 1 << r
            self._cols = tuple(cols)
        return self._cols

    def parent_masks(self) -> list[int]:
        """One bitmask per node of its parents along the directed edges."""
        return [col & ~row for row, col in zip(self._rows, self._columns())]

    def child_masks(self) -> list[int]:
        """One bitmask per node of its children along the directed edges."""
        return [row & ~col for row, col in zip(self._rows, self._columns())]

    def undirected_masks(self) -> list[int]:
        """One bitmask per node of its neighbours along undirected edges."""
        return [row & col for row, col in zip(self._rows, self._columns())]

    def adjacency_masks(self) -> list[int]:
        """One bitmask per node of the nodes joined to it by any edge."""
        return [row | col for row, col in zip(self._rows, self._columns())]

    def validate_pdag(self) -> list[int]:
        """Raise :class:`PdagError` if the directed edges contain a cycle;
        otherwise return the :meth:`parent_masks` it checked."""
        pa = self.parent_masks()
        if not is_acyclic(pa):
            raise PdagError("directed edges of the matrix contain a cycle")
        return pa

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjMatrix):
            return NotImplemented
        return self._vars == other._vars and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._vars, self._rows))

    def __repr__(self) -> str:
        return f"AdjMatrix({self._vars.names}, {self.cells})"
