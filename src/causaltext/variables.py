"""Variable tables: ordered labels plus optional long-name aliases."""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import ConsistencyError, UnknownVariableError

LETTERS = "ABCDEF"


class VariableTable:
    """Ordered register of variable labels.

    The position of a label defines the row/column index used by adjacency
    matrices and relation sets, so the order is part of the contract. A label
    may carry a long-name alias (for example ``CD`` standing for
    ``central density``).

    ``index`` resolves a mention to its position: the exact label first,
    then the case-folded mention among every alias and label, where a label
    wins over an alias and the first of two labels that differ only in case
    wins.
    """

    __slots__ = ("_names", "_aliases", "_index", "_folded")

    def __init__(self, names: Iterable[str], aliases: Mapping[str, str] | None = None):
        names = tuple(map(str, names))
        if not names:
            raise ConsistencyError("a variable table needs at least one label")
        for name in names:
            if not name or name != name.strip():
                raise ConsistencyError(f"bad variable label: {name!r}")
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise ConsistencyError(f"duplicate variable labels in {names}")
        aliases = dict(aliases) if aliases else {}
        for label, long_name in aliases.items():
            if label not in index:
                raise ConsistencyError(f"alias target {label!r} is not a declared label")
            if not long_name or not long_name.strip():
                raise ConsistencyError(f"empty alias for {label!r}")
        lowered = [a.lower() for a in aliases.values()]
        if len(set(lowered)) != len(lowered):
            raise ConsistencyError("alias names collide")
        # an alias may repeat its own label (identity alias) but no other
        for label, long_name in aliases.items():
            for other in names:
                if other != label and long_name.lower() == other.lower():
                    raise ConsistencyError(
                        f"alias {long_name!r} for {label!r} collides with label {other!r}")
        self._names = names
        self._aliases = aliases
        self._index = index
        self._folded = None  # built by the first mention that is not a label

    def _fold(self) -> dict[str, int]:
        """Every alias and label, case-folded, to its index: a label wins over
        an alias, and the first of two labels that differ only in case wins."""
        folded = {a.lower(): self._index[l] for l, a in self._aliases.items()}
        names = self._names
        folded.update((names[i].lower(), i) for i in reversed(range(len(names))))
        self._folded = folded
        return folded

    @classmethod
    def letters(cls, n: int) -> "VariableTable":
        """Table of the first ``n`` single-letter labels A, B, C, ..."""
        if not 1 <= n <= len(LETTERS):
            raise ConsistencyError(f"letter tables support 1..{len(LETTERS)} variables, got {n}")
        return cls(LETTERS[:n])

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    def index(self, mention: str) -> int:
        """Resolve a label or alias to its index."""
        mention = mention.strip()
        i = self._index.get(mention)
        if i is None:
            i = (self._folded or self._fold()).get(mention.lower())
            if i is None:
                raise UnknownVariableError(f"unknown variable mention: {mention!r}")
        return i

    def label(self, i: int) -> str:
        return self._names[i]

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self._names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariableTable):
            return NotImplemented
        return self._names == other._names and self._aliases == other._aliases

    def __hash__(self) -> int:
        return hash((self._names, tuple(sorted(self._aliases.items()))))

    def __repr__(self) -> str:
        if self._aliases:
            return f"VariableTable({list(self._names)}, aliases={self._aliases})"
        return f"VariableTable({list(self._names)})"
