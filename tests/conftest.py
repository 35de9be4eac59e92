import errno
import os
import random
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from causaltext.fixtures import (FIVE_VAR_HYPOTHESIS, FIVE_VAR_PREMISE,
                                 JUNK_FOOD_HYPOTHESIS, JUNK_FOOD_PREMISE,
                                 THREE_VAR_HYPOTHESIS, THREE_VAR_PREMISE,
                                 five_var_doc, junk_food_doc, three_var_doc)
from causaltext.matrix import AdjMatrix
from causaltext.parsing import PremiseDoc
from causaltext.relations import RelationSet
from causaltext.variables import VariableTable

# expected step matrices for the bundled five-variable worked example
FIVE_VAR_STEP_3 = {
    "A": {"A": 0, "B": 1, "C": 1, "D": 1, "E": 1},
    "B": {"A": 1, "B": 0, "C": 1, "D": 1, "E": 1},
    "C": {"A": 1, "B": 1, "C": 0, "D": 1, "E": 1},
    "D": {"A": 1, "B": 1, "C": 1, "D": 0, "E": 1},
    "E": {"A": 1, "B": 1, "C": 1, "D": 1, "E": 0},
}
FIVE_VAR_STEP_4 = {
    "A": {"A": 0, "B": 0, "C": 1, "D": 1, "E": 1},
    "B": {"A": 0, "B": 0, "C": 0, "D": 1, "E": 1},
    "C": {"A": 1, "B": 0, "C": 0, "D": 1, "E": 1},
    "D": {"A": 1, "B": 1, "C": 1, "D": 0, "E": 1},
    "E": {"A": 1, "B": 1, "C": 1, "D": 1, "E": 0},
}
FIVE_VAR_STEP_5 = {
    "A": {"A": 0, "B": 0, "C": 1, "D": 1, "E": 1},
    "B": {"A": 0, "B": 0, "C": 0, "D": 1, "E": 1},
    "C": {"A": 1, "B": 0, "C": 0, "D": 1, "E": 0},
    "D": {"A": 1, "B": 1, "C": 1, "D": 0, "E": 1},
    "E": {"A": 1, "B": 1, "C": 0, "D": 1, "E": 0},
}
FIVE_VAR_STEP_6 = {
    "A": [["C", "D"], ["C", "E"], ["D", "E"]],
    "B": [["D", "E"]],
    "C": [["A", "D"]],
    "D": [["A", "B"], ["A", "C"], ["A", "E"], ["B", "C"], ["B", "E"], ["C", "E"]],
    "E": [["A", "B"], ["A", "D"], ["B", "D"]],
}
FIVE_VAR_STEP_7 = {
    "D": [["A", "B"], ["B", "C"]],
    "E": [["A", "B"]],
}
FIVE_VAR_STEP_8 = {
    "A": {"A": 0, "B": 0, "C": 1, "D": 1, "E": 1},
    "B": {"A": 0, "B": 0, "C": 0, "D": 1, "E": 1},
    "C": {"A": 1, "B": 0, "C": 0, "D": 1, "E": 0},
    "D": {"A": 0, "B": 0, "C": 0, "D": 0, "E": 1},
    "E": {"A": 0, "B": 0, "C": 0, "D": 1, "E": 0},
}

# expected step outputs of the junk-food story
JUNK_FOOD_STEP_3 = {
    "A": {"A": 0, "B": 1, "C": 1},
    "B": {"A": 1, "B": 0, "C": 1},
    "C": {"A": 1, "B": 1, "C": 0},
}
JUNK_FOOD_STEP_4 = {
    "A": {"A": 0, "B": 0, "C": 1},
    "B": {"A": 0, "B": 0, "C": 1},
    "C": {"A": 1, "B": 1, "C": 0},
}
JUNK_FOOD_STEP_6 = {"C": [["A", "B"]]}
JUNK_FOOD_STEP_8 = {
    "A": {"A": 0, "B": 0, "C": 1},
    "B": {"A": 0, "B": 0, "C": 1},
    "C": {"A": 0, "B": 0, "C": 0},
}


@pytest.fixture(scope="session", autouse=True)
def index_cache(tmp_path_factory):
    """Cache equivalence-class indexes in a directory of this session, not
    the user's cache: ``XDG_CACHE_HOME`` is set before any test builds an
    index, and the CLI and demo tests' child processes inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def five_var():
    return five_var_doc()


@pytest.fixture(scope="session")
def junk_food():
    return junk_food_doc()


@pytest.fixture(scope="session")
def three_var():
    return three_var_doc()


class FullDisk:
    """A binary file opened for writing that fails as a full disk does;
    stands in for ``open`` in ``causaltext.dataset``.

    ``fails_at`` names the call that meets the full disk: ``write`` once the
    file would hold more than 4 KiB, or the first ``flush`` or the ``close``,
    where a small buffered stream first reaches the disk. A ``close`` that
    fails still releases the file.
    """

    def __init__(self, path, mode, fails_at="write"):
        self._fh = open(path, mode)
        self._fails_at = fails_at

    def _full(self, call):
        if call == self._fails_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        if self._fh.tell() + len(data) > 4096:
            self._full("write")
        return self._fh.write(data)

    def flush(self):
        self._full("flush")
        self._fh.flush()

    def close(self):
        self._fh.close()
        self._full("close")


def pdag_cells(n, states):
    """Cell grid whose pair ``(i, j)``, i < j, takes one of four states:
    0 none, 1 i -> j, 2 j -> i, 3 undirected."""
    cells = [[0] * n for _ in range(n)]
    for (i, j), state in zip(combinations(range(n), 2), states):
        cells[i][j] = state & 1
        cells[j][i] = state >> 1
    return cells


def pdag_encoding(n, states):
    return AdjMatrix(VariableTable.letters(n), pdag_cells(n, states))


def reference_encodings():
    """``(n, states)`` for every encoding on 1-4 nodes, then a seeded sample
    of 300 5-node encodings."""
    for n in range(1, 5):
        for states in product(range(4), repeat=n * (n - 1) // 2):
            yield n, states
    rng = random.Random(2024)
    for _ in range(300):
        yield 5, tuple(rng.randrange(4) for _ in range(10))


@st.composite
def relation_docs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    table = VariableTable.letters(n)
    deps, uncond, cond = set(), set(), set()
    causes = set()
    for i in range(n):
        for j in range(i + 1, n):
            bucket = draw(st.sampled_from(["dep", "uncond", "cond", "cause", "none"]))
            if bucket == "dep":
                deps.add((i, j))
            elif bucket == "uncond":
                uncond.add((i, j))
            elif bucket == "cond":
                rest = [v for v in range(n) if v not in (i, j)]
                if rest:
                    size = draw(st.integers(min_value=1, max_value=len(rest)))
                    cond.add(((i, j), frozenset(rest[:size])))
            elif bucket == "cause":
                causes.add((i, j))  # i < j keeps the declared relation acyclic
    rels = RelationSet(table, frozenset(deps), frozenset(uncond),
                       frozenset(cond), frozenset(causes))
    return PremiseDoc("", table, rels)
