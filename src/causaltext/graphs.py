"""Directed-graph machinery: DAG enumeration, batched d-separation, Markov
equivalence classes and PDAG extensions.

Graphs live on integer nodes ``0..n-1`` with ``n <= MAX_NODES``; the cap keeps
exhaustive enumeration tractable (the labeled-DAG count explodes past six
nodes). Iteration order is everywhere lexicographic on edge bitmasks, where
edge ``i -> j`` occupies bit ``i*n + j``, so every ordering in this module is
reproducible byte for byte.

numpy is imported only inside the table code that runs on it, so it loads
on the first call of ``_separated`` (behind ``relations.relation_table``),
``_dag_masks`` or ``MecIndex``/``mec_index``. ``Dag``, ``Mec``,
``dag_extensions`` and the rest run without it. The per-DAG reference code
the tests check this module against is test code (``tests/oracles.py``).

``mec_index`` keeps the arrays of each index it builds in a cache file,
``mec_index_<n>`` under ``$XDG_CACHE_HOME/causaltext`` (``~/.cache`` when
that variable is unset or relative), so a later process loads them instead
of enumerating and sorting the universe again.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .errors import BoundsError, CycleError
from .matrix import AdjMatrix, _bits, is_acyclic

MAX_NODES = 6

log = logging.getLogger(__name__)


def _check_node_count(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_NODES:
        raise BoundsError(f"node count must be between 1 and {MAX_NODES}, got {n}")


# ---------------------------------------------------------------------------
# core types


class Dag:
    """A labeled directed acyclic graph on nodes ``0..n-1``.

    Instances are immutable; structural helpers (parent sets, descendants,
    the edge bitmask) are precomputed at construction.
    """

    __slots__ = ("_n", "_edges", "_pa", "_ch", "_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_node_count(n)
        edge_set = frozenset((int(p), int(c)) for p, c in edges)
        pa = [0] * n
        ch = [0] * n
        mask = 0
        for p, c in edge_set:
            if p == c:
                raise CycleError(f"self-loop on node {p}")
            if not (0 <= p < n and 0 <= c < n):
                raise BoundsError(f"edge ({p}, {c}) is out of range for n={n}")
            pa[c] |= 1 << p
            ch[p] |= 1 << c
            mask |= 1 << (p * n + c)
        if not is_acyclic(pa):
            raise CycleError("edge set contains a directed cycle")
        self._n = n
        self._edges = edge_set
        self._pa = tuple(pa)
        self._ch = tuple(ch)
        self._mask = mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Dag":
        return cls(n, (divmod(bit, n) for bit in _bits(mask)))

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def mask(self) -> int:
        return self._mask

    def parent_mask(self, i: int) -> int:
        return self._pa[i]

    def child_mask(self, i: int) -> int:
        return self._ch[i]

    def children(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self._ch[i]))

    def descendants(self, i: int) -> frozenset[int]:
        """All nodes reachable from ``i`` by one or more directed edges."""
        return frozenset(_bits(_ancestor_mask(self._ch, self._ch[i])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._n == other._n and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._n, self._mask))

    def __repr__(self) -> str:
        return f"Dag({self._n}, edges={sorted(self._edges)})"


# ---------------------------------------------------------------------------
# d-separation


def _ancestor_mask(pa: Sequence[int], seed: int) -> int:
    """Nodes in ``seed`` together with all their ancestors."""
    anc = seed
    frontier = seed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            lsb = m & -m
            nxt |= pa[lsb.bit_length() - 1]
            m ^= lsb
        frontier = nxt & ~anc
        anc |= frontier
    return anc


def _union_table(n: int, masks: np.ndarray) -> np.ndarray:
    """Parents and children of every node set, per graph of ``masks``.

    Entry ``[r, s]`` holds the union of the parent masks of the nodes in
    ``s`` in its low byte, and the union of their child masks in the byte
    above, for the graph with edge bitmask ``masks[r]``.
    """
    import numpy as np
    # edge[r, i, j] is 1 iff i -> j in graph r
    edge = (masks[:, None] >> np.arange(n * n) & 1).reshape(-1, n, n)
    bits = np.int64(1) << np.arange(n)
    node = bits @ edge | (edge @ bits) << 8
    table = np.zeros((len(masks), 1 << n), dtype=np.int64)
    for v in range(n):
        np.bitwise_or(table[:, :1 << v], node[:, v:v + 1], out=table[:, 1 << v:2 << v])
    return table


def _closure(n: int, step: np.ndarray) -> np.ndarray:
    """Everything reached from each node set by repeated steps.

    ``step[r, s]`` is ``s`` together with the nodes one step from it in
    graph ``r``. A step distributes over union, so squaring the table
    ``k`` times reaches ``2**k`` steps; ``n - 1`` steps reach every node.
    """
    import numpy as np
    rows = np.arange(len(step))[:, None] << n
    for _ in range((n - 2).bit_length()):
        step = step.ravel()[rows + step]
    return step


def _separated(n: int, masks: np.ndarray, ends: np.ndarray, z) -> np.ndarray:
    """Whether node set ``z`` d-separates node ``ends[0]`` from node
    ``ends[1]``, in every graph of ``masks`` and for every query at once.

    ``ends[0]``, ``ends[1]`` and ``z`` are node masks that broadcast to one
    query shape ``K``; the result is a boolean array of shape
    ``(len(masks), *K)``. Every trail is blocked iff ``z`` separates the two
    nodes in the moral graph of the ancestral set ``An(ends | z)``
    (Lauritzen et al. 1990). That graph is searched from both ends
    together, each for ``n // 2`` steps, which covers a path through all
    ``n`` nodes.
    """
    import numpy as np
    table = _union_table(n, masks)
    flat = table.ravel()
    query = ends[0] | ends[1] | z
    rows = (np.arange(len(masks)) << n).reshape((-1,) + (1,) * np.ndim(query))
    ancestral = _closure(n, np.arange(1 << n) | table & 255).ravel()[rows + query]
    free = ancestral & ~z
    reach = ends[:, None]
    for _ in range(n // 2):
        near = flat[rows + reach]
        children = near >> 8
        # moral neighbours: parents, children, and the other parents of
        # every child inside the ancestral set
        reach = reach | (near | children | flat[rows + (children & ancestral)]) & free
    return (reach[0] & reach[1]) == 0


# ---------------------------------------------------------------------------
# Markov equivalence classes


def mec_digest(n: int, skel: Iterable[tuple[int, int]],
               vstructs: Iterable[tuple[int, int, int]]) -> str:
    """Stable short hash of an equivalence-class key (``Mec.digest``)."""
    return _key_digest(n, map(repr, sorted(skel)), map(repr, sorted(vstructs)))


def _key_digest(n: int, skel: Iterable[str], vstructs: Iterable[str]) -> str:
    """The digest of a class key given the ``repr`` of each skeleton pair and
    of each v-structure, each in sorted order: the payload is
    ``f"{n}|{sorted(skel)}|{sorted(vstructs)}"`` of the tuples."""
    payload = f"{n}|[{', '.join(skel)}]|[{', '.join(vstructs)}]"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Mec:
    """A Markov equivalence class: its identifying key plus all member DAGs."""

    n: int
    skeleton: frozenset[tuple[int, int]]
    vstructs: frozenset[tuple[int, int, int]]
    members: tuple[Dag, ...]

    def __post_init__(self):
        if not self.members:
            raise BoundsError("an equivalence class needs at least one member")

    def digest(self) -> str:
        """Stable short hash of the class key, used as a dataset field."""
        return mec_digest(self.n, self.skeleton, self.vstructs)


# ---------------------------------------------------------------------------
# enumeration


def dag_count(n: int) -> int:
    """Labeled-DAG count by the classic inclusion-exclusion recurrence."""
    if n < 0:
        raise BoundsError("n must be non-negative")
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            total += (-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * counts[m - k]
        counts.append(total)
    return counts[n]


def _submasks(mask: int) -> list[int]:
    subs = [0]
    for b in _bits(mask):
        bit = 1 << b
        subs += [s | bit for s in subs]
    return subs


def _enumerate_masks(n: int) -> np.ndarray:
    """All DAG edge-bitmasks on ``n`` nodes, each exactly once (unsorted).

    Recursive decomposition by the unique source set: a DAG with sources S
    is a DAG on the remaining nodes plus edges from S, where each old source
    must receive at least one edge from S. Every memo bucket is one int64
    array, extended by outer ORs with the edge choices from S.
    """
    import numpy as np
    full = (1 << n) - 1
    # memo[subset] maps source-set -> masks of the DAGs on that subset
    memo: dict[int, dict[int, np.ndarray]] = {0: {0: np.zeros(1, dtype=np.int64)}}
    out = np.zeros(dag_count(n), dtype=np.int64)  # n=0: the empty DAG
    filled = 0
    for subset in sorted(range(1, full + 1), key=lambda s: bin(s).count("1")):
        top = subset == full
        acc: dict[int, list[np.ndarray]] = {}
        for s_set in _submasks(subset)[1:]:
            rest = subset ^ s_set
            # the edges from each parent set P within S into node 0; shifted
            # left by v they are the edges from P into node v
            into_0 = np.array([sum(1 << p * n for p in _bits(p_set))
                               for p_set in _submasks(s_set)], dtype=np.int64)
            for src2, masks2 in memo[rest].items():
                combos = np.zeros(1, dtype=np.int64)
                for v in _bits(rest):
                    # an old source needs a parent in S: drop the empty set
                    opts = into_0[(src2 >> v) & 1:] << v
                    combos = np.bitwise_or.outer(combos, opts).ravel()
                if top:
                    end = filled + len(masks2) * len(combos)
                    np.bitwise_or.outer(masks2, combos,
                                        out=out[filled:end].reshape(len(masks2), -1))
                    filled = end
                else:
                    acc.setdefault(s_set, []).append(
                        np.bitwise_or.outer(masks2, combos).ravel())
        if not top:
            memo[subset] = {s_set: np.concatenate(parts) for s_set, parts in acc.items()}
    return out


def _dag_masks(n: int) -> np.ndarray:
    """Sorted int64 array of every DAG bitmask on ``n`` nodes."""
    masks = _enumerate_masks(n)
    masks.sort()
    return masks


# ---------------------------------------------------------------------------
# bulk Markov-equivalence index (vectorized, for dataset generation)


def _pair_table(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _triple_table(n: int) -> list[tuple[int, int, int]]:
    out = []
    for c in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if i != c and j != c:
                    out.append((i, c, j))
    return out


_KEY_BLOCK = 1 << 16  # masks per block when computing class keys


def _pack_bytes(bits: Sequence[np.ndarray], size: int, dtype: str) -> np.ndarray:
    """Pack rows of 0x00/0xFF bytes into ``size`` integers.

    Bit ``k`` of integer ``i`` is set iff ``bits[k][i]`` is 0xFF. ``dtype``
    is little-endian, so the result is the same on any host.
    """
    import numpy as np
    packed = np.zeros((np.dtype(dtype).itemsize, size), dtype=np.uint8)
    for k, row in enumerate(bits):
        packed[k >> 3] |= row & (1 << (k & 7))
    return np.ascontiguousarray(packed.T).view(dtype).ravel()


def _class_keys(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skeleton and v-structure keys of every mask.

    Bit ``p`` of a skeleton key is set iff pair ``_pair_table(n)[p]`` is
    adjacent; bit ``t`` of a v-structure key iff triple
    ``_triple_table(n)[t]`` is a v-structure. Computed over blocks of
    ``_KEY_BLOCK`` masks, one byte row per edge, so no temporary spans the
    whole universe.
    """
    import numpy as np
    pairs = _pair_table(n)
    pair_index = {pair: p for p, pair in enumerate(pairs)}
    triples = [(i * n + c, j * n + c, pair_index[i, j]) for i, c, j in _triple_table(n)]
    skel = np.empty(len(masks), dtype=np.uint16)
    vst = np.empty(len(masks), dtype=np.int64)
    for lo in range(0, len(masks), _KEY_BLOCK):
        block = masks[lo:lo + _KEY_BLOCK]
        # row b holds byte b of every mask, whatever the host byte order
        rows = np.ascontiguousarray(block.astype("<i8").view(np.uint8).reshape(-1, 8).T)
        # 0xFF where edge bit e is set, 0x00 where it is not
        edge = [np.negative(rows[e >> 3] >> (e & 7) & 1) for e in range(n * n)]
        adj = [edge[i * n + j] | edge[j * n + i] for i, j in pairs]
        skel[lo:lo + _KEY_BLOCK] = _pack_bytes(adj, len(block), "<u2")
        vst[lo:lo + _KEY_BLOCK] = _pack_bytes(
            [edge[ic] & edge[jc] & ~adj[p] for ic, jc, p in triples], len(block), "<i8")
    return skel, vst


def _index_arrays(n: int) -> tuple[np.ndarray, ...]:
    """The four arrays that define the index on ``n`` nodes: every DAG mask
    sorted by class key and then by mask, where each group starts (with the
    mask count appended), and each group's skeleton and v-structure key."""
    import numpy as np
    masks = _dag_masks(n)
    skel, vst = _class_keys(n, masks)
    # the masks ascend, so a stable sort by key keeps members in mask order
    order = np.lexsort((vst, skel))
    masks = masks[order]
    skel = skel[order]
    vst = vst[order]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = (skel[1:] != skel[:-1]) | (vst[1:] != vst[:-1])
    first = np.flatnonzero(first)
    return masks, np.append(first, len(masks)), skel[first], vst[first]


class MecIndex:
    """Grouping of all DAGs on ``n`` nodes by (skeleton, v-structures) key.

    Backed by four flat numpy arrays (``arrays``): the masks sorted by key,
    the group starts and one skeleton and one v-structure key per group, so
    the six-node universe (3,781,503 DAGs in 1,067,825 classes) holds
    50 MB. ``MecIndex(n)`` builds them: at n=6 about 1.2 s on a 2-vCPU Xeon,
    with the process peaking near 160 MB RSS. ``MecIndex(n, arrays)``
    adopts the arrays of a built index (``mec_index`` reads them from its
    cache file: about 0.08 s at n=6, peaking near 80 MB) and derives the
    rest the same way. Groups are ordered by key; members inside a group
    are ordered by edge bitmask.
    """

    def __init__(self, n: int, arrays: Sequence[np.ndarray] | None = None):
        import numpy as np
        _check_node_count(n)
        self.n = n
        self._masks, self._starts, self._skel, self._vst = \
            _index_arrays(n) if arrays is None else arrays
        self._pairs = _pair_table(n)
        self._triples = _triple_table(n)
        # the digest payload's texts: pairs in bit order, which is sorted
        # order, and triples in sorted order; _ranked[b][x] re-packs byte b
        # of a v-structure key so that bit r stands for the r-th of them
        self._pair_text = [repr(p) for p in self._pairs]
        rank = sorted(range(len(self._triples)), key=self._triples.__getitem__)
        self._triple_text = [repr(self._triples[t]) for t in rank]
        at = {t: r for r, t in enumerate(rank)}
        self._ranked = np.array([[sum(1 << at[b + k] for k in _bits(x) if b + k in at)
                                  for x in range(256)]
                                 for b in range(0, max(len(rank), 1), 8)], dtype=np.int64)

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The four arrays ``MecIndex(n, arrays)`` adopts."""
        return self._masks, self._starts, self._skel, self._vst

    @property
    def group_count(self) -> int:
        return len(self._starts) - 1

    @property
    def dag_count(self) -> int:
        return len(self._masks)

    def member_masks(self, g: int) -> np.ndarray:
        return self._masks[self._starts[g]:self._starts[g + 1]]

    def members(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The member masks of ``groups``, one group after another, and
        where each group's members start, with their count appended."""
        import numpy as np
        first = self._starts[groups]
        sizes = self._starts[groups + 1] - first
        starts = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        index = np.repeat(first - starts[:-1], sizes) + np.arange(starts[-1])
        return self._masks[index], starts

    def skeleton_set(self, g: int) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs[i] for i in _bits(int(self._skel[g])))

    def vstruct_set(self, g: int) -> frozenset[tuple[int, int, int]]:
        return frozenset(self._triples[i] for i in _bits(int(self._vst[g])))

    def digests(self, groups: np.ndarray) -> list[str]:
        """``mec_digest`` of each of ``groups``, made from the packed keys.

        Each class joins the precomputed ``repr`` texts of its key's bits,
        its v-structure key re-packed into sorted order a byte at a time,
        so no class builds, sorts or ``repr``s a tuple list."""
        vst = self._vst[groups]
        ranked = 0
        for b, table in enumerate(self._ranked):
            ranked = ranked | table[vst >> 8 * b & 255]
        n, pair_text, triple_text = self.n, self._pair_text, self._triple_text
        return [_key_digest(n, [pair_text[i] for i in _bits(s)],
                            [triple_text[r] for r in _bits(v)])
                for s, v in zip(self._skel[groups].tolist(), ranked.tolist())]


@lru_cache(maxsize=None)
def mec_index(n: int) -> MecIndex:
    """The index on ``n`` nodes, once per process, through its cache file.

    At n=6 a process loads the file's 47 MiB in about 0.08 s, reading each
    array in place and peaking near 80 MB RSS with numpy loaded, where
    ``MecIndex(6)`` takes about 1.2 s and peaks near 160 MB; a process that
    finds no valid file builds the index and writes the file, about 0.06 s
    more. See ``_cached_index``.
    """
    return _cached_index(n)


def _cached_index(n: int) -> MecIndex:
    """Load the index on ``n`` nodes from its cache file, or build it and
    replace the file.

    The file holds one JSON header line (the cache key, each array's dtype
    and length, and a sha256 over those and the arrays' bytes) and then the
    four arrays of ``MecIndex.arrays``. The key names the sha256 of this
    module's source and the numpy version, so an edit of either invalidates
    every file. A file that is missing, stale, longer or shorter than its
    header says, or fails its sha256 is rebuilt; the new file is written
    beside it and moved into place, so one file per ``n`` is ever left.
    Caching never fails the call: an ``OSError`` is logged at DEBUG and the
    index is returned all the same.
    """
    _check_node_count(n)
    path, key = _cache_place(n)
    arrays = _read_index(path, key) if path else None
    if arrays is not None:
        return MecIndex(n, arrays)
    index = MecIndex(n)
    if path:
        try:
            _write_index(path, key, index.arrays)
        except OSError as exc:
            log.debug("index cache %s not written: %s", path, exc)
    return index


def _cache_place(n: int) -> tuple[str | None, str]:
    """The cache file of the index on ``n`` nodes and the key a valid file
    carries, or ``(None, "")`` when no absolute cache directory is known."""
    import numpy as np
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
    if not os.path.isabs(base):
        return None, ""
    try:  # the source is not a file when the package is imported from a zip
        with open(__file__, "rb") as fh:
            source = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None, ""
    path = os.path.join(base, "causaltext", f"mec_index_{n}")
    return path, f"graphs.py {source} numpy {np.__version__}"


def _index_digest(key: str, specs: list, arrays: Iterable[np.ndarray]) -> str:
    """sha256 over the key, the ``[dtype, length]`` of each array and the
    arrays' bytes, so no changed byte of a cache file goes unseen."""
    digest = hashlib.sha256(json.dumps([key, specs]).encode())
    for array in arrays:
        digest.update(array)
    return digest.hexdigest()


def _read_index(path: str, key: str) -> list[np.ndarray] | None:
    """The arrays stored at ``path`` under ``key``, each read in place, or
    None unless the file is there, carries the key, holds exactly the
    arrays its header lists and matches its sha256."""
    import numpy as np
    try:
        with open(path, "rb") as fh:
            head = json.loads(fh.readline(1 << 12))
            if head["key"] != key:
                return None
            shapes = [(np.dtype(dtype), int(size)) for dtype, size in head["arrays"]]
            if os.fstat(fh.fileno()).st_size - fh.tell() \
                    != sum(dtype.itemsize * size for dtype, size in shapes):
                return None
            arrays = [np.empty(size, dtype) for dtype, size in shapes]
            for array in arrays:
                fh.readinto(array)
        if _index_digest(key, head["arrays"], arrays) != head["sha256"]:
            return None
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return arrays


def _write_index(path: str, key: str, arrays: Sequence[np.ndarray]) -> None:
    """Write ``arrays`` to a new file beside ``path`` and move it into place."""
    import tempfile
    specs = [[array.dtype.str, len(array)] for array in arrays]
    head = {"key": key, "arrays": specs, "sha256": _index_digest(key, specs, arrays)}
    folder = os.path.dirname(path)
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=f".{os.path.basename(path)}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for array in arrays:
                fh.write(array)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# PDAG extension


def dag_extensions(matrix: AdjMatrix) -> list[int]:
    """All DAGs consistent with a PDAG-encoded matrix, as edge bitmasks.

    An extension keeps the matrix skeleton, respects every directed entry,
    is acyclic, and introduces no v-structure beyond the matrix's oriented
    colliders. Returns an empty list when no consistent orientation exists;
    otherwise the extensions' edge bitmasks (bit ``a * n + b`` for
    ``a -> b``, as ``Dag.mask``) in ascending order.

    The undirected pairs are visited in colex order, by their larger
    endpoint, so a cycle is cut at the first pair that can close it. Each
    pair's two moves are built once per call: the edge bit, the nodes not
    adjacent to the tail and the tail's bit. ``_orient`` searches depth
    first and cuts a branch as soon as ``a -> b`` gives ``b`` a parent not
    adjacent to ``a`` (one AND) or ``b`` is an ancestor of ``a`` (a reach
    over the parent masks that stops when it meets ``b``). Every collider
    the matrix declares is made of directed entries, so no branch loses one.
    The last pair appends its masks without another call. The cost grows
    with the partial orientations that survive pruning, a few bit operations
    each, not with the ``2**k`` orientations of ``k`` pairs.
    """
    pa = matrix.validate_pdag()
    n = matrix.n
    _check_node_count(n)
    adj = matrix.adjacency_masks()
    directed = 0
    moves = []
    for j, (row, und) in enumerate(zip(matrix.rows, matrix.undirected_masks())):
        directed |= (row ^ und) << j * n
        for i in _bits(und & ((1 << j) - 1)):  # the pairs (i, j) with i < j
            moves.append(((1 << i * n + j, i, j, ~adj[i], 1 << i),
                          (1 << j * n + i, j, i, ~adj[j], 1 << j)))
    if not moves:
        return [directed]
    masks: list[int] = []
    _orient(moves, 0, directed, pa, masks)
    masks.sort()
    return masks


def _orient(moves: list[tuple[tuple[int, int, int, int, int], ...]], k: int,
            mask: int, pa: list[int], out: list[int]) -> None:
    """Append to ``out`` each orientation of the pairs ``moves[k:]`` added to
    ``mask`` that closes no cycle and adds no collider. A move is ``(edge
    bit, a, b, nodes not adjacent to a, 1 << a)`` for ``a -> b``; ``pa`` is
    restored on return."""
    leaf = k + 1 == len(moves)
    for bit, a, b, far, tail in moves[k]:
        if pa[b] & far:  # b would get a parent not adjacent to a
            continue
        seen = up = pa[a]
        while up and not seen >> b & 1:  # the ancestors of a, until b
            step = 0
            while up:
                low = up & -up
                step |= pa[low.bit_length() - 1]
                up ^= low
            up = step & ~seen
            seen |= up
        if seen >> b & 1:
            continue
        if leaf:
            out.append(mask | bit)
            continue
        pa[b] |= tail
        _orient(moves, k + 1, mask | bit, pa, out)
        pa[b] ^= tail

