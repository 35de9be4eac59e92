import hashlib
import logging
import os
import random
from functools import lru_cache
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext import graphs
from causaltext.errors import (BoundsError, ConsistencyError, CycleError,
                               PdagError)
from causaltext.graphs import (Dag, Mec, MecIndex, _dag_masks, dag_count,
                               dag_extensions, mec_digest, mec_index)
from causaltext.matrix import AdjMatrix, _bits, is_acyclic
from causaltext.relations import RelationSet, relation_table, relations_from_dag
from causaltext.variables import VariableTable

from conftest import FIVE_VAR_STEP_8, pdag_encoding
from oracles import (all_dags, class_pattern, directed_edges, group_mecs,
                     oriented_colliders, skeleton, undirected_pairs,
                     v_structures)


THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]


def brute_force_dags(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in product((0, 1), repeat=len(cells)):
        edges = [cells[k] for k, b in enumerate(bits) if b]
        try:
            out.append(Dag(n, edges))
        except CycleError:
            continue
    return out


def dsep_path_oracle(dag, x, y, cond):
    """Blocked-path check by exhaustive simple-path enumeration."""
    cond = set(cond)
    adj = {i: set() for i in range(dag.n)}
    for p, c in dag.edges:
        adj[p].add(c)
        adj[c].add(p)
    desc = {i: set(dag.descendants(i)) for i in range(dag.n)}

    def blocked(path):
        for k in range(1, len(path) - 1):
            prev, node, nxt = path[k - 1], path[k], path[k + 1]
            collider = (prev, node) in dag.edges and (nxt, node) in dag.edges
            if collider:
                if node not in cond and not (desc[node] & cond):
                    return True
            elif node in cond:
                return True
        return False

    stack = [[x]]
    while stack:
        path = stack.pop()
        if path[-1] == y:
            if not blocked(path):
                return False
            continue
        for nb in adj[path[-1]]:
            if nb not in path:
                stack.append(path + [nb])
    return True


def brute_force_extensions(matrix):
    """Extensions by trying all 2^k orientations of the k undirected pairs."""
    matrix.validate_pdag()
    n = matrix.n
    directed = sorted(directed_edges(matrix))
    undirected = sorted(undirected_pairs(matrix))
    colliders = oriented_colliders(matrix)
    out = []
    for choice in range(1 << len(undirected)):
        edges = list(directed)
        for k, (i, j) in enumerate(undirected):
            edges.append((i, j) if (choice >> k) & 1 == 0 else (j, i))
        try:
            cand = Dag(n, edges)
        except CycleError:
            continue
        if v_structures(cand) == colliders:
            out.append(cand)
    out.sort(key=lambda d: d.mask)
    return out


def assert_extensions_match_reference(matrix):
    try:
        expected = brute_force_extensions(matrix)
    except PdagError:
        with pytest.raises(PdagError):
            dag_extensions(matrix)
        return
    assert dag_extensions(matrix) == [d.mask for d in expected]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 25), (4, 543)])
    def test_counts_match_brute_force(self, n, count):
        enumerated = all_dags(n)
        assert len(enumerated) == count
        assert {d.mask for d in enumerated} == {d.mask for d in brute_force_dags(n)}

    def test_counts_match_recurrence(self):
        assert [dag_count(n) for n in range(7)] == [1, 1, 3, 25, 543, 29281, 3781503]

    @pytest.mark.parametrize("n", [5, 6])
    def test_dag_masks_ascend_and_match_count(self, n):
        masks = _dag_masks(n)
        assert len(masks) == dag_count(n)
        assert (masks[1:] > masks[:-1]).all()

    def test_no_duplicates_and_sorted(self):
        masks = [d.mask for d in all_dags(4)]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)

    @pytest.mark.parametrize("n", [0, 7, -1])
    def test_bounds(self, n):
        with pytest.raises(BoundsError):
            MecIndex(n)

    def test_is_acyclic_matches_enumeration(self):
        # all 4,096 loopless directed graphs on 4 nodes: exactly the 543 DAGs
        # pass
        n = 4
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        dag_masks = {d.mask for d in all_dags(n)}
        acyclic = set()
        for choice in range(1 << len(cells)):
            pa = [0] * n
            mask = 0
            for k, (i, j) in enumerate(cells):
                if (choice >> k) & 1:
                    pa[j] |= 1 << i
                    mask |= 1 << (i * n + j)
            if is_acyclic(pa):
                acyclic.add(mask)
        assert len(acyclic) == 543
        assert acyclic == dag_masks

    @pytest.mark.parametrize("build,error,message", [
        (lambda: Dag(3, THREE_CYCLE), CycleError,
         "edge set contains a directed cycle"),
        (lambda: AdjMatrix(VariableTable.letters(3),
                           [[0, 1, 0], [0, 0, 1], [1, 0, 0]]).validate_pdag(),
         PdagError, "directed edges of the matrix contain a cycle"),
        (lambda: RelationSet(VariableTable.letters(3),
                             declared_causes=THREE_CYCLE),
         ConsistencyError, "declared cause-effect relation is cyclic"),
    ], ids=["dag", "pdag", "relations"])
    def test_three_cycle_rejected(self, build, error, message):
        # one acyclicity check behind three error types, each message kept
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message

    def test_dag_rejects_cycles_and_self_loops(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleError):
            Dag(2, [(0, 0)])
        with pytest.raises(BoundsError):
            Dag(2, [(0, 5)])


def stated_separations(dag):
    """Every ``(pair, conditioning set)`` the closure premise of ``dag``
    states independent, with the empty set for an unconditional one."""
    rels = relations_from_dag(dag, minimal=False)
    return {(pair, frozenset()) for pair in rels.uncond_indep} | rels.cond_indep


class TestDSeparation:
    def test_chain(self):
        seps = stated_separations(Dag(3, [(0, 1), (1, 2)]))
        assert ((0, 2), frozenset({1})) in seps
        assert ((0, 2), frozenset()) not in seps

    def test_collider(self):
        seps = stated_separations(Dag(3, [(0, 2), (1, 2)]))
        assert ((0, 1), frozenset()) in seps
        assert ((0, 1), frozenset({2})) not in seps

    def test_collider_descendant_opens_path(self):
        seps = stated_separations(Dag(4, [(0, 2), (1, 2), (2, 3)]))
        assert ((0, 1), frozenset()) in seps
        assert ((0, 1), frozenset({3})) not in seps

    def test_five_var_mec_members(self, five_var):
        # every extension of the worked example's oriented matrix satisfies
        # the premise's largest conditional independence
        matrix = AdjMatrix.from_mapping(FIVE_VAR_STEP_8)
        for mask in dag_extensions(matrix):
            # C and E given A, B, D
            assert ((2, 4), frozenset({0, 1, 3})) in stated_separations(Dag.from_mask(5, mask))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_path_oracle_exhaustively(self, n):
        for dag in all_dags(n):
            seps = stated_separations(dag)
            for x, y in combinations(range(n), 2):
                rest = [v for v in range(n) if v not in (x, y)]
                for size in range(len(rest) + 1):
                    for sub in combinations(rest, size):
                        assert (((x, y), frozenset(sub)) in seps) == \
                            dsep_path_oracle(dag, x, y, sub)

    def test_agrees_with_path_oracle_sampled_n5(self):
        rng = random.Random(7)
        dags = all_dags(5)
        for dag in rng.sample(dags, 250):
            seps = stated_separations(dag)
            for x, y in combinations(range(5), 2):
                rest = [v for v in range(5) if v not in (x, y)]
                for size in range(4):
                    for sub in combinations(rest, size):
                        assert (((x, y), frozenset(sub)) in seps) == \
                            dsep_path_oracle(dag, x, y, sub)


@lru_cache(maxsize=None)
def _set_families(n):
    """Bitsets over the node sets on ``n`` nodes (bit ``z`` for node set
    ``z``): per node, the sets that hold it; per node set, its proper
    supersets."""
    sets = range(1 << n)
    holding = [sum(1 << z for z in sets if z >> v & 1) for v in range(n)]
    above = [sum(1 << w for w in sets if w != z and w & z == z) for z in sets]
    return holding, above


def separating_sets(dag):
    """Per pair of ``combinations(range(n), 2)``, every node set that
    separates it, as a bitset over node sets.

    A two-direction search for active trails, run for every conditioning
    set at once: a trail passes a node outside the set, and turns back up
    at a collider that is in the set or has a descendant in it. Block ``x``
    of ``width`` bits follows the trails from node ``x``, so one search
    serves every start. Independent of the package's d-separation."""
    n = dag.n
    width = 1 << n
    every = (1 << width) - 1
    alone = _set_families(n)[0]
    copies = sum(1 << x * width for x in range(n))
    holding = [h * copies for h in alone]
    pa = [list(_bits(dag.parent_mask(v))) for v in range(n)]
    ch = [list(_bits(dag.child_mask(v))) for v in range(n)]
    opens = list(holding)
    for v in range(n):
        for d in dag.descendants(v):
            opens[v] |= holding[d]
    # the sets under which a trail enters v from a child (up[v]) or from a
    # parent (down[v])
    up = [every << v * width for v in range(n)]
    down = [0] * n
    work = list(range(n))
    while work:
        v = work.pop()
        passing = (up[v] | down[v]) & ~holding[v]
        to_parents = up[v] & ~holding[v] | down[v] & opens[v]
        for p in pa[v]:
            if to_parents & ~up[p]:
                up[p] |= to_parents
                work.append(p)
        for c in ch[v]:
            if passing & ~down[c]:
                down[c] |= passing
                work.append(c)
    return [every & ~((up[y] | down[y]) >> x * width) & ~alone[x] & ~alone[y]
            for x, y in combinations(range(n), 2)]


def kept_sets(n, seps, minimal):
    """The relation-table row that ``seps`` (from ``separating_sets``)
    implies: every separating set, or with ``minimal`` only those without a
    separating proper subset."""
    above = _set_families(n)[1]
    row = []
    for family in seps:
        if minimal:
            for z in _bits(family):
                family &= ~above[z]
        row.append(family)
    return row


def relations_oracle(n, row):
    """Relation set of a ``kept_sets`` row."""
    deps, uncond, cond = set(), set(), set()
    for (x, y), family in zip(combinations(range(n), 2), row):
        if not family:
            deps.add((x, y))
        for z in _bits(family):
            if z:
                cond.add(((x, y), frozenset(_bits(z))))
            else:
                uncond.add((x, y))
    return RelationSet(VariableTable.letters(n), deps, uncond, cond)


class TestStatements:
    def test_collider_statements(self):
        rels = relations_from_dag(Dag(3, [(0, 2), (1, 2)]))
        assert rels.dependencies == {(0, 2), (1, 2)}
        assert rels.uncond_indep == {(0, 1)}
        assert rels.cond_indep == frozenset()

    def test_chain_statements(self):
        rels = relations_from_dag(Dag(3, [(0, 1), (1, 2)]))
        assert rels.dependencies == {(0, 1), (1, 2)}
        assert rels.uncond_indep == frozenset()
        assert rels.cond_indep == {((0, 2), frozenset({1}))}

    def test_empty_graph_statements(self):
        rels = relations_from_dag(Dag(3), minimal=False)
        # 3 pairs, each separated by the empty set and by the one third node
        assert rels.dependencies == frozenset()
        assert rels.uncond_indep == {(0, 1), (0, 2), (1, 2)}
        assert rels.cond_indep == {((0, 1), frozenset({2})), ((0, 2), frozenset({1})),
                                   ((1, 2), frozenset({0}))}
        # the minimal style keeps only the empty sets
        assert not relations_from_dag(Dag(3)).cond_indep

    def test_single_node_statements(self):
        # a single node has no pair to separate
        assert relations_from_dag(Dag(1)) == RelationSet(VariableTable.letters(1))

    def test_matches_subset_oracle(self):
        # the table of every class on up to five nodes, one call per setting
        for n in range(2, 6):
            idx = mec_index(n)
            reps = idx._masks[idx._starts[:-1]]
            seps = [separating_sets(Dag.from_mask(n, m)) for m in reps.tolist()]
            for minimal in (True, False):
                got = relation_table(n, reps, minimal).tolist()
                for g, (row, dag_seps) in enumerate(zip(got, seps)):
                    assert row == kept_sets(n, dag_seps, minimal), (n, g, minimal)

    def test_matches_subset_oracle_sampled_n6(self):
        # every 100th class
        idx = mec_index(6)
        reps = idx._masks[idx._starts[:-1:100]]
        seps = [separating_sets(Dag.from_mask(6, m)) for m in reps.tolist()]
        for minimal in (True, False):
            got = relation_table(6, reps, minimal).tolist()
            for k, row in enumerate(got):
                assert row == kept_sets(6, seps[k], minimal), (100 * k, minimal)

    def test_one_row_matches_oracle_on_every_dag(self):
        for n in range(2, 5):
            for dag in all_dags(n):
                seps = separating_sets(dag)
                for minimal in (True, False):
                    assert relations_from_dag(dag, minimal=minimal) \
                        == relations_oracle(n, kept_sets(n, seps, minimal)), (dag, minimal)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_concatenate(self, block):
        # a table over one block of graphs equals the tables over smaller blocks
        masks = _dag_masks(5)[5::211]
        for minimal in (True, False):
            whole = relation_table(5, masks, minimal=minimal)
            parts = [relation_table(5, masks[lo:lo + block], minimal=minimal)
                     for lo in range(0, len(masks), block)]
            assert np.array_equal(np.concatenate(parts), whole)


class TestEquivalence:
    def test_skeleton(self):
        assert skeleton(Dag(3, [(0, 1), (1, 2)])) == {(0, 1), (1, 2)}
        assert skeleton(Dag(3, [(0, 2), (1, 2)])) == {(0, 2), (1, 2)}
        assert skeleton(Dag(3)) == frozenset()

    def test_v_structures(self):
        assert v_structures(Dag(3, [(0, 2), (1, 2)])) == {(0, 2, 1)}
        assert v_structures(Dag(3, [(0, 2), (1, 2), (0, 1)])) == frozenset()
        assert v_structures(Dag(3, [(0, 1), (1, 2)])) == frozenset()

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 11), (4, 185)])
    def test_mec_counts(self, n, count):
        assert len(group_mecs(all_dags(n))) == count

    def test_single_dag_group(self):
        chain = Dag(3, [(0, 1), (1, 2)])
        mecs = group_mecs([chain])
        assert len(mecs) == 1 and mecs[0].members == (chain,)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_index_matches_grouping_oracle(self, n):
        oracle = group_mecs(all_dags(n))
        idx = mec_index(n)
        assert idx.group_count == len(oracle)
        oracle_keys = {(m.skeleton, m.vstructs) for m in oracle}
        index_keys = {(idx.skeleton_set(g), idx.vstruct_set(g))
                      for g in range(idx.group_count)}
        assert oracle_keys == index_keys
        oracle_members = {tuple(d.mask for d in m.members) for m in oracle}
        index_members = {tuple(int(v) for v in idx.member_masks(g))
                         for g in range(idx.group_count)}
        assert oracle_members == index_members


# sha256 over ``_masks``, ``_starts`` and the sorted (skeleton_set,
# vstruct_set) of every group (every 16th at n=6, where building the sets
# of all 1,067,825 groups takes about 15 s), pinned from the index built
# with whole-universe key arrays
INDEX_GOLDEN = {
    3: "52b236641db28cc82125f5fe69963376f197947ca23904aa821291f4af6d9fc8",
    4: "01a795ff22b292cf2392a568bdd9f7ba2d3f5833485f6cb5f2218604df5a0028",
    5: "38818ba5d28655d741a97fe3c323f9c973a5feacf940c2d99f9ca0b0169c008a",
    6: "1eb20298b86badbe9aa004ab07cf539e22131965eb459cfb5c53567a7bd074e7",
}


class TestMecIndexGolden:
    @pytest.mark.parametrize("n", sorted(INDEX_GOLDEN))
    def test_index_unchanged(self, n):
        idx = mec_index(n)
        h = hashlib.sha256()
        h.update(idx._masks.astype("<i8").tobytes())
        h.update(idx._starts.astype("<i8").tobytes())
        for g in range(0, idx.group_count, 16 if n == 6 else 1):
            h.update(repr((g, sorted(idx.skeleton_set(g)),
                           sorted(idx.vstruct_set(g)))).encode())
        assert h.hexdigest() == INDEX_GOLDEN[n]

    def test_group_keys_are_the_members_keys(self):
        # a strided sample of the six-node groups, checked against the
        # per-DAG definitions
        idx = mec_index(6)
        for g in range(0, idx.group_count, 4099):
            for m in idx.member_masks(g)[[0, -1]]:
                dag = Dag.from_mask(6, int(m))
                assert idx.skeleton_set(g) == skeleton(dag)
                assert idx.vstruct_set(g) == v_structures(dag)

    def test_keys_held_once_per_group(self):
        idx = MecIndex(4)
        assert len(idx._skel) == len(idx._vst) == idx.group_count


class TestKeyDigests:
    @pytest.mark.parametrize("n,every", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 16)])
    def test_equal_the_member_built_digest(self, n, every):
        # the digest from the packed keys against Mec.digest() of the class
        # keyed by a member DAG's own skeleton and v-structures (every 16th
        # six-node class, as above)
        idx = mec_index(n)
        groups = np.arange(0, idx.group_count, every)
        for g, digest in zip(groups.tolist(), idx.digests(groups), strict=True):
            dag = Dag.from_mask(n, int(idx.member_masks(g)[0]))
            assert digest == Mec(n, skeleton(dag), v_structures(dag), (dag,)).digest(), g


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equal_mec_digest_of_the_key_sets(self, n):
        # every class at n <= 5 and 10,000 seeded six-node classes
        idx = mec_index(n)
        groups = np.arange(idx.group_count)
        if n == 6:
            groups = np.random.default_rng(6).choice(groups, 10_000, replace=False)
        for g, digest in zip(groups.tolist(), idx.digests(groups), strict=True):
            assert digest == mec_digest(n, idx.skeleton_set(g), idx.vstruct_set(g)), g


def assert_same_index(got, want):
    assert got.n == want.n
    for a, b in zip(got.arrays, want.arrays, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    groups = np.arange(want.group_count)
    if want.n == 6:
        groups = np.random.default_rng(40).choice(groups, 10_000, replace=False)
    assert got.digests(groups) == want.digests(groups)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache base for one test; the index files go in its
    ``causaltext`` folder."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "causaltext"


def built_only(monkeypatch):
    """Make every later index build fail, so an index that comes back was
    loaded from its file."""
    def fail(n):
        raise AssertionError(f"index on {n} nodes built, not loaded")
    monkeypatch.setattr(graphs, "_index_arrays", fail)


class TestIndexCache:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_loaded_index_equals_the_built_one(self, n, cache_dir, monkeypatch):
        # the first call builds and writes the file, the second loads it
        cold = graphs._cached_index(n)
        assert os.listdir(cache_dir) == [f"mec_index_{n}"]
        want = MecIndex(n)
        assert_same_index(cold, want)
        built_only(monkeypatch)
        assert_same_index(graphs._cached_index(n), want)

    @pytest.mark.parametrize("flip", [0x01, 0xFF])
    def test_every_changed_byte_is_rebuilt_and_replaced(self, flip, cache_dir):
        graphs._cached_index(2)
        path = cache_dir / "mec_index_2"
        good = path.read_bytes()
        want = MecIndex(2)
        for at in range(len(good)):
            bad = bytearray(good)
            bad[at] ^= flip
            path.write_bytes(bad)
            assert_same_index(graphs._cached_index(2), want)
            assert path.read_bytes() == good, at
        assert os.listdir(cache_dir) == ["mec_index_2"]

    @pytest.mark.parametrize("cut", [
        lambda b: b[:0], lambda b: b[:1], lambda b: b[:200], lambda b: b[:-1],
        lambda b: b + b"\0"], ids=["empty", "1", "200", "all-but-1", "one-more"])
    def test_a_short_or_long_file_is_rebuilt_and_replaced(self, cut, cache_dir):
        graphs._cached_index(4)
        path = cache_dir / "mec_index_4"
        good = path.read_bytes()
        path.write_bytes(cut(good))
        assert_same_index(graphs._cached_index(4), MecIndex(4))
        assert path.read_bytes() == good
        assert os.listdir(cache_dir) == ["mec_index_4"]

    def test_a_file_under_another_key_is_rebuilt(self, cache_dir):
        want = MecIndex(3)
        path, key = graphs._cache_place(3)
        graphs._write_index(path, key.replace("numpy", "numpy 0.0 and"), want.arrays)
        stale = (cache_dir / "mec_index_3").read_bytes()
        assert_same_index(graphs._cached_index(3), want)
        fresh = (cache_dir / "mec_index_3").read_bytes()
        assert fresh != stale and key.encode() in fresh
        assert os.listdir(cache_dir) == ["mec_index_3"]

    def test_a_regular_file_as_cache_home_fails_nothing(self, tmp_path, monkeypatch,
                                                        caplog):
        home = tmp_path / "not-a-directory"
        home.write_text("x")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        with caplog.at_level(logging.DEBUG, logger="causaltext.graphs"):
            assert_same_index(graphs._cached_index(3), MecIndex(3))
        assert "not written" in caplog.text
        assert home.read_text() == "x"

    def test_a_failed_write_leaves_no_file(self, cache_dir, monkeypatch):
        def full_disk(src, dst):
            raise OSError("no space left on device")
        monkeypatch.setattr(graphs.os, "replace", full_disk)
        assert_same_index(graphs._cached_index(3), MecIndex(3))
        assert os.listdir(cache_dir) == []

    def test_one_file_per_node_count(self, cache_dir):
        for n in [3, 4, 3, 2, 4]:
            graphs._cached_index(n)
        (cache_dir / "mec_index_3").write_bytes(b"{}")
        graphs._cached_index(3)
        assert sorted(os.listdir(cache_dir)) == ["mec_index_2", "mec_index_3",
                                                 "mec_index_4"]

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        graphs._cached_index(2)
        assert os.listdir(tmp_path / "home" / ".cache" / "causaltext") == ["mec_index_2"]
        assert not (tmp_path / "relative").exists()

    def test_no_absolute_directory_caches_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "relative-home")
        assert graphs._cache_place(2) == (None, "")
        assert_same_index(graphs._cached_index(2), MecIndex(2))
        assert os.listdir(tmp_path) == []


class TestExtensions:
    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_fully_undirected(self, n):
        # every topological order of the complete graph is one extension
        cells = [[int(i != j) for j in range(n)] for i in range(n)]
        exts = [Dag.from_mask(n, m) for m in
                dag_extensions(AdjMatrix(VariableTable.letters(n), cells))]
        assert len(exts) == factorial(n)
        assert len({d.mask for d in exts}) == len(exts)
        for d in exts:
            assert len(d.edges) == n * (n - 1) // 2
            assert all(i not in d.descendants(i) for i in range(n))
            assert v_structures(d) == frozenset()

    def test_too_many_nodes_rejected_before_enumeration(self):
        # K7 has 7! extensions; the node cap must reject it without building them
        cells = [[int(i != j) for j in range(7)] for i in range(7)]
        with pytest.raises(BoundsError):
            dag_extensions(AdjMatrix(VariableTable("ABCDEFG"), cells))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_on_every_encoding(self, n):
        for states in product(range(4), repeat=n * (n - 1) // 2):
            assert_extensions_match_reference(pdag_encoding(n, states))

    def test_matches_reference_sampled_n5(self):
        rng = random.Random(2024)
        for _ in range(2000):
            states = [rng.randrange(4) for _ in range(10)]
            assert_extensions_match_reference(pdag_encoding(5, states))

    def test_class_pattern_extends_to_its_index_members(self):
        # the pattern of a class extends to exactly its members, in mask
        # order: every class up to five nodes, and at six nodes every class
        # of 100 or more members (the search's slowest inputs) plus a
        # seeded sample of the rest
        for n in range(1, 7):
            idx = mec_index(n)
            groups = range(idx.group_count)
            if n == 6:
                big = np.flatnonzero(np.diff(idx._starts) >= 100).tolist()
                groups = sorted(set(big) | set(random.Random(6).sample(groups, 3000)))
            for g in groups:
                pattern = class_pattern(n, idx.skeleton_set(g), idx.vstruct_set(g))
                assert dag_extensions(pattern) == idx.member_masks(g).tolist(), (n, g)

    def test_five_var_final_matrix(self):
        matrix = AdjMatrix.from_mapping(FIVE_VAR_STEP_8)
        exts = [Dag.from_mask(5, m) for m in dag_extensions(matrix)]
        assert len(exts) == 2
        forced = {(0, 3), (1, 3), (0, 4), (1, 4), (2, 3)}
        for d in exts:
            assert forced <= d.edges
            assert (3, 4) in d.edges  # the remaining chain orients away from the hub

    def test_directed_cycle_rejected(self):
        cells = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        m = AdjMatrix(VariableTable.letters(3), cells)
        with pytest.raises(PdagError):
            dag_extensions(m)

    def test_cycle_rejected_before_node_count(self):
        # a 7-node matrix fails both checks: the cycle is reported first
        cells = [[0] * 7 for _ in range(7)]
        cells[0][1] = cells[1][2] = cells[2][0] = 1
        m = AdjMatrix(VariableTable("ABCDEFG"), cells)
        with pytest.raises(PdagError, match="^directed edges of the matrix contain a cycle$"):
            dag_extensions(m)

    def test_inconsistent_matrix_has_no_extension(self):
        # A -> B, B - C undirected, D -> C: either orientation of B - C
        # creates a collider the matrix does not declare
        cells = [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
        m = AdjMatrix(VariableTable.letters(4), cells)
        assert oriented_colliders(m) == frozenset()
        assert dag_extensions(m) == []

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_extensions_recover_equivalence_class(self, data):
        dags = all_dags(4)
        dag = data.draw(st.sampled_from(dags))
        skel, vst = skeleton(dag), v_structures(dag)
        members = tuple(Dag.from_mask(4, m)
                        for m in dag_extensions(class_pattern(4, skel, vst)))
        assert dag in members
        for member in members:
            assert skeleton(member) == skel
            assert v_structures(member) == vst
        # the class regenerated from its own key equals the grouped class
        grouped = [m for m in group_mecs(dags) if m.skeleton == skel and m.vstructs == vst]
        assert grouped[0].members == members

    def test_cpdag_roundtrip(self):
        coll = Dag(3, [(0, 2), (1, 2)])
        pattern = class_pattern(3, skeleton(coll), v_structures(coll))
        assert dag_extensions(pattern) == [coll.mask]
        assert directed_edges(pattern) == {(0, 2), (1, 2)}
