import errno
import gzip
import itertools
import json
import os
import random
import threading
import time
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from causaltext import dataset
from causaltext.dataset import (Sample, balanced_generate, dataset_digest, generate,
                                label_table, read_samples, write_samples)
from causaltext.errors import BoundsError, CapacityError, ResourceError, UsageError
from causaltext.fixtures import THREE_VAR_PREMISE
from causaltext.graphs import Dag, Mec, mec_index
from causaltext.hypotheses import (NO, YES, Hypothesis, HypothesisKind,
                                   holds_in_dag, label_against_mec)
from causaltext.matrix import _bits
from causaltext.parsing import (THEMES, PremiseDoc, PremiseFragments, parse_hypothesis,
                                parse_premise, render_premise)
from causaltext.relations import RelationSet, relation_set, relation_table
from causaltext.variables import VariableTable

from conftest import FullDisk
from oracles import all_dags, group_mecs


@pytest.fixture(scope="module")
def n3_samples():
    return list(generate(3))


class TestGenerate:
    def test_n3_shape(self, n3_samples):
        # 11 classes x (3 directional kinds x 6 ordered pairs
        #               + 2 symmetric kinds x 3 unordered pairs)
        assert len(n3_samples) == 11 * 24
        assert len({s.mec_digest for s in n3_samples}) == 11
        assert len({s.id for s in n3_samples}) == len(n3_samples)

    def test_bounds(self):
        with pytest.raises(BoundsError):
            list(generate(1))
        with pytest.raises(BoundsError):
            list(generate(7))

    def test_seed_decides_the_order(self, n3_samples):
        def ids(seed):
            return [s.id for s in generate(3, seed=seed)]

        # no seed walks the canonical order; a seed shuffles it reproducibly
        assert ids(None) == [s.id for s in n3_samples]
        assert ids(1) == ids(1) != ids(2)
        assert ids(1) != ids(None)

    def test_contains_the_three_var_benchmark_row(self, n3_samples):
        hits = [s for s in n3_samples
                if s.premise == THREE_VAR_PREMISE
                and s.hypothesis_text == "A directly affects C."]
        assert len(hits) == 1
        assert hits[0].label == YES
        assert hits[0].kind == "direct_cause"

    def test_two_variable_direct_cause_is_no(self):
        samples = [s for s in generate(2)
                   if s.kind == "direct_cause" and s.hypothesis_text.startswith("A ")]
        # the one-edge class has two members with opposite orientations
        assert samples and all(s.label == NO for s in samples)

    @pytest.mark.parametrize("n", [3, 4])
    def test_shuffled_yields_the_canonical_rows(self, n, tmp_path):
        canonical, shuffled = tmp_path / "canonical.jsonl", tmp_path / "shuffled.jsonl"
        write_samples(canonical, generate(n))
        write_samples(shuffled, generate(n, seed=11))
        lines = canonical.read_text().splitlines()
        assert len(set(lines)) == len(lines)
        assert sorted(shuffled.read_text().splitlines()) == sorted(lines)

    def test_deterministic(self):
        a = [(s.id, s.premise, s.label) for s in generate(3)]
        b = [(s.id, s.premise, s.label) for s in generate(3)]
        assert a == b

    def test_n5_bytes(self):
        # the dataset digest of a canonical ``generate --n 5``
        labels, digest = write_samples(os.devnull, generate(5))
        assert (labels[YES], labels[NO]) == (132_630, 569_930)
        assert digest == "098afb9ab7c04a46"

    def test_kind_filter(self):
        only = list(generate(3, kinds=[HypothesisKind.COMMON_EFFECT]))
        assert len(only) == 11 * 3
        assert {s.kind for s in only} == {"common_effect"}

    def test_repeated_kinds_are_dropped(self):
        once = list(generate(3, kinds=[HypothesisKind.CAUSE, HypothesisKind.COMMON_CAUSE]))
        twice = list(generate(3, kinds=[HypothesisKind.CAUSE, HypothesisKind.COMMON_CAUSE,
                                        HypothesisKind.CAUSE]))
        assert twice == once
        assert len({s.id for s in once}) == len(once)
        kinds = [HypothesisKind.CAUSE, HypothesisKind.CAUSE]
        assert balanced_generate([3], 4, seed=2, kinds=kinds) \
            == balanced_generate([3], 4, seed=2, kinds=kinds[:1])

    def test_premise_mec_invariant_across_members(self):
        # every member of a class verbalizes to the same premise
        from causaltext.relations import relations_from_dag
        table = VariableTable.letters(3)
        for mec in group_mecs(all_dags(3)):
            rels = {relations_from_dag(d, table) for d in mec.members}
            assert len(rels) == 1


class TestLabelSoundness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        # labels re-derived from an independently grouped universe
        mecs = {m.digest(): m for m in group_mecs(all_dags(n))}
        table = VariableTable.letters(n)
        for sample in generate(n):
            mec = mecs[sample.mec_digest]
            expected = YES if all(holds_in_dag(sample.hypothesis, d, table)
                                  for d in mec.members) else NO
            assert sample.label == expected, sample.id

    def test_audit_n5(self):
        # 200-sample audit against brute-force membership checks
        table = VariableTable.letters(5)
        mecs = None
        stream = generate(5, seed=99)
        for sample in itertools.islice(stream, 200):
            if mecs is None:
                mecs = {m.digest(): m
                        for m in group_mecs(all_dags(5))}
            mec = mecs[sample.mec_digest]
            expected = YES if all(holds_in_dag(sample.hypothesis, d, table)
                                  for d in mec.members) else NO
            assert sample.label == expected, sample.id

    def test_unbalanced_n5_skews_to_no(self):
        counts = {YES: 0, NO: 0}
        for sample in itertools.islice(generate(5, seed=5), 1500):
            counts[sample.label] += 1
        assert counts[NO] > 2 * counts[YES]

    def test_premise_parses_back(self, n3_samples):
        for sample in random.Random(0).sample(n3_samples, 40):
            doc = parse_premise(sample.premise)
            assert doc.relations == sample.relations
            assert parse_hypothesis(sample.hypothesis_text, doc.variables) \
                == sample.hypothesis

    # a premise states every separating set, so classes that share a premise
    # text are one class, and its claims have one answer
    @pytest.mark.parametrize("form", [{}, {"minimal": False}, {"style": "story"}],
                             ids=["default", "closure", "story"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_label_per_premise_and_claim(self, n, form):
        assert _relabelled(generate(n, **form)) == []

    def test_one_label_per_premise_and_claim_balanced_n5(self):
        assert _relabelled(balanced_generate([5], 300, seed=4)) == []


def _relabelled(samples):
    """The (premise, claim) pairs that ``samples`` write under both labels."""
    labels = {}
    for s in samples:
        labels.setdefault((s.premise, s.hypothesis_text), set()).add(s.label)
    return [pair for pair, seen in labels.items() if len(seen) > 1]


def _class_premises(n, style="symbolic", theme=None, minimal=True):
    """(relation_table row, premise) of every class, in canonical order."""
    idx = mec_index(n)
    masks, starts = idx.members(np.arange(idx.group_count))
    rows = relation_table(n, masks[starts[:-1]], minimal).tolist()
    # one symmetric kind: a class's n(n-1)/2 rows follow each other
    stream = generate(n, [HypothesisKind.COMMON_CAUSE], style, theme, minimal)
    samples = itertools.islice(stream, None, None, n * (n - 1) // 2)
    return list(zip(rows, (s.premise for s in samples), strict=True))


# (n, minimal): both premise variants at n <= 4, the minimal one at n = 5;
# each id also names n - 2, the size of the largest separating set (None at
# n = 5)
_TABLE_VARIANTS = [pytest.param(n, m, id=f"{n}-{n - 2}-{m}") for n in (2, 3, 4)
                   for m in (True, False)] + [pytest.param(5, True, id="5-None-True")]


class TestPremiseFromRow:
    """generate writes each class's premise from the relation set of its
    relation_table row; the text must be what ``render_premise`` makes of
    that relation set, and parse back to it."""

    @pytest.mark.parametrize("n,minimal", _TABLE_VARIANTS)
    @pytest.mark.parametrize("theme", [None, *sorted(THEMES)])
    def test_premise_is_the_rows_rendering(self, n, minimal, theme):
        table = VariableTable.letters(n)
        style = "symbolic" if theme is None else "story"
        for row, premise in _class_premises(n, style, theme, minimal):
            rels = relation_set(row, table)
            assert premise == render_premise(PremiseDoc("", table, rels), style, theme)
            assert parse_premise(premise).relations == rels


def _class_rows(n, minimal):
    """The relation_table row of every class at n <= 5; of 2,000 seeded
    classes at n = 6."""
    idx = mec_index(n)
    groups = np.arange(idx.group_count)
    if n == 6:
        groups = np.random.default_rng(38).choice(groups, 2_000, replace=False)
    masks, starts = idx.members(groups)
    return relation_table(n, masks[starts[:-1]], minimal).tolist()


_ROW_VARIANTS = [(n, m) for n in (2, 3, 4, 5) for m in (True, False)] + [(6, True)]


class TestClassRows:
    """The row paths of generate against the checked constructor and the
    general writer."""

    @pytest.mark.parametrize("n,minimal", _ROW_VARIANTS)
    def test_relation_set_equals_the_checked_one(self, n, minimal):
        table = VariableTable.letters(n)
        pairs = list(itertools.combinations(range(n), 2))
        for row in _class_rows(n, minimal):
            fast = relation_set(row, table)
            deps = [p for p, seps in zip(pairs, row) if not seps]
            uncond = [p for p, seps in zip(pairs, row) if seps & 1]
            cond = [(p, frozenset(_bits(z))) for p, seps in zip(pairs, row)
                    for z in _bits(seps & ~1)]
            checked = RelationSet(table, deps, uncond, cond)
            for field in ("vars", "dependencies", "uncond_indep", "cond_indep",
                          "declared_causes"):
                assert getattr(fast, field) == getattr(checked, field), (row, field)
            assert fast == checked and hash(fast) == hash(checked)

    @pytest.mark.parametrize("n,minimal", _ROW_VARIANTS)
    @pytest.mark.parametrize("style,theme", [("symbolic", None), ("story", "economics")])
    def test_row_render_equals_render(self, n, minimal, style, theme):
        table = VariableTable.letters(n)
        frag = PremiseFragments(table, style, theme)
        for row in _class_rows(n, minimal):
            assert frag.render_row(row) == frag.render(relation_set(row, table)), row


class TestClassLabels:
    @pytest.mark.parametrize("n,every", [(2, 1), (3, 1), (4, 1), (5, 20)])
    def test_equals_label_against_mec(self, n, every):
        # every (kind, i, j), symmetric kinds in both orders, against the oracle
        idx = mec_index(n)
        table = VariableTable.letters(n)
        groups = np.arange(0, idx.group_count, every)
        labels = label_table(n, *idx.members(groups)).tolist()
        for g, holds in zip(groups.tolist(), labels):
            masks = idx.member_masks(g).tolist()
            mec = Mec(n, idx.skeleton_set(g), idx.vstruct_set(g),
                      tuple(Dag.from_mask(n, m) for m in masks))
            for k, kind in enumerate(HypothesisKind):
                for i in range(n):
                    assert not holds[k][i] >> i & 1
                    for j in range(n):
                        if i == j:
                            continue
                        h = Hypothesis(kind, table.label(i), table.label(j))
                        got = YES if holds[k][i] >> j & 1 else NO
                        assert got == label_against_mec(h, mec, table), (g, h)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_concatenate(self, block):
        # a table over one block of classes equals the tables over smaller blocks
        idx = mec_index(5)
        groups = np.arange(3, idx.group_count, 37)
        whole = label_table(5, *idx.members(groups))
        parts = [label_table(5, *idx.members(groups[lo:lo + block]))
                 for lo in range(0, len(groups), block)]
        assert np.array_equal(np.concatenate(parts), whole)


class TestBalancedGenerate:
    def test_shape_and_determinism(self):
        a = balanced_generate([3, 4], 4, seed=7)
        b = balanced_generate([3, 4], 4, seed=7)
        assert [s.id for s in a] == [s.id for s in b]
        assert len(a) == 16
        for n in (3, 4):
            for label in (YES, NO):
                assert sum(1 for s in a if s.n_vars == n and s.label == label) == 4

    def test_negative_per_cell_draws_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew from the universe")

        monkeypatch.setattr(dataset, "generate", no_draw)
        with pytest.raises(BoundsError, match="must not be negative"):
            balanced_generate([5], -2, seed=1)

    def test_capacity_error(self):
        # two-variable classes admit no Yes label at all
        with pytest.raises(CapacityError) as err:
            balanced_generate([2], 1, seed=1)
        assert "n_vars=2" in str(err.value)


class TestStoryify:
    def test_economics_n5_bytes(self):
        # sha256 of ``generate --n 5 --style story --theme economics``, pinned
        # from the generator that rendered each premise from a RelationSet
        labels, digest = write_samples(os.devnull,
                                       generate(5, style="story", theme="economics"))
        assert (labels[YES], labels[NO]) == (132_630, 569_930)
        assert digest == "c6789388d1e0ee70"

    def test_health_story_keeps_label_and_relations(self, n3_samples):
        stories = list(generate(3, style="story", theme="health"))
        assert len(stories) == len(n3_samples)
        docs = {}
        for base, story in zip(n3_samples, stories):
            assert (story.label, story.kind, story.mec_digest) \
                == (base.label, base.kind, base.mec_digest)
            assert base.id.endswith("-symbolic")
            assert story.id == base.id[:-len("symbolic")] + "story:health"
            if story.premise not in docs:
                docs[story.premise] = parse_premise(story.premise)
            doc = docs[story.premise]
            assert doc.relations == base.relations
            assert parse_hypothesis(story.hypothesis_text, doc.variables) \
                == base.hypothesis
        collider = next(s for s, b in zip(stories, n3_samples)
                        if b.premise == THREE_VAR_PREMISE)
        assert "eating junk food" in collider.premise

    def test_unknown_theme(self):
        with pytest.raises(ResourceError, match="unknown theme"):
            next(generate(3, style="story", theme="astrology"))

    def test_generate_story_style(self):
        samples = list(generate(3, style="story", theme="economics",
                                kinds=[HypothesisKind.CAUSE]))
        assert all(s.style == "story:economics" for s in samples)
        for s in samples[:10]:
            doc = parse_premise(s.premise)
            assert doc.relations == s.relations


class TestPersistence:
    def test_roundtrip(self, tmp_path, n3_samples):
        subset = n3_samples[:25]
        path = tmp_path / "ds.jsonl"
        assert write_samples(path, subset)[0].total() == 25
        back = read_samples(path)
        assert [s.id for s in back] == [s.id for s in subset]
        assert [s.label for s in back] == [s.label for s in subset]
        assert all(a.relations == b.relations for a, b in zip(back, subset))

    def test_premise_parsed_once_per_run(self, tmp_path, monkeypatch):
        rows = list(generate(4))
        a, b = rows[:10], rows[48:58]  # 48 rows per class
        assert len({s.premise for s in a}) == len({s.premise for s in b}) == 1
        # three runs of equal premises; ids must not repeat
        samples = a + b + [replace(s, id=f"{s.id}-again") for s in a[:5]]
        path = tmp_path / "ds.jsonl"
        write_samples(path, samples)
        # the reference parses every row
        reference = []
        for s in samples:
            doc = parse_premise(s.premise)
            reference.append(replace(s, relations=doc.relations,
                                     hypothesis=parse_hypothesis(s.hypothesis_text,
                                                                 doc.variables)))
        calls = []

        def counting(text):
            calls.append(text)
            return parse_premise(text)

        monkeypatch.setattr(dataset, "parse_premise", counting)
        assert read_samples(path) == reference
        assert calls == [a[0].premise, b[0].premise, a[0].premise]

    def test_limit_stops_reading(self, tmp_path, monkeypatch):
        samples = list(generate(3))[::24]  # one row per class
        path = tmp_path / "ds.jsonl"
        write_samples(path, samples)
        full = read_samples(path)
        calls = []

        def counting(text):
            calls.append(text)
            return parse_premise(text)

        monkeypatch.setattr(dataset, "parse_premise", counting)
        assert read_samples(path, limit=4) == full[:4]
        assert calls == [s.premise for s in samples[:4]]
        assert read_samples(path, limit=0) == []

    def test_gzip_roundtrip(self, tmp_path, n3_samples):
        path = tmp_path / "ds.jsonl.gz"
        write_samples(path, n3_samples[:10], gzip=True)
        assert len(read_samples(path)) == 10

    def test_gzip_bytes_ignore_the_clock(self, tmp_path, n3_samples, monkeypatch):
        first, second = tmp_path / "a" / "ds.jsonl.gz", tmp_path / "b" / "ds.jsonl.gz"
        first.parent.mkdir()
        second.parent.mkdir()
        write_samples(first, n3_samples[:10], gzip=True)
        later = time.time() + 86400
        monkeypatch.setattr(time, "time", lambda: later)
        write_samples(second, n3_samples[:10], gzip=True)
        assert first.read_bytes() == second.read_bytes()
        assert read_samples(first) == read_samples(second) == n3_samples[:10]

    @pytest.mark.parametrize("bad", ["", ".", "..", "../escaped", "a/b"])
    def test_path_like_id_is_rejected(self, tmp_path, n3_samples, bad):
        path = tmp_path / "ds.jsonl"
        write_samples(path, [n3_samples[0], replace(n3_samples[1], id=bad)])
        with pytest.raises(UsageError, match="line 2"):
            read_samples(path)

    def test_lines_equal_json_dumps(self, tmp_path, n3_samples):
        odd = ['say "hi"', "back\\slash", "ctl\x00\x1f\t\n\r\x7f",
               "caf\u00e9 \u2192 \U0001F600", "</script>", ""]
        base = n3_samples[0]
        # the same premise object, then an equal copy of it
        samples = [base, base, replace(base, premise="".join(list(base.premise)))]
        for k, text in enumerate(odd):
            samples.append(Sample(f"id-{text}", 3 + k, text, base.relations,
                                  base.hypothesis, text + "?", text, text, text,
                                  text, k))
            samples.append(replace(samples[-1], premise=text + "!"))
        path = tmp_path / "ds.jsonl"
        assert write_samples(path, samples)[0].total() == len(samples)
        assert path.read_bytes() == "".join(
            json.dumps(s.record()) + "\n" for s in samples).encode("utf-8")

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_fragments_never_leak_between_rows(self, tmp_path, n3_samples, compress):
        base = n3_samples[0]
        premise = base.premise + " Caf\u00e9 \u2192 A."
        claim = base.hypothesis_text + " \u00bfS\u00ed?"
        rows = [replace(base, premise=premise, hypothesis_text=claim)]
        # each row changes one field of the row before it
        for k, change in enumerate([
                {"n_vars": 4},  # the same premise object
                {"premise": "".join(list(premise))},  # equal, not identical
                {"label": NO if base.label == YES else YES},
                {"kind": "common_cause"},
                {"mec_digest": "0" * 64},
                {"style": "story:health"},
                {"schema_version": 2},
                {"label": base.label},
                {"kind": base.kind}]):
            rows.append(replace(rows[-1], id=f"{base.id}-{k}", **change))
        rows += n3_samples[30:90]
        path = tmp_path / ("ds.jsonl.gz" if compress else "ds.jsonl")
        labels, _ = write_samples(path, rows, gzip=compress)
        data = gzip.decompress(path.read_bytes()) if compress else path.read_bytes()
        assert data == "".join(json.dumps(s.record()) + "\n" for s in rows).encode("utf-8")
        assert labels == Counter(s.label for s in rows)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_batches_keep_the_bytes_and_hash_them(self, tmp_path, monkeypatch, compress):
        rows = list(generate(4))
        name = "ds.jsonl.gz" if compress else "ds.jsonl"
        files = []
        # one batch, a few, and one per class (a batch is cut at a premise change)
        for k, batch_rows in enumerate((len(rows), 100, 1)):
            monkeypatch.setattr(dataset, "WRITE_ROWS", batch_rows)
            path = tmp_path / str(k) / name
            path.parent.mkdir()
            labels, digest = write_samples(path, rows, gzip=compress)
            assert digest == dataset_digest(path)
            assert labels == Counter(s.label for s in rows)
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]
        data = gzip.decompress(files[0]) if compress else files[0]
        assert data == "".join(json.dumps(s.record()) + "\n" for s in rows).encode("utf-8")

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("batch_rows", [1, 10_000], ids=["per-class", "one-batch"])
    def test_failed_write_is_raised_in_the_caller(self, tmp_path, monkeypatch,
                                                  batch_rows, compress):
        monkeypatch.setattr(dataset, "WRITE_ROWS", batch_rows)
        monkeypatch.setattr(dataset, "open", FullDisk, raising=False)
        total, drawn = 185 * 48, []  # rows of generate(4)

        def rows():
            for s in generate(4):
                drawn.append(s)
                yield s

        before = threading.enumerate()
        with pytest.raises(OSError) as failed:
            write_samples(tmp_path / "ds.jsonl", rows(), gzip=compress)
        assert failed.value.errno == errno.ENOSPC
        assert threading.enumerate() == before
        # a batch per class: the stream stops soon after the failure; one
        # batch: the failure arrives after the last row
        assert len(drawn) < total if batch_rows == 1 else len(drawn) == total

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("fails_at", ["flush", "close"])
    def test_failed_final_flush_is_raised_in_the_caller(self, tmp_path, monkeypatch,
                                                        n3_samples, fails_at, compress):
        # a small stream reaches the disk only when it is flushed or closed
        monkeypatch.setattr(dataset, "open", partial(FullDisk, fails_at=fails_at),
                            raising=False)
        before = threading.enumerate()
        with pytest.raises(OSError) as failed:
            write_samples(tmp_path / "ds.jsonl", n3_samples[:3], gzip=compress)
        assert failed.value.errno == errno.ENOSPC
        assert threading.enumerate() == before

    @pytest.mark.parametrize("failure", ["full-disk", "stream"])
    def test_failed_gzip_stream_is_closed_in_the_caller(self, tmp_path, monkeypatch,
                                                        n3_samples, failure):
        # a GzipFile left open would write its trailer into the closed file
        # when it is collected
        streams = []

        class Tracked(gzip.GzipFile):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        def rows():
            yield from n3_samples * 20
            if failure == "stream":
                raise RuntimeError("the stream broke")

        monkeypatch.setattr(dataset.gzip_mod, "GzipFile", Tracked)
        if failure == "full-disk":
            monkeypatch.setattr(dataset, "open", FullDisk, raising=False)
        with pytest.raises(OSError if failure == "full-disk" else RuntimeError):
            write_samples(tmp_path / "ds.jsonl.gz", rows(), gzip=True)
        assert len(streams) == 1 and streams[0].closed

    def test_record_field_order(self, tmp_path, n3_samples):
        path = tmp_path / "ds.jsonl"
        write_samples(path, n3_samples[:1])
        line = path.read_text().strip()
        assert list(json.loads(line)) == [
            "id", "n_vars", "premise", "hypothesis", "label", "kind",
            "mec_digest", "style", "schema_version"]
