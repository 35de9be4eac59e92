"""Benchmark generation: labeled premise/hypothesis records drawn from
enumerated equivalence classes.

For every equivalence class on ``n`` nodes and every hypothesis instance the
generator emits one record whose label is Yes exactly when the claim holds in
every member of the class. Premises verbalize the marginal dependencies plus
the minimal separating statements of a representative member, which the
class shares.

numpy is imported only inside ``generate`` (and so ``balanced_generate``)
and ``label_table``, so it loads on their first call; reading and writing
records runs without it.
"""

from __future__ import annotations

import gzip as gzip_mod
import hashlib
import json
import os
import random
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Sequence

from .errors import (BoundsError, CapacityError, CausaltextError, ConfigError,
                     PremiseParseError, UsageError)
from .graphs import MAX_NODES, _closure, _union_table, mec_index
from .hypotheses import NO, SYMMETRIC_KINDS, YES, Hypothesis, HypothesisKind
from .parsing import (PremiseFragments, parse_hypothesis, parse_premise,
                      render_hypothesis)
from .relations import TABLE_BLOCK, RelationSet, relation_set, relation_table
from .variables import VariableTable

SCHEMA_VERSION = 1

_SEPARATORS = tuple({"/", os.sep, os.altsep} - {None})
# what a dataset row must hold; ``schema_version`` defaults to SCHEMA_VERSION
_RECORD_FIELDS = ("id", "n_vars", "premise", "hypothesis", "label", "kind",
                  "mec_digest", "style")
# the type of each field a row holds: the seven text fields are strings
_FIELD_TYPES = {**dict.fromkeys(_RECORD_FIELDS, str), "n_vars": int,
                "schema_version": int}


@dataclass(slots=True)
class Sample:
    """One benchmark row: premise, claim, and its ground-truth label.

    A slotted record built once per row; it is neither frozen nor hashable."""

    id: str
    n_vars: int
    premise: str
    relations: RelationSet
    hypothesis: Hypothesis
    hypothesis_text: str
    label: str
    kind: str
    mec_digest: str
    style: str
    schema_version: int = SCHEMA_VERSION

    def record(self) -> dict:
        return {
            "id": self.id,
            "n_vars": self.n_vars,
            "premise": self.premise,
            "hypothesis": self.hypothesis_text,
            "label": self.label,
            "kind": self.kind,
            "mec_digest": self.mec_digest,
            "style": self.style,
            "schema_version": self.schema_version,
        }


def _hypothesis_slots(n: int, kinds: Sequence[HypothesisKind]) -> list[tuple[HypothesisKind, int, int]]:
    slots = []
    for kind in kinds:
        if kind not in SYMMETRIC_KINDS:
            slots.extend((kind, i, j) for i in range(n) for j in range(n) if i != j)
        else:
            slots.extend((kind, i, j) for i in range(n) for j in range(i + 1, n))
    return slots


def _style_tag(style: str, theme: str | None) -> str:
    if style == "symbolic":
        return "symbolic"
    return f"story:{theme or 'health'}"


def label_table(n: int, masks: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Which claims hold in every member of each class, as row bitmasks.

    ``masks[starts[g]:starts[g + 1]]`` are the edge bitmasks of the members
    of class ``g``. Bit ``j`` of entry ``[g, k, i]`` of the returned
    ``(len(starts) - 1, 5, n)`` int64 table is set iff the claim
    ``(kind, i, j)``, ``kind`` the ``k``-th ``HypothesisKind``, holds in
    every member, so it equals ``label_against_mec`` on the class for every
    claim at once. Per member it takes the child masks, the masks reached through a child
    (``indirect_cause``), their union (``cause``) and the common-child and
    common-parent masks, then ANDs them over each class's members.
    """
    import numpy as np
    table = _union_table(n, masks)
    flat = table.ravel()
    rows = np.arange(len(masks))[:, None] << n
    nodes = np.int64(1) << np.arange(n)
    pa, ch = table[:, nodes] & 255, table[:, nodes] >> 8
    of_children = flat[rows + ch]
    # every node reached from a set by directed paths, the set included
    reached = _closure(n, np.arange(1 << n) | table >> 8).ravel()
    holds = np.stack([ch, reached[rows + (of_children >> 8)], reached[rows + ch],
                      of_children & 255 & ~nodes, flat[rows + pa] >> 8 & ~nodes], axis=1)
    return np.bitwise_and.reduceat(holds, starts[:-1], axis=0)


def generate(n: int, kinds: Sequence[HypothesisKind] | None = None,
             style: str = "symbolic", theme: str | None = None,
             minimal: bool = True, seed: int | None = None) -> Iterator[Sample]:
    """Stream one sample per (equivalence class, hypothesis instance).

    With no ``seed`` it walks classes and claims in canonical order; with
    one it visits them in that seed's random order, which lets a consumer
    draw a balanced subset without labeling the whole universe.
    The separating sets and labels are built for a chunk of ``TABLE_BLOCK``
    classes of the visit order at a time (``relation_table``,
    ``label_table``), so a shuffled draw pays only for the chunks it reads.
    Each claim's sentence and id suffix are built once per call, and one
    numpy gather reads the label bit of every claim of every class in the
    chunk, so a row costs a tuple index, a string join and its ``Sample``.
    Each class's ``RelationSet`` and premise are read straight from its
    ``relation_table`` row, whose entries follow the sorted pairs and are
    canonical by construction: ``relation_set`` skips ``RelationSet``'s
    checks, and ``PremiseFragments.render_row`` writes the text
    ``render_premise`` would write for that set, from the same sentences
    and joiner, made once per call, without sorting. The digests come from
    the packed class keys a chunk at a time (``MecIndex.digests``), so a
    class costs its ``RelationSet``, its premise and its id prefix: about
    7 µs at n=5 on a 2-vCPU Xeon, against about 13 µs with the checked
    ``RelationSet`` and a sorting ``render``.
    """
    import numpy as np
    if not 2 <= n <= MAX_NODES:
        raise BoundsError(f"variable count must be between 2 and {MAX_NODES}, got {n}")
    kinds = tuple(dict.fromkeys(kinds or HypothesisKind))
    table = VariableTable.letters(n)
    idx = mec_index(n)
    group_order = np.arange(idx.group_count)
    rng = None
    if seed is not None:
        group_order = np.random.default_rng(seed).permutation(idx.group_count)
        rng = random.Random(seed)
    tag = _style_tag(style, theme)
    if style not in ("symbolic", "story"):
        raise ConfigError(f"unknown style {style!r}")
    frag = PremiseFragments(table, style, theme)

    slots = _hypothesis_slots(n, kinds)
    claims = []
    for kind, i, j in slots:
        h = Hypothesis(kind, table.label(i), table.label(j))
        claims.append((kind.value, h, render_hypothesis(h, table, frag.names),
                       f"{kind.value}-{h.subject}{h.object}-{tag}"))
    # entry [g, k, i] bit j of label_table answers claim (kind, i, j), kind
    # the k-th HypothesisKind
    k_at, i_at, j_at = np.array([(list(HypothesisKind).index(kind), i, j)
                                 for kind, i, j in slots]).T
    labels = (NO, YES)
    for lo in range(0, len(group_order), TABLE_BLOCK):
        groups = group_order[lo:lo + TABLE_BLOCK]
        masks, starts = idx.members(groups)
        seps = relation_table(n, masks[starts[:-1]], minimal).tolist()
        bits = (label_table(n, masks, starts)[:, k_at, i_at] >> j_at & 1).tolist()
        for row, held, digest in zip(seps, bits, idx.digests(groups)):
            rels = relation_set(row, table)
            premise = frag.render_row(row)
            prefix = f"{n}v-{digest[:10]}-"
            rows = zip(claims, held)
            if rng is not None:
                rows = list(rows)
                rng.shuffle(rows)
            for (kind_name, h, text, suffix), bit in rows:
                yield Sample(prefix + suffix, n, premise, rels, h, text, labels[bit],
                             kind_name, digest, tag)


def balanced_generate(ns: Sequence[int], per_cell: int, seed: int,
                      kinds: Sequence[HypothesisKind] | None = None,
                      style: str = "symbolic", theme: str | None = None,
                      minimal: bool = True) -> list[Sample]:
    """Balanced draw without enumerating the whole sample universe.

    Walks each variable count's shuffled stream until both label quotas are
    filled. The draw is reproducible for a fixed seed, but it is not a
    uniform draw over the population.
    """
    if seed is None:
        raise ConfigError("a seed is required for balanced generation")
    if per_cell < 0:
        raise BoundsError(f"samples per cell must not be negative, got {per_cell}")
    out: list[Sample] = []
    for n in sorted(set(ns)):
        needed = {YES: per_cell, NO: per_cell}
        picked: list[Sample] = []
        stream = generate(n, kinds=kinds, style=style, theme=theme,
                          minimal=minimal, seed=seed * 1009 + n)
        for s in stream:
            if needed[s.label] > 0:
                needed[s.label] -= 1
                picked.append(s)
            if not needed[YES] and not needed[NO]:
                break
        for label in (YES, NO):
            if needed[label]:
                raise CapacityError(
                    f"cell (n_vars={n}, label={label}) exhausted with"
                    f" {per_cell - needed[label]} of {per_cell} samples")
        picked.sort(key=lambda s: (s.label, s.id))
        out.extend(picked)
    return out


# ---------------------------------------------------------------------------
# persistence (line-delimited records)


WRITE_ROWS = 4_000  # rows per batch handed to the writer thread: about 2.5 MB


class _Hashed:
    """A binary file that runs sha256 over the bytes written to it."""

    def __init__(self, file):
        self.file = file
        self.sha = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.sha.update(data)
        return self.file.write(data)

    def flush(self) -> None:
        self.file.flush()


def write_samples(path, samples: Iterable[Sample],
                  gzip: bool = False) -> tuple[Counter[str], str]:
    """Write one JSON record per line; returns the number of rows per label
    and the file's ``dataset_digest``.

    Each line is ``json.dumps(s.record())`` byte for byte, joined from
    encoded fragments: the id per row, the ``n_vars`` and premise head once
    per run of rows that share them, the ``mec_digest``, style and version
    tail once per run of rows that share those, and each distinct
    (hypothesis, label, kind) fragment once per call. That memo holds one
    entry per distinct claim fragment, not per row: for a ``generate``
    stream, at most two per claim of a class. ``samples`` is consumed on
    the calling thread. Once ``WRITE_ROWS`` rows are pending, the next
    change of premise cuts them into a batch: one ``"".join``, whose labels
    are counted from the claim fragments it uses, encoded and submitted to
    a one-worker executor. The worker writes it, through a ``GzipFile``
    under ``gzip``, and the digest is sha256 over the bytes that reach the
    file (the compressed bytes under ``gzip``), so it needs no second read.
    File writes, compression and hashing release the GIL on large buffers,
    so they overlap the row building; batches are megabytes because the
    worker may wait a switch interval (5 ms) for the GIL before each one.
    At most two batches are submitted and not yet written, and a failed
    write is raised at the next batch or at the end. A gzip stream carries
    neither a timestamp nor a file name, so equal rows give equal bytes.
    """
    claims: dict[tuple[str, str, str], str] = {}
    uses: Counter[str] = Counter()  # rows per claim fragment
    block: list[str] = []  # five fragments per row, the claim fourth
    pending: deque[Future] = deque()

    # closed in the finally below, not by a with block, so that a stand-in
    # for open need not be a context manager
    file = open(path, "wb")
    out = sink = _Hashed(file)
    try:
        if gzip:
            out = gzip_mod.GzipFile(filename="", mode="wb", mtime=0, fileobj=sink)
        with ThreadPoolExecutor(max_workers=1) as writer:
            def flush():
                if len(pending) == 2:
                    pending.popleft().result()
                pending.append(writer.submit(out.write, "".join(block).encode("utf-8")))
                uses.update(block[3::5])
                block.clear()

            n_vars = premise = digest = style = version = None
            head = tail = ""
            for s in samples:
                if s.premise != premise or s.n_vars != n_vars:
                    if len(block) >= 5 * WRITE_ROWS:
                        flush()
                    n_vars, premise = s.n_vars, s.premise
                    head = f', "n_vars": {n_vars}, "premise": {_json_str(premise)}, '
                if s.mec_digest != digest or s.style != style or s.schema_version != version:
                    digest, style, version = s.mec_digest, s.style, s.schema_version
                    tail = (f', "mec_digest": {_json_str(digest)}, '
                            f'"style": {_json_str(style)}, "schema_version": {version}}}\n')
                key = (s.hypothesis_text, s.label, s.kind)
                claim = claims.get(key)
                if claim is None:
                    claim = claims[key] = (f'"hypothesis": {_json_str(key[0])}, '
                                           f'"label": {_json_str(key[1])}, '
                                           f'"kind": {_json_str(key[2])}')
                block += ('{"id": ', _json_str(s.id), head, claim, tail)
            flush()
            while pending:
                pending.popleft().result()
        # under gzip, this is the sync-flush block the stream has always ended
        # with, before the final block and trailer that close writes
        out.flush()
        if out is not sink:
            out.close()
    except BaseException:
        # the caller's error wins: the stream is lost, so only release it
        if out is not sink:
            with suppress(Exception):
                out.close()
        raise
    finally:
        file.close()
    labels: Counter[str] = Counter()
    for (_, label, _), claim in claims.items():
        labels[label] += uses[claim]
    return labels, sink.sha.hexdigest()[:16]


def _unparsed(path, lineno: int, field: str, exc: CausaltextError) -> UsageError:
    """A row's ``field`` that does not parse, as an error naming the file and
    line: with a parse error's problems and spans, else the error's message."""
    if isinstance(exc, PremiseParseError):
        exc = "; ".join(f"[{s}:{e}] {message}" for s, e, message in exc.problems)
    return UsageError(f"{path} line {lineno}: {field} does not parse: {exc}")


def read_samples(path, limit: int | None = None) -> list[Sample]:
    """Load records, re-deriving relations and hypotheses from their text.

    A file that starts with the gzip magic bytes is read as gzip, whatever
    its name. Reading stops after ``limit`` records. A premise equal to the
    previous row's is not parsed again: the row reuses that row's document.
    A line that is not UTF-8, not a JSON object with every record field,
    or holds a field of the wrong type (the text fields are strings,
    ``n_vars`` and ``schema_version`` are ints), a label other than Yes
    and No, a ``schema_version`` other than ``SCHEMA_VERSION`` or an
    ``n_vars`` other than the premise's variable count is rejected, and so
    is a premise or claim that does not parse, naming the field. An id
    must be usable as a file name inside one directory (records and
    transcripts are stored as ``<id>.json``), so a path-like id is
    rejected, and so is an id an earlier row already holds.
    """
    with open(path, "rb") as fh:
        opener = gzip_mod.open if fh.read(2) == b"\x1f\x8b" else open
    out: list[Sample] = []
    premise = doc = None
    first_line: dict[str, int] = {}
    with opener(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if limit is not None and len(out) >= limit:
                break
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise UsageError(f"{path} line {lineno}: not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise UsageError(f"{path} line {lineno}: not JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise UsageError(f"{path} line {lineno}: not a JSON object")
            missing = [key for key in _RECORD_FIELDS if key not in rec]
            if missing:
                raise UsageError(f"{path} line {lineno}: no field "
                                 + ", ".join(map(repr, missing)))
            rec.setdefault("schema_version", SCHEMA_VERSION)
            for key, kind in _FIELD_TYPES.items():
                if type(rec[key]) is not kind:  # a bool is no int here
                    raise UsageError(f"{path} line {lineno}: field {key!r} is"
                                     f" {type(rec[key]).__name__} {rec[key]!r},"
                                     f" not {kind.__name__}")
            if rec["schema_version"] != SCHEMA_VERSION:
                raise UsageError(f"{path} line {lineno}: schema_version"
                                 f" {rec['schema_version']}; only {SCHEMA_VERSION} is read")
            if rec["label"] not in (YES, NO):
                raise UsageError(f"{path} line {lineno}: label {rec['label']!r}"
                                 f" is neither {YES!r} nor {NO!r}")
            sid = rec["id"]
            if sid in ("", ".", "..") or any(sep in sid for sep in _SEPARATORS):
                raise UsageError(f"{path} line {lineno}: sample id {sid!r}"
                                 " is not a plain file name")
            if sid in first_line:
                raise UsageError(f"{path} line {lineno}: sample id {sid!r} repeats"
                                 f" the id of line {first_line[sid]}")
            first_line[sid] = lineno
            if rec["premise"] != premise:
                try:
                    premise, doc = rec["premise"], parse_premise(rec["premise"])
                except CausaltextError as exc:
                    raise _unparsed(path, lineno, "premise", exc) from None
            if rec["n_vars"] != len(doc.variables):
                raise UsageError(f"{path} line {lineno}: n_vars {rec['n_vars']} but the"
                                 f" premise declares {len(doc.variables)} variables")
            try:
                h = parse_hypothesis(rec["hypothesis"], doc.variables)
            except CausaltextError as exc:
                raise _unparsed(path, lineno, "hypothesis", exc) from None
            out.append(Sample(
                id=sid, n_vars=rec["n_vars"], premise=premise,
                relations=doc.relations, hypothesis=h,
                hypothesis_text=rec["hypothesis"], label=rec["label"],
                kind=rec["kind"], mec_digest=rec["mec_digest"],
                style=rec["style"], schema_version=rec["schema_version"]))
    return out


def dataset_digest(path) -> str:
    """Stable content hash of a dataset file."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
