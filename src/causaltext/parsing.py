"""Bidirectional text layer: template grammar for premises and hypotheses.

The grammar is deliberately closed. Recognized sentence forms (matched
case-insensitively, with a leading discourse marker such as "However,"
stripped):

    Suppose (that) there is a closed system of N variables, A, B and C.
    All (the) statistical relations among these N variables are as follows: ...
    Let's consider N factors: <name>, <name>, and <name>.
    <name> (A), <name> (B), and <name> (C) have relations with each other.
    X correlates with Y.            X is correlated with Y.
    There is a correlation between X and Y(, and between Z and W).
    X is independent of Y.          X and Y are independent (from each other).
    X and Y are independent given Z(, W(, and V)).
    X is the cause of Y.

Anything else is reported with its character span instead of being silently
dropped. Free prose outside the grammar ships as pre-parsed fixtures, not as
grammar extensions. A premise declares its variables once: a second
declaration header, or a relations header whose count differs from the
number of variables the premise declares (or, without a header, mentions),
is a problem of that sentence, and so is a header whose aliases clash.

One grammar over one variable table admits only a few hundred distinct
sentences, so each is read once: a raw sentence's span, statement and what
its header declares are kept, and a ``_Reader`` per variable table keeps
the index entries each statement states and the claim each claim sentence
makes under that table, within a fixed bound. A premise without a header
first declares the labels its statements mention, then is read through
the reader of their table like any other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Sequence

from .errors import (ConsistencyError, PremiseParseError, ResourceError,
                     UnknownVariableError)
from .hypotheses import Hypothesis, HypothesisKind
from .relations import CondStatement, Pair, RelationSet, _cond_statements
from .variables import VariableTable

PROVENANCE_SYMBOLIC = "symbolic"
PROVENANCE_STORY = "natural-story"
PROVENANCE_FIXTURE = "fixture"


@dataclass(frozen=True)
class PremiseDoc:
    """A premise text together with its parsed variables and relations."""

    raw_text: str
    variables: VariableTable
    relations: RelationSet
    provenance: str = PROVENANCE_SYMBOLIC


# ---------------------------------------------------------------------------
# themed name banks for story-style rendering
#
# Names must stay free of commas, parentheses, and the word "and" so the
# template grammar can re-read them.

THEMES: dict[str, tuple[str, ...]] = {
    "health": ("eating junk food", "watching television", "obesity",
               "daily exercise", "sleep quality", "blood pressure"),
    "economics": ("interest rates", "consumer spending", "inflation",
                  "unemployment", "housing prices", "wage growth"),
    "education": ("class attendance", "homework completion", "exam scores",
                  "tutoring hours", "test anxiety", "library visits"),
    "environment": ("air pollution", "traffic volume", "respiratory illness",
                    "green space coverage", "average temperature",
                    "energy consumption"),
    "marketing": ("advertising spend", "brand awareness", "website traffic",
                  "product sales", "customer loyalty", "discount frequency"),
    "social": ("social media use", "face-to-face contact", "loneliness",
               "community participation", "volunteering hours",
               "neighborhood trust"),
}

_NUMBER_WORDS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6}

_SENT_RE = re.compile(r"[^.?!]+[.?!]?")
_PREFIX_RE = re.compile(
    r"^(?:however|additionally|moreover|furthermore|conversely|also|then|"
    r"in addition)\s*,\s*", re.I)
_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")

_HEADER_SYSTEM = re.compile(
    r"^suppose (?:that )?there is a closed system of (?P<n>\d+) variables?"
    r"\s*[,:]?\s*(?P<list>.+)$", re.I)
_HEADER_RELATIONS = re.compile(
    r"^all (?:the )?statistical relations among these (?P<n>\d+) variables are"
    r" as follows\s*:?\s*(?P<rest>.*)$", re.I)
_HEADER_FACTORS = re.compile(
    r"^let'?s consider (?P<num>\w+) factors?\s*:?\s*(?P<list>.+)$", re.I)
_HEADER_ALIASES = re.compile(
    r"^(?P<list>.+\([A-Za-z][A-Za-z0-9]*\))\s+have relations? with each other$", re.I)
_ALIAS_ENTRY = re.compile(r"^(?P<name>.+?)\s*\((?P<label>[A-Za-z][A-Za-z0-9]*)\)$")
_AND_RE = re.compile(r"\s+and\s+")


def _clean(body: str) -> str:
    body = body.strip()
    body = body.rstrip(".?!").strip()
    return _PREFIX_RE.sub("", body)


def _split_names(listing: str) -> list[str]:
    out = []
    for chunk in listing.split(","):
        chunk = chunk.strip()
        if chunk.lower().startswith("and "):
            chunk = chunk[4:].strip()
        if not chunk:
            continue
        out.extend(p.strip() for p in _AND_RE.split(chunk) if p.strip())
    return out


class _Scan:
    """Mutable state of one premise parse: its variable table and the
    index entries its statements state, in ``RelationSet``'s form."""

    def __init__(self):
        # the table a header declares, or the one a premise without a header
        # mentions; None while no variable is known
        self.table: VariableTable | None = None
        # without a header: case-folded label -> label, in order of first mention
        self.labels: dict[str, str] = {}
        self.deps: set[Pair] = set()
        self.uncond: set[Pair] = set()
        self.cond: set[CondStatement] = set()
        self.causes: set[Pair] = set()
        self.parsed = 0
        self.problems: list[tuple[int, int, str]] = []

    def declare(self, mention: str) -> str:
        """The label ``mention`` names, for a premise without a header: a
        label-shaped mention that names no variable yet declares a label."""
        mention = mention.strip()
        label = self.labels.get(mention.lower())
        if label is None:
            if not _LABEL_RE.match(mention):
                raise UnknownVariableError(f"unknown variable mention: {mention!r}")
            label = self.labels[mention.lower()] = mention
        return label


def _mention_pattern(mentions: tuple[str, ...]) -> str:
    """Alternation of every label and alias in ``mentions``, longest first."""
    ordered = sorted(mentions, key=len, reverse=True)
    return "(?:" + "|".join(re.escape(m) for m in ordered) + ")"


_CORR_BETWEEN = re.compile(
    r"^there (?:is|exists) a correlation between (?P<body>.+)$", re.I)
_CORR_SPLIT = re.compile(r",?\s+and between\s+", re.I)


def _statement_patterns(mention: str) -> tuple[tuple[tuple[str, re.Pattern], ...], re.Pattern]:
    """The six statement patterns over one mention alternation, and the pair
    pattern that splits the body of a ``corr_between`` statement."""
    m = mention
    patterns = (
        ("corr_with", re.compile(
            rf"^(?P<x>{m}) (?:correlates|is correlated) with (?P<y>{m})$", re.I)),
        ("corr_between", _CORR_BETWEEN),
        ("indep_given", re.compile(
            rf"^(?P<x>{m}) and (?P<y>{m}) are (?:conditionally )?independent"
            rf" given (?P<given>.+)$", re.I)),
        ("indep_pair", re.compile(
            rf"^(?P<x>{m}) and (?P<y>{m}) are independent"
            rf"(?: (?:of|from) each other)?$", re.I)),
        ("indep_of", re.compile(
            rf"^(?P<x>{m}) is independent (?:of|from) (?P<y>{m})$", re.I)),
        ("cause_of", re.compile(
            rf"^(?P<x>{m}) is the cause of (?P<y>{m})$", re.I)),
    )
    return patterns, re.compile(rf"^(?P<x>{m}) and (?P<y>{m})$", re.I)


# Without a header any label-shaped word is a mention.
_FREE_PATTERNS = _statement_patterns(r"[A-Za-z][A-Za-z0-9]*")


def _statement(body: str, patterns, index, label) -> tuple[str | None, tuple, str | None]:
    """What one statement states: (name of the ``_Scan`` set it adds to,
    the entries it adds, None), or (None, (), the problem it raises).
    ``index`` maps a mention to its variable and ``label`` a variable to
    the label a problem names; an unordered pair has its smaller variable
    first and a conditioning set is a frozenset."""
    statements, pair_pat = patterns

    def pair(x: str, y: str) -> tuple:
        a, b = index(x), index(y)
        if a == b:
            raise ConsistencyError(
                f"a relation needs two distinct variables, got {label(a)!r} twice")
        return (a, b) if a < b else (b, a)

    text = _PREFIX_RE.sub("", body)
    try:
        for name, pat in statements:
            hit = pat.match(text)
            if not hit:
                continue
            if name == "corr_with":
                return "deps", (pair(hit["x"], hit["y"]),), None
            if name == "corr_between":
                pairs = []
                for piece in _CORR_SPLIT.split(hit["body"]):
                    sub = pair_pat.match(piece.strip())
                    if not sub:
                        raise ConsistencyError(
                            f"cannot split correlation pair: {piece.strip()!r}")
                    pairs.append(pair(sub["x"], sub["y"]))
                return "deps", tuple(pairs), None
            if name == "indep_given":
                xy = pair(hit["x"], hit["y"])
                given = frozenset(index(g) for g in _split_names(hit["given"]))
                if not given:
                    raise ConsistencyError("empty conditioning list")
                if not given.isdisjoint(xy):
                    raise ConsistencyError(f"conditioning set of {label(xy[0])}-{label(xy[1])}"
                                           f" contains the pair")
                return "cond", ((xy, given),), None
            if name == "cause_of":
                a, b = index(hit["x"]), index(hit["y"])
                if a == b:
                    raise ConsistencyError("a variable cannot cause itself")
                return "causes", ((a, b),), None
            return "uncond", (pair(hit["x"], hit["y"]),), None
    except (ConsistencyError, UnknownVariableError) as exc:
        return None, (), str(exc)
    return None, (), f"unrecognized sentence: {body!r}"


class _Reader:
    """What each statement and claim over one variable table states; every
    mention resolves through ``VariableTable.index``. The memos are keyed
    on the sentence alone, so a reader serves exactly one table."""

    def __init__(self, table: VariableTable):
        self.table = table
        self._mention = mention = _mention_pattern((*table.names, *table.aliases.values()))
        self.statement = lru_cache(maxsize=1024)(partial(
            _statement, patterns=_statement_patterns(mention), index=table.index,
            label=table.label))
        self.hypothesis = lru_cache(maxsize=1024)(self._hypothesis)

    @cached_property
    def claims(self) -> tuple[tuple[HypothesisKind, re.Pattern], ...]:
        """The claim patterns over this table, compiled on the first claim."""
        return _hypothesis_patterns(self._mention)

    def _hypothesis(self, text: str) -> Hypothesis:
        body = text.strip().rstrip(".?!").strip()
        if not body:
            raise PremiseParseError([(0, 0, "empty hypothesis")])
        table = self.table
        for kind, pat in self.claims:
            hit = pat.match(body)
            if hit:
                return Hypothesis(kind, table.label(table.index(hit["x"])),
                                  table.label(table.index(hit["y"])))
        raise PremiseParseError([(0, len(text), f"unrecognized hypothesis: {body!r}")])


_reader = lru_cache(maxsize=64)(_Reader)


def _fold(folded: dict[str, str], label: str) -> None:
    """Note ``label`` in ``folded``, unless a label that differs only in
    case is there: mentions resolve case-insensitively."""
    other = folded.setdefault(label.lower(), label)
    if other != label:
        raise ConsistencyError(f"variable labels {other!r} and {label!r} differ only in case")


def _declaration(body: str) -> tuple[str | None, int | VariableTable | None]:
    """The statement a cleaned sentence carries and what it declares: a
    relations header's inline statement (or None) and count, None and the
    table any other header builds (labels sorted), or the whole sentence
    and None for a sentence without a header's form."""
    hit = _HEADER_RELATIONS.match(body)
    if hit:
        return hit["rest"].strip() or None, int(hit["n"])
    folded: dict[str, str] = {}
    aliases: dict[str, str] = {}
    if hit := _HEADER_SYSTEM.match(body):
        labels = _split_names(hit["list"])
        if len(labels) != int(hit["n"]):
            raise ConsistencyError(
                f"header declares {hit['n']} variables but lists {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ConsistencyError(f"duplicate variable label in header: {labels}")
        for lab in labels:
            if not _LABEL_RE.match(lab):
                raise ConsistencyError(f"bad variable label in header: {lab!r}")
            _fold(folded, lab)
    elif hit := _HEADER_ALIASES.match(body):
        for entry in _split_names(hit["list"]):
            sub = _ALIAS_ENTRY.match(entry)
            if not sub:
                raise ConsistencyError(f"alias entry without a (label): {entry!r}")
            if sub["label"] in aliases:
                raise ConsistencyError(f"duplicate variable label {sub['label']!r}")
            _fold(folded, sub["label"])
            aliases[sub["label"]] = sub["name"].strip()
        labels = list(aliases)
    elif hit := _HEADER_FACTORS.match(body):
        num = hit["num"].lower()
        count = int(num) if num.isdigit() else _NUMBER_WORDS.get(num)
        names = _split_names(hit["list"])
        if count is not None and count != len(names):
            raise ConsistencyError(
                f"header declares {count} factors but lists {len(names)}")
        if len(names) > 26:
            raise ConsistencyError(
                f"a factors header names at most 26 factors, got {len(names)}")
        labels = [chr(ord("A") + i) for i in range(len(names))]
        aliases = dict(zip(labels, names))
    else:
        return body, None
    return None, VariableTable(sorted(labels), aliases)


@lru_cache(maxsize=4096)
def _read_sentence(raw: str) -> tuple[int, int, str | None, int | VariableTable | str | None]:
    """Where a raw segment's sentence starts and ends in it (the start is
    past the end for a blank segment), then the statement it carries and
    what it declares (see ``_declaration``), or None and the problem a
    header raises."""
    start, end = len(raw) - len(raw.lstrip()), len(raw.rstrip())
    try:
        return start, end, *_declaration(_clean(raw))
    except ConsistencyError as exc:
        return start, end, None, str(exc)


def scan_premise(text: str) -> tuple[_Scan, int]:
    """Low-level pass returning scan state and the sentence count.

    Guarantees parsed + len(problems) == sentence count, so nothing is ever
    silently dropped; the problems come in sentence order.
    """
    scan = _Scan()
    sentences = []
    for m in _SENT_RE.finditer(text):
        start, end, statement, declared = _read_sentence(m.group())
        if start < end:
            sentences.append((m.start() + start, m.start() + end, statement, declared))
    # the first header that builds a table declares the variables; without
    # one, each label is declared by its first mention, in sentence order
    scan.table = next((d for *_, d in sentences if isinstance(d, VariableTable)), None)
    if scan.table is None:
        # here a mention resolves to its label, so a problem names it as is
        statement_of = partial(_statement, patterns=_FREE_PATTERNS, index=scan.declare,
                               label=str)
        for _, _, statement, _ in sentences:
            if statement is not None:
                statement_of(statement)
        if scan.labels:
            scan.table = VariableTable(sorted(scan.labels.values()))
    # a premise that names no variable has only problems, which the
    # declaring reader finds as well
    if scan.table is not None:
        reader = _reader(scan.table)
        scan.table, statement_of = reader.table, reader.statement
    declared_yet = False
    for start, end, statement, declared in sentences:
        problem = None
        if isinstance(declared, int):
            if scan.table is not None and declared != len(scan.table):
                problem = (f"relations header counts {declared} variables"
                           f" but the premise declares {len(scan.table)}")
        elif declared_yet and declared is not None:
            problem = (f"a second variable declaration; the premise already"
                       f" declares {len(scan.table)} variables")
        elif isinstance(declared, str):
            problem = declared
        elif declared is not None:
            declared_yet = True
        if problem is None and statement is not None:
            name, entries, problem = statement_of(statement)
            if problem is None:
                getattr(scan, name).update(entries)
        if problem is None:
            scan.parsed += 1
        else:
            scan.problems.append((start, end, problem))
    return scan, len(sentences)


def parse_premise(text: str) -> PremiseDoc:
    """Parse a verbalized premise into variables and a relation set."""
    if not text or not text.strip():
        raise PremiseParseError([(0, 0, "empty premise")])
    scan, _count = scan_premise(text)
    if scan.problems:
        raise PremiseParseError(scan.problems)
    table = scan.table
    if table is None:
        raise PremiseParseError([(0, len(text), "premise mentions no variables")])
    rels = RelationSet(table, scan.deps, scan.uncond, scan.cond, scan.causes)
    provenance = PROVENANCE_STORY if table.aliases else PROVENANCE_SYMBOLIC
    return PremiseDoc(text, table, rels, provenance)


# ---------------------------------------------------------------------------
# hypotheses


def _hypothesis_patterns(mention: str) -> tuple[tuple[HypothesisKind, re.Pattern], ...]:
    m = mention
    verbs = r"(?:affects?|causes?|influences?)"
    return (
        (HypothesisKind.DIRECT_CAUSE, re.compile(
            rf"^(?:does )?(?P<x>{m}) directly {verbs} (?P<y>{m})$", re.I)),
        (HypothesisKind.INDIRECT_CAUSE, re.compile(
            rf"^(?:does )?(?P<x>{m}) indirectly {verbs} (?P<y>{m})$", re.I)),
        (HypothesisKind.INDIRECT_CAUSE, re.compile(
            rf"^(?:does )?(?P<x>{m}) {verbs} (?P<y>{m}) indirectly$", re.I)),
        (HypothesisKind.COMMON_EFFECT, re.compile(
            rf"^there (?:is|exists) at least one (?:collider|common effect)"
            rf"(?: \(i\.e\.,? common effect\))? of (?P<x>{m}) and (?P<y>{m})$", re.I)),
        (HypothesisKind.COMMON_EFFECT, re.compile(
            rf"^(?P<x>{m}) and (?P<y>{m}) have (?:at least one |a )?common effect$", re.I)),
        (HypothesisKind.COMMON_CAUSE, re.compile(
            rf"^there (?:is|exists) at least one (?:confounder|common cause)"
            rf"(?: \(i\.e\.,? common cause\))? of (?P<x>{m}) and (?P<y>{m})$", re.I)),
        (HypothesisKind.COMMON_CAUSE, re.compile(
            rf"^(?P<x>{m}) and (?P<y>{m}) have (?:at least one |a )?common cause$", re.I)),
        (HypothesisKind.CAUSE, re.compile(
            rf"^(?:does )?(?P<x>{m}) {verbs} (?P<y>{m})$", re.I)),
    )


def parse_hypothesis(text: str, vars: VariableTable) -> Hypothesis:
    """Parse a causal claim; variable mentions resolve against ``vars``."""
    return _reader(vars).hypothesis(text)


# ---------------------------------------------------------------------------
# rendering


def _join_plain(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f" and {items[-1]}"


def _join_given(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


class PremiseFragments:
    """Every sentence of a premise over one variable table, in one style;
    story names come from ``theme``'s bank, and ``names`` maps each label
    to the name it is shown by.

    ``corr[pair]`` and ``uncond[pair]`` are a pair's correlation and
    unconditional independence sentences. ``render`` writes the premise of
    any relation set and ``render_row`` that of a ``relation_table`` row,
    from the same sentences and through the same joiner, so both give the
    same text for a row and its ``relation_set``. Each conditional
    statement's sentence is made on its first use and kept with its sort
    key, and ``render_row`` keeps each (pair, table entry)'s conditional
    sentences in sorted order.
    """

    def __init__(self, table: VariableTable, style: str = "symbolic",
                 theme: str | None = None):
        n = len(table)
        if style == "symbolic":
            self.names = {label: label for label in table.names}
            self.header = (f"Suppose that there is a closed system of {n} variables,"
                           f" {_join_plain(list(table.names))}.")
            self.opening = (f"{self.header} All statistical relations among these"
                            f" {n} variables are as follows: ")
            corr = "{} correlates with {}."
            uncond = "{} is independent of {}."
        elif style == "story":
            theme = theme or "health"
            bank = THEMES.get(theme)
            if bank is None:
                raise ResourceError(f"unknown theme {theme!r}; known: {sorted(THEMES)}")
            if len(bank) < n:
                raise ResourceError(
                    f"theme {theme!r} offers {len(bank)} names but {n} are needed")
            self.names = dict(zip(table.names, bank))
            entries = [f"{name} ({label})" for label, name in self.names.items()]
            self.header = f"{_join_given(entries)} have relations with each other."
            self.opening = self.header + " "
            corr = "There is a correlation between {} and {}."
            uncond = "{} and {} are independent from each other."
        else:
            raise ResourceError(f"unknown premise style {style!r}")
        self._display = display = tuple(self.names.values())
        pairs = list(combinations(range(n), 2))
        self.corr = {(a, b): corr.format(display[a], display[b]) for a, b in pairs}
        self.uncond = {(a, b): uncond.format(display[a], display[b]) for a, b in pairs}
        self._pairs = pairs
        self._position = {pair: p for p, pair in enumerate(pairs)}
        # conditional statement -> (pair position, sorted members, sentence)
        self._given: dict[CondStatement, tuple[int, tuple[int, ...], str]] = {}
        # (pair, table entry) -> its conditional sentences, by sorted members
        self._entries: dict[tuple[Pair, int], list[str]] = {}

    def render(self, rels: RelationSet) -> str:
        """The premise of ``rels``: dependencies, declared causes and
        unconditional independencies, each by pair, then the conditional
        independencies by pair and the conditioning set's sorted members;
        "However," leads the first independence."""
        show, given = self._display, self._given
        parts = [self.corr[pair] for pair in sorted(rels.dependencies)]
        if rels.declared_causes:
            parts += [f"{show[a]} is the cause of {show[b]}."
                      for a, b in sorted(rels.declared_causes)]
        indep = [self.uncond[pair] for pair in sorted(rels.uncond_indep)]
        conds = sorted([given.get(s) or self._statement(s) for s in rels.cond_indep])
        return self._join(parts, indep + [text for _, _, text in conds])

    def render_row(self, row: Sequence[int]) -> str:
        """``render(relation_set(row, table))`` of a ``relation_table`` row,
        read in row order: its entries follow the sorted pairs, so the
        dependencies and unconditional independencies come out sorted, and
        each entry's conditional sentences are kept sorted by members (its
        statements come in bitmask order, where ``{2}`` precedes ``{0, 2}``)."""
        parts, indep, conds = [], [], []
        corr, uncond, entries = self.corr, self.uncond, self._entries
        for pair, seps in zip(self._pairs, row):
            if not seps:
                parts.append(corr[pair])
                continue
            if seps & 1:
                indep.append(uncond[pair])
            if seps > 1:
                conds += entries.get((pair, seps)) or self._entry(pair, seps)
        return self._join(parts, indep + conds)

    def _join(self, parts: list[str], indep: list[str]) -> str:
        """The premise of the dependency and cause sentences ``parts`` and the
        independence sentences ``indep``; "However," leads the first
        independence."""
        if indep:
            indep[0] = "However, " + indep[0]
            parts += indep
        return self.opening + " ".join(parts) if parts else self.header

    def _entry(self, pair: Pair, seps: int) -> list[str]:
        given = self._given
        statements = sorted([given.get(s) or self._statement(s)
                             for s in _cond_statements(pair, seps)])
        entry = self._entries[pair, seps] = [text for _, _, text in statements]
        return entry

    def _statement(self, statement: CondStatement) -> tuple[int, tuple[int, ...], str]:
        (a, b), cond = statement
        members = tuple(sorted(cond))
        show = self._display
        entry = self._given[statement] = (
            self._position[a, b], members, f"{show[a]} and {show[b]} are"
            f" independent given {_join_given([show[v] for v in members])}.")
        return entry


# a kept ``PremiseFragments``, for repeated ``render_premise`` calls
_fragments = lru_cache(maxsize=256)(PremiseFragments)


def render_premise(doc: PremiseDoc, style: str = "symbolic",
                   theme: str | None = None) -> str:
    """Render a premise deterministically in the canonical template.

    ``symbolic`` uses bare labels with the closed-system header; ``story``
    substitutes themed long names and binds them to labels in an alias
    header. The statements follow in ``PremiseFragments.render``'s order.
    """
    return _fragments(doc.variables, style, theme).render(doc.relations)


_HYPOTHESIS_TEMPLATES = {
    HypothesisKind.DIRECT_CAUSE: "{x} directly affects {y}.",
    HypothesisKind.INDIRECT_CAUSE: "{x} indirectly affects {y}.",
    HypothesisKind.CAUSE: "{x} affects {y}.",
    HypothesisKind.COMMON_EFFECT:
        "There exists at least one collider (i.e., common effect) of {x} and {y}.",
    HypothesisKind.COMMON_CAUSE:
        "There exists at least one confounder (i.e., common cause) of {x} and {y}.",
}


def render_hypothesis(h: Hypothesis, vars: VariableTable,
                      names: dict[str, str] | None = None) -> str:
    """Canonical claim sentence; story names substitute when given."""
    display = names or {l: l for l in vars.names}
    text = _HYPOTHESIS_TEMPLATES[h.kind].format(x=display[h.subject],
                                                y=display[h.object])
    return text[0].upper() + text[1:]
