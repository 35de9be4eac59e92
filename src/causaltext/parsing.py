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
grammar extensions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import (ConsistencyError, PremiseParseError, ResourceError,
                     UnknownVariableError)
from .hypotheses import Hypothesis, HypothesisKind
from .matrix import _bits
from .relations import RelationSet
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


def _sentences(text: str):
    for m in _SENT_RE.finditer(text):
        seg = m.group()
        stripped = seg.strip()
        if not stripped:
            continue
        start = m.start() + (len(seg) - len(seg.lstrip()))
        yield start, start + len(stripped), stripped


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
    """Mutable state of one premise parse."""

    def __init__(self):
        self.labels: list[str] = []
        self.aliases: dict[str, str] = {}
        self.declared_header = False
        self.deps: set[tuple[str, str]] = set()
        self.uncond: set[tuple[str, str]] = set()
        self.cond: set[tuple[tuple[str, str], tuple[str, ...]]] = set()
        self.causes: set[tuple[str, str]] = set()
        self.parsed = 0
        self.problems: list[tuple[int, int, str]] = []

    def add_label(self, label: str, alias: str | None = None):
        if label not in self.labels:
            # mentions resolve case-insensitively, so "a" and "A" cannot
            # both name a variable
            low = label.lower()
            for other in self.labels:
                if other.lower() == low:
                    raise ConsistencyError(
                        f"variable labels {other!r} and {label!r} differ only in case")
            self.labels.append(label)
        if alias is not None:
            self.aliases[label] = alias

    def resolve(self, mention: str) -> str:
        mention = mention.strip()
        low = mention.lower()
        for label in self.labels:
            if label.lower() == low:
                return label
        for label, alias in self.aliases.items():
            if alias.lower() == low:
                return label
        if not self.declared_header and _LABEL_RE.match(mention):
            self.add_label(mention)
            return mention
        raise UnknownVariableError(f"unknown variable mention: {mention!r}")

    def pair(self, x: str, y: str) -> tuple[str, str]:
        a, b = self.resolve(x), self.resolve(y)
        if a == b:
            raise ConsistencyError(f"a relation needs two distinct variables, got {a!r} twice")
        return tuple(sorted((a, b)))  # type: ignore[return-value]


@lru_cache
def _mention_pattern(mentions: tuple[str, ...]) -> str:
    """Alternation of every label and alias in ``mentions``, longest first."""
    ordered = sorted(mentions, key=len, reverse=True)
    return "(?:" + "|".join(re.escape(m) for m in ordered) + ")"


_CORR_BETWEEN = re.compile(
    r"^there (?:is|exists) a correlation between (?P<body>.+)$", re.I)
_CORR_SPLIT = re.compile(r",?\s+and between\s+", re.I)


@lru_cache
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


def _parse_statement(scan: _Scan, body: str, patterns) -> bool:
    body = _PREFIX_RE.sub("", body)
    statements, pair_pat = patterns
    for name, pat in statements:
        hit = pat.match(body)
        if not hit:
            continue
        if name == "corr_with":
            scan.deps.add(scan.pair(hit["x"], hit["y"]))
        elif name == "corr_between":
            for piece in _CORR_SPLIT.split(hit["body"]):
                sub = pair_pat.match(piece.strip())
                if not sub:
                    raise ConsistencyError(f"cannot split correlation pair: {piece.strip()!r}")
                scan.deps.add(scan.pair(sub["x"], sub["y"]))
        elif name == "indep_given":
            pair = scan.pair(hit["x"], hit["y"])
            given = tuple(sorted(scan.resolve(g) for g in _split_names(hit["given"])))
            if not given:
                raise ConsistencyError("empty conditioning list")
            scan.cond.add((pair, given))
        elif name == "indep_pair" or name == "indep_of":
            scan.uncond.add(scan.pair(hit["x"], hit["y"]))
        elif name == "cause_of":
            a, b = scan.resolve(hit["x"]), scan.resolve(hit["y"])
            if a == b:
                raise ConsistencyError("a variable cannot cause itself")
            scan.causes.add((a, b))
        return True
    return False


def _parse_declaration(scan: _Scan, body: str):
    """Returns (handled, trailing statement text or None)."""
    hit = _HEADER_SYSTEM.match(body)
    if hit:
        labels = _split_names(hit["list"])
        if len(labels) != int(hit["n"]):
            raise ConsistencyError(
                f"header declares {hit['n']} variables but lists {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ConsistencyError(f"duplicate variable label in header: {labels}")
        for lab in labels:
            if not _LABEL_RE.match(lab):
                raise ConsistencyError(f"bad variable label in header: {lab!r}")
            scan.add_label(lab)
        scan.declared_header = True
        return True, None
    hit = _HEADER_RELATIONS.match(body)
    if hit:
        rest = hit["rest"].strip()
        return True, rest or None
    hit = _HEADER_ALIASES.match(body)
    if hit:
        for entry in _split_names(hit["list"]):
            sub = _ALIAS_ENTRY.match(entry)
            if not sub:
                raise ConsistencyError(f"alias entry without a (label): {entry!r}")
            if sub["label"] in scan.labels:
                raise ConsistencyError(f"duplicate variable label {sub['label']!r}")
            scan.add_label(sub["label"], sub["name"].strip())
        scan.declared_header = True
        return True, None
    hit = _HEADER_FACTORS.match(body)
    if hit:
        num = hit["num"].lower()
        count = int(num) if num.isdigit() else _NUMBER_WORDS.get(num)
        names = _split_names(hit["list"])
        if count is not None and count != len(names):
            raise ConsistencyError(
                f"header declares {count} factors but lists {len(names)}")
        for i, name in enumerate(names):
            label = chr(ord("A") + i)
            scan.add_label(label, name)
        scan.declared_header = True
        return True, None
    return False, None


def scan_premise(text: str) -> tuple[_Scan, int]:
    """Low-level pass returning scan state and the sentence count.

    Guarantees parsed + len(problems) == sentence count, so nothing is ever
    silently dropped.
    """
    scan = _Scan()
    sentences = list(_sentences(text))
    pending: list[tuple[int, int, str]] = []
    for start, end, raw in sentences:
        body = _clean(raw)
        try:
            handled, rest = _parse_declaration(scan, body)
        except (ConsistencyError, UnknownVariableError) as exc:
            scan.problems.append((start, end, str(exc)))
            continue
        if handled:
            scan.parsed += 1
            if rest:
                # header sentence with an inline first statement after a colon
                scan.parsed -= 1
                pending.append((start, end, rest))
        else:
            pending.append((start, end, body))
    # every declaration is in, so the mentions are fixed from here on
    patterns = _FREE_PATTERNS
    if scan.declared_header:
        mention = _mention_pattern((*scan.labels, *scan.aliases.values()))
        patterns = _statement_patterns(mention)
    for start, end, body in pending:
        try:
            if _parse_statement(scan, body, patterns):
                scan.parsed += 1
            else:
                scan.problems.append((start, end, f"unrecognized sentence: {body!r}"))
        except (ConsistencyError, UnknownVariableError) as exc:
            scan.problems.append((start, end, str(exc)))
    return scan, len(sentences)


def parse_premise(text: str) -> PremiseDoc:
    """Parse a verbalized premise into variables and a relation set."""
    if not text or not text.strip():
        raise PremiseParseError([(0, 0, "empty premise")])
    scan, _count = scan_premise(text)
    if scan.problems:
        raise PremiseParseError(scan.problems)
    if not scan.labels:
        raise PremiseParseError([(0, len(text), "premise mentions no variables")])
    labels = sorted(scan.labels)
    table = VariableTable(labels, {l: a for l, a in scan.aliases.items()})
    idx = {l: i for i, l in enumerate(labels)}
    rels = RelationSet(
        table,
        dependencies=frozenset((idx[a], idx[b]) for a, b in scan.deps),
        uncond_indep=frozenset((idx[a], idx[b]) for a, b in scan.uncond),
        cond_indep=frozenset(((idx[a], idx[b]), frozenset(idx[g] for g in given))
                             for (a, b), given in scan.cond),
        declared_causes=frozenset((idx[a], idx[b]) for a, b in scan.causes),
    )
    provenance = PROVENANCE_STORY if scan.aliases else PROVENANCE_SYMBOLIC
    return PremiseDoc(text, table, rels, provenance)


# ---------------------------------------------------------------------------
# hypotheses


@lru_cache
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
    body = text.strip().rstrip(".?!").strip()
    if not body:
        raise PremiseParseError([(0, 0, "empty hypothesis")])
    mention = _mention_pattern((*vars.names, *vars.aliases.values()))
    for kind, pat in _hypothesis_patterns(mention):
        hit = pat.match(body)
        if hit:
            subject = vars.label(vars.index(hit["x"]))
            obj = vars.label(vars.index(hit["y"]))
            return Hypothesis(kind, subject, obj)
    raise PremiseParseError([(0, len(text), f"unrecognized hypothesis: {body!r}")])


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


def _story_names(doc_vars: VariableTable, theme: str | None,
                 names: dict[str, str] | None) -> dict[str, str]:
    if names is not None:
        missing = [l for l in doc_vars.names if l not in names]
        if missing:
            raise ResourceError(f"no story name for label(s) {missing}")
        return dict(names)
    bank = THEMES.get(theme or "health")
    if bank is None:
        raise ResourceError(f"unknown theme {theme!r}; known: {sorted(THEMES)}")
    if len(bank) < len(doc_vars):
        raise ResourceError(
            f"theme {theme!r} offers {len(bank)} names but {len(doc_vars)} are needed")
    return {label: bank[i] for i, label in enumerate(doc_vars.names)}


class PremiseFragments:
    """Every sentence of a premise over one variable table, in one style,
    each formatted once; story names come from ``names``, else from
    ``theme``'s bank.

    Pair ``p`` is ``combinations(range(n), 2)[p]``, and ``position`` maps
    a pair to its ``p``: ``corr[p]`` and ``uncond[p]`` are its correlation
    and unconditional independence sentences, and ``given(p, z)`` its
    independence sentence given node set ``z`` (a bitmask), made on first
    use. ``premise`` joins chosen sentences under the header; the caller
    picks them in the canonical order (see ``render_premise``).
    """

    def __init__(self, table: VariableTable, style: str = "symbolic",
                 theme: str | None = None, names: dict[str, str] | None = None):
        n = len(table)
        if style == "symbolic":
            display = table.names
            self.header = (f"Suppose that there is a closed system of {n} variables,"
                           f" {_join_plain(list(display))}.")
            self.opening = (f"{self.header} All statistical relations among these"
                            f" {n} variables are as follows: ")
            corr = "{} correlates with {}."
            uncond = "{} is independent of {}."
        elif style == "story":
            shown = _story_names(table, theme, names)
            display = tuple(shown[label] for label in table.names)
            entries = [f"{shown[label]} ({label})" for label in table.names]
            self.header = f"{_join_given(entries)} have relations with each other."
            self.opening = self.header + " "
            corr = "There is a correlation between {} and {}."
            uncond = "{} and {} are independent from each other."
        else:
            raise ResourceError(f"unknown premise style {style!r}")
        self._display = display
        self._pairs = tuple(combinations(range(n), 2))
        self.position = {pair: p for p, pair in enumerate(self._pairs)}
        ends = [(display[a], display[b]) for a, b in self._pairs]
        self.corr = tuple(corr.format(*ab) for ab in ends)
        self.uncond = tuple(uncond.format(*ab) for ab in ends)
        self._given: dict[tuple[int, int], str] = {}

    def given(self, p: int, z: int) -> str:
        text = self._given.get((p, z))
        if text is None:
            a, b = self._pairs[p]
            show = self._display
            given = _join_given([show[v] for v in _bits(z)])
            text = self._given[p, z] = f"{show[a]} and {show[b]} are independent given {given}."
        return text

    def givens(self, p: int, zs: Iterable[int]) -> list[str]:
        """The sentences of pair ``p`` given each node set of ``zs``, in
        premise order: by the sets' sorted members."""
        return [self.given(p, z) for z in sorted(zs, key=lambda z: tuple(_bits(z)))]

    def cause(self, a: int, b: int) -> str:
        return f"{self._display[a]} is the cause of {self._display[b]}."

    def premise(self, parts: list[str], indep: list[str]) -> str:
        """The premise stating ``parts``, then the independencies ``indep``,
        the first of them led by "However,"."""
        if indep:
            parts = [*parts, "However, " + indep[0], *indep[1:]]
        return self.opening + " ".join(parts) if parts else self.header


@lru_cache(maxsize=256)
def _fragments(table: VariableTable, style: str, theme: str | None,
               names: tuple[tuple[str, str], ...] | None) -> PremiseFragments:
    """A kept ``PremiseFragments``, for repeated ``render_premise`` calls."""
    return PremiseFragments(table, style, theme, None if names is None else dict(names))


def render_premise(doc: PremiseDoc, style: str = "symbolic",
                   theme: str | None = None,
                   names: dict[str, str] | None = None) -> str:
    """Render a premise deterministically in the canonical template.

    ``symbolic`` uses bare labels with the closed-system header; ``story``
    substitutes themed long names and binds them to labels in an alias
    header. The statements follow in order: dependencies, declared causes,
    unconditional independencies, each by pair, then conditional ones by
    pair and the conditioning set's sorted members.
    """
    rels = doc.relations
    frag = _fragments(doc.variables, style, theme,
                      None if names is None else tuple(names.items()))
    at = frag.position
    parts = [frag.corr[at[pair]] for pair in sorted(rels.dependencies)]
    parts += [frag.cause(a, b) for a, b in sorted(rels.declared_causes)]
    indep = [frag.uncond[at[pair]] for pair in sorted(rels.uncond_indep)]
    conds = sorted((at[pair], tuple(sorted(cond))) for pair, cond in rels.cond_indep)
    indep += [frag.given(p, sum(1 << v for v in cond)) for p, cond in conds]
    return frag.premise(parts, indep)


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
