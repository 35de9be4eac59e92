import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.dataset import generate
from causaltext.errors import (ConsistencyError, PremiseParseError,
                               ResourceError, UnknownVariableError)
from causaltext.fixtures import (FIVE_VAR_HYPOTHESIS, FIVE_VAR_PREMISE, FIXTURES,
                                 THREE_VAR_PREMISE, smbh_doc)
from causaltext.hypotheses import Hypothesis, HypothesisKind
from causaltext.parsing import (PremiseDoc, _read_sentence, _reader,
                                parse_hypothesis, parse_premise,
                                render_hypothesis, render_premise,
                                scan_premise, THEMES)
from causaltext.relations import RelationSet
from causaltext.variables import VariableTable

from conftest import relation_docs

_HEADER2 = "Suppose there is a closed system of 2 variables, A and B. "
_HEADER3 = "Suppose there is a closed system of 3 variables, A, B and C. "


class TestParsePremise:
    def test_three_var(self, three_var):
        assert three_var.variables.names == ("A", "B", "C")
        rels = three_var.relations
        assert rels.dependencies == {(0, 2), (1, 2)}
        assert rels.uncond_indep == {(0, 1)}
        assert not rels.cond_indep and not rels.declared_causes
        assert three_var.provenance == "symbolic"

    def test_junk_food_aliases(self, junk_food):
        assert junk_food.variables.names == ("A", "B", "C")
        assert junk_food.variables.aliases == {
            "A": "eating junk food", "B": "watching television", "C": "obesity"}
        assert junk_food.relations.dependencies == {(0, 2), (1, 2)}
        assert junk_food.relations.uncond_indep == {(0, 1)}
        assert junk_food.provenance == "natural-story"

    def test_five_var(self, five_var):
        rels = five_var.relations
        assert len(five_var.variables) == 5
        assert len(rels.dependencies) == 8
        assert rels.uncond_indep == {(0, 1), (1, 2)}
        assert rels.cond_indep == {
            ((0, 1), frozenset({2})),
            ((1, 2), frozenset({0})),
            ((2, 4), frozenset({0, 1, 3})),
        }

    def test_declared_cause_sentence(self):
        doc = parse_premise("Suppose that there is a closed system of 2 variables, "
                            "A and B. A is the cause of B.")
        assert doc.relations.declared_causes == {(0, 1)}

    def test_unknown_sentence_reports_span(self):
        text = "A correlates with B. The moon is made of cheese."
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        (start, end, message), = err.value.problems
        assert text[start:end] == "The moon is made of cheese."
        assert "unrecognized" in message

    def test_contradiction_rejected(self):
        with pytest.raises(ConsistencyError):
            parse_premise("A correlates with B. A is independent of B.")

    def test_empty_premise(self):
        with pytest.raises(PremiseParseError):
            parse_premise("   ")

    def test_unknown_variable_with_header(self):
        text = ("Suppose that there is a closed system of 2 variables, A and B. "
                "A correlates with Q.")
        with pytest.raises(PremiseParseError):
            parse_premise(text)

    @pytest.mark.parametrize("header", [
        "Suppose there is a closed system of 3 variables, a, A and B.",
        "rain (a), wind (A) and sun (B) have relations with each other.",
    ])
    def test_labels_differing_only_in_case_rejected(self, header):
        # Mentions resolve case-insensitively, so "A" would name "a" here.
        text = header + " A correlates with B. However, a is independent of B."
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        assert err.value.problems == [
            (0, len(header), "variable labels 'a' and 'A' differ only in case")]

    @pytest.mark.parametrize("text, sentence, message", [
        (_HEADER3 + "A correlates with B. Suppose there is a closed system of"
         " 2 variables, A and D.",
         "Suppose there is a closed system of 2 variables, A and D.",
         "a second variable declaration; the premise already declares 3 variables"),
        (_HEADER3 + "rain (A) and sun (D) have relations with each other.",
         "rain (A) and sun (D) have relations with each other.",
         "a second variable declaration; the premise already declares 3 variables"),
        ("x (A) and y (B) have relations with each other. Let's consider two"
         " factors: rain and wind.", "Let's consider two factors: rain and wind.",
         "a second variable declaration; the premise already declares 2 variables"),
        (_HEADER3 + "All statistical relations among these 5 variables are as"
         " follows: A correlates with B.",
         "All statistical relations among these 5 variables are as follows:"
         " A correlates with B.",
         "relations header counts 5 variables but the premise declares 3"),
        # the count is checked against the table declared after it
        ("All statistical relations among these 5 variables are as follows:"
         " A correlates with B. " + _HEADER3.strip(),
         "All statistical relations among these 5 variables are as follows:"
         " A correlates with B.",
         "relations header counts 5 variables but the premise declares 3"),
        # and against the labels a premise without a header mentions
        ("All statistical relations among these 5 variables are as follows:"
         " A correlates with B. b is the cause of a.",
         "All statistical relations among these 5 variables are as follows:"
         " A correlates with B.",
         "relations header counts 5 variables but the premise declares 2"),
    ])
    def test_one_declaration_per_premise(self, text, sentence, message):
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        (start, end, problem), = err.value.problems
        assert (text[start:end], problem) == (sentence, message)
        scan, sentences = scan_premise(text)
        assert scan.parsed + len(scan.problems) == sentences

    @pytest.mark.parametrize("count", [27, 33])
    def test_factors_header_names_at_most_26(self, count):
        # factor labels are the letters A to Z, so a longer list is a problem
        # of its header, not labels past Z or labels differing only in case
        header = (f"Let's consider {count} factors: "
                  + _join_names([f"x{i}" for i in range(count)]) + ".")
        with pytest.raises(PremiseParseError) as err:
            parse_premise(header + " x0 correlates with x1.")
        assert err.value.problems == [
            (0, len(header), f"a factors header names at most 26 factors, got {count}")]

    def test_factors_header_of_26_names_labels_a_to_z(self):
        names = [f"x{i}" for i in range(26)]
        doc = parse_premise(f"Let's consider 26 factors: {_join_names(names)}."
                            " x0 correlates with x25.")
        assert "".join(doc.variables.names) == "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        assert [doc.variables.aliases[label] for label in doc.variables.names] == names
        assert doc.relations.as_dict()["dependencies"] == [["A", "Z"]]

    def test_problems_in_sentence_order(self):
        # a statement's problem and a header's problem come in the order of
        # their sentences, whichever kind each is
        text = ("A correlates with Q. Suppose there is a closed system of 2 variables,"
                " A and B. Suppose there is a closed system of 2 variables, A and B.")
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        assert err.value.problems == [
            (0, 20, "unrecognized sentence: 'A correlates with Q'"),
            (79, 136, "a second variable declaration; the premise already declares"
                      " 2 variables")]
        scan, sentences = scan_premise(text)
        assert scan.parsed + len(scan.problems) == sentences == 3

    @pytest.mark.parametrize("text, problem", [
        (_HEADER2 + "However, moreover, A loves B.",
         (58, 87, "unrecognized sentence: 'moreover, A loves B'")),
        ("However, moreover, A loves B.",
         (0, 29, "unrecognized sentence: 'moreover, A loves B'")),
        ("All statistical relations among these 2 variables are as follows:"
         " However, A loves B.", (0, 85, "unrecognized sentence: 'However, A loves B'")),
    ], ids=["after-header", "no-header", "after-relations-colon"])
    def test_unrecognized_sentence_quotes_body_before_second_marker(self, text, problem):
        # the statement reader strips a second discourse marker before matching,
        # but the problem quotes the body as the sentence was cleaned
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("statement, problems", [
        ("x (A) and a (B) have relations with each other. a correlates with B.",
         [(0, 47, "alias 'a' for 'B' collides with label 'A'")]),
        # the statement is read without a header, so "A" names the label "a"
        ("x (A) and a (B) have relations with each other. a correlates with A.",
         [(0, 47, "alias 'a' for 'B' collides with label 'A'"),
          (48, 68, "a relation needs two distinct variables, got 'a' twice")]),
        ("x (A), x (B) and z (C) have relations with each other. x correlates with A.",
         [(0, 54, "alias names collide")]),
        ("x (A), x (B) and z (C) have relations with each other. x correlates with B.",
         [(0, 54, "alias names collide")]),
        ("Let's consider 2 factors: B, A. A correlates with B.",
         [(0, 31, "alias 'B' for 'A' collides with label 'B'")]),
    ], ids=["alias-equals-label", "alias-equals-label-then-headerless",
            "alias-clash-label-mention", "alias-clash", "factor-equals-label"])
    def test_mention_precedence(self, statement, problems):
        # an alias that clashes is a problem of its header, so no mention
        # resolves against that header's table
        assert _parse_outcome(parse_premise, statement) == {
            "error": "PremiseParseError", "problems": problems}

    @pytest.mark.parametrize("text, sentence, pair", [
        ("A and B are independent given A.", "A and B are independent given A.", "A-B"),
        (_HEADER3 + "A correlates with C. B and A are independent given C and b.",
         "B and A are independent given C and b.", "A-B"),
        ("c correlates with A. However, C and b are independent given B.",
         "However, C and b are independent given B.", "b-c"),
    ], ids=["no-header", "header", "first-mention-case"])
    def test_conditioning_set_naming_its_pair_is_a_problem(self, text, sentence, pair):
        with pytest.raises(PremiseParseError) as err:
            parse_premise(text)
        (start, end, problem), = err.value.problems
        assert (text[start:end], problem) == (
            sentence, f"conditioning set of {pair} contains the pair")

    def test_sentence_accounting(self):
        text = ("A correlates with B. Gibberish here. B is independent of C. "
                "More gibberish follows.")
        scan, sentences = scan_premise(text)
        assert scan.parsed + len(scan.problems) == sentences == 4

    def test_mixed_separator_conditioning_lists(self):
        for listing in ("C, D and E", "C, D, and E", "C and D and E"):
            doc = parse_premise(
                "Suppose that there is a closed system of 5 variables, A, B, C, D "
                f"and E. A and B are independent given {listing}.")
            ((pair, cond),) = doc.relations.cond_indep
            assert pair == (0, 1)
            assert cond == ({2, 3} | ({4} if "E" in listing else set()))


class TestParseHypothesis:
    def test_direct(self, three_var):
        h = parse_hypothesis("A directly affects C.", three_var.variables)
        assert h == Hypothesis(HypothesisKind.DIRECT_CAUSE, "A", "C")

    def test_collider_form(self, five_var):
        h = parse_hypothesis(
            "There exists at least one collider (i.e., common effect) of A and B.",
            five_var.variables)
        assert h == Hypothesis(HypothesisKind.COMMON_EFFECT, "A", "B")

    def test_question_with_aliases(self):
        doc = smbh_doc()
        h = parse_hypothesis("Does central density affect black hole mass?",
                             doc.variables)
        assert h == Hypothesis(HypothesisKind.CAUSE, "CD", "BHM")

    def test_story_names(self, junk_food):
        h = parse_hypothesis("Eating junk food directly affects obesity.",
                             junk_food.variables)
        assert h == Hypothesis(HypothesisKind.DIRECT_CAUSE, "A", "C")

    def test_premise_patterns_built_once_per_mentions(self, five_var):
        # a repeated premise and claim are read wholly from the memos: each of
        # the 14 sentences, the table's reader (for the scan and the claim),
        # the 13 statements and the claim
        parse_premise(FIVE_VAR_PREMISE)
        parse_hypothesis(FIVE_VAR_HYPOTHESIS, five_var.variables)
        reader = _reader(five_var.variables)
        memos = (_read_sentence, _reader, reader.statement, reader.hypothesis)
        before = [memo.cache_info() for memo in memos]
        assert parse_premise(FIVE_VAR_PREMISE).relations == five_var.relations
        assert parse_hypothesis(FIVE_VAR_HYPOTHESIS, five_var.variables) \
            == Hypothesis(HypothesisKind.COMMON_EFFECT, "A", "B")
        after = [memo.cache_info() for memo in memos]
        assert [a.misses - b.misses for a, b in zip(after, before)] == [0, 0, 0, 0]
        assert [a.hits - b.hits for a, b in zip(after, before)] == [14, 2, 13, 1]
        assert parse_premise(FIVE_VAR_PREMISE).variables is reader.table

    def test_claim_patterns_built_on_first_claim(self):
        # a premise parse compiles no claim pattern of its table's reader
        doc = parse_premise("X7901 correlates with Y7901. X7901 is the cause of Z7901.")
        reader = _reader(doc.variables)
        assert "claims" not in vars(reader)
        assert parse_hypothesis("Z7901 causes X7901.", doc.variables) \
            == Hypothesis(HypothesisKind.CAUSE, "Z7901", "X7901")
        assert "claims" in vars(reader)

    def test_patterns_built_once_per_table(self):
        # the story table has the symbolic table's labels but other mentions,
        # so it has a reader of its own, whose memos miss at first
        story = ("eating junk food (A), watching television (B) and obesity (C)"
                 " have relations with each other. ")
        _reader.cache_clear()
        sym_table = parse_premise(_HEADER3 + "A correlates with C.").variables
        story_table = parse_premise(story + "B correlates with C.").variables
        sym, tale = _reader(VariableTable.letters(3)), _reader(story_table)
        assert sym is not tale and story_table is tale.table
        parse_hypothesis("C causes A.", sym_table)
        for seen in (0, 1):
            before = (tale.statement.cache_info(), tale.hypothesis.cache_info())
            assert parse_premise(story + "A correlates with C.").relations.dependencies \
                == {(0, 2)}
            assert parse_hypothesis("C causes A.", story_table) \
                == Hypothesis(HypothesisKind.CAUSE, "C", "A")
            after = (tale.statement.cache_info(), tale.hypothesis.cache_info())
            # a miss on the first round, a hit on the second
            assert [(a.hits - b.hits, a.misses - b.misses)
                    for a, b in zip(after, before)] == [(seen, 1 - seen)] * 2
        assert parse_hypothesis("Obesity causes eating junk food.", story_table) \
            == Hypothesis(HypothesisKind.CAUSE, "C", "A")
        with pytest.raises(PremiseParseError):
            parse_hypothesis("Obesity causes eating junk food.", sym_table)

    def test_indirect_forms(self, three_var):
        for text in ("A indirectly affects C", "A affects C indirectly",
                     "A indirectly causes C."):
            h = parse_hypothesis(text, three_var.variables)
            assert h.kind is HypothesisKind.INDIRECT_CAUSE

    def test_confounder_form(self, three_var):
        h = parse_hypothesis(
            "There exists at least one confounder (i.e., common cause) of A and B.",
            three_var.variables)
        assert h == Hypothesis(HypothesisKind.COMMON_CAUSE, "A", "B")

    def test_unmatched(self, three_var):
        with pytest.raises(PremiseParseError):
            parse_hypothesis("The weather is nice.", three_var.variables)


def _golden_relation_sets() -> list[RelationSet]:
    """A fixed list of relation sets to render: an empty set, the worked
    five-variable premise (C-E both correlated and independent given A, B
    and D), a pair with several conditioning sets, then seeded random sets
    with declared causes, every statement kind and multi-letter labels."""
    t4 = VariableTable.letters(4)
    out = [
        RelationSet(VariableTable.letters(2)),
        RelationSet(t4),
        parse_premise(FIVE_VAR_PREMISE).relations,
        RelationSet(t4, dependencies={(2, 3)}, uncond_indep={(0, 1)},
                    cond_indep={((0, 1), frozenset({2, 3})), ((0, 1), frozenset({3})),
                                ((0, 1), frozenset({2})), ((0, 2), frozenset({1, 3}))},
                    declared_causes={(3, 2), (1, 0)}),
    ]
    rng = random.Random(2411)
    for k in range(60):
        n = 2 + k % 5
        table = VariableTable(["P", "Q", "R1", "S", "Tx", "U"][:n]) if k % 7 == 3 \
            else VariableTable.letters(n)
        order = rng.sample(range(n), n)  # causes follow it, so they stay acyclic
        deps, uncond, cond, causes = set(), set(), set(), set()
        for i, j in itertools.combinations(range(n), 2):
            rest = [v for v in range(n) if v not in (i, j)]
            kind = rng.choice(["dep", "uncond", "cond", "both", "dep+cond", "none"])
            if kind in ("dep", "dep+cond"):
                deps.add((i, j))
            if kind in ("uncond", "both"):
                uncond.add((i, j))
            if kind in ("cond", "both", "dep+cond") and rest:
                for _ in range(rng.randint(1, 3)):
                    size = rng.randint(1, len(rest))
                    cond.add(((i, j), frozenset(rng.sample(rest, size))))
            if rng.random() < 0.2:
                causes.add(tuple(sorted((i, j), key=order.index)))
        out.append(RelationSet(table, deps, uncond, cond, causes))
    return out


RENDER_GOLDEN = {
    None: "d995fa0333ab6777f03a6850bb20bb4c6c35cb9c2ca11c9d146d1b4a67694879",
    "economics": "95b803fdaec42c2d9968612d5fe4e56f6ac07289c73c10aa810de707ebdb4212",
    "education": "10e8928d89ea7f0b3ae18efbb1337e07bf62785420d4c0ab3621e1f69d7a2c1e",
    "environment": "fb51be4fea4acfefea848223a0f06481254bc2348ef99b4d2bad579c1a93920a",
    "health": "56886436439011b7d8d2f1f993b236028cb87bdb675237c198943b51dc86f3a1",
    "marketing": "4dcce94f0b70551ed825134838987d899a03e0fd0083848fe903222c94b71197",
    "social": "e513de7e92689bca5f2bf792c6af37efda2ae9cf8fc07a1989e6f6bc0b4770d7",
}


class TestRender:
    def test_three_var_roundtrip_is_byte_exact(self, three_var):
        assert render_premise(three_var) == THREE_VAR_PREMISE

    def test_five_var_parse_equal(self, five_var):
        rendered = render_premise(five_var)
        assert parse_premise(rendered).relations == five_var.relations

    def test_story_render_parses_to_same_relations(self, three_var, junk_food):
        # the health theme's first names are the bundled narrative's
        rendered = render_premise(three_var, "story", theme="health")
        doc = parse_premise(rendered)
        assert doc.relations == junk_food.relations
        assert doc.variables == junk_food.variables

    def test_empty_relations_render_header_only(self):
        table = VariableTable.letters(2)
        doc = PremiseDoc("", table, RelationSet(table))
        assert render_premise(doc) == \
            "Suppose that there is a closed system of 2 variables, A and B."

    def test_theme_bank_too_small(self):
        table = VariableTable("ABCDEFG")
        doc = PremiseDoc("", table, RelationSet(table))
        with pytest.raises(ResourceError,
                           match="theme 'health' offers 6 names but 7 are needed"):
            render_premise(doc, "story")

    @pytest.mark.parametrize("style, theme", [("symbolic", None)]
                             + [("story", theme) for theme in sorted(THEMES)])
    def test_golden_bytes(self, style, theme):
        # sha256 of the rendering of every _golden_relation_sets entry, one
        # premise a line, pinned from the renderer that sorted the relation
        # set's statements itself
        h = hashlib.sha256()
        for rels in _golden_relation_sets():
            doc = PremiseDoc("", rels.vars, rels)
            h.update(render_premise(doc, style, theme).encode() + b"\n")
        assert h.hexdigest() == RENDER_GOLDEN[theme]

    def test_hypothesis_roundtrip_all_kinds(self, five_var):
        for kind in HypothesisKind:
            h = Hypothesis(kind, "B", "D")
            text = render_hypothesis(h, five_var.variables)
            assert parse_hypothesis(text, five_var.variables) == h


# label-shaped mentions no two of which differ only in case
_LABEL_POOL = ("A", "B", "C", "D", "x", "Rain", "R1", "tX")
_STATEMENT_FORMS = ("{x} correlates with {y}.", "{x} is correlated with {y}.",
                    "There is a correlation between {x} and {y}.",
                    "{x} is independent of {y}.", "{x} and {y} are independent from each other.",
                    "{x} and {y} are independent given {given}.", "{x} is the cause of {y}.")


@st.composite
def headerless_premises(draw) -> tuple[str, list[str]]:
    """Statements over label-shaped mentions, each written in any case,
    and the labels they mention in the case of each one's first mention."""
    labels = draw(st.lists(st.sampled_from(_LABEL_POOL), min_size=2, max_size=5,
                           unique=True))
    first: dict[str, str] = {}

    def mention(label: str) -> str:
        written = draw(st.sampled_from((label, label.lower(), label.upper())))
        first.setdefault(label, written)
        return written

    sentences = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        x, y, *rest = draw(st.permutations(labels))
        form = draw(st.sampled_from(_STATEMENT_FORMS))
        # now and then a conditioning set names its own pair, a problem either way
        pool = rest + [x] if draw(st.integers(0, 4)) == 0 else rest
        if "{given}" in form and not pool:
            form = _STATEMENT_FORMS[0]
        x, y = mention(x), mention(y)
        given = ""
        if "{given}" in form:
            members = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
            given = _join_names([mention(m) for m in members])
        marker = draw(st.sampled_from(("", "However, ")))
        sentences.append(marker + form.format(x=x, y=y, given=given))
    return " ".join(sentences), list(first.values())


def _join_names(names: list[str]) -> str:
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]


def _outcome_without_spans(text: str) -> dict:
    outcome = _parse_outcome(parse_premise, text)
    if "problems" in outcome:
        outcome["problems"] = [message for *_, message in outcome["problems"]]
    return outcome


class TestRoundTripProperties:
    @given(headerless_premises())
    @settings(max_examples=150, deadline=None)
    def test_headerless_reads_as_under_a_header_of_its_labels(self, draw):
        # a premise without a header declares the labels it mentions, in the
        # case of their first mention, and states what it would state under
        # a system header that lists those labels
        statements, labels = draw
        header = (f"Suppose there is a closed system of {len(labels)} variables,"
                  f" {_join_names(labels)}. ")
        assert _outcome_without_spans(statements) \
            == _outcome_without_spans(header + statements)

    @given(relation_docs())
    @settings(max_examples=120, deadline=None)
    def test_symbolic_roundtrip(self, doc):
        assert parse_premise(render_premise(doc)).relations == doc.relations

    @given(relation_docs(), st.sampled_from(sorted(THEMES)))
    @settings(max_examples=120, deadline=None)
    def test_story_roundtrip(self, doc, theme):
        rendered = render_premise(doc, "story", theme=theme)
        assert parse_premise(rendered).relations == doc.relations


# Premises the grammar must reject, each with the problem it shows: unknown
# mentions, self-pairs, empty conditioning lists, count mismatches,
# unsplittable correlation lists, unrecognized sentences and inline statements
# after "as follows:". The golden digest pins every span and message.
_AS_FOLLOWS = "All statistical relations among these 3 variables are as follows: "
MALFORMED_PREMISES = (
    "",
    "   ",
    "Hello there.",
    "A loves B.",
    "Does A correlate with B?",
    "A loves B. C hates D. A correlates with A.",
    _HEADER2 + "A correlates with C.",
    _HEADER3 + "A and B are independent given D.",
    _HEADER3 + "There is a correlation between A and D.",
    "x (A) and y (B) have relations with each other. x correlates with z.",
    "Let's consider two factors: rain and wind. rain correlates with sun.",
    "A correlates with A.",
    _HEADER2 + "A is independent of A.",
    "A is the cause of A.",
    "a and A are independent from each other.",
    "A and B are independent given ,.",
    _HEADER3 + "A and B are independent given , and.",
    "Suppose there is a closed system of 3 variables, A and B.",
    "Suppose there is a closed system of 2 variables, A, B and C. A correlates with B.",
    "Let's consider three factors: rain and wind.",
    "Let's consider 2 factors: rain, wind and sun.",
    "There is a correlation between A, B.",
    "There is a correlation between A and B, and between C.",
    _HEADER3 + _AS_FOLLOWS + "A loves C. B correlates with C.",
    _HEADER3 + _AS_FOLLOWS + "A correlates with D.",
    _HEADER3 + _AS_FOLLOWS + "A and B are independent given ,.",
    "Suppose there is a closed system of 2 variables, A and A.",
    "Suppose there is a closed system of 2 variables, A and B-1.",
    "running, sleeping (B) have relations with each other.",
    "x (A) and y (A) have relations with each other.",
    "All statistical relations among these 0 variables are as follows.",
    "A correlates with B. A is independent of B.",
    "A is the cause of B. B is the cause of A.",
    "A and B are independent given A.",
    _HEADER2 + "However, moreover, A correlates with B.",
)

MALFORMED_HYPOTHESES = ("", "   ?", "A loves C.", "A directly affects Q.",
                        "Does A cause A indirectly?")


def _parse_outcome(parse, *args) -> dict:
    try:
        doc = parse(*args)
    except PremiseParseError as exc:
        return {"error": "PremiseParseError", "problems": exc.problems}
    except (ConsistencyError, UnknownVariableError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(doc, Hypothesis):
        return {"hypothesis": [doc.kind.value, doc.subject, doc.object]}
    return {"names": doc.variables.names,
            "aliases": sorted(doc.variables.aliases.items()),
            "relations": doc.relations.as_dict(), "provenance": doc.provenance}


def _outcome_digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _class_outcomes(style: str):
    """Every distinct premise of every class at n=2..4 and every distinct
    claim sentence, parsed against the variables of the first premise."""
    for n in (2, 3, 4):
        premises, claims = {}, {}
        for s in generate(n, style=style):
            premises.setdefault(s.premise, None)
            claims.setdefault(s.hypothesis_text, None)
        for premise in premises:
            yield _parse_outcome(parse_premise, premise)
        table = parse_premise(next(iter(premises))).variables
        for claim in claims:
            yield _parse_outcome(parse_hypothesis, claim, table)


class TestParserGolden:
    """sha256 over every parse outcome, pinned from the output of the parser
    before its patterns were built once per premise: variables, relations and
    provenance of each accepted premise, and error type with every span and
    message of each rejected one."""

    @pytest.mark.parametrize("style, digest", [
        ("symbolic", "e42494962f1f682564c3b8eeead714e9d4a55506bc9f977ebea116576a427578"),
        ("story", "4b83da1d6bfb55403f63736011855dfe46ba938ee75c92c3b3c07495f2304277"),
    ])
    def test_every_class_up_to_four(self, style, digest):
        assert _outcome_digest(_class_outcomes(style)) == digest

    def test_fixtures(self):
        outcomes = []
        for name in sorted(FIXTURES):
            make_doc, hypothesis = FIXTURES[name]
            doc = make_doc()
            outcomes.append(_parse_outcome(parse_premise, doc.raw_text))
            outcomes.append(_parse_outcome(parse_hypothesis, hypothesis, doc.variables))
        assert _outcome_digest(outcomes) == ("2eb56b607f67f03944ebe2f1c5e978d00c6e9b5d"
                                           "03013a19c32bd2b31e967711")

    def test_malformed(self):
        table = VariableTable.letters(3)
        outcomes = [_parse_outcome(parse_premise, text) for text in MALFORMED_PREMISES]
        outcomes += [_parse_outcome(parse_hypothesis, text, table)
                     for text in MALFORMED_HYPOTHESES]
        assert all("error" in o for o in outcomes[:len(MALFORMED_PREMISES) - 1])
        # re-pinned when "A and B are independent given A." became a problem
        # of its sentence instead of a bare ConsistencyError, and again when
        # UnknownVariableError became a LookupError, whose message is unquoted
        assert _outcome_digest(outcomes) == ("a5735ec851de2cf9f81d63e1e8f961b9"
                                           "050b151699f4a685445c25840545e029")


def _cold(parse, *args) -> dict:
    """The outcome of a parse that starts from empty memos."""
    _read_sentence.cache_clear()
    _reader.cache_clear()
    return _parse_outcome(parse, *args)


class TestSentenceMemo:
    """The memoised parser against the same parser started from empty memos
    for each call, on the whole outcome: names, aliases, relations,
    provenance, and every problem's span and message. The calls of each
    case run in one sequence first, so entries made under one table are in
    the memos when the next table is read."""

    @given(st.lists(st.tuples(relation_docs(), st.sampled_from([None, *sorted(THEMES)]),
                              st.sampled_from(list(HypothesisKind))),
                    min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rendered_premises_and_claims(self, draws):
        calls = []
        for doc, theme, kind in draws:
            table = doc.variables
            names = None if theme is None else dict(zip(table.names, THEMES[theme]))
            text = render_premise(doc, "symbolic" if theme is None else "story", theme)
            claim = render_hypothesis(Hypothesis(kind, "B", "A"), table, names)
            calls += [(parse_premise, text),
                      (parse_hypothesis, claim, VariableTable(table.names, names)),
                      (parse_hypothesis, claim, table)]
        warm = [_parse_outcome(*call) for call in calls]
        assert warm == [_cold(*call) for call in calls]

    def test_malformed(self):
        table = VariableTable.letters(3)
        calls = [(parse_premise, text) for text in MALFORMED_PREMISES]
        calls += [(parse_hypothesis, text, table) for text in MALFORMED_HYPOTHESES]
        calls += [(parse_premise, text) for text in (
            _HEADER3 + "A correlates with B. " + _HEADER2,
            _HEADER3 + _AS_FOLLOWS.replace("3", "4") + "A correlates with B.")]
        warm = [_parse_outcome(*call) for call in calls + calls]
        assert warm == [_cold(*call) for call in calls + calls]

    def test_same_labels_other_mentions(self):
        # one sentence under a symbolic and a story table with the same labels:
        # it is a problem under the first and a dependency under the second
        symbolic = _HEADER3 + "Obesity correlates with A."
        story = ("eating junk food (A), watching television (B) and obesity (C)"
                 " have relations with each other. Obesity correlates with A.")
        story_table = VariableTable("ABC", {"A": "eating junk food",
                                            "B": "watching television", "C": "obesity"})
        calls = [(parse_premise, symbolic), (parse_premise, story),
                 (parse_premise, symbolic),
                 (parse_hypothesis, "Obesity causes A.", VariableTable.letters(3)),
                 (parse_hypothesis, "Obesity causes A.", story_table),
                 (parse_hypothesis, "Obesity causes A.", VariableTable.letters(3))]
        warm = [_parse_outcome(*call) for call in calls]
        assert warm == [_cold(*call) for call in calls]
        assert [("error" in outcome) for outcome in warm] == [True, False, True] * 2
        assert warm[1]["relations"]["dependencies"] == [["A", "C"]]

    def test_every_memo_is_bounded(self):
        reader = _reader(parse_premise(THREE_VAR_PREMISE).variables)
        for memo in (_read_sentence, _reader, reader.statement, reader.hypothesis):
            assert memo.cache_parameters()["maxsize"] is not None
