import hashlib
import http.server
import json
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext import harness, pipeline
from causaltext.dataset import balanced_generate, generate, write_samples
from causaltext.engine import (ColliderCandidates, apply_conditional,
                               apply_unconditional, candidate_pairs,
                               orient_colliders)
from causaltext.errors import (BackendError, ConfigError, TemplateError,
                               TransportError, UsageError)
from causaltext.harness import (BackendConfig, EvalRecord, HttpBackend,
                                Metrics, MockBackend, MODE_BASELINE_COT,
                                MODE_FEW_SHOT, MODE_STEP_BY_STEP,
                                RecordingBackend, ReplayBackend, StepResult,
                                parse_step_output, run_pipeline, score)
from causaltext.hypotheses import binary_answer
from causaltext.matrix import AdjMatrix
from causaltext.parsing import parse_premise
from causaltext.prompts import (PromptContext, few_shot_bundle, read_prompt,
                               render_prompt, step_reply)

from conftest import FIVE_VAR_STEP_7


@pytest.fixture(scope="module")
def balanced_n3():
    return balanced_generate([3], 6, seed=8)


class TestPromptRendering:
    def test_step_1_wording(self):
        prompt = render_prompt(1, PromptContext("A correlates with B."), {})
        assert prompt.startswith(
            "Please give the number of random variables")
        assert "A correlates with B." in prompt

    def test_step_9_wording(self):
        prior = {8: {"A": {"A": 0, "B": 1}, "B": {"A": 0, "B": 0}}}
        prompt = render_prompt(
            9, PromptContext("premise text", "A affects B."), prior)
        assert "the causal direction between" in prompt
        assert "Hypothesis:\nA affects B." in prompt

    def test_missing_slot(self):
        with pytest.raises(TemplateError):
            render_prompt(4, PromptContext("p"), {})  # no step 3 matrix yet

    def test_bundle_is_stable(self):
        first = few_shot_bundle()
        few_shot_bundle.cache_clear()
        assert few_shot_bundle() == first
        assert first.count("Premise:") == 10
        assert 'Final Answer: "Yes"' in first and 'Final Answer: "No"' in first


class TestParseStepOutput:
    def test_step_1_json(self):
        text = ('Sure. {"number of random variables": 5, '
                '"names of random variables": ["A", "B", "C", "D", "E"]}')
        parsed = parse_step_output(1, text)
        assert parsed.value == {"count": 5, "names": ["A", "B", "C", "D", "E"]}

    def test_step_1_plain_text(self):
        text = "Number of random variable:3\nNames of random variable: A, B, C"
        parsed = parse_step_output(1, text)
        assert parsed.value == {"count": 3, "names": ["A", "B", "C"]}

    def test_step_2_bare_keys(self):
        text = ("All of Statistical Relations:{ Dependencies: [[A, C], [B, C]], "
                "Unconditional Independencies: [[A, B]], "
                "Conditional Independencies: []}")
        # bare list entries are not strings, so quoting only keys is not
        # enough; the canonical quoted form must parse
        quoted = ('{"Dependencies": [["A", "C"], ["B", "C"]], '
                  '"Unconditional Independencies": [["A", "B"]], '
                  '"Conditional Independencies": []}')
        parsed = parse_step_output(2, quoted)
        assert parsed.value["dependencies"] == [["A", "C"], ["B", "C"]]
        assert parsed.value["unconditional_independencies"] == [["A", "B"]]

    def test_matrix_wrapped_json(self):
        text = ('Here it is: {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}')
        parsed = parse_step_output(3, text)
        assert parsed.value == {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}

    def test_matrix_unquoted_rows(self):
        text = "A: {A: 0, B: 1, C: 1}, B: {A: 0, B: 0, C: 1}, C: {A: 1, B: 1, C: 0}"
        parsed = parse_step_output(4, text)
        assert parsed.value["C"] == {"A": 1, "B": 1, "C": 0}

    def test_candidates_flat_pair(self):
        parsed = parse_step_output(6, "C: [A, B]")
        assert parsed.value == {"C": [["A", "B"]]}

    def test_candidates_nested(self):
        parsed = parse_step_output(7, json.dumps(FIVE_VAR_STEP_7))
        assert parsed.value == {"D": [["A", "B"], ["B", "C"]], "E": [["A", "B"]]}

    def test_step_9_final_answer(self):
        parsed = parse_step_output(9, 'blah blah. Final Answer: "Yes"')
        assert parsed.value == {"answer": "Yes"}
        parsed = parse_step_output(9, "the answer is no")
        assert parsed.value == {"answer": "No"}

    def test_prose_fails_gracefully(self):
        parsed = parse_step_output(4, "I am not sure how to do this.")
        assert parsed.value is None and parsed.error

    MATRIX = {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}

    @pytest.mark.parametrize("text, repairs", [
        ('Here it is: {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}', 0),
        ("Here it is: {A: {A: 0, B: 1}, B: {A: 1, B: 0}}", 1),
        ("Here it is: {'A': {'A': 0, 'B': 1}, 'B': {'A': 1, 'B': 0}}", 2),
    ], ids=["strict", "bare-keys", "single-quoted"])
    def test_repairs_only_after_a_failed_load(self, monkeypatch, text, repairs):
        # a block is repaired only once the reading before it fails, so a
        # strict-JSON reply never reaches the key-quoting pattern
        calls, pattern = [], harness._QUOTE_KEYS_RE

        class Counting:
            def sub(self, repl, block):
                calls.append(block)
                return pattern.sub(repl, block)

        monkeypatch.setattr(harness, "_QUOTE_KEYS_RE", Counting())
        parsed = parse_step_output(3, text)
        assert parsed.value == self.MATRIX and parsed.error is None
        assert len(calls) == repairs

    def test_single_quoted_and_bare_key_replies_parse(self):
        for text in ("{'number of random variables': 3, "
                     "'names of random variables': ['A', 'B', 'C']}",
                     '{number of random variables: 3, '
                     'names of random variables: ["A", "B", "C"]}'):
            assert parse_step_output(1, text).value == {"count": 3, "names": ["A", "B", "C"]}
        assert parse_step_output(7, "{C: [['A', 'B']]}").value == {"C": [["A", "B"]]}

    @given(st.text(max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_totality(self, text):
        for step in range(1, 10):
            parse_step_output(step, text)  # must never raise


# ---------------------------------------------------------------------------
# replies that are oddly formatted or wrong, over every step of every report
# of an equivalence class on two to four variables

MATRIX_STEPS, CANDIDATE_STEPS = (3, 4, 5, 8), (6, 7)


@pytest.fixture(scope="module")
def class_samples():
    first = {}
    for n in (2, 3, 4):
        for sample in generate(n):
            first.setdefault(sample.mec_digest, sample)
    return list(first.values())


@pytest.fixture(scope="module")
def class_reports(class_samples):
    return [harness._reference_steps(s) for s in class_samples]


def chatty(step, entry, reply, rng):
    head = rng.choice(["Sure! Here is the result.", "Working through it carefully:",
                       "Output for this step follows."])
    tail = rng.choice(["", "Hope this helps.", "That completes the step."])
    return f"{head}\n{reply}\n{tail}"


def single_quotes(step, entry, reply, rng):
    return reply.replace('"', "'")


def unquoted_keys(step, entry, reply, rng):
    return re.sub(r'"([^"]*)"(\s*:)', r"\1\2", reply) if step != 9 else None


def matrix_rows(sep, joiner):
    def rewrite(step, entry, reply, rng):
        if step not in MATRIX_STEPS:
            return None
        return joiner.join(
            f"{r}{sep}{{" + ", ".join(f"{c}{sep}{v}" for c, v in row.items()) + "}"
            for r, row in entry.items())
    rewrite.__name__ = f"matrix_rows{sep.strip()}"
    return rewrite


def flat_pair_rows(step, entry, reply, rng):
    if step not in CANDIDATE_STEPS or not entry or any(len(p) != 1 for p in entry.values()):
        return None
    return "\n".join(f"{r}: [{a}, {b}]" for r, [[a, b]] in entry.items())


def wrapped(key, steps):
    def rewrite(step, entry, reply, rng):
        return json.dumps({key: json.loads(reply)}) if step in steps else None
    rewrite.__name__ = f"wrapped_{key}"
    return rewrite


FORMAT_REWRITES = (chatty, single_quotes, unquoted_keys, matrix_rows(": ", ", "),
                   matrix_rows(" = ", "\n"), flat_pair_rows,
                   wrapped("result", range(1, 9)), wrapped("Candidates", CANDIDATE_STEPS))


def flipped_cell(step, entry, rng):
    if step not in MATRIX_STEPS:
        return None
    r, c = rng.sample(sorted(entry), 2)
    return {**entry, r: {**entry[r], c: 1 - entry[r][c]}}


def dropped_pair(step, entry, rng):
    if step not in CANDIDATE_STEPS or not entry:
        return None
    key = rng.choice(sorted(entry))
    pairs = list(entry[key])
    del pairs[rng.randrange(len(pairs))]
    out = {k: v for k, v in entry.items() if k != key}
    return {**out, key: pairs} if pairs else out


def flipped_answer(step, entry, rng):
    if step != 9:
        return None
    return {"answer": "No" if binary_answer(entry["answer"]) == "Yes" else "Yes"}


def invented_cause(step, entry, rng):
    if step != 2:
        return None
    fresh = [p for d in entry["dependencies"] for p in (d, d[::-1])
             if p not in entry["declared_causes"]]
    if not fresh:
        return None
    return {**entry, "declared_causes": [*entry["declared_causes"], rng.choice(fresh)]}


CONTENT_CHANGES = (flipped_cell, dropped_pair, flipped_answer, invented_cause)


def seeded_garbage(class_reports):
    """``(step, text)``: per step, 300 strings of random tokens, each alone and
    spliced into a reference reply."""
    rng = random.Random(19)
    tokens = list('{}[]:,="\' 01\n') + ["A", "B", "C", "yes", "No", "Final Answer:",
                                         "number of random variables: 3"]
    replies = [step_reply(k, r[f"step_{k}"]) for r in class_reports[::7]
               for k in range(1, 10)]
    for step in range(1, 10):
        for _ in range(300):
            text = "".join(rng.choice(tokens) for _ in range(rng.randrange(60)))
            reply = rng.choice(replies)
            cut = rng.randrange(len(reply) + 1)
            for junk in (text, reply[:cut] + text, text + reply[cut:]):
                yield step, junk


def json_blocks_by_character(text):
    """The reference for ``harness._json_blocks``: every balanced ``{...}``
    block, found by visiting each character."""
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth:
            depth -= 1
            if depth == 0:
                yield text[start:i + 1]


def graded(step, text, ref):
    parsed = parse_step_output(step, text)
    return parsed, harness._match_step(step, parsed.value, ref)


class TestImperfectReplies:
    @pytest.mark.parametrize("rewrite", FORMAT_REWRITES, ids=lambda f: f.__name__)
    def test_format_rewrite_grades_as_match(self, class_reports, rewrite):
        rng, applied, wrong = random.Random(13), 0, []
        for report in class_reports:
            for step in range(1, 10):
                ref = report[f"step_{step}"]
                text = rewrite(step, ref, step_reply(step, ref), rng)
                if text is None:
                    continue
                applied += 1
                parsed, match = graded(step, text, ref)
                if not match:
                    wrong.append((step, text, parsed))
        assert applied and not wrong, wrong[:3]

    @pytest.mark.parametrize("change", CONTENT_CHANGES, ids=lambda f: f.__name__)
    def test_content_change_grades_as_mismatch(self, class_reports, change):
        # each changed reply is sent plain and in one rewritten form
        rng, applied, wrong = random.Random(17), 0, []
        for report in class_reports:
            for step in range(1, 10):
                ref = report[f"step_{step}"]
                changed = change(step, ref, rng)
                if changed is None:
                    continue
                reply = step_reply(step, changed)
                rewrite = rng.choice(FORMAT_REWRITES)
                for text in (reply, rewrite(step, changed, reply, rng)):
                    if text is None:
                        continue
                    applied += 1
                    parsed, match = graded(step, text, ref)
                    if parsed.value is None or match:
                        wrong.append((step, text, parsed))
        assert applied and not wrong, wrong[:3]

    def test_seeded_garbage_never_raises(self, class_reports):
        for step, junk in seeded_garbage(class_reports):
            parsed, _ = graded(step, junk, class_reports[0][f"step_{step}"])
            assert parsed.value is not None or parsed.error

    def test_json_blocks_match_the_character_loop(self, class_reports):
        rng, texts = random.Random(23), []
        for report in class_reports:
            for step in range(1, 10):
                ref = report[f"step_{step}"]
                for entry in (ref, *(change(step, ref, rng) for change in CONTENT_CHANGES)):
                    if entry is None:
                        continue
                    reply = step_reply(step, entry)
                    texts += [reply, *(rewrite(step, entry, reply, rng)
                                       for rewrite in FORMAT_REWRITES)]
        texts += [junk for _, junk in seeded_garbage(class_reports)]
        texts = [t for t in texts if t is not None]
        assert sum("{" in t for t in texts) > 10000
        for text in texts:
            assert list(harness._json_blocks(text)) == list(json_blocks_by_character(text))


# what each step's prompt states: a context field, a whole prior output, or
# one entry of a prior output as (step, key)
STATED = {
    1: ("premise",),
    2: ("premise", (1, "names")),
    3: ((1, "names"), (2, "declared_causes")),
    4: (3, (2, "unconditional_independencies")),
    5: (4, (2, "conditional_independencies")),
    6: (5,),
    7: (6, (2, "unconditional_independencies"), (2, "conditional_independencies")),
    8: (5, 7),
    9: ("premise", 8, "hypothesis"),
}


def ask_mock(step, ctx, prior, sample_id):
    prompt = [{"role": "user", "content": render_prompt(step, ctx, prior)}]
    return parse_step_output(step, MockBackend().complete(prompt, sample_id=sample_id)).value


class TestPromptReader:
    def test_inverts_render_prompt(self, class_samples, class_reports):
        for sample, report in zip(class_samples, class_reports):
            ctx = PromptContext(sample.premise, sample.hypothesis_text)
            prior = {k: report[f"step_{k}"] for k in range(1, 9)}
            for step, stated in STATED.items():
                want_ctx = PromptContext(**{f: getattr(ctx, f) for f in stated
                                            if isinstance(f, str)})
                want_prior = {k: prior[k] for k in stated if isinstance(k, int)}
                for k, key in (e for e in stated if isinstance(e, tuple)):
                    want_prior.setdefault(k, {})[key] = prior[k][key]
                got = read_prompt(render_prompt(step, ctx, prior))
                assert got == (step, want_ctx, want_prior)

    def test_shown_outputs_render_the_same_text(self, class_samples, class_reports):
        for sample, report in zip(class_samples, class_reports):
            ctx = PromptContext(sample.premise, sample.hypothesis_text)
            prior = {k: report[f"step_{k}"] for k in range(1, 9)}
            shown = {}
            for step in range(1, 10):
                assert (render_prompt(step, ctx, prior, shown)
                        == render_prompt(step, ctx, prior))
            assert shown[5, None] == json.dumps(prior[5])

    def test_text_no_step_renders_reads_as_none(self, class_reports):
        prior = {k: class_reports[-1][f"step_{k}"] for k in range(1, 9)}
        prompt = render_prompt(8, PromptContext(), prior)
        assert read_prompt(prompt) is not None
        for text in ("", "Hello.", prompt[:prompt.index("Candidates:")],
                     prompt.replace('"A"', "A"), few_shot_bundle()):
            assert read_prompt(text) is None

    def test_mock_answers_the_prompt_not_the_sample(self, class_samples, class_reports):
        # the prior matrix and candidates come from another class on the same
        # variables; the reply must be the engine step on those inputs
        by_n = {}
        for sample, report in zip(class_samples, class_reports):
            by_n.setdefault(sample.n_vars, []).append((sample, report))
        cases = 0
        for group in by_n.values():
            for j, (sample, mine) in enumerate(group):
                other = group[(j + 1) % len(group)][1]
                matrix = AdjMatrix.from_mapping(other["step_5"])
                cands = ColliderCandidates.from_mapping(other["step_7"], matrix.vars)
                ctx = PromptContext(sample.premise, sample.hypothesis_text)
                want = {4: apply_unconditional(matrix, sample.relations),
                        5: apply_conditional(matrix, sample.relations),
                        6: candidate_pairs(matrix),
                        8: orient_colliders(matrix, cands)}
                prior = {2: mine["step_2"], 3: other["step_5"], 4: other["step_5"],
                         5: other["step_5"], 7: other["step_7"]}
                for step, out in want.items():
                    assert ask_mock(step, ctx, prior, sample.id) == out.to_mapping()
                    cases += 1
        assert cases == 4 * len(class_samples)


class TestDeclaredCauses:
    PREMISE = ("Suppose there is a closed system of 3 variables, A, B and C. "
               "All the statistical relations among these 3 variables are as "
               "follows: A correlates with B. B correlates with C. "
               "A correlates with C. A is the cause of C.")

    @pytest.fixture(scope="class")
    def ref(self):
        return pipeline.solve_doc(parse_premise(self.PREMISE), "A causes C.").report()["step_2"]

    def test_stated_cause_matches(self, ref):
        assert ref["declared_causes"] == [["A", "C"]]
        assert graded(2, step_reply(2, ref), ref)[1]

    @pytest.mark.parametrize("causes", [[], [["C", "A"]]], ids=["dropped", "reversed"])
    def test_dropped_or_reversed_cause_mismatches(self, ref, causes):
        parsed, match = graded(2, step_reply(2, {**ref, "declared_causes": causes}), ref)
        assert parsed.value is not None and not match

    def test_reply_without_the_key_matches_no_cause(self, class_reports):
        for report in class_reports:
            ref = report["step_2"]
            reply = json.loads(step_reply(2, ref))
            del reply["Cause-and-Effect Relations"]
            assert graded(2, json.dumps(reply), ref)[1]


class TestMockClosure:
    @pytest.mark.parametrize("mode", [MODE_STEP_BY_STEP, MODE_FEW_SHOT,
                                      MODE_BASELINE_COT])
    def test_all_metrics_perfect(self, balanced_n3, mode):
        records = [run_pipeline(s, MockBackend(), mode) for s in balanced_n3]
        report = score(records)
        m = report.overall
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert report.parse_failure_rate == 0.0
        if mode != MODE_BASELINE_COT:
            assert all(v == 1.0 for v in report.step_accuracy.values())
            assert all(v == 1.0 for v in report.subtask_accuracy.values())

    def test_story_samples_pass_through(self):
        samples = balanced_generate([3], 3, seed=2, style="story", theme="social")
        records = [run_pipeline(s, MockBackend(), MODE_STEP_BY_STEP) for s in samples]
        assert all(r.correct for r in records)
        assert all(v.match for r in records for v in r.steps.values())

    @pytest.mark.parametrize("mode", [MODE_STEP_BY_STEP, MODE_FEW_SHOT,
                                      MODE_BASELINE_COT])
    def test_each_sample_parses_its_premise_once(self, balanced_n3, mode,
                                                 monkeypatch):
        # The grading reference reads the relations and claim the sample
        # holds, so the one parse left is the mock's read of the prompt.
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (harness, pipeline):
            for name in ("parse_premise", "parse_hypothesis"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for sample in balanced_n3:
            calls.clear()
            record = run_pipeline(sample, MockBackend(), mode)
            assert record.correct and record.error is None
            assert calls.count("parse_premise") == 1
            assert calls.count("parse_hypothesis") == 1

    def test_shared_mock_under_threads(self, balanced_n3):
        # Eight threads share one mock and its one-slot parse memo, switching
        # as often as the interpreter allows, and walk the same prompts in
        # step so that two often ask for one key; every reply must be the one
        # a fresh mock gives for that prompt.
        jobs, seen = [], set()
        for sample in [*balanced_n3, *islice(generate(4), 0, None, 1111)]:
            if sample.premise in seen:
                continue
            seen.add(sample.premise)
            ctx = PromptContext(sample.premise, sample.hypothesis_text)
            names = list(sample.relations.vars.names)
            for step, prior in ((1, {}), (2, {1: {"count": len(names), "names": names}})):
                prompt = [{"role": "user", "content": render_prompt(step, ctx, prior)}]
                want = MockBackend().complete(prompt, sample_id=sample.id)
                jobs.append((sample.id, prompt, want))
        shared, wrong = MockBackend(), []

        def worker(offset):
            for k in range(400):
                sid, prompt, want = jobs[(offset + k) % len(jobs)]
                if shared.complete(prompt, sample_id=sid) != want:
                    wrong.append(sid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 2,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class AlwaysYesBackend:
    def complete(self, messages, *, sample_id=None, step=None):
        return 'Final Answer: "Yes"'


class TestDegenerateBackends:
    def test_always_yes_accuracy_equals_yes_rate(self, balanced_n3):
        backend = AlwaysYesBackend()
        records = [run_pipeline(s, backend, MODE_BASELINE_COT) for s in balanced_n3]
        report = score(records)
        assert report.overall.accuracy == 0.5  # the set is balanced
        assert report.overall.recall == 1.0

    def test_always_yes_step_mode_records_chain_break(self, balanced_n3):
        record = run_pipeline(balanced_n3[0], AlwaysYesBackend(), MODE_STEP_BY_STEP)
        assert record.error and "step 1" in record.error
        assert not record.correct


class TestTranscripts:
    def test_record_then_replay_is_deterministic(self, tmp_path, balanced_n3):
        samples = balanced_n3[:4]
        recorder = RecordingBackend(MockBackend(), tmp_path / "t")
        first = [run_pipeline(s, recorder, MODE_STEP_BY_STEP) for s in samples]
        replay = ReplayBackend(tmp_path / "t")
        second = [run_pipeline(s, replay, MODE_STEP_BY_STEP) for s in samples]

        def stable(records):
            out = []
            for r in records:
                d = r.as_dict()
                d.pop("elapsed_ms")  # wall-clock timing is not part of determinism
                out.append(d)
            return json.dumps(out, sort_keys=True)

        assert stable(first) == stable(second)
        report_a = score(first).as_dict()
        report_b = score(second).as_dict()
        assert json.dumps(report_a) == json.dumps(report_b)

    def test_replay_junk_food_table_transcript(self, tmp_path):
        # a transcript in the loose shapes a real assistant produces:
        # plain-text step sections, unquoted matrices, a final answer line
        response = "\n".join([
            "Step 1: Number of random variable:3",
            "Names of random variable: A, B, C",
            "Step 2: All of Statistical Relations:",
            '{"Dependencies": [["A", "C"], ["B", "C"]],'
            ' "Unconditional Independencies": [["A", "B"]],'
            ' "Conditional Independencies": []}',
            "Step 3: A: {A: 0, B: 1, C: 1}, B: {A: 1, B: 0, C: 1}, C: {A: 1, B: 1, C: 0}",
            "Step 4: A: {A: 0, B: 0, C: 1}, B: {A: 0, B: 0, C: 1}, C: {A: 1, B: 1, C: 0}",
            "Step 5: A: {A: 0, B: 0, C: 1}, B: {A: 0, B: 0, C: 1}, C: {A: 1, B: 1, C: 0}",
            "Step 6: C: [A, B]",
            "Step 7: C: [A, B]",
            "Step 8: A: {A: 0, B: 0, C: 1}, B: {A: 0, B: 0, C: 1}, C: {A: 0, B: 0, C: 0}",
            "Step 9: Checking matrix[A][C] = 1 and matrix[C][A] = 0. According to"
            " rule 2, this suggests A is a direct cause of C, or C is a direct"
            ' effect of A. Final Answer: "Yes"',
        ])
        sample = next(
            s for s in generate(3, style="story", theme="health")
            if s.kind == "direct_cause" and s.label == "Yes"
            and "eating junk food directly affects obesity"
            in s.hypothesis_text.lower())
        (tmp_path / f"{sample.id}.json").write_text(json.dumps({
            "sample_id": sample.id,
            "exchanges": [{"step": 0, "prompt_digest": "x", "response": response}],
        }))
        record = run_pipeline(sample, ReplayBackend(tmp_path), MODE_FEW_SHOT)
        assert all(v.match for v in record.steps.values()), {
            k: (v.match, v.error) for k, v in record.steps.items() if not v.match}
        assert record.verdict == "Yes" and record.correct

    def test_replay_missing_sample(self, tmp_path):
        backend = ReplayBackend(tmp_path)
        with pytest.raises(TransportError):
            backend.complete([], sample_id="nope", step=1)

    def test_replay_mode_mismatch_is_explicit(self, tmp_path, balanced_n3):
        # transcripts recorded in one pipeline mode refuse to serve another
        sample = balanced_n3[0]
        recorder = RecordingBackend(MockBackend(), tmp_path)
        run_pipeline(sample, recorder, MODE_FEW_SHOT)
        record = run_pipeline(sample, ReplayBackend(tmp_path), MODE_STEP_BY_STEP)
        assert record.error and "pipeline mode" in record.error
        assert not record.correct

    def test_replay_holds_only_the_current_sample(self, tmp_path):
        def stable(record):
            d = record.as_dict()
            d.pop("elapsed_ms")  # wall-clock timing is not part of determinism
            return d

        samples = balanced_generate([4], 25, seed=3)
        recorder = RecordingBackend(MockBackend(), tmp_path)
        expected = [stable(run_pipeline(s, recorder, MODE_STEP_BY_STEP)) for s in samples]
        replay = ReplayBackend(tmp_path)

        def replayed(s):
            record = stable(run_pipeline(s, replay, MODE_STEP_BY_STEP))
            # this thread's one transcript, however many samples came before
            held = vars(replay._local)
            assert held["sample_id"] == s.id and held["cursor"] == 9
            return record

        assert [replayed(s) for s in samples] == expected
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(replayed, samples)) == expected

    def test_recorder_holds_only_the_current_sample(self, tmp_path, balanced_n3):
        serial = RecordingBackend(MockBackend(), tmp_path / "serial")
        for s in balanced_n3:
            run_pipeline(s, serial, MODE_STEP_BY_STEP)
            # one sample's nine exchanges, however many samples came before
            held = vars(serial._local)
            assert held["sample_id"] == s.id and len(held["exchanges"]) == 9
        # threads sharing one recorder write the transcripts one thread writes
        parallel = RecordingBackend(MockBackend(), tmp_path / "parallel")
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(lambda s: run_pipeline(s, parallel, MODE_STEP_BY_STEP),
                          balanced_n3))
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(f"{s.id}.json" for s in balanced_n3)
        for name in names:
            assert ((tmp_path / "parallel" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())


class _StubHandler(http.server.BaseHTTPRequestHandler):
    status = 200
    payload = {"choices": [{"message": {"content": 'Final Answer: "Yes"'}}]}
    body = None  # raw bytes served instead of the JSON payload when set
    raw = None  # when set, the whole reply, status line and headers included
    seen = None  # when set, (method, Authorization header) of each request
    # when set, the reply is this backend's answer to the request's messages,
    # served with a usage object that is also appended to ``served``
    oracle = None
    served = None

    def do_POST(self):
        request = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.seen is not None:
            self.seen.append(("POST", self.headers.get("Authorization")))
        if self.raw is not None:
            self.wfile.write(self.raw)
            return
        payload = self.payload
        if self.oracle is not None:
            messages = json.loads(request)["messages"]
            reply = self.oracle.complete(messages)
            usage = {"prompt_tokens": len(messages[-1]["content"]),
                     "completion_tokens": len(reply),
                     "total_tokens": len(messages[-1]["content"]) + len(reply),
                     "prompt_tokens_details": {"cached_tokens": 0}}
            self.served.append(usage)
            payload = {"choices": [{"message": {"content": reply}}], "usage": usage}
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(self.body or json.dumps(payload).encode())

    def do_GET(self):  # where a POST answered with 301, 302 or 303 goes next
        self.seen.append(("GET", self.headers.get("Authorization")))
        self.send_response(405)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_stub():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll lets shutdown() return at once instead of after 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestTransport:
    def test_send_happy_path(self, http_stub):
        _StubHandler.status = 200
        config = BackendConfig(endpoint=http_stub, attempts=1)
        out = HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        assert out == 'Final Answer: "Yes"'

    def test_server_error_becomes_backend_error(self, http_stub):
        _StubHandler.status = 503
        config = BackendConfig(endpoint=http_stub, attempts=2, backoff=0.0)
        with pytest.raises(BackendError):
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        _StubHandler.status = 200

    @pytest.mark.parametrize("status", [None, 503])
    def test_backoff_only_between_attempts(self, http_stub, status, monkeypatch):
        # None: a refused connection; 503: a server error worth a retry
        slept = []
        monkeypatch.setattr(harness.time, "sleep", slept.append)
        monkeypatch.setattr(_StubHandler, "status", status or 200)
        endpoint = "http://127.0.0.1:9" if status is None else http_stub
        config = BackendConfig(endpoint=endpoint, attempts=3, backoff=0.5, timeout=0.5)
        with pytest.raises(TransportError if status is None else BackendError):
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        assert slept == [0.5, 1.0]

    @pytest.mark.parametrize("raw", [
        b"garbage\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{\"choices\": ",
    ], ids=["bad-status-line", "short-body"])
    def test_malformed_reply_is_a_transport_failure(self, http_stub, raw, monkeypatch):
        # the reply arrives but cannot be read as HTTP: retried like a refused
        # connection, then a TransportError that fails the sample, not the batch
        slept = []
        monkeypatch.setattr(harness.time, "sleep", slept.append)
        monkeypatch.setattr(_StubHandler, "raw", raw)
        monkeypatch.setattr(_StubHandler, "seen", [])
        config = BackendConfig(endpoint=http_stub, attempts=3, backoff=0.5)
        with pytest.raises(TransportError, match="^3 attempt"):
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        assert len(_StubHandler.seen) == 3 and slept == [0.5, 1.0]

    @pytest.mark.parametrize("status,seen", [
        (302, [("POST", "Bearer secret"), ("GET", None)]),
        (307, [("POST", "Bearer secret")])])
    def test_token_goes_to_the_endpoint_only(self, http_stub, monkeypatch, status, seen):
        # a 302 is followed as a GET without the token, a 307 is not followed
        monkeypatch.setenv("STUB_TOKEN", "secret")
        monkeypatch.setattr(_StubHandler, "seen", [])
        monkeypatch.setattr(_StubHandler, "raw", (
            f"HTTP/1.1 {status} Moved\r\nLocation: /next\r\n"
            "Content-Length: 0\r\n\r\n").encode())
        config = BackendConfig(endpoint=http_stub, auth_env="STUB_TOKEN", attempts=1)
        with pytest.raises(BackendError) as err:
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        assert err.value.status == (405 if status == 302 else status)
        assert _StubHandler.seen == seen

    def test_client_error_no_retry(self, http_stub):
        _StubHandler.status = 404
        config = BackendConfig(endpoint=http_stub, attempts=3, backoff=0.0)
        with pytest.raises(BackendError) as err:
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])
        assert err.value.status == 404
        _StubHandler.status = 200

    def test_non_json_body_fails_the_sample_not_the_batch(self, http_stub,
                                                          balanced_n3,
                                                          monkeypatch):
        monkeypatch.setattr(_StubHandler, "body", b"<html>gateway page</html>")
        config = BackendConfig(endpoint=http_stub, attempts=1)
        backend = HttpBackend(config)
        records = [run_pipeline(s, backend, MODE_STEP_BY_STEP) for s in balanced_n3[:2]]
        assert len(records) == 2
        for r in records:
            assert r.error and "status 200" in r.error and "not JSON" in r.error
            assert not r.correct

    def test_transport_failures_are_not_parse_failures(self, http_stub,
                                                       balanced_n3, monkeypatch):
        monkeypatch.setattr(_StubHandler, "body", b"<html>gateway page</html>")
        config = BackendConfig(endpoint=http_stub, attempts=1)
        backend = HttpBackend(config)
        records = [run_pipeline(s, backend, MODE_STEP_BY_STEP) for s in balanced_n3[:4]]
        assert len(records) == 4
        assert all(r.error and r.parse_failures == 0 for r in records)
        assert score(records).parse_failure_rate == 0.0

    def test_unreachable_endpoint(self):
        config = BackendConfig(endpoint="http://127.0.0.1:9", attempts=2,
                               backoff=0.0, timeout=0.5)
        with pytest.raises(TransportError):
            HttpBackend(config).complete([{"role": "user", "content": "hello"}])

    def test_malformed_endpoint_rejected_upfront(self):
        # the mock and replay backends are built from their own flags, so
        # their old URL spellings are no endpoints either
        for endpoint in ("not a url", "ftp://example.com", "http://", "mock://engine",
                         "replay://run/transcripts"):
            with pytest.raises(ConfigError, match="not an http"):
                HttpBackend(BackendConfig(endpoint=endpoint))

    def test_attempts_below_one_rejected_upfront(self):
        with pytest.raises(ConfigError, match="attempts"):
            HttpBackend(BackendConfig(endpoint="http://example.com", attempts=0))

    def test_missing_auth_env_rejected_upfront(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_TOKEN_VAR", raising=False)
        config = BackendConfig(endpoint="http://example.com/v1",
                               auth_env="NO_SUCH_TOKEN_VAR")
        with pytest.raises(ConfigError):
            HttpBackend(config)

    def test_config_never_serializes_secrets(self, monkeypatch):
        monkeypatch.setenv("TOKEN_VAR", "super-secret")
        config = BackendConfig(endpoint="http://example.com", auth_env="TOKEN_VAR")
        assert "super-secret" not in json.dumps(config.as_dict())

    def test_record_sums_the_reported_token_usage(self, http_stub, balanced_n3,
                                                  monkeypatch, tmp_path):
        served = []
        monkeypatch.setattr(_StubHandler, "oracle", MockBackend())
        monkeypatch.setattr(_StubHandler, "served", served)
        inner = HttpBackend(BackendConfig(endpoint=http_stub, attempts=1))
        sample = balanced_n3[0]
        # directly, and through the recorder's pop_usage
        for backend in (inner, RecordingBackend(inner, tmp_path)):
            served.clear()
            record = run_pipeline(sample, backend, MODE_STEP_BY_STEP)
            assert record.error is None and record.correct and len(record.steps) == 9
            assert len(served) == 9
            # integer counts are summed over the nine calls; nested objects are not
            assert record.token_counts == {
                key: sum(usage[key] for usage in served)
                for key in ("prompt_tokens", "completion_tokens", "total_tokens")}
            assert inner.pop_usage() is None
        exchanges = json.loads((tmp_path / f"{sample.id}.json").read_text())["exchanges"]
        assert [e["step"] for e in exchanges] == list(range(1, 10))


class TestVerboseFlag:
    @pytest.mark.parametrize("flags", [["-v"], ["-vv"], []])
    def test_one_v_logs_the_request_digest(self, http_stub, tmp_path, flags):
        # in a child process: under pytest the root logger already has
        # handlers, so the CLI's logging set-up would not take effect here
        data = tmp_path / "set.jsonl"
        write_samples(data, balanced_generate([3], 1, seed=1))
        src = str(Path(harness.__file__).resolve().parents[1])
        argv = [*flags, "eval", "--dataset", str(data), "--backend", http_stub,
                "--mode", "baseline-cot", "--attempts", "1", "--limit", "1",
                "--out", str(tmp_path / "run")]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from causaltext.cli import main;"
             " sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 0, proc.stderr
        logged = re.findall(rf"DEBUG:causaltext\.harness:request {re.escape(http_stub)} digest=\w{{12}}",
                            proc.stderr)
        assert len(logged) == (1 if flags else 0), proc.stderr
        assert ("DEBUG" in proc.stderr) == bool(flags)


class TestMetrics:
    def test_count_arithmetic(self):
        m = Metrics(tp=13, fp=1, tn=14, fn=2)
        assert abs(m.precision - 0.9286) <= 1e-4
        assert abs(m.recall - 0.8667) <= 1e-4
        assert abs(m.accuracy - 0.9000) <= 1e-4
        assert abs(m.f1 - 0.8966) <= 1e-4

    def test_all_correct(self):
        m = Metrics(tp=5, fp=0, tn=5, fn=0)
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_flags(self):
        m = Metrics(tp=0, fp=0, tn=3, fn=1)
        assert m.precision == 0.0 and m.degenerate_precision
        assert not m.degenerate_recall

    def test_every_verdict_and_label_is_counted(self):
        # (n_vars, verdict, label, the count the record adds to); an
        # unanswered record counts against the run
        table = [(3, "Yes", "Yes", "tp"), (3, "No", "Yes", "fn"), (3, None, "No", "fp"),
                 (4, "Yes", "No", "fp"), (4, "No", "No", "tn"),
                 (4, "Undetermined", "No", "tn"), (4, "Undetermined", "Yes", "fn"),
                 (4, None, "Yes", "fn")]
        records = [EvalRecord(f"s{k}", n, label, "cause", MODE_STEP_BY_STEP, {},
                              verdict, verdict is not None and binary_answer(verdict) == label,
                              1.0, 0)
                   for k, (n, verdict, label, _) in enumerate(table)]
        for record, (_, _, _, count) in zip(records, table):
            assert score([record]).overall == Metrics(
                **{c: int(c == count) for c in ("tp", "fp", "tn", "fn")})
        report = score(records)
        assert report.overall == Metrics(tp=1, fp=2, tn=2, fn=3)
        assert report.by_n_vars == {3: Metrics(tp=1, fp=1, tn=0, fn=1),
                                    4: Metrics(tp=0, fp=1, tn=2, fn=2)}
        m = report.overall
        assert (m.precision, m.recall, m.f1) == pytest.approx((1 / 3, 1 / 4, 2 / 7))
        assert report.by_n_vars[3].recall == pytest.approx(1 / 2)
        assert report.by_n_vars[4].recall == 0.0 and not report.by_n_vars[4].degenerate_recall

    def test_score_requires_records(self):
        with pytest.raises(UsageError, match="no evaluation records to score"):
            score([])
        with pytest.raises(UsageError, match="no evaluation records to score"):
            score(iter(()))

    def test_score_reads_records_once_and_keeps_none(self, balanced_n3):
        # each record is dropped once the next is read, so a run can be
        # scored as it writes its records
        backend, alive = MockBackend(), []

        def records():
            for sample in balanced_n3:
                assert sum(ref() is not None for ref in alive) <= 1
                record = run_pipeline(sample, backend)
                alive.append(weakref.ref(record))
                yield record

        streamed = score(records()).as_dict()
        assert streamed == score([run_pipeline(s, backend) for s in balanced_n3]).as_dict()
        assert streamed["n_records"] == len(balanced_n3) == len(alive)

    def test_only_reference_errors_score_without_dividing_by_zero(self):
        records = [EvalRecord(f"s{k}", 4, "Yes", "cause", MODE_STEP_BY_STEP, {},
                              None, False, 1.0, 0,
                              "reference: matrix admits no consistent extension")
                   for k in range(2)]
        report = score(records).as_dict()
        assert report["n_records"] == 2 and report["reference_errors"] == 2
        assert report["overall"]["accuracy"] == 0.0
        assert report["overall"]["degenerate_precision"]
        assert report["by_n_vars"] == {} and report["step_accuracy"] == {}
        assert report["parse_failure_rate"] == 0.0



# sha256 of the mock oracle's output for ``balanced_n3``: the few-shot
# bundle, and per mode the transcripts plus the records without their timing.
# Any change to a step reply, a prompt or the grading shows here.
GOLDEN_BUNDLE = "fe8c05bb3a12869c18d6e8aa990ea6ae59fae28c3e0df7abe50a73a79c39ebea"
GOLDEN_MOCK = {
    MODE_STEP_BY_STEP: "af8fddb80f30f592a77c5593556306e9ba24608b6462352f9e9628ee28c64301",
    MODE_FEW_SHOT: "ba015fe57e96a4a78f4c61dae558be254aa241f016b85c622a8793694ba13925",
    MODE_BASELINE_COT: "f11cdd8097f677a0360d81949c7a878be75512c580622575c6455bf74bf3c276",
}


def mock_output_digest(samples, mode, directory) -> str:
    recorder = RecordingBackend(MockBackend(), directory)
    records = [run_pipeline(s, recorder, mode) for s in samples]
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    for r in records:
        d = r.as_dict()
        d.pop("elapsed_ms")
        h.update(json.dumps(d, sort_keys=True).encode())
    return h.hexdigest()


class TestGoldenOutput:
    def test_few_shot_bundle(self):
        assert hashlib.sha256(few_shot_bundle().encode()).hexdigest() == GOLDEN_BUNDLE

    @pytest.mark.parametrize("mode", [MODE_STEP_BY_STEP, MODE_FEW_SHOT,
                                      MODE_BASELINE_COT])
    def test_mock_transcripts_and_records(self, tmp_path, balanced_n3, mode):
        assert mock_output_digest(balanced_n3, mode, tmp_path) == GOLDEN_MOCK[mode]


class TestRecordSerialization:
    def test_from_dict_inverts_as_dict(self):
        record = EvalRecord(
            "3v-x-cause-AB-symbolic", 3, "Yes", "cause", MODE_STEP_BY_STEP,
            {"step_1": StepResult("raw text", {"count": 3, "names": ["A", "B", "C"]},
                                  True),
             "step_2": StepResult("junk", None, False, "no relation lists found")},
            None, False, 12.5, 1, "step 2: unparseable output ends the chain",
            {"prompt_tokens": 120, "completion_tokens": 30})
        assert EvalRecord.from_dict(record.as_dict()) == record
        assert EvalRecord.from_dict(json.loads(json.dumps(record.as_dict()))) == record
