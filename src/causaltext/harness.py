"""Drive a chat backend through the reasoning pipeline and score the results.

Three backends implement one interface: a live HTTP endpoint (chat-style
JSON in, assistant text out), an in-process oracle that answers every prompt
with the symbolic engine's own output, and a transcript replayer for
reproducible audits of recorded runs.

The HTTP stack (``http.client``, ``urllib.request``) is imported only by
``HttpBackend``, when it sends a request, so a mock or replay run and
scoring never load it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from typing import Iterable, Sequence
from urllib.parse import urlparse

from .engine import (ColliderCandidates, apply_conditional,
                     apply_unconditional, candidate_pairs,
                     filter_collider_pairs, initial_matrix, orient_colliders)
from .errors import (BackendError, BoundsError, ConfigError, ConsistencyError,
                     PdagError, TransportError, UsageError)
from .hypotheses import (MODE_EXTENSION_QUANTIFIED, NO, YES, binary_answer,
                         evaluate_on_pdag)
from .matrix import AdjMatrix
from .parsing import PremiseDoc, parse_hypothesis, parse_premise
from .pipeline import solve_doc
from .prompts import (PromptContext, is_cot_prompt, is_few_shot_prompt,
                      read_prompt, render_cot, render_few_shot, render_prompt,
                      split_sections, step_replies, step_reply)
from .relations import RelationSet
from .variables import VariableTable

log = logging.getLogger(__name__)

MODE_STEP_BY_STEP = "step-by-step"
MODE_FEW_SHOT = "few-shot"
MODE_BASELINE_COT = "baseline-cot"
EVAL_MODES = (MODE_STEP_BY_STEP, MODE_FEW_SHOT, MODE_BASELINE_COT)
# how a record's error starts when the engine cannot solve its sample
REFERENCE_ERROR = "reference:"


# ---------------------------------------------------------------------------
# configuration and transport


def _field_dict(obj) -> dict:
    """A dataclass's fields by name, in field order; unlike ``dataclasses.asdict``
    it copies no value."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a live chat endpoint, an ``http(s)://`` URL.

    Temperature stays at 0 unless explicitly overridden. The auth token is
    read from the environment variable named here and never serialized.
    """

    endpoint: str
    model: str = "oracle"
    temperature: float = 0.0
    max_tokens: int = 4096
    auth_env: str | None = None
    attempts: int = 3
    backoff: float = 0.25
    timeout: float = 60.0

    def as_dict(self) -> dict:
        return _field_dict(self)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.as_dict(), sort_keys=True)
                              .encode()).hexdigest()[:16]


class HttpBackend:
    """Generic chat endpoint: ordered role/content messages in, text out."""

    def __init__(self, config: BackendConfig):
        parsed = urlparse(config.endpoint)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ConfigError(f"not an http(s) endpoint URL: {config.endpoint!r}")
        self._token = os.environ.get(config.auth_env) if config.auth_env else None
        if config.auth_env and not self._token:
            raise ConfigError(
                f"auth environment variable {config.auth_env!r} is not set")
        if config.attempts < 1:
            raise ConfigError("attempts must be at least 1")
        self.config = config
        self._local = threading.local()

    def pop_usage(self) -> dict | None:
        """Token usage of the most recent call on this thread, if reported."""
        usage = getattr(self._local, "usage", None)
        self._local.usage = None
        return usage

    def complete(self, messages: Sequence[dict], *, sample_id=None, step=None) -> str:
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.config.model,
            "messages": list(messages),
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        body = json.dumps(payload).encode()
        log.debug("request %s digest=%s", self.config.endpoint,
                  hashlib.sha256(body).hexdigest()[:12])
        last_exc: Exception | None = None
        for attempt in range(self.config.attempts):
            if attempt:
                # back off between attempts only: none follows the last
                time.sleep(self.config.backoff * (2 ** (attempt - 1)))
            # a fresh Request per attempt: urlopen rewrites one it sends via a proxy
            request = urllib.request.Request(self.config.endpoint, data=body,
                                             headers={"Content-Type": "application/json"})
            if self._token:
                # sent to the endpoint only, never on to a redirect's target
                request.add_unredirected_header("Authorization", f"Bearer {self._token}")
            try:
                try:
                    resp = urllib.request.urlopen(request, timeout=self.config.timeout)
                except urllib.error.HTTPError as err:
                    # a status of 400 or more (or a redirect a POST does not
                    # follow) is a reply to read, not a transport failure
                    resp = err
                with resp:
                    status, content = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                # HTTPException: a garbled status line or a short body
                last_exc = exc
                continue
            if status != 200:
                error = BackendError(status, content.decode("utf-8", "replace")[:200])
                if status == 429 or status >= 500:
                    last_exc = error
                    continue
                raise error
            try:
                data = json.loads(content)
            except ValueError:  # JSONDecodeError, or bytes that are not text
                raise BackendError(200, "body is not JSON: "
                                   + content.decode("utf-8", "replace")[:120]) from None
            log.debug("response digest=%s", hashlib.sha256(content).hexdigest()[:12])
            if isinstance(data, dict) and isinstance(data.get("usage"), dict):
                self._local.usage = data["usage"]
            return _extract_assistant_text(data)
        if isinstance(last_exc, BackendError):
            raise last_exc
        raise TransportError(
            f"{self.config.attempts} attempt(s) to {self.config.endpoint} failed:"
            f" {last_exc}")


def _extract_assistant_text(data) -> str:
    try:
        return data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        pass
    for key in ("content", "text", "output"):
        if isinstance(data, dict) and isinstance(data.get(key), str):
            return data[key]
    raise BackendError(200, f"no assistant text in response: {str(data)[:120]}")


class ReplayBackend:
    """Replays recorded transcripts; one file per sample, exchanges in order.

    A sample runs wholly inside one ``run_pipeline`` call on one thread, so
    each thread holds the transcript of its current sample only, with the
    cursor of the next exchange to serve. A transcript that is not a JSON
    object whose ``exchanges`` list holds a string ``response`` in each
    exchange raises ``TransportError``, which fails that sample only.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        if not os.path.isdir(self.directory):
            raise ConfigError(f"transcript directory not found: {self.directory}")
        self._local = threading.local()

    def complete(self, messages, *, sample_id=None, step=None) -> str:
        if sample_id is None:
            raise TransportError("replay needs a sample id")
        current = self._local
        if getattr(current, "sample_id", None) != sample_id:
            path = os.path.join(self.directory, f"{sample_id}.json")
            if not os.path.exists(path):
                raise TransportError(f"no transcript for sample {sample_id!r}")
            with open(path, encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                    raise TransportError(
                        f"transcript for {sample_id!r} is not JSON: {exc}") from None
            exchanges = data.get("exchanges") if isinstance(data, dict) else None
            if not isinstance(exchanges, list) or not all(
                    isinstance(e, dict) and isinstance(e.get("response"), str)
                    for e in exchanges):
                raise TransportError(
                    f"transcript for {sample_id!r} is not an object whose 'exchanges'"
                    " list holds a string 'response' in each exchange")
            current.sample_id, current.exchanges, current.cursor = sample_id, exchanges, 0
        if current.cursor >= len(current.exchanges):
            raise TransportError(f"transcript for {sample_id!r} is exhausted")
        exchange = current.exchanges[current.cursor]
        recorded = exchange.get("step")
        if recorded is not None and step is not None and recorded != step:
            raise TransportError(
                f"transcript for {sample_id!r} was recorded for step "
                f"{recorded}, not step {step}; replay with the original "
                f"pipeline mode")
        current.cursor += 1
        return exchange["response"]


class RecordingBackend:
    """Wraps another backend and stores every exchange, one file per sample.

    A sample runs wholly inside one ``run_pipeline`` call on one thread, so
    each thread holds the exchanges of its current sample only and rewrites
    that sample's file after each of them.
    """

    def __init__(self, inner, directory):
        self.inner = inner
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._local = threading.local()

    def pop_usage(self):
        inner_pop = getattr(self.inner, "pop_usage", None)
        return inner_pop() if inner_pop else None

    def complete(self, messages, *, sample_id=None, step=None) -> str:
        response = self.inner.complete(messages, sample_id=sample_id, step=step)
        if sample_id is not None:
            prompt = messages[-1]["content"] if messages else ""
            current = self._local
            if getattr(current, "sample_id", None) != sample_id:
                current.sample_id, current.exchanges = sample_id, []
            current.exchanges.append({
                "step": step,
                "prompt_digest": hashlib.sha256(prompt.encode()).hexdigest()[:12],
                "response": response,
            })
            write_text_atomic(os.path.join(self.directory, f"{sample_id}.json"),
                              json.dumps({"sample_id": sample_id,
                                          "exchanges": current.exchanges}, indent=1))
        return response


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` beside ``path`` and move it into place, so a crash
    never leaves a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class MockBackend:
    """In-process oracle: answers every prompt with the engine's own output.

    The reply is computed from the prompt text alone: ``read_prompt`` reads
    back the premise, matrices and lists its sections state, so the full
    render/transport/parse path is exercised without any network. Each
    prompt is decoded once: its sections are cut after the step instruction
    and each section's JSON is loaded once; a matrix goes row by row
    straight into bitmasks (``AdjMatrix.from_mapping``) and a relation list
    into checked index pairs (``RelationSet.from_dict``). Steps 1, 2 and 9
    of one sample share one parse of its premise.
    """

    def __init__(self):
        # ((sample_id, premise text), PremiseDoc) of the last parse; one tuple,
        # read and replaced whole, so a thread never pairs a key with another
        # sample's doc
        self._last_parse = (None, None)

    def complete(self, messages, *, sample_id=None, step=None) -> str:
        content = messages[-1]["content"] if messages else ""
        if is_few_shot_prompt(content):
            return step_replies(self._solve(content))
        if is_cot_prompt(content):
            final = self._solve(content)["step_9"]
            return ("Working through the structure of the premise step by step "
                    f"leads to the verdict {final['answer']}. " + step_reply(9, final))
        read = read_prompt(content)
        if read is None:
            raise TransportError("oracle backend cannot identify the prompt")
        step, ctx, prior = read
        if step not in (1, 2, 9):  # the steps whose prompt states the premise
            return _MOCK_LEADS[step] + step_reply(step, _engine_step(step, prior).to_mapping())
        doc = self._parse(sample_id, ctx.premise)
        if step == 1:
            entry = {"count": len(doc.variables), "names": list(doc.variables.names)}
            return "Here is the extraction.\n" + step_reply(1, entry)
        if step == 2:
            return "All of Statistical Relations:\n" + step_reply(2, doc.relations.as_dict())
        matrix = AdjMatrix.from_mapping(prior[8], vars=doc.variables)
        h = parse_hypothesis(ctx.hypothesis, doc.variables)
        verdict = evaluate_on_pdag(h, matrix, MODE_EXTENSION_QUANTIFIED).as_dict()
        return (f"The evaluation over the matrix gives {verdict['answer']}. "
                + step_reply(9, verdict))

    def _parse(self, sample_id, premise: str) -> PremiseDoc:
        key, doc = self._last_parse
        if key != (sample_id, premise):
            doc = parse_premise(premise)
            self._last_parse = ((sample_id, premise), doc)
        return doc

    def _solve(self, content: str) -> dict:
        """The solve report for the premise and hypothesis of a bundled prompt."""
        sections = dict(split_sections(content))
        doc = parse_premise(sections["Premise"])
        return solve_doc(doc, sections["Hypothesis"]).report()


_MOCK_LEADS = {3: "Initial adjacency matrix:\n", 4: "Updated adjacency matrix:\n",
               5: "Updated adjacency matrix:\n", 6: "Candidates:\n",
               7: "Filtered candidates:\n", 8: "Final adjacency matrix:\n"}


def _engine_step(step: int, prior: dict):
    """One engine call for a step from 3 to 8, on the prior outputs its prompt
    states. It calls the engine through this module's names, so a wrapper set
    on them sees every call."""
    if step == 3:
        table = VariableTable(prior[1]["names"])
        return initial_matrix(table, RelationSet.from_dict(table, prior[2]).declared_causes)
    if step == 7:
        # the prompt states no variable list: the table is every label it mentions
        rels = prior[2]
        table = VariableTable(sorted({
            *prior[6], *(x for pairs in prior[6].values() for p in pairs for x in p),
            *(x for p in rels["unconditional_independencies"] for x in p),
            *(x for e in rels["conditional_independencies"] for x in e["pair"] + e["given"])}))
        return filter_collider_pairs(ColliderCandidates.from_mapping(prior[6], table),
                                     RelationSet.from_dict(table, rels))
    matrix = AdjMatrix.from_mapping(prior[5 if step == 8 else step - 1])
    if step == 4:
        return apply_unconditional(matrix, RelationSet.from_dict(matrix.vars, prior[2]))
    if step == 5:
        return apply_conditional(matrix, RelationSet.from_dict(matrix.vars, prior[2]))
    if step == 6:
        return candidate_pairs(matrix)
    return orient_colliders(matrix, ColliderCandidates.from_mapping(prior[7], matrix.vars))


# ---------------------------------------------------------------------------
# step-output parsing


@dataclass(frozen=True)
class ParsedStep:
    value: object | None
    error: str | None = None


_QUOTE_KEYS_RE = re.compile(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_\- ]*?)(\s*:)")
_CELL_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*[:=]\s*([01])\b")
_BRACE_RE = re.compile(r"[{}]")
# the row forms a reply may use without braces around the whole object, each
# with the reader of one row's body: ``A: {B: 1, C = 0}`` and ``C: [A, B]``
_ROW_FORMS = (
    (re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*[:=]\s*\{([^{}]*)\}"),
     lambda body: {c: int(v) for c, v in _CELL_RE.findall(body)}),
    (re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*:\s*\[([^\[\]{}]*)\]"),
     lambda body: [x.strip().strip("\"'") for x in body.split(",") if x.strip()]),
)


def _json_blocks(text: str):
    depth = start = 0
    for brace in _BRACE_RE.finditer(text):
        i = brace.start()
        if brace[0] == "{":
            if depth == 0:
                start = i
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0:
                yield text[start:i + 1]


def _quote_keys(block: str) -> str:
    return _QUOTE_KEYS_RE.sub(r'\1"\2"\3', block)


# the readings of a block, in the order they are tried: as it stands, with
# its bare keys quoted, then with single quotes made double as well; each is
# built only once the one before it has failed to load
_READINGS = (str, _quote_keys, lambda block: _quote_keys(block.replace("'", '"')))


def _tolerant_loads(block: str):
    for reading in _READINGS:
        try:
            return json.loads(reading(block))
        except ValueError:  # json.JSONDecodeError is a ValueError
            pass
    return None


def _objects(text: str):
    """Every object a reply states, in the order a step looks for its value: each
    balanced ``{...}`` block that loads and the dicts nested in it, then the
    ``Name: {...}`` rows as one object and the ``Name: [...]`` rows as another."""
    for block in _json_blocks(text):
        pending = [_tolerant_loads(block)]
        while pending:
            obj = pending.pop()
            if isinstance(obj, dict):
                yield obj
                pending.extend(reversed(obj.values()))
    for row_re, read_row in _ROW_FORMS:
        rows = {name: read_row(body) for name, body in row_re.findall(text)}
        if rows:
            yield rows


def _count_and_names(obj) -> dict | None:
    count = names = None
    for key, value in obj.items():
        low = str(key).lower()
        if "number" in low and isinstance(value, (int, str)):
            with suppress(ValueError):
                count = int(value)
        if "name" in low and isinstance(value, (list, str)):
            names = ([str(v) for v in value] if isinstance(value, list)
                     else [v.strip() for v in value.split(",") if v.strip()])
    return {"count": count, "names": names} if count is not None and names else None


def _norm_pairs(value) -> list[list[str]] | None:
    if isinstance(value, list) and all(isinstance(e, list) and len(e) == 2
                                       and all(isinstance(x, str) for x in e)
                                       for e in value):
        return sorted(sorted(e) for e in value)
    return None


def _norm_cond_entries(value):
    if not isinstance(value, list):
        return None
    out = []
    for entry in value:
        if isinstance(entry, dict) and "pair" in entry:
            pair, given = entry["pair"], entry.get("given")
        elif _norm_pairs([entry]):  # a bare pair, its conditioning set unread
            pair, given = entry, None
        elif isinstance(entry, list) and len(entry) == 2 and all(
                isinstance(x, list) for x in entry):
            pair, given = entry
        else:
            return None
        if not (isinstance(pair, list) and len(pair) == 2):
            return None
        out.append({"pair": sorted(map(str, pair)),
                    "given": None if given is None else sorted(map(str, given))})
    return sorted(out, key=lambda e: (e["pair"], e["given"] or []))


def _relation_lists(obj) -> dict | None:
    deps = uncond = cond = declared = None
    for key, value in {str(k).lower(): v for k, v in obj.items()}.items():
        if "unconditional" in key:
            uncond = _norm_pairs(value)
        elif "conditional" in key:
            cond = _norm_cond_entries(value)
        elif "depend" in key and "indep" not in key:
            deps = _norm_pairs(value)
        elif "cause" in key:
            declared = value if isinstance(value, list) else None
    return None if deps is None and uncond is None else {
        "dependencies": deps or [],
        "unconditional_independencies": uncond or [],
        "conditional_independencies": cond or [],
        "declared_causes": [list(map(str, e)) for e in (declared or [])]}


def _matrix(obj) -> dict | None:
    """``obj`` itself when it is a square 0/1 matrix keyed by variable names."""
    keys = obj.keys()
    for row in obj.values():
        if not isinstance(row, dict) or row.keys() != keys:
            return None
        for v in row.values():
            if v not in (0, 1):
                return None
    return obj if keys else None


def _candidates(obj) -> dict | None:
    out = {}
    for key, value in obj.items():
        if not isinstance(value, list):
            return None
        if value and all(isinstance(x, str) for x in value):
            value = [value]  # one flat pair
        if any(not isinstance(e, list) or len(e) != 2 for e in value):
            return None
        out[str(key)] = sorted([sorted(map(str, e)) for e in value])
    return out


def _count_and_names_in_prose(text: str) -> dict | None:
    count_hit = re.search(r"number of random variables?\s*[:=]?\s*(\d+)", text, re.I)
    names_hit = re.search(
        r"names of (?:all )?(?:the )?random variables?\s*[:=]?\s*([A-Za-z0-9_,\s]+)",
        text, re.I)
    if count_hit and names_hit:
        names = [v.strip() for v in names_hit.group(1).split(",") if v.strip()]
        return {"count": int(count_hit.group(1)), "names": names}
    return None


_FINAL_ANSWER_RES = (
    re.compile(r"final answer\s*[:\-]?\s*\"?(yes|no|undetermined)\"?", re.I),
    re.compile(r"answer is\s*\"?(yes|no|undetermined)\"?", re.I),
    re.compile(r"\"(yes|no|undetermined)\"", re.I),
    re.compile(r"\b(yes|no|undetermined)\b", re.I),
)


def _final_answer(text: str) -> dict | None:
    for pattern in _FINAL_ANSWER_RES:
        hits = pattern.findall(text)
        if hits:
            return {"answer": hits[-1].capitalize()}
    return None


# step -> (reader of the value one object states, reader of the value the
# reply states in prose, message when neither finds it); a reader returns
# None when it finds nothing, and either may be absent
_STEP_READERS = {
    1: (_count_and_names, _count_and_names_in_prose, "no variable count/names found"),
    2: (_relation_lists, None, "no relation lists found"),
    **dict.fromkeys((3, 4, 5, 8), (_matrix, None, "no adjacency matrix found")),
    **dict.fromkeys((6, 7), (_candidates, None, "no candidate map found")),
    9: (None, _final_answer, "no final answer found"),
}


def parse_step_output(step: int, text: str) -> ParsedStep:
    """Pull the structured value for one step out of possibly chatty text.

    The reply is read once: each balanced ``{...}`` block is loaded as JSON
    as it stands, and only a block that fails to load is repaired, first by
    quoting its bare keys, then by also making single quotes double. The
    step's shape reader takes the first object that fits, before the
    brace-less row forms and the prose readers are tried.

    Never raises; a missing or malformed object comes back as a parse
    failure on the result.
    """
    if not isinstance(text, str) or not text.strip():
        return ParsedStep(None, "empty output")
    shape, prose, missing = _STEP_READERS.get(step) or (None, None, f"unknown step {step}")
    try:
        for obj in _objects(text) if shape else ():
            value = shape(obj)
            if value is not None:
                return ParsedStep(value)
        value = prose(text) if prose else None
    except Exception as exc:  # totality: arbitrary text must never blow up
        return ParsedStep(None, f"parse error: {exc}")
    return ParsedStep(value) if value is not None else ParsedStep(None, missing)


# ---------------------------------------------------------------------------
# evaluation records


@dataclass(frozen=True)
class StepResult:
    raw: str | None
    parsed: object | None
    match: bool
    error: str | None = None

    def as_dict(self) -> dict:
        return _field_dict(self)


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of one sample run: per-step results plus the final verdict."""

    sample_id: str
    n_vars: int
    label: str
    kind: str
    mode: str
    steps: dict[str, StepResult]
    verdict: str | None
    correct: bool
    elapsed_ms: float
    parse_failures: int
    error: str | None = None
    token_counts: dict | None = None

    def as_dict(self) -> dict:
        return {**_field_dict(self),
                "steps": {k: v.as_dict() for k, v in self.steps.items()}}

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        """Inverse of :meth:`as_dict`."""
        steps = {k: StepResult(**v) for k, v in data["steps"].items()}
        return cls(**{**data, "steps": steps})


def _reference_steps(sample) -> dict:
    """The engine's solve report for a sample: what every step is graded
    against. It reads the relations and claim the sample already holds, and
    step 7 keeps the collider pairs that some stated independence certifies,
    as the step-7 prompt tells the model to."""
    doc = PremiseDoc(sample.premise, sample.relations.vars, sample.relations)
    return solve_doc(doc, sample.hypothesis).report()


def _match_step(step: int, parsed, ref) -> bool:
    """Whether a parsed step value says what the reference says. Steps 2 to 8
    read both sides through the step's shape reader, so the one place that
    decides what a reply may look like also decides what it means."""
    if parsed is None:
        return False
    if step == 1:
        return parsed["count"] == ref["count"] and set(parsed["names"]) == set(ref["names"])
    if step == 9:
        return binary_answer(parsed["answer"]) == binary_answer(ref["answer"])
    if parsed == ref:  # equal values read alike, so only unequal ones are read
        return True
    shape = _STEP_READERS[step][0]
    if step != 2:
        return shape(parsed) == shape(ref)
    got, want = shape(parsed), shape(ref)
    # causes are (cause, effect) pairs in any list order, and a conditional
    # independence read without its conditioning set matches any set
    got_cond, want_cond = (x["conditional_independencies"] for x in (got, want))
    return (got["dependencies"] == want["dependencies"]
            and got["unconditional_independencies"] == want["unconditional_independencies"]
            and sorted(got["declared_causes"]) == sorted(want["declared_causes"])
            and len(got_cond) == len(want_cond)
            and all(g["pair"] == w["pair"] and g["given"] in (None, w["given"])
                    for g, w in zip(got_cond, want_cond)))


_STEP_SECTION_RE = re.compile(r"^\s*(?:\*+\s*)?Step\s+(\d+)\s*:", re.M)


def run_pipeline(sample, backend, mode: str = MODE_STEP_BY_STEP) -> EvalRecord:
    """Evaluate one sample against a backend and grade every step.

    Backend failures abort the sample, never the batch: the record keeps the
    partial trace and an error note. So does a premise the engine cannot
    solve, or one over more variables than it enumerates: its record has no
    steps and a ``reference:`` error.
    """
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown pipeline mode {mode!r}; pick one of {EVAL_MODES}")
    ctx = PromptContext(premise=sample.premise, hypothesis=sample.hypothesis_text)
    started = time.monotonic()
    steps: dict[str, StepResult] = {}
    error = None
    usage_tally: dict[str, int] = {}

    def ask(prompt: str, step: int) -> str:
        raw = backend.complete([{"role": "user", "content": prompt}],
                               sample_id=sample.id, step=step)
        pop = getattr(backend, "pop_usage", None)
        reported = pop() if pop else None
        if isinstance(reported, dict):
            for key, value in reported.items():
                if isinstance(value, int):
                    usage_tally[key] = usage_tally.get(key, 0) + value
        return raw

    def graded(step: int, raw: str):
        parsed = parse_step_output(step, raw)
        match = _match_step(step, parsed.value, refs[f"step_{step}"])
        steps[f"step_{step}"] = StepResult(raw, parsed.value, match, parsed.error)
        return parsed.value

    def finish():
        final = steps.get("step_9")
        verdict = final.parsed.get("answer") if final and final.parsed else None
        parse_failures = sum(1 for s in steps.values() if s.raw is not None and not s.match
                             and s.parsed is None)
        correct = verdict is not None and binary_answer(verdict) == sample.label
        return EvalRecord(sample.id, sample.n_vars, sample.label, sample.kind,
                          mode, steps, verdict, correct,
                          (time.monotonic() - started) * 1000.0,
                          parse_failures, error, usage_tally or None)

    try:
        refs = _reference_steps(sample)
    except (BoundsError, ConsistencyError, PdagError) as exc:
        error = f"{REFERENCE_ERROR} {exc}"
        return finish()

    if mode == MODE_STEP_BY_STEP:
        prior: dict[int, object] = {}
        shown: dict = {}  # the JSON text of each prior output, written once
        for step in range(1, 10):
            try:
                prompt = render_prompt(step, ctx, prior, shown)
            except Exception as exc:
                error = f"step {step}: {exc}"
                break
            try:
                raw = ask(prompt, step)
            except (TransportError, BackendError) as exc:
                error = f"step {step}: {exc}"
                break
            prior[step] = graded(step, raw)
            if prior[step] is None and step < 9:
                error = f"step {step}: unparseable output ends the chain"
                break
        return finish()

    try:
        raw = ask(render_few_shot(ctx) if mode == MODE_FEW_SHOT else render_cot(ctx), 0)
    except (TransportError, BackendError) as exc:
        error = str(exc)
        return finish()
    if mode == MODE_BASELINE_COT:
        graded(9, raw)
        return finish()
    sections = {int(k): chunk for k, chunk in split_sections(raw, _STEP_SECTION_RE)}
    sections.setdefault(9, raw)  # final answer may sit outside an explicit section
    for step in range(1, 10):
        if step in sections:
            graded(step, sections[step])
        else:
            steps[f"step_{step}"] = StepResult(None, None, False, "section missing")
    return finish()


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    """Confusion counts with the derived ratios.

    Ratios with a zero denominator come out as 0.0 and are flagged
    degenerate rather than raising.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def degenerate_precision(self) -> bool:
        return (self.tp + self.fp) == 0

    @property
    def degenerate_recall(self) -> bool:
        return (self.tp + self.fn) == 0

    def as_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "accuracy": round(self.accuracy, 6),
            "degenerate_precision": self.degenerate_precision,
            "degenerate_recall": self.degenerate_recall,
        }


def _confusion_cell(r: EvalRecord) -> int:
    """Where a record falls in ``Metrics``' field order: tp, fp, tn, fn."""
    predicted = binary_answer(r.verdict) if r.verdict is not None else None
    if predicted is None:
        # unanswered counts against the run, never for it
        return 3 if r.label == YES else 1
    if predicted == YES:
        return 0 if r.label == YES else 1
    return 2 if r.label == NO else 3


STEP_TO_SUBTASK = {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4, 9: 5}


@dataclass(frozen=True)
class ScoreReport:
    overall: Metrics
    by_n_vars: dict[int, Metrics]
    step_accuracy: dict[str, float]
    subtask_accuracy: dict[int, float]
    step_accuracy_by_n_vars: dict[int, dict[str, float]]
    parse_failure_rate: float
    n_records: int
    reference_errors: int

    def as_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "reference_errors": self.reference_errors,
            "overall": self.overall.as_dict(),
            "by_n_vars": {str(k): v.as_dict() for k, v in sorted(self.by_n_vars.items())},
            "step_accuracy": self.step_accuracy,
            "subtask_accuracy": {str(k): v for k, v in sorted(self.subtask_accuracy.items())},
            "step_accuracy_by_n_vars": {
                str(k): v for k, v in sorted(self.step_accuracy_by_n_vars.items())},
            "parse_failure_rate": self.parse_failure_rate,
        }


# the step keys of each subtask, in subtask order
_SUBTASK_STEPS = {t: tuple(f"step_{s}" for s, u in STEP_TO_SUBTASK.items() if u == t)
                  for t in sorted(set(STEP_TO_SUBTASK.values()))}


class _Tally:
    """Running counts over one group of graded records."""

    def __init__(self):
        self.records = 0
        self.confusion = [0, 0, 0, 0]
        self.matches: dict[str, int] = {}  # every step key a record holds

    def add(self, r: EvalRecord) -> None:
        self.records += 1
        self.confusion[_confusion_cell(r)] += 1
        for key, step in r.steps.items():
            self.matches[key] = self.matches.get(key, 0) + (1 if step.match else 0)

    def step_table(self) -> dict[str, float]:
        keys = sorted(self.matches, key=lambda s: int(s.split("_")[1]))
        return {k: self.matches[k] / self.records for k in keys}


def score(records: Iterable[EvalRecord]) -> ScoreReport:
    """Aggregate binary metrics plus per-step and per-subtask accuracy.

    The parse-failure rate counts records with an unparseable step output;
    a sample that failed in transport has none and is not counted. A record
    whose error starts with ``reference:`` holds a sample the engine could
    not solve, so nothing in it was graded: it is counted as a reference
    error and left out of every other figure.

    ``records`` is read once, keeping running counts only, so a run can be
    scored while it writes its records.
    """
    n_records = failures = 0
    overall, by_n = _Tally(), {}
    # per subtask, how many graded records matched each set of its steps
    matched_sets: dict[int, dict[frozenset, int]] = {t: {} for t in _SUBTASK_STEPS}
    for r in records:
        n_records += 1
        if (r.error or "").startswith(REFERENCE_ERROR):
            continue
        overall.add(r)
        by_n.setdefault(r.n_vars, _Tally()).add(r)
        failures += 1 if r.parse_failures else 0
        for subtask, members in _SUBTASK_STEPS.items():
            matched = frozenset(k for k in members if r.steps.get(k) and r.steps[k].match)
            counts = matched_sets[subtask]
            counts[matched] = counts.get(matched, 0) + 1
    if not n_records:
        raise UsageError("no evaluation records to score")
    graded = overall.records
    subtasks: dict[int, float] = {}
    for subtask, members in _SUBTASK_STEPS.items():
        present = [k for k in members if k in overall.matches]
        if present:
            hits = sum(count for matched, count in matched_sets[subtask].items()
                       if matched.issuperset(present))
            subtasks[subtask] = hits / graded
    return ScoreReport(
        overall=Metrics(*overall.confusion),
        by_n_vars={n: Metrics(*by_n[n].confusion) for n in sorted(by_n)},
        step_accuracy=overall.step_table(),
        subtask_accuracy=subtasks,
        step_accuracy_by_n_vars={n: by_n[n].step_table() for n in sorted(by_n)},
        parse_failure_rate=failures / graded if graded else 0.0,
        n_records=n_records,
        reference_errors=n_records - graded,
    )
