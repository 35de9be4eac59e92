"""Prompt assets for driving a chat backend through the nine-step pipeline.

The step instructions are fixed texts; rendering appends the slot sections a
step needs (premise, matrices, independence lists, candidates, hypothesis)
in a stable layout. The few-shot variant bundles ten fully worked examples
ahead of the new premise. Slot sections use one canonical JSON shape, and
``read_prompt`` reads a rendered step prompt back into its step, context and
prior outputs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import TemplateError
from .hypotheses import binary_answer

STEP_INSTRUCTIONS: dict[int, str] = {
    1: ("Please give the number of random variables in the given premise and "
        "write the names of all random variables."),
    2: ('Extract every statistical relation among the random variables. If 2 '
        'random variables, for instance, R1 and R2, are independent, write it in '
        'this form: "R1 is independent of R2". If there exist 2 random variables, '
        'for instance, R1 and R2, that are conditionally independent given a third '
        'random variable, for instance, R3, write it in this form: "R1 and R2 are '
        'independent given R3". If two random variables, for instance, R1 and R2, '
        'are specifically mentioned to have a cause and effect relation, write it '
        'in this form: "R1 is the cause of R2". Also list every pair that is '
        'mentioned as correlated.'),
    3: ('In this phase, each random variable is treated as a node within a fully '
        'connected undirected graph, so every off-diagonal element of the '
        'adjacency matrix starts at 1 and the diagonal at 0. Then, for each pair, '
        'for instance, R1 and R2, presented in the form: "R1 is the cause of R2", '
        'set the element in ["R2", "R1"] in the adjacency matrix to 0.'),
    4: ('Update the adjacency matrix based on the specified unconditional '
        'independencies between random variables. Each pair of variables that is '
        'declared independent should have their corresponding value set to zero '
        'in the adjacency matrix. The initial adjacency matrix and the list of '
        'independencies are provided below. Please ensure all independencies are '
        'correctly reflected in the updated matrix. Instructions: - For each pair '
        'of variables listed as independent, set their corresponding entries in '
        'the adjacency matrix to 0. - Do not change any other entries.'),
    5: ('Update the adjacency matrix based on the specified conditional '
        'independencies between random variables. Each pair of variables that is '
        'declared conditionally independent should have their corresponding value '
        'set to zero in the adjacency matrix. The initial adjacency matrix and '
        'the list of independencies are provided below. Please ensure all '
        'independencies are correctly reflected in the updated matrix. '
        'Instructions: - For each pair of variables listed as independent given '
        'other variable(s), set their corresponding entries in the adjacency '
        'matrix to 0. - Do not change any other entries.'),
    6: ('Task: Given an adjacency matrix, follow these steps: Step 1: Identify '
        'all rows (key values) in the matrix where there are two or more than two '
        'columns with the value "1" in them. For each identified row, find all '
        'pairs of different columns where the values are "1". Ensure to exclude '
        'rows that do not contain any pairs from the results. Step 2: Display '
        'these pairs, "Candidates", where each row name is a key and the value is '
        'a list of column-name pairs identified in Step 1.'),
    7: ('Given the "Candidates" and the lists of independencies, follow these '
        'instructions step by step: Instruction: For each key in "Candidates", '
        'keep a pair only when the two variables of the pair are stated '
        'independent by some listed independence statement whose conditioning set '
        'does not contain the key variable; delete every other pair. Remove keys '
        'that end up with no pairs. Output the updated "Candidates" dictionary '
        'and nothing else.'),
    8: ('Given the adjacency matrix and the "Candidates" list, for each key "R" '
        'with a pair ("C1", "C2") in "Candidates", modify the adjacency matrix as '
        'follows: 1- Set the value in the "R" row and "C1" column to 0: ("R", '
        '"C1") = 0. 2- Set the value in the "R" row and "C2" column to 0: ("R", '
        '"C2") = 0. Ensure that only the specified modifications are made, and '
        'all other entries in the adjacency matrix remain unchanged.'),
    9: ('To extract and understand causal relations in the adjacency matrix, '
        'apply these rules for variables "R" and "C" listed in the matrix: 1- If '
        'the matrix entry at ["R", "C"] = 1 and ["C", "R"] = 1, then the causal '
        'direction between "R" and "C" is undetermined. 2- If the matrix entry at '
        '["R", "C"] = 1 and ["C", "R"] = 0, then "R" is a direct cause of "C", or '
        '"C" is a direct effect of "R". 3- If the matrix entry at ["R", "C"] = 0 '
        'and ["C", "R"] = 1, then "C" is a direct cause of "R", or "R" is a '
        'direct effect of "C". 4- Test each variable "R" in the matrix: "R" is a '
        'collider (common effect) if the matrix entries at ["R", "C1"] = 0, '
        '["C1", "R"] = 1, ["R", "C2"] = 0, and ["C2", "R"] = 1. Evaluate the '
        'hypothesis against the adjacency matrix with these rules. Perform it '
        'step by step and provide the final "Yes" or "No" answer in the form '
        'Final Answer: "Yes" or Final Answer: "No".'),
}

FEW_SHOT_HEADER = (
    "You will reconstruct causal structure from a verbalized premise by "
    "producing nine step outputs: the variable count and names, the list of "
    "statistical relations, the initial adjacency matrix, the matrix after "
    "removing unconditional and then conditional independencies, the candidate "
    "collider pairs, the filtered pairs, the matrix after orienting colliders, "
    "and finally the answer to the hypothesis. Follow the exact output format "
    "of the worked examples below and finish with a line of the form "
    'Final Answer: "Yes" or Final Answer: "No".')


COT_INSTRUCTION = (
    "Consider the premise below and decide whether the hypothesis follows from "
    "it. Think step by step, then finish with a line of the form "
    'Final Answer: "Yes" or Final Answer: "No".')


_SECTION_ORDER = (
    "Premise", "Random variables", "Cause-and-effect relations",
    "Adjacency matrix", "Unconditional independencies",
    "Conditional independencies", "Candidates", "Hypothesis",
)

# slots each step needs, as (section name, prior step, key): a slot without a
# prior step reads the context attribute ``key``; otherwise it is the prior
# step's output, or its entry ``key`` when a key is given
_STEP_SLOTS: dict[int, tuple[tuple[str, int | None, str | None], ...]] = {
    1: (("Premise", None, "premise"),),
    2: (("Premise", None, "premise"), ("Random variables", 1, "names")),
    3: (("Random variables", 1, "names"),
        ("Cause-and-effect relations", 2, "declared_causes")),
    4: (("Adjacency matrix", 3, None),
        ("Unconditional independencies", 2, "unconditional_independencies")),
    5: (("Adjacency matrix", 4, None),
        ("Conditional independencies", 2, "conditional_independencies")),
    6: (("Adjacency matrix", 5, None),),
    7: (("Candidates", 6, None),
        ("Unconditional independencies", 2, "unconditional_independencies"),
        ("Conditional independencies", 2, "conditional_independencies")),
    8: (("Adjacency matrix", 5, None), ("Candidates", 7, None)),
    9: (("Premise", None, "premise"), ("Adjacency matrix", 8, None),
        ("Hypothesis", None, "hypothesis")),
}

# every step instruction differs from the others within its first
# _OPENING characters, so they name the only step a prompt can start with
_OPENING = 60
_STEP_BY_OPENING = {instruction[:_OPENING]: step
                    for step, instruction in STEP_INSTRUCTIONS.items()}
_FEW_SHOT_OPENING = FEW_SHOT_HEADER[:_OPENING]
_COT_OPENING = COT_INSTRUCTION[:_OPENING]

_SECTION_RE = re.compile(
    r"^(" + "|".join(re.escape(s) for s in _SECTION_ORDER) + r"):", re.M)


@dataclass(frozen=True)
class PromptContext:
    premise: str | None = None
    hypothesis: str | None = None


def render_prompt(step: int, ctx: PromptContext, prior: dict[int, object],
                  shown: dict | None = None) -> str:
    """Deterministic prompt text for one step, slots filled from prior outputs.

    ``shown``, when given, keeps the JSON text of each prior output a prompt
    states, so the later prompts of one sample write each output once; it
    must be dropped whenever ``prior`` changes an output it has shown.
    """
    if step not in STEP_INSTRUCTIONS:
        raise TemplateError(f"unknown step {step}")
    parts = [STEP_INSTRUCTIONS[step]]
    for section, prior_step, key in _STEP_SLOTS[step]:
        if prior_step is None:
            value = getattr(ctx, key)
            if not value:
                raise TemplateError(f"no {key} available")
        elif shown is not None and (prior_step, key) in shown:
            value = shown[prior_step, key]
        else:
            output = prior.get(prior_step)
            if output is None:
                raise TemplateError(f"step {step} needs the step {prior_step} output")
            value = json.dumps(output if key is None else output.get(key, []))
            if shown is not None:
                shown[prior_step, key] = value
        parts.append(f"{section}:\n{value}")
    return "\n\n".join(parts)


def split_sections(text: str, marker: re.Pattern = _SECTION_RE,
                   pos: int = 0) -> Iterator[tuple[str, str]]:
    """Cut ``text`` at each match of ``marker`` from ``pos`` on: the match's
    first group, then the stripped text up to the next match."""
    hits = list(marker.finditer(text, pos))
    stops = [hit.start() for hit in hits[1:]] + [len(text)]
    for hit, stop in zip(hits, stops):
        yield hit.group(1), text[hit.end():stop].strip()


def read_prompt(text: str) -> tuple[int, PromptContext, dict[int, object]] | None:
    """Inverse of :func:`render_prompt`: the step whose instruction begins
    ``text``, its context and the prior outputs its sections state, or None
    for text that no step renders. A prior output the prompt shows only in
    part holds just the entries it shows."""
    step = _STEP_BY_OPENING.get(text[:_OPENING])
    if step is None or not text.startswith(STEP_INSTRUCTIONS[step]):
        return None
    # the sections follow the instruction, which holds no section marker
    sections = dict(split_sections(text, pos=len(STEP_INSTRUCTIONS[step])))
    fields: dict[str, str] = {}
    prior: dict[int, object] = {}
    try:
        for section, prior_step, key in _STEP_SLOTS[step]:
            if prior_step is None:
                fields[key] = sections[section]
            elif key is None:
                prior[prior_step] = json.loads(sections[section])
            else:
                prior.setdefault(prior_step, {})[key] = json.loads(sections[section])
    except (KeyError, ValueError):  # json.JSONDecodeError is a ValueError
        return None
    return step, PromptContext(**fields), prior


def is_few_shot_prompt(text: str) -> bool:
    return text.startswith(_FEW_SHOT_OPENING)


def is_cot_prompt(text: str) -> bool:
    return text.startswith(_COT_OPENING)


# ---------------------------------------------------------------------------
# step replies and the few-shot bundle


def step_reply(step: int, entry) -> str:
    """The reply text for one step, from that step's entry of a solve report."""
    if step == 1:
        return json.dumps({"number of random variables": entry["count"],
                           "names of random variables": entry["names"]})
    if step == 2:
        return json.dumps({
            "Dependencies": entry["dependencies"],
            "Unconditional Independencies": entry["unconditional_independencies"],
            "Conditional Independencies": entry["conditional_independencies"],
            "Cause-and-Effect Relations": entry["declared_causes"],
        })
    if step == 9:
        return f'Final Answer: "{binary_answer(entry.get("answer"))}"'
    return json.dumps(entry)


def step_replies(report: dict) -> str:
    """The nine step replies of a solve report, in transcript form."""
    return "\n".join(f"Step {k}:\n{step_reply(k, report[f'step_{k}'])}"
                     for k in range(1, 10))


def _bundle_examples() -> list[tuple[str, str, dict]]:
    # deferred imports: the bundle is built from the engine's own solutions
    from .dataset import generate
    from .fixtures import FIVE_VAR_HYPOTHESIS, five_var_doc
    from .parsing import parse_premise
    from .pipeline import solve_doc

    examples: list[tuple[str, str, dict]] = []
    res = solve_doc(five_var_doc(), FIVE_VAR_HYPOTHESIS)
    examples.append((five_var_doc().raw_text, FIVE_VAR_HYPOTHESIS, res.report()))
    seen: set[tuple[str, str]] = set()
    for n in (3, 4):
        for sample in generate(n):
            combo = (sample.kind, sample.label)
            if combo in seen:
                continue
            seen.add(combo)
            res = solve_doc(parse_premise(sample.premise), sample.hypothesis_text)
            examples.append((sample.premise, sample.hypothesis_text, res.report()))
            if len(examples) == 10:
                return examples
    return examples


@lru_cache(maxsize=1)
def few_shot_bundle() -> str:
    """Ten worked examples, each premise plus its nine step outputs."""
    blocks = [FEW_SHOT_HEADER]
    for k, (premise, hypothesis, report) in enumerate(_bundle_examples(), start=1):
        blocks.append(f"Example {k}:\nPremise: {premise}\nHypothesis: {hypothesis}\n"
                      + step_replies(report))
    return "\n\n".join(blocks)


def render_few_shot(ctx: PromptContext) -> str:
    if not ctx.premise or not ctx.hypothesis:
        raise TemplateError("few-shot prompts need both a premise and a hypothesis")
    return (few_shot_bundle()
            + "\n\nNow solve this case, producing Step 1 through Step 9 in the"
            + f" same format:\nPremise: {ctx.premise}\n"
            + f"Hypothesis: {ctx.hypothesis}")


def render_cot(ctx: PromptContext) -> str:
    if not ctx.premise or not ctx.hypothesis:
        raise TemplateError("chain-of-thought prompts need both a premise and a hypothesis")
    return (COT_INSTRUCTION + f"\n\nPremise: {ctx.premise}\n\nHypothesis: {ctx.hypothesis}")
