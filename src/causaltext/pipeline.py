"""End-to-end solving: premise text in, per-step trace and verdict out."""

from __future__ import annotations

from dataclasses import dataclass

from .engine import EngineTrace, run_c2p
from .hypotheses import (MODE_EXTENSION_QUANTIFIED, Hypothesis, Verdict,
                         evaluate_on_pdag)
from .parsing import PremiseDoc, parse_hypothesis, parse_premise


@dataclass(frozen=True)
class SolveResult:
    """Parsed inputs, full engine trace, and the final three-valued answer."""

    doc: PremiseDoc
    hypothesis: Hypothesis | None
    trace: EngineTrace
    verdict: Verdict | None

    def report(self) -> dict:
        """Step-keyed audit record covering the whole run (steps 1 to 9)."""
        table = self.doc.variables
        out = {
            "step_1": {"count": len(table), "names": list(table.names)},
            "step_2": self.doc.relations.as_dict(),
        }
        trace_dict = self.trace.as_dict()
        for key in ("step_3", "step_4", "step_5", "step_6", "step_7", "step_8"):
            out[key] = trace_dict[key]
        final = {"matrix": trace_dict["step_9"]}
        if self.hypothesis is not None:
            final["hypothesis"] = {
                "kind": self.hypothesis.kind.value,
                "subject": self.hypothesis.subject,
                "object": self.hypothesis.object,
            }
        if self.verdict is not None:
            final.update(self.verdict.as_dict())
        out["step_9"] = final
        return out


def solve_doc(doc: PremiseDoc, hypothesis: Hypothesis | str | None = None,
              propagate: bool = False,
              eval_mode: str = MODE_EXTENSION_QUANTIFIED) -> SolveResult:
    """Run the matrix pipeline on a parsed premise and answer a claim."""
    h = hypothesis
    if isinstance(h, str):
        h = parse_hypothesis(h, doc.variables)
    trace = run_c2p(doc.relations, propagate)
    verdict = None
    if h is not None:
        verdict = evaluate_on_pdag(h, trace.final, eval_mode)
    return SolveResult(doc, h, trace, verdict)


def solve_text(premise: str, hypothesis: str | None = None,
               propagate: bool = False,
               eval_mode: str = MODE_EXTENSION_QUANTIFIED) -> SolveResult:
    """Parse premise text, then solve it with :func:`solve_doc`: the entry
    point for library code, the demos and the benchmark, which hold text."""
    return solve_doc(parse_premise(premise), hypothesis, propagate, eval_mode)
