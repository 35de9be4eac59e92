"""Evaluating a backend: prompts out, parsed steps back, exact grading.

The in-process oracle backend answers every prompt with the engine's own
output, so this demo runs the complete render/transport/parse/score loop
with zero network access.

Run with:  python demos/04_mock_evaluation.py
"""

import json

from causaltext import MockBackend, balanced_generate, run_pipeline, score
from causaltext.harness import (MODE_BASELINE_COT, MODE_FEW_SHOT,
                                MODE_STEP_BY_STEP)
from causaltext.prompts import PromptContext, render_prompt

samples = balanced_generate([3], per_cell=6, seed=8)
backend = MockBackend()

# What the first prompt of a chain looks like.
ctx = PromptContext(premise=samples[0].premise,
                    hypothesis=samples[0].hypothesis_text)
print("=== step 1 prompt")
print(render_prompt(1, ctx, {}))

# One sample through the nine-step chain: every parsed output is compared
# cell-exactly against the engine's own trace.
record = run_pipeline(samples[0], backend, MODE_STEP_BY_STEP)
print("\n=== one chained run")
for key, step in record.steps.items():
    print(f"  {key}: match={step.match}")
print("verdict:", record.verdict, " correct:", record.correct)

# Whole-batch scoring in each prompting mode. The oracle closes the loop,
# so every metric lands at 1.0; a real backend slots in as
# HttpBackend(BackendConfig(url)), and transcripts can be recorded and
# replayed for audits.
for mode in (MODE_STEP_BY_STEP, MODE_FEW_SHOT, MODE_BASELINE_COT):
    records = [run_pipeline(s, backend, mode) for s in samples]
    report = score(records)
    m = report.overall
    print(f"\n=== {mode}")
    print(f"accuracy {m.accuracy:.3f}  f1 {m.f1:.3f}  "
          f"precision {m.precision:.3f}  recall {m.recall:.3f}")
    if report.step_accuracy:
        print("per-step accuracy:", json.dumps(report.step_accuracy))
