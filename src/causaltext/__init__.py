"""Symbolic causal reasoning over verbalized correlation statements.

The package recovers a partially directed causal structure from premises
stated as correlations and (conditional) independencies, labels causal
claims against full Markov equivalence classes, generates benchmark
datasets from the enumerated graph universe, and evaluates chat backends
against those datasets with exact per-step grading.
"""

from .dataset import (Sample, balanced_generate, generate, read_samples,
                      write_samples)
from .engine import (ColliderCandidates, EngineTrace,
                     apply_conditional, apply_unconditional, candidate_pairs,
                     filter_collider_pairs, initial_matrix, orient_colliders,
                     propagate_orientations, run_c2p)
from .errors import (BackendError, BoundsError, CapacityError, CausaltextError,
                     ConfigError, ConsistencyError, CycleError, PdagError,
                     PremiseParseError, ResourceError, TemplateError,
                     TransportError, UnknownVariableError, UsageError)
from .graphs import Dag, Mec, dag_count, dag_extensions
from .harness import (BackendConfig, EvalRecord, Metrics, MockBackend,
                      ScoreReport, parse_step_output, run_pipeline, score)
from .hypotheses import (Hypothesis, HypothesisKind, Verdict, binary_answer,
                         evaluate_on_pdag, holds_in_dag, label_against_mec)
from .matrix import AdjMatrix
from .parsing import (PremiseDoc, parse_hypothesis, parse_premise,
                      render_hypothesis, render_premise, THEMES)
from .pipeline import SolveResult, solve_doc, solve_text
from .prompts import PromptContext, render_prompt
from .relations import RelationSet, relations_from_dag
from .variables import VariableTable

__version__ = "0.1.0"

__all__ = [
    "AdjMatrix", "BackendConfig", "BackendError", "BoundsError",
    "CapacityError", "CausaltextError", "ColliderCandidates", "ConfigError",
    "ConsistencyError", "CycleError", "Dag", "EngineTrace",
    "EvalRecord", "Hypothesis", "HypothesisKind", "Mec", "Metrics",
    "MockBackend", "PdagError", "PremiseDoc", "PremiseParseError",
    "PromptContext", "RelationSet", "ResourceError", "Sample", "ScoreReport",
    "SolveResult", "TemplateError", "THEMES",
    "TransportError", "UnknownVariableError", "UsageError", "VariableTable",
    "Verdict", "apply_conditional",
    "apply_unconditional", "balanced_generate", "binary_answer",
    "candidate_pairs", "dag_count", "dag_extensions",
    "evaluate_on_pdag", "filter_collider_pairs", "generate",
    "holds_in_dag", "initial_matrix", "label_against_mec",
    "orient_colliders",
    "parse_hypothesis", "parse_premise", "parse_step_output",
    "propagate_orientations", "read_samples", "relations_from_dag",
    "render_hypothesis", "render_premise", "render_prompt",
    "run_c2p", "run_pipeline", "score", "solve_doc", "solve_text",
    "write_samples",
]
