"""Boundary spans recorded from outside the package.

Each row of ``SPANS`` names a module, the attribute a caller looks a function
up through, and the span the calls are booked to. A function imported by
name into another module is wrapped in that module (``dataset.relations_from_dag``,
not ``relations.relations_from_dag``), so one span may need several rows.
A row whose module or attribute no longer exists is reported as absent and
the run goes on.

Self time is a span's duration minus the time of the spans nested in it, so
the self times of all spans partition the time they cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

SPANS = (
    # generation
    ("causaltext.graphs", "mec_index", "graphs.mec_index"),
    ("causaltext.dataset", "mec_index", "graphs.mec_index"),
    ("causaltext.dataset", "relations_from_dag", "relations.relations_from_dag"),
    ("causaltext.dataset", "label_against_mec", "hypotheses.label_against_mec"),
    ("causaltext.dataset", "render_premise", "parsing.render_premise"),
    ("causaltext.dataset", "render_hypothesis", "parsing.render_hypothesis"),
    ("causaltext.cli", "write_samples", "dataset.write_samples"),
    # parsing and the engine
    ("causaltext.pipeline", "parse_premise", "parsing.parse_premise"),
    ("causaltext.harness", "parse_premise", "parsing.parse_premise"),
    ("causaltext.dataset", "parse_premise", "parsing.parse_premise"),
    ("causaltext.pipeline", "parse_hypothesis", "parsing.parse_hypothesis"),
    ("causaltext.harness", "parse_hypothesis", "parsing.parse_hypothesis"),
    ("causaltext.dataset", "parse_hypothesis", "parsing.parse_hypothesis"),
    ("causaltext.pipeline", "run_c2p", "engine.run_c2p"),
    ("causaltext.harness", "run_c2p", "engine.run_c2p"),
    ("causaltext.engine", "initial_matrix", "engine.initial_matrix"),
    ("causaltext.engine", "apply_unconditional", "engine.apply_unconditional"),
    ("causaltext.engine", "apply_conditional", "engine.apply_conditional"),
    ("causaltext.engine", "candidate_pairs", "engine.candidate_pairs"),
    ("causaltext.engine", "filter_collider_pairs", "engine.filter_collider_pairs"),
    ("causaltext.engine", "orient_colliders", "engine.orient_colliders"),
    ("causaltext.harness", "initial_matrix", "engine.initial_matrix"),
    ("causaltext.harness", "apply_unconditional", "engine.apply_unconditional"),
    ("causaltext.harness", "apply_conditional", "engine.apply_conditional"),
    ("causaltext.harness", "candidate_pairs", "engine.candidate_pairs"),
    ("causaltext.harness", "filter_collider_pairs", "engine.filter_collider_pairs"),
    ("causaltext.harness", "orient_colliders", "engine.orient_colliders"),
    # verdict
    ("causaltext.pipeline", "evaluate_on_pdag", "hypotheses.evaluate_on_pdag"),
    ("causaltext.harness", "evaluate_on_pdag", "hypotheses.evaluate_on_pdag"),
    ("causaltext.hypotheses", "dag_extensions", "graphs.dag_extensions"),
    ("causaltext.hypotheses", "holds_in_dag", "hypotheses.holds_in_dag"),
    # evaluation harness
    ("causaltext.cli", "read_samples", "dataset.read_samples"),
    ("causaltext.cli", "run_pipeline", "harness.run_pipeline"),
    ("causaltext.harness", "_reference_steps", "harness.reference_steps"),
    ("causaltext.harness", "render_prompt", "prompts.render_prompt"),
    ("causaltext.harness", "MockBackend.complete", "harness.MockBackend.complete"),
    ("causaltext.harness", "parse_step_output", "harness.parse_step_output"),
    ("causaltext.harness", "_match_step", "harness.grade"),
    ("causaltext.cli", "_write_record", "cli.write_record"),
    ("causaltext.cli", "score", "harness.score"),
)

# Spans the benchmark books itself, with Tracer.call, around a call it makes.
OPENED = ("dataset.generate.residual",)

# Span -> (counter name, function of the span's return value).
COUNTERS = {"graphs.dag_extensions": ("dags", len)}

# Spans whose per-call durations are kept for percentiles.
TIMED_CALLS = ("harness.run_pipeline",)


def span_names() -> list[str]:
    """Every span, in table order, with opened spans last."""
    return list(dict.fromkeys([row[2] for row in SPANS] + list(OPENED)))


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    count: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    """Books calls to named spans, with self time net of nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # nested-span time of each open span

    def call(self, name: str, fn, args=(), kwargs=None):
        st = self.stats.setdefault(name, SpanStats())
        self._open.append(0.0)
        start = self.clock()
        ok = False
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
        finally:
            elapsed = self.clock() - start
            nested = self._open.pop()
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - nested
            st.errors += not ok
            if name in TIMED_CALLS:
                st.durations.append(elapsed)
            if self._open:
                self._open[-1] += elapsed
        counter = COUNTERS.get(name)
        if counter is not None:
            st.count += counter[1](result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper


def resolve(module: str, attribute: str):
    """(owner, last name, raw attribute) or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, last)
    except AttributeError:
        return None
    return owner, last, raw


class Installed:
    """Wrappers put in place by :func:`install`; ``remove`` restores them."""

    def __init__(self):
        self.restore: list[tuple[object, str, object]] = []
        self.absent: list[tuple[str, str, str]] = []

    def remove(self) -> None:
        for owner, last, raw in reversed(self.restore):
            setattr(owner, last, raw)
        self.restore.clear()


def install(tracer: Tracer, table=SPANS) -> Installed:
    """Wrap every function the table names; missing rows go to ``absent``."""
    done = Installed()
    for module, attribute, name in table:
        found = resolve(module, attribute)
        if found is None:
            done.absent.append((module, attribute, name))
            continue
        owner, last, raw = found
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__))
        elif callable(raw):
            wrapped = tracer.wrap(name, raw)
        else:
            done.absent.append((module, attribute, name))
            continue
        setattr(owner, last, wrapped)
        done.restore.append((owner, last, raw))
    return done
