"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import itertools
import json
import pathlib
import time

import numpy as np

from causaltext.cli import main as cli_main
from causaltext.dataset import balanced_generate, generate
from causaltext.engine import run_c2p
from causaltext.graphs import dag_count
from causaltext.harness import Metrics
from causaltext.hypotheses import binary_answer, evaluate_on_pdag
from causaltext.parsing import parse_hypothesis, parse_premise
from causaltext.relations import relation_set, relation_table
from causaltext.variables import VariableTable

from conftest import (FIVE_VAR_STEP_3, FIVE_VAR_STEP_4, FIVE_VAR_STEP_5,
                      FIVE_VAR_STEP_6, FIVE_VAR_STEP_7, FIVE_VAR_STEP_8,
                      JUNK_FOOD_STEP_3, JUNK_FOOD_STEP_4, JUNK_FOOD_STEP_6,
                      JUNK_FOOD_STEP_8)
from oracles import (all_dags, group_mecs, oriented_colliders, skeleton,
                     skeleton_pairs, v_structures)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def _solve_via_cli(tmp_path, fixture):
    trace_path = tmp_path / f"{fixture}.json"
    code = cli_main(["solve", "--fixture", fixture, "--trace", str(trace_path)])
    assert code == 0
    return json.loads(trace_path.read_text())


def test_criterion_1_worked_five_variable_trace(tmp_path, capsys):
    started = time.monotonic()
    rep = _solve_via_cli(tmp_path, "five-var")
    elapsed = time.monotonic() - started
    capsys.readouterr()
    exact = (rep["step_3"] == FIVE_VAR_STEP_3
             and rep["step_4"] == FIVE_VAR_STEP_4
             and rep["step_5"] == FIVE_VAR_STEP_5
             and rep["step_6"] == FIVE_VAR_STEP_6
             and rep["step_7"] == FIVE_VAR_STEP_7
             and rep["step_8"] == FIVE_VAR_STEP_8
             and rep["step_9"]["answer"] == "Yes")
    report(1, exact and elapsed < 1.0,
           f"five-variable trace cell-exact, answer Yes, {elapsed:.3f}s")


def test_criterion_2_natural_story_trace(tmp_path, capsys):
    started = time.monotonic()
    rep = _solve_via_cli(tmp_path, "junk-food")
    elapsed = time.monotonic() - started
    capsys.readouterr()
    exact = (rep["step_1"] == {"count": 3, "names": ["A", "B", "C"]}
             and rep["step_2"]["dependencies"] == [["A", "C"], ["B", "C"]]
             and rep["step_2"]["unconditional_independencies"] == [["A", "B"]]
             and rep["step_2"]["conditional_independencies"] == []
             and rep["step_3"] == JUNK_FOOD_STEP_3
             and rep["step_4"] == JUNK_FOOD_STEP_4
             and rep["step_5"] == JUNK_FOOD_STEP_4
             and rep["step_6"] == JUNK_FOOD_STEP_6
             and rep["step_7"] == JUNK_FOOD_STEP_6
             and rep["step_8"] == JUNK_FOOD_STEP_8
             and rep["step_9"]["answer"] == "Yes")
    report(2, exact and elapsed < 1.0,
           f"story trace steps 1-9 exact, answer Yes, {elapsed:.3f}s")


def test_criterion_3_oracle_equivalence_all_dags():
    started = time.monotonic()
    failures = 0
    total = 0
    for n in range(1, 6):
        table = VariableTable.letters(n)
        dags = all_dags(n)
        # one relation-table call per node count, one row per DAG
        rows = relation_table(n, np.array([dag.mask for dag in dags])).tolist()
        for dag, row in zip(dags, rows):
            total += 1
            final = run_c2p(relation_set(row, table)).final
            if (skeleton_pairs(final) != skeleton(dag)
                    or oriented_colliders(final) != v_structures(dag)):
                failures += 1
    elapsed = time.monotonic() - started
    report(3, failures == 0 and total == 1 + 3 + 25 + 543 + 29281
           and elapsed < 300.0,
           f"{total} graphs reconstructed, {failures} failures, {elapsed:.1f}s")


def test_criterion_4_combinatorial_counts():
    dag_counts = [len(all_dags(n)) for n in range(1, 6)]
    mec_counts = [len(group_mecs(all_dags(n))) for n in range(1, 5)]
    recurrence = [dag_count(n) for n in range(1, 7)]
    ok = (dag_counts == [1, 3, 25, 543, 29281]
          and mec_counts == [1, 2, 11, 185]
          and recurrence == [1, 3, 25, 543, 29281, 3781503])
    report(4, ok, f"dags {dag_counts}, mecs {mec_counts}, "
                  f"recurrence to six nodes {recurrence[-1]}")


def test_criterion_5_label_soundness_and_self_solvability():
    started = time.monotonic()
    samples = balanced_generate([3, 4, 5, 6], 15, seed=2024)
    shape_ok = len(samples) == 120 and all(
        sum(1 for s in samples if s.n_vars == n and s.label == label) == 15
        for n in (3, 4, 5, 6) for label in ("Yes", "No"))
    tp = fp = tn = fn = 0
    for s in samples:
        doc = parse_premise(s.premise)
        h = parse_hypothesis(s.hypothesis_text, doc.variables)
        verdict = evaluate_on_pdag(h, run_c2p(doc.relations).final)
        predicted = binary_answer(verdict)
        if predicted == "Yes" and s.label == "Yes":
            tp += 1
        elif predicted == "Yes":
            fp += 1
        elif s.label == "No":
            tn += 1
        else:
            fn += 1
    m = Metrics(tp, fp, tn, fn)
    elapsed = time.monotonic() - started
    report(5, shape_ok and m.accuracy == 1.0 and m.f1 == 1.0 and elapsed < 120.0,
           f"120 balanced samples (15 per label per variable count), "
           f"accuracy {m.accuracy}, f1 {m.f1}, {elapsed:.1f}s")


def test_criterion_6_metric_arithmetic():
    m = Metrics(tp=13, fp=1, tn=14, fn=2)
    ok = (abs(m.precision - 0.9286) <= 1e-4
          and abs(m.recall - 0.8667) <= 1e-4
          and abs(m.accuracy - 0.9000) <= 1e-4
          and abs(m.f1 - 0.8966) <= 1e-4)
    report(6, ok, f"precision {m.precision:.4f} recall {m.recall:.4f} "
                  f"accuracy {m.accuracy:.4f} f1 {m.f1:.4f}")


def test_criterion_7_mock_end_to_end(tmp_path, capsys):
    dataset = tmp_path / "ds.jsonl"
    code = cli_main(["generate", "--n", "4", "--balanced", "8", "--seed", "17",
                     "-o", str(dataset)])
    assert code == 0
    out_dir = tmp_path / "run"
    code = cli_main(["eval", "--dataset", str(dataset), "--backend", "mock",
                     "--out", str(out_dir), "--format", "json"])
    capsys.readouterr()
    assert code == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    overall = metrics["overall"]
    ok = (code == 0
          and all(overall[k] == 1.0 for k in ("accuracy", "precision",
                                              "recall", "f1"))
          and all(v == 1.0 for v in metrics["step_accuracy"].values())
          and all(v == 1.0 for v in metrics["subtask_accuracy"].values())
          and metrics["parse_failure_rate"] == 0.0)
    report(7, ok, "mock backend scores 1.0 on all four metrics, "
                  "100% per-step accuracy, zero network")


def test_criterion_8_parser_round_trip():
    checked = 0
    failures = 0
    themes = ("health", "economics", "education", "environment")
    for n in (3, 4, 5, 6):
        stream = generate(n, seed=808 + n)
        for sample in itertools.islice(stream, 130):
            doc = parse_premise(sample.premise)
            if doc.relations != sample.relations:
                failures += 1
            checked += 1
        story = generate(n, seed=909 + n, style="story",
                         theme=themes[n - 3])
        for sample in itertools.islice(story, 130):
            doc = parse_premise(sample.premise)
            if doc.relations != sample.relations:
                failures += 1
            checked += 1
    report(8, checked >= 1000 and failures == 0,
           f"{checked} premises round-tripped, {failures} failures")


def test_criterion_9_smbh_fixture_golden(tmp_path, capsys):
    golden = json.loads((GOLDEN_DIR / "smbh_solution.json").read_text())
    rep = _solve_via_cli(tmp_path, "smbh")
    capsys.readouterr()
    ok = (rep["step_9"]["matrix"] == golden["final_matrix"]
          and rep["step_9"]["answer"] == golden["answer"]
          and rep["step_9"]["hypothesis"] == golden["hypothesis"]
          and rep["step_9"]["witness"] == golden["witness"])
    report(9, ok, f"black-hole study answer {rep['step_9']['answer']} "
                  f"matches the frozen golden file")
