"""Command-line front end: generate, solve, eval, and score."""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Iterator

from . import __version__
from .dataset import (balanced_generate, dataset_digest, generate,
                      read_samples, write_samples)
from .errors import (BoundsError, CausaltextError, ConfigError,
                     ConsistencyError, CycleError, PremiseParseError,
                     ResourceError, UnknownVariableError, UsageError)
from .fixtures import FIXTURES
from .harness import (EVAL_MODES, BackendConfig, EvalRecord, HttpBackend,
                      MODE_STEP_BY_STEP, MockBackend, RecordingBackend,
                      ReplayBackend, ScoreReport, run_pipeline, score,
                      write_text_atomic)
from .hypotheses import (MODE_EXTENSION_QUANTIFIED, MODE_RULE_BASED, NO, YES,
                         HypothesisKind)
from .parsing import THEMES, parse_premise
from .pipeline import solve_doc

USAGE_ERRORS = (PremiseParseError, ConfigError, UsageError, BoundsError,
                ConsistencyError, UnknownVariableError, ResourceError,
                CycleError)

log = logging.getLogger("causaltext")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causaltext",
        description="Symbolic causal reasoning over verbalized premises: "
                    "benchmark generation, solving, and backend evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a labeled benchmark dataset")
    gen.add_argument("--n", type=int, required=True, help="variable count (2..6)")
    gen.add_argument("--kinds", help="comma list of hypothesis kinds")
    gen.add_argument("--style", choices=("symbolic", "story"), default="symbolic")
    gen.add_argument("--theme", choices=sorted(THEMES), default=None)
    gen.add_argument("--closure", action="store_true",
                     help="verbalize the full separation closure, not minimal sets")
    gen.add_argument("--balanced", type=int, metavar="PER_CELL", default=None,
                     help="draw PER_CELL samples per label instead of streaming all")
    gen.add_argument("--limit", type=int, default=None, help="cap emitted rows")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--gzip", action="store_true")
    gen.add_argument("--format", choices=("text", "json"), default="text")

    sol = sub.add_parser("solve", help="run the matrix pipeline on one premise")
    src = sol.add_mutually_exclusive_group(required=True)
    src.add_argument("--premise", help="premise file, or - for stdin")
    src.add_argument("--fixture", choices=sorted(FIXTURES))
    sol.add_argument("--hypothesis", help="claim to evaluate")
    sol.add_argument("--propagate", action="store_true")
    sol.add_argument("--eval-mode",
                     choices=(MODE_RULE_BASED, MODE_EXTENSION_QUANTIFIED),
                     default=MODE_EXTENSION_QUANTIFIED)
    sol.add_argument("--trace", help="write the step-keyed trace JSON here")
    sol.add_argument("--format", choices=("text", "json"), default="text")

    ev = sub.add_parser("eval", help="run a dataset against a backend")
    ev.add_argument("--dataset", required=True)
    backend = ev.add_mutually_exclusive_group(required=True)
    backend.add_argument("--backend", help="'mock' or an http(s) endpoint URL")
    backend.add_argument("--replay", help="transcript directory to replay")
    ev.add_argument("--mode", choices=EVAL_MODES, default=MODE_STEP_BY_STEP)
    ev.add_argument("--out", required=True, help="directory for records and reports")
    ev.add_argument("--record", action="store_true",
                    help="store transcripts under OUT/transcripts")
    ev.add_argument("--parallel", type=int, default=1)
    ev.add_argument("--model")
    ev.add_argument("--auth-env")
    ev.add_argument("--attempts", type=int)
    ev.add_argument("--limit", type=int, default=None)
    ev.add_argument("--format", choices=("text", "json"), default="text")

    sc = sub.add_parser("score", help="recompute metrics from stored records")
    sc.add_argument("--records", required=True, help="records directory")
    sc.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    from .graphs import mec_index

    if args.balanced is not None and args.seed is None:
        raise UsageError("--balanced sampling requires --seed")
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must not be negative")
    if args.balanced is not None and args.balanced < 0:
        raise UsageError("--balanced must not be negative")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise UsageError(f"output directory {out_dir} does not exist")
    kinds = None
    if args.kinds is not None:
        valid = [k.value for k in HypothesisKind]
        kinds = []
        for name in filter(None, (k.strip() for k in args.kinds.split(","))):
            if name not in valid:
                raise UsageError(f"unknown hypothesis kind {name!r}; "
                                 f"pick from {', '.join(valid)}")
            kinds.append(HypothesisKind(name))
        if not kinds:
            raise UsageError(f"--kinds names no hypothesis kind; "
                             f"pick from {', '.join(valid)}")
    if args.balanced is not None:
        samples = balanced_generate([args.n], args.balanced, args.seed,
                                    kinds=kinds, style=args.style,
                                    theme=args.theme, minimal=not args.closure)
    else:
        samples = generate(args.n, kinds=kinds, style=args.style, theme=args.theme,
                           minimal=not args.closure, seed=args.seed)
    # write beside the target and move the file into place on success, so a
    # failed run leaves no partial dataset
    tmp_dir = tempfile.mkdtemp(prefix=".generate-", dir=out_dir)
    try:
        tmp = os.path.join(tmp_dir, os.path.basename(args.out))
        labels, digest = write_samples(tmp, islice(samples, args.limit),
                                       gzip=args.gzip)
        os.replace(tmp, args.out)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    idx = mec_index(args.n)
    summary = {
        "n_vars": args.n,
        "dags": idx.dag_count,
        "mecs": idx.group_count,
        "rows": labels.total(),
        "yes": labels[YES],
        "no": labels[NO],
        "digest": digest,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"{summary['dags']} DAGs on {args.n} variables, "
              f"{summary['mecs']} equivalence classes")
        print(f"wrote {summary['rows']} samples ({summary['yes']} Yes / "
              f"{summary['no']} No), digest {summary['digest']}")
    return 0


def _read_premise_input(args) -> tuple[str, str | None]:
    if args.fixture:
        doc_fn, default_hypothesis = FIXTURES[args.fixture]
        return doc_fn(), args.hypothesis or default_hypothesis
    if args.premise == "-":
        text = sys.stdin.read()
    else:
        with open(args.premise, encoding="utf-8") as fh:
            text = fh.read()
    hypothesis = args.hypothesis
    if "Hypothesis:" in text:
        text, _, tail = text.partition("Hypothesis:")
        hypothesis = hypothesis or tail.strip()
        text = text.replace("Premise:", "", 1).strip()
    return text, hypothesis


def _print_matrix(mapping: dict) -> None:
    names = list(mapping)
    width = max(len(n) for n in names)
    print("      " + " ".join(n.rjust(width) for n in names))
    for r in names:
        cells = " ".join(str(mapping[r][c]).rjust(width) for c in names)
        print(f"    {r.rjust(width)} {cells}")


def cmd_solve(args) -> int:
    source, hypothesis = _read_premise_input(args)
    doc = source if not isinstance(source, str) else parse_premise(source)
    result = solve_doc(doc, hypothesis, args.propagate, args.eval_mode)
    report = result.report()
    if args.trace:
        write_text_atomic(args.trace, json.dumps(report, indent=2))
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    step1 = report["step_1"]
    print(f"Step 1  variables ({step1['count']}): {', '.join(step1['names'])}")
    rel = report["step_2"]

    def pairs(entries):
        return ", ".join("-".join(p) for p in entries) or "(none)"

    conds = ", ".join(
        f"{e['pair'][0]}-{e['pair'][1]} | {','.join(e['given'])}"
        for e in rel["conditional_independencies"]) or "(none)"
    print(f"Step 2  dependencies: {pairs(rel['dependencies'])}")
    print(f"        unconditional independencies: {pairs(rel['unconditional_independencies'])}")
    print(f"        conditional independencies: {conds}")
    print(f"        declared causes: {pairs(rel['declared_causes'])}")
    for k in (3, 4, 5):
        print(f"Step {k}  matrix:")
        _print_matrix(report[f"step_{k}"])
    print(f"Step 6  candidates: {json.dumps(report['step_6'])}")
    print(f"Step 7  filtered:   {json.dumps(report['step_7'])}")
    print("Step 8  matrix:")
    _print_matrix(report["step_8"])
    final = report["step_9"]
    if "answer" in final:
        witness = json.dumps(final.get("witness"))
        print(f"Step 9  answer: {final['answer']}   witness: {witness}")
    else:
        print("Step 9  matrix (no hypothesis given):")
        _print_matrix(final["matrix"])
    return 0


def _eval_backend(args):
    """The backend the eval flags name, with its config: None for the mock
    and for replay, which have none and refuse the http options."""
    given = {key: getattr(args, key) for key in ("model", "auth_env", "attempts")
             if getattr(args, key) is not None}
    if given and (args.replay is not None or args.backend == "mock"):
        source = "--backend mock" if args.replay is None else "--replay"
        flag = "--" + next(iter(given)).replace("_", "-")
        raise UsageError(f"{flag} applies to an http(s) --backend only, not to {source}")
    if args.replay is not None:
        return ReplayBackend(args.replay), None
    if args.backend == "mock":
        return MockBackend(), None
    config = BackendConfig(args.backend, **given)
    return HttpBackend(config), config


def cmd_eval(args) -> int:
    backend, config = _eval_backend(args)
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must not be negative")
    if args.parallel < 1:
        raise UsageError("--parallel must be at least 1")
    samples = read_samples(args.dataset, limit=args.limit)
    if not samples:
        raise UsageError(f"dataset {args.dataset} holds no samples")
    os.makedirs(args.out, exist_ok=True)
    records_dir = os.path.join(args.out, "records")
    os.makedirs(records_dir, exist_ok=True)
    if args.record:
        backend = RecordingBackend(backend, os.path.join(args.out, "transcripts"))

    def run(sample):
        return run_pipeline(sample, backend, args.mode)

    def written():
        # one worker thread would only contend with the record writes for
        # the GIL, so --parallel 1 runs the samples on this thread
        done = map(run, samples) if args.parallel == 1 else _in_order(run, samples, args.parallel)
        for rec in done:
            _write_record(records_dir, rec)
            yield rec

    # each record is scored as it is written, and none is kept
    report = score(written())
    manifest = {
        "version": __version__,
        "config_digest": config.digest() if config else None,
        "dataset_digest": dataset_digest(args.dataset),
        "mode": args.mode,
        "n_records": report.n_records,
    }
    write_text_atomic(os.path.join(args.out, "manifest.json"), json.dumps(manifest, indent=2))
    write_text_atomic(os.path.join(args.out, "metrics.json"),
                      json.dumps(report.as_dict(), indent=2))
    _emit_report(report, args.format)
    return 0


def _in_order(fn, items, workers: int) -> Iterator:
    """``fn`` of each item on ``workers`` threads, yielded in item order.

    At most ``2 * workers`` items are submitted and not yet yielded, so
    finished results wait for the reader in a bounded window; ``pool.map``
    would submit every item at once and keep each result until it is read.
    """
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:  # an abandoned read runs no more items
                future.cancel()


def _write_record(records_dir: str, rec: EvalRecord) -> None:
    # one compact line: without indent json runs its C encoder
    write_text_atomic(os.path.join(records_dir, f"{rec.sample_id}.json"),
                      json.dumps(rec.as_dict(), separators=(",", ":")) + "\n")


def _read_records(records_dir: str) -> Iterator[EvalRecord]:
    """The records of a directory in name order, each read as it is asked for."""
    if not os.path.isdir(records_dir):
        raise UsageError(f"records directory not found: {records_dir}")
    names = sorted(f for f in os.listdir(records_dir) if f.endswith(".json"))
    if not names:
        raise UsageError(f"no records in {records_dir}")
    return (_read_record(records_dir, name) for name in names)


def _read_record(records_dir: str, name: str) -> EvalRecord:
    try:
        with open(os.path.join(records_dir, name), encoding="utf-8") as fh:
            return EvalRecord.from_dict(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed record {name}: {exc}") from None


def _emit_report(report: ScoreReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.as_dict(), indent=2))
        return
    m = report.overall
    print(f"records: {report.n_records}   reference errors: {report.reference_errors}"
          f"   parse-failure rate: {report.parse_failure_rate:.4f}")
    print(f"overall  acc {m.accuracy:.4f}  f1 {m.f1:.4f}  precision {m.precision:.4f}"
          f"  recall {m.recall:.4f}  (tp {m.tp} fp {m.fp} tn {m.tn} fn {m.fn})")
    for n, gm in sorted(report.by_n_vars.items()):
        print(f"n={n}      acc {gm.accuracy:.4f}  f1 {gm.f1:.4f}  "
              f"precision {gm.precision:.4f}  recall {gm.recall:.4f}")
    if report.step_accuracy:
        steps = "  ".join(f"{k.split('_')[1]}:{v:.2f}"
                          for k, v in report.step_accuracy.items())
        print(f"step accuracy   {steps}")
    if report.subtask_accuracy:
        subs = "  ".join(f"{k}:{v:.2f}" for k, v in sorted(report.subtask_accuracy.items()))
        print(f"subtask accuracy   {subs}")


def cmd_score(args) -> int:
    records = _read_records(os.path.join(args.records, "records")
                            if os.path.isdir(os.path.join(args.records, "records"))
                            else args.records)
    _emit_report(score(records), args.format)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the package logs only at DEBUG, so one -v shows all of it
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
        handler = {"generate": cmd_generate, "solve": cmd_solve,
                   "eval": cmd_eval, "score": cmd_score}[args.command]
        return handler(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CausaltextError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
