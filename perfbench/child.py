"""One benchmark child: builds a workload's inputs, or runs one input file.

Started by ``run.py`` in a fresh process for every input file it runs::

    python3 perfbench/child.py build --workload solve --seed 1 --input DIR
    python3 perfbench/child.py run --workload solve --input DIR/solve-0.jsonl \
        --out RESULT --spawned T [--trace]

``setup`` stops after set-up. ``run`` writes one JSON result: set-up time
measured from ``T`` (the parent's ``time.monotonic()`` just before it started
this process), the timed work, correctness counts and, with ``--trace``, the
spans; per-item latencies go to ``items.f64`` beside it. Times are divided by
the host slowdown measured by ``pace.py``. Correctness gates run after the
timed work, with the spans removed, and are never skipped.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import random
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import pace as pace_mod  # noqa: E402

GENERATE_PER_LABEL = 250
N5_DIGEST = "098afb9ab7c04a46"  # full canonical ``generate --n 5``
N5_ROWS = 702_560
CHUNKS = 3  # input files per seed for solve and eval-mock, one child each
SOLVE_PER_N = 600  # per chunk
SOLVE_NS = (3, 4, 5, 6)
EVAL_PER_LABEL = {3: 15, 4: 100, 5: 100, 6: 100}  # per chunk
SETUP_SAMPLES = 4  # pace samples before and after set-up
ITEMS_FILE = "items.f64"  # per-item latencies in ms at the reference pace


def _import_package():
    import causaltext
    if not Path(causaltext.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"causaltext imported from {causaltext.__file__}, "
                         f"not from {ROOT / 'src'}")
    return causaltext


def percentile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Run:
    """State of one child run: tracer, item latencies and correctness counts."""

    def __init__(self, work: Path, input: Path, tracer, pace):
        self.work = work
        self.input = input
        self.tracer = tracer
        self.pace = pace
        self.item_s: list[float] = []  # at the reference pace
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.rc = None  # workload-specific results the gates read

    def call(self, span, fn, *args):
        """Call ``fn``, booked to an opened span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(span, fn, args)

    def gate(self, attempted: int, failed: int, note: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    @contextlib.contextmanager
    def item_hook(self, module, attribute, timer):
        """Replace a package attribute by ``timer(original)`` meanwhile.

        The benchmark's hooks time items and take pace samples; under
        ``--trace`` they wrap the span's wrapper. A missing attribute is
        noted and the work runs unhooked.
        """
        found = spans.resolve(module, attribute)
        if found is None:
            self.notes.append(f"item hook {module}.{attribute} absent")
            yield
            return
        owner, last, raw = found
        setattr(owner, last, timer(raw))
        try:
            yield
        finally:
            setattr(owner, last, raw)


def _cli_main(argv) -> int:
    from causaltext import cli
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# generate: a balanced n=6 draw, then the full canonical n=5 universe


def build_generate(seed: int, out: Path) -> None:
    args = {"n": 6, "balanced": GENERATE_PER_LABEL, "seed": seed}
    (out / "generate-0.json").write_text(json.dumps(args, sort_keys=True) + "\n")


def setup_generate(run: Run):
    from causaltext import graphs
    graphs.mec_index(6)
    graphs.mec_index(5)


def work_generate(run: Run) -> int:
    args = json.loads(run.input.read_text())
    p6, p5 = run.work / "n6.jsonl", run.work / "n5.jsonl"
    gaps, tick = run.item_s, run.pace.tick

    def row_timer(stream_fn):
        def timed(*a, **kw):
            start = time.perf_counter()
            for row in stream_fn(*a, **kw):
                gaps.append((time.perf_counter() - start) / run.pace.current)
                yield row
                tick()
                start = time.perf_counter()
        return timed

    def write_ticker(write_fn):
        def timed(path, samples, *a, **kw):
            def ticking():
                for s in samples:
                    yield s
                    tick()
            return write_fn(path, ticking(), *a, **kw)
        return timed

    argv6 = ["generate", "--n", str(args["n"]), "--balanced", str(args["balanced"]),
             "--seed", str(args["seed"]), "-o", str(p6)]
    rc6 = run.call("dataset.generate.residual", _cli_main, argv6)
    with run.item_hook("causaltext.cli", "generate", row_timer), \
            run.item_hook("causaltext.cli", "write_samples", write_ticker):
        rc5 = run.call("dataset.generate.residual", _cli_main,
                       ["generate", "--n", "5", "-o", str(p5)])
    run.rc = (rc6, rc5)
    return 2 * args["balanced"] + N5_ROWS


def check_generate(run: Run) -> None:
    from causaltext.hypotheses import binary_answer
    from causaltext.pipeline import solve_text
    per_label = json.loads(run.input.read_text())["balanced"]
    p6, p5 = run.work / "n6.jsonl", run.work / "n5.jsonl"
    rc6, rc5 = run.rc
    rows = _read_jsonl(p6) if rc6 == 0 and p6.exists() else []
    bad = 0
    for row in rows:
        try:
            verdict = solve_text(row["premise"], row["hypothesis"]).verdict
            bad += binary_answer(verdict) != row["label"]
        except Exception:
            bad += 1
    labels = [row["label"] for row in rows]
    off = abs(labels.count("Yes") - per_label) + abs(labels.count("No") - per_label)
    run.gate(2 * per_label, min(2 * per_label, bad + off),
             f"n=6 draw: rc {rc6}, {bad} verdicts differ from labels, "
             f"label counts off by {off}")
    # equal digests imply the 702,560 rows and 132,630 Yes labels
    digest = sha256_file(p5)[:16] if rc5 == 0 and p5.exists() else None
    run.gate(N5_ROWS, 0 if digest == N5_DIGEST else N5_ROWS,
             f"n=5 universe: rc {rc5}, digest {digest}, want {N5_DIGEST}")


# ---------------------------------------------------------------------------
# stratified class draws for the solve and eval-mock inputs


class Strata:
    """The classes on ``n`` nodes in order of solve cost, for stratified draws.

    Solve time grows as 2^k in the k edges no v-structure orients, and the
    few classes with large k carry much of it. Ordered by (k, size), each
    stratum holds classes of about one cost, so every seed draws nearly the
    same mix of cheap and costly ones. Uses public ``MecIndex`` methods only.
    """

    def __init__(self, n: int):
        from causaltext.graphs import mec_index
        self.n = n
        self.idx = idx = mec_index(n)
        keys = []
        for g in range(idx.group_count):
            masks = idx.member_masks(g)
            oriented = {(a, c) for a, c, _ in idx.vstruct_set(g)}
            oriented |= {(b, c) for _, c, b in idx.vstruct_set(g)}
            keys.append((bin(int(masks[0])).count("1") - len(oriented), len(masks)))
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.sizes = [keys[g][1] for g in self.order]

    def draw(self, rng: random.Random, count: int, size_weighted: bool) -> list[int]:
        """One class from each of ``count`` strata of equal weight.

        Size-weighted, a class is drawn with probability proportional to its
        size, as the class of a uniformly drawn labeled DAG is.
        """
        weights = self.sizes if size_weighted else [1] * len(self.sizes)
        cumulative = list(itertools.accumulate(weights))
        return [self.order[bisect.bisect_right(cumulative,
                                               (k + rng.random()) * cumulative[-1] / count)]
                for k in range(count)]

    def premise(self, g: int):
        """(class, variable table, relations, premise text) of class ``g``."""
        from causaltext.graphs import Dag, Mec
        from causaltext.parsing import PremiseDoc, render_premise
        from causaltext.relations import relations_from_dag
        from causaltext.variables import VariableTable
        members = tuple(Dag.from_mask(self.n, int(m)) for m in self.idx.member_masks(g))
        mec = Mec(self.n, self.idx.skeleton_set(g), self.idx.vstruct_set(g), members)
        table = VariableTable.letters(self.n)
        rels = relations_from_dag(members[0], table)
        return mec, table, rels, render_premise(PremiseDoc("", table, rels), "symbolic")


def _claim(kind, i: int, j: int, table):
    from causaltext.hypotheses import SYMMETRIC_KINDS, Hypothesis
    if kind in SYMMETRIC_KINDS:
        i, j = min(i, j), max(i, j)
    return Hypothesis(kind, table.label(i), table.label(j))


# ---------------------------------------------------------------------------
# solve: size-weighted classes for n=3..6, one random claim each


def _solve_draw(strata: Strata, rng: random.Random) -> list[dict]:
    from causaltext.hypotheses import HypothesisKind, label_against_mec
    from causaltext.parsing import render_hypothesis
    draws = CHUNKS * SOLVE_PER_N
    kinds = [list(HypothesisKind)[k % len(HypothesisKind)] for k in range(draws)]
    rng.shuffle(kinds)
    out = []
    for g, kind in zip(strata.draw(rng, draws, size_weighted=True), kinds):
        mec, table, _, premise = strata.premise(g)
        h = _claim(kind, *rng.sample(range(strata.n), 2), table)
        out.append({"n": strata.n, "premise": premise,
                    "hypothesis": render_hypothesis(h, table),
                    "label": label_against_mec(h, mec, table)})
    rng.shuffle(out)
    return out


def build_solve(seed: int, out: Path) -> None:
    chunks = [[] for _ in range(CHUNKS)]
    for n in SOLVE_NS:
        rows = _solve_draw(Strata(n), random.Random(f"solve:{seed}:{n}"))
        for c in range(CHUNKS):
            chunks[c].extend(rows[c::CHUNKS])
    for c, rows in enumerate(chunks):
        random.Random(f"solve-order:{seed}:{c}").shuffle(rows)
        with open(out / f"solve-{c}.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def setup_solve(run: Run):
    run.rows = _read_jsonl(run.input)


def work_solve(run: Run) -> int:
    from causaltext.pipeline import solve_text
    clock, tick = time.perf_counter, run.pace.tick
    verdicts = []
    for row in run.rows:
        tick()
        start = clock()
        try:
            verdict = solve_text(row["premise"], row["hypothesis"]).verdict
        except Exception as exc:
            verdict = exc
        run.item_s.append((clock() - start) / run.pace.current)
        verdicts.append(verdict)
    run.verdicts = verdicts
    return len(run.rows)


def check_solve(run: Run) -> None:
    from causaltext.hypotheses import Verdict, binary_answer
    bad = [k for k, (row, v) in enumerate(zip(run.rows, run.verdicts))
           if not isinstance(v, Verdict) or binary_answer(v) != row["label"]]
    run.gate(len(run.rows), len(bad),
             f"solve: {len(bad)} verdicts differ from labels, first rows {bad[:5]}")


# ---------------------------------------------------------------------------
# eval-mock: step-by-step grading of a balanced n=3..6 set by the mock backend


def _eval_draw(strata: Strata, rng: random.Random, per_label: int) -> list:
    """``per_label`` samples per label, one from each of the drawn classes.

    Classes are drawn uniformly, as ``balanced_generate`` visits them, but
    stratified by cost; each gives one claim, of the label with more left to
    fill. Rows are built as ``dataset.generate`` builds them.
    """
    from causaltext.dataset import Sample
    from causaltext.hypotheses import HypothesisKind, label_against_mec
    from causaltext.parsing import render_hypothesis
    n = strata.n
    need = {"Yes": per_label, "No": per_label}
    picked: dict[str, Sample] = {}
    classes = strata.draw(rng, 2 * per_label, size_weighted=False)
    while any(need.values()):
        g = classes.pop() if classes else strata.draw(rng, 1, size_weighted=False)[0]
        mec, table, rels, premise = strata.premise(g)
        slots = [(kind, i, j) for kind in HypothesisKind for i in range(n)
                 for j in range(n) if i != j]
        rng.shuffle(slots)
        want = max(need, key=need.get)
        other = None
        for kind, i, j in slots:
            h = _claim(kind, i, j, table)
            sid = f"{n}v-{mec.digest()[:10]}-{kind.value}-{h.subject}{h.object}-symbolic"
            label = label_against_mec(h, mec, table)
            if sid in picked or not need[label]:
                continue
            sample = Sample(sid, n, premise, rels, h, render_hypothesis(h, table), label,
                            kind.value, mec.digest(), "symbolic")
            if label == want:
                break
            other = other or sample
        else:
            sample = other
        if sample is not None:
            picked[sample.id] = sample
            need[sample.label] -= 1
    return sorted(picked.values(), key=lambda s: (s.label, s.id))


def build_eval(seed: int, out: Path) -> None:
    """Per file: all 15 Yes rows of n=3 and 15 No by ``balanced_generate``,
    then 100 per label for n=4..6 from cost-stratified classes."""
    from causaltext.dataset import balanced_generate, write_samples
    strata = {n: Strata(n) for n in (4, 5, 6)}
    for c in range(CHUNKS):
        samples = balanced_generate([3], EVAL_PER_LABEL[3], seed * CHUNKS + c)
        for n, st in strata.items():
            samples.extend(_eval_draw(st, random.Random(f"eval:{seed}:{c}:{n}"),
                                      EVAL_PER_LABEL[n]))
        write_samples(out / f"eval-{c}.jsonl", samples)


def setup_eval(run: Run):
    pass


def work_eval(run: Run) -> int:
    times, tick = run.item_s, run.pace.tick

    def sample_timer(fn):
        def timed(*a, **kw):
            tick()
            start = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                times.append((time.perf_counter() - start) / run.pace.current)
        return timed

    with run.item_hook("causaltext.cli", "run_pipeline", sample_timer):
        run.rc = _cli_main(["eval", "--dataset", str(run.input), "--backend", "mock",
                            "--mode", "step-by-step", "--parallel", "1",
                            "--out", str(run.work / "eval")])
    return len(_read_jsonl(run.input))


def check_eval(run: Run) -> None:
    samples = _read_jsonl(run.input)
    out = run.work / "eval"
    records = {}
    if (out / "records").is_dir():
        for name in os.listdir(out / "records"):
            records[name[:-5]] = json.loads((out / "records" / name).read_text())
    bad = 0
    for s in samples:
        rec = records.get(s["id"])
        bad += (rec is None or rec.get("error") is not None or not rec.get("correct")
                or not all(step.get("match") for step in rec.get("steps", {}).values())
                or len(rec.get("steps", {})) != 9)
    metrics = json.loads((out / "metrics.json").read_text()) \
        if (out / "metrics.json").exists() else {}
    overall = metrics.get("overall", {})
    whole = (run.rc == 0 and len(records) == len(samples)
             and metrics.get("n_records") == len(samples)
             and metrics.get("parse_failure_rate") == 0
             and all(overall.get(k) == 1.0 for k in ("accuracy", "precision", "recall", "f1"))
             and len(metrics.get("step_accuracy", {})) == 9
             and all(v == 1.0 for v in metrics["step_accuracy"].values()))
    run.gate(len(samples), len(samples) if not whole else bad,
             f"eval: rc {run.rc}, {len(records)} records for {len(samples)} samples, "
             f"{bad} bad records, metrics {json.dumps(overall)}")


WORKLOADS = {
    "generate": (build_generate, setup_generate, work_generate, check_generate),
    "solve": (build_solve, setup_solve, work_solve, check_solve),
    "eval-mock": (build_eval, setup_eval, work_eval, check_eval),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("build", "setup", "run"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--input", type=Path, required=True,
                    help="input file to run, or the directory to build inputs in")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    build, setup, work, check = WORKLOADS[args.workload]

    pace = pace_mod.Pace()
    for _ in range(SETUP_SAMPLES):  # before set-up; their time is taken out of setup_s
        pace.sample()
    _import_package()
    if args.mode == "build":
        build(args.seed, args.input)
        return 0

    tracer = spans.Tracer() if args.trace else None
    installed = spans.install(tracer) if tracer else None
    run = Run(Path.cwd(), args.input, tracer, pace)
    setup(run)
    setup_raw = time.monotonic() - args.spawned - pace.spent
    for _ in range(SETUP_SAMPLES):
        pace.sample()
    setup_slowdown = statistics.fmean(t for _, t in pace.marks) / pace_mod.REFERENCE_S
    result = {"setup_s": setup_raw / setup_slowdown}
    if args.mode == "run":
        first, spent = len(pace.marks) - 1, pace.spent
        start = time.perf_counter()
        items = work(run)
        busy = time.perf_counter() - start - (pace.spent - spent)
        pace.sample()
        work_s = pace.reference_time(first)
        slow = busy / work_s
        if installed:
            installed.remove()
        check(run)
        result.update(
            items=items, work_s=work_s, slowdown=slow,
            attempted=run.attempted, failed=run.failed, notes=run.notes)
        if run.item_s:
            with open(ITEMS_FILE, "wb") as fh:
                array("d", (1000.0 * t for t in run.item_s)).tofile(fh)
        if tracer:
            def ms(durations, q):
                return 1000.0 * percentile(durations, q) / slow if durations else 0.0
            result["spans"] = {
                name: {"calls": st.calls, "self_s": st.self_s / slow,
                       "share": st.self_s / (setup_raw + busy), "errors": st.errors,
                       "count": st.count, "ms_p50": ms(st.durations, 0.5),
                       "ms_p99": ms(st.durations, 0.99)}
                for name, st in tracer.stats.items()}
            result["absent"] = [list(row) for row in installed.absent]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
