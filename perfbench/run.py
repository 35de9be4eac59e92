#!/usr/bin/env python3
"""causaltext benchmark: the generate, solve and eval-mock workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Inputs are built once per workload and seed under ``.perfbench_work/inputs``
in the checkout and their digests printed, so two commits can be shown to have
read the same bytes. solve and eval-mock have three input files, generate one.
Every input file runs in a fresh child process (``child.py``), one at a time;
peak RSS comes from ``os.wait4``. Times are given at the reference pace of
``pace.py``: wall time divided by the host slowdown measured alongside it.

``--trace 0`` makes passes over the input files until ``--seconds`` is used up
(at least one) and reports the end-to-end metrics over all of them: set-up time
(median over children), peak RSS (median), items per second and the per-item
latency percentiles. An item is a row written (generate), a ``solve_text``
call (solve) or a graded sample (eval-mock). ``--trace 1`` runs the first input
file once untraced and once with the boundary spans of ``spans.py``
installed, and reports per-span calls, self time, share of the traced wall
time and errors, plus the tracing overhead.

Every metric is printed with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1 if
a correctness gate failed or a child crashed, 2 if the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from child import ITEMS_FILE, percentile, sha256_file  # noqa: E402

WORKLOADS = ("generate", "solve", "eval-mock")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
}
SPAN_FIELDS = {"calls": "count", "self_s": "s", "share": "share", "errors": "count"}
TRACE_EXTRA = {
    "graphs.dag_extensions.dags": "count",
    "harness.run_pipeline.ms_p50": "ms",
    "harness.run_pipeline.ms_p99": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.spans_absent": "count",
}
MIN_SETUPS = 3
BUDGET_S = 170.0  # a run ends within 180 s once its inputs exist


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{f}": unit for name in spans.span_names()
             for f, unit in SPAN_FIELDS.items()}
    units.update(TRACE_EXTRA)
    return units


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, input: Path, cwd: Path, deadline: float,
          trace: bool = False, seed: int = 0) -> dict:
    """Run one child to completion in ``cwd``; return its result and peak RSS."""
    cwd.mkdir(parents=True)
    out = cwd / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--input", str(input), "--out", str(out), "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    with open(cwd / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=cwd,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or (mode != "build" and not out.exists()):
        tail = (cwd / "child.log").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{mode} child for {workload} exited with "
                          f"{proc.returncode}:\n{tail}")
    result = json.loads(out.read_text()) if out.exists() else {}
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    items = cwd / ITEMS_FILE
    result["items_ms"] = array("d", items.read_bytes()) if items.exists() else array("d")
    return result


class Bench:
    """Scratch space, child numbering and the overall deadline of one run."""

    def __init__(self, root: Path):
        self.work = root / ".perfbench_work"
        self.deadline = None
        self.count = 0

    def child(self, mode, workload, input, deadline=None, **kw) -> dict:
        self.count += 1
        cwd = self.work / "runs" / f"{os.getpid()}-{self.count}"
        try:
            return spawn(mode, workload, input, cwd, deadline or self.deadline, **kw)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)

    def inputs(self, workload: str, seed: int) -> dict[Path, str]:
        """Build a workload's input files once per seed; map each to its digest."""
        final = self.work / "inputs" / f"{workload}-{seed}"
        if not (final / "DONE").exists():
            tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            self.child("build", workload, tmp, time.monotonic() + 600, seed=seed)
            (tmp / "DONE").write_text("")
            shutil.rmtree(final, ignore_errors=True)
            tmp.rename(final)
        return {p: sha256_file(p) for p in sorted(final.iterdir()) if p.name != "DONE"}


def timed(bench: Bench, workload: str, inputs: list[Path], seconds: float):
    """Passes over all input files until ``seconds`` is used, at least one."""
    runs, setups = [], []
    begin = time.monotonic()
    while True:
        for input in inputs:
            runs.append(bench.child("run", workload, input))
            setups.append(runs[-1]["setup_s"])
        passes = len(runs) // len(inputs)
        spent = time.monotonic() - begin
        if spent + spent / passes > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(bench.child("setup", workload, inputs[0])["setup_s"])
    items_ms = [t for r in runs for t in r["items_ms"]]
    work_s = sum(r["work_s"] for r in runs)
    items = sum(r["items"] for r in runs)
    if not items_ms:  # the item hook is absent: fall back to the mean item time
        items_ms = [1000.0 * work_s / items]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "items_per_s": items / work_s,
        "item_ms_p50": percentile(items_ms, 0.50),
        "item_ms_p99": percentile(items_ms, 0.99),
    }
    info = [f"passes {passes} over {len(inputs)} input files, {items} items, "
            f"{len(items_ms)} item times, {len(setups)} set-up samples",
            "host slowdown per child " + " ".join(f"{r['slowdown']:.3f}" for r in runs),
            "items_per_s per child at the reference pace " + " ".join(
                f"{r['items'] / r['work_s']:.6g}" for r in runs)]
    return metrics, END_TO_END, runs, info


def traced(bench: Bench, workload: str, inputs: list[Path]):
    """The first input file once untraced and once traced."""
    base = bench.child("run", workload, inputs[0])
    run = bench.child("run", workload, inputs[0], trace=True)
    wall = run["setup_s"] + run["work_s"]
    base_wall = base["setup_s"] + base["work_s"]
    metrics = {}
    for name in spans.span_names():
        st = run["spans"].get(name, {})
        metrics[f"{name}.calls"] = st.get("calls", 0)
        metrics[f"{name}.self_s"] = st.get("self_s", 0.0)
        metrics[f"{name}.share"] = st.get("share", 0.0)
        metrics[f"{name}.errors"] = st.get("errors", 0)
    metrics["graphs.dag_extensions.dags"] = \
        run["spans"].get("graphs.dag_extensions", {}).get("count", 0)
    pipeline = run["spans"].get("harness.run_pipeline", {})
    metrics["harness.run_pipeline.ms_p50"] = pipeline.get("ms_p50", 0.0)
    metrics["harness.run_pipeline.ms_p99"] = pipeline.get("ms_p99", 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - base_wall
    metrics["trace.overhead_share"] = (wall - base_wall) / base_wall
    metrics["trace.spans_absent"] = len(run["absent"])
    info = [f"traced {inputs[0].name}; untraced wall {base_wall:.6g} s"]
    info += [f"absent: {m}.{a} (span {s})" for m, a, s in run["absent"]]
    return metrics, per_layer_units(), [base, run], info


def run_workload(bench: Bench, workload: str, seed: int, seconds: float, trace: bool):
    digests = bench.inputs(workload, seed)
    bench.deadline = time.monotonic() + BUDGET_S
    metrics, units, children, info = (traced(bench, workload, list(digests)) if trace
                                      else timed(bench, workload, list(digests), seconds))
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    for path, digest in digests.items():
        print(f"input {path.name} sha256 {digest}")
    for line in info:
        print(line)
    for note in dict.fromkeys(n for c in children for n in c.get("notes", ())):
        print(f"note: {note}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    print(f"{'error_rate':44s} {failed / attempted:.6g} share "
          f"({failed} of {attempted} operations)")
    return metrics, units, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "causaltext" / "__init__.py").is_file():
        print(f"error: no causaltext package under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    out, attempted, failed = {}, 0, 0
    try:
        for workload in chosen:
            metrics, units, a, f = run_workload(bench, workload, args.seed,
                                                args.seconds, bool(args.trace))
            prefix = f"{workload}." if args.workload == "all" else ""
            out.update({prefix + k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()})
            attempted += a
            failed += f
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
