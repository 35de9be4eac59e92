import gzip
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from functools import partial
from itertools import islice
from pathlib import Path

import pytest

import causaltext
from causaltext import cli, dataset, graphs, harness
from causaltext.cli import main
from causaltext.dataset import dataset_digest, generate, read_samples, write_samples

from conftest import (FIVE_VAR_PREMISE, FIVE_VAR_STEP_8, THREE_VAR_PREMISE,
                      FullDisk)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A -> C <- B and C -> D: only the chain rule orients C - D.
PROPAGATION_PREMISE = (
    "Suppose that there is a closed system of 4 variables, A, B, C and D. "
    "All statistical relations among these 4 variables are as follows: "
    "A correlates with C. B correlates with C. C correlates with D. "
    "A correlates with D. B correlates with D. However, A is independent of B. "
    "A and D are independent given C. B and D are independent given C.")


def test_version_flag_prints_the_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == causaltext.__version__ + "\n"


def test_module_runs_the_cli():
    # python -m causaltext, from a source tree that is not installed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "causaltext", "--version"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, causaltext.__version__ + "\n")


def test_version_is_the_pyproject_version(capsys):
    # --version, __version__ and the project metadata name one version, also
    # when the package runs from a source tree and is not installed
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == project["version"] + "\n"
    assert causaltext.__version__ == project["version"]


class TestSolve:
    def test_fixture_five_var(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--fixture", "five-var")
        assert code == 0
        assert "Step 9  answer: Yes" in out

    def test_premise_file_with_hypothesis_block(self, tmp_path, capsys):
        path = tmp_path / "premise.txt"
        path.write_text(f"Premise: {THREE_VAR_PREMISE}\n"
                        f"Hypothesis: A directly affects C.")
        code, out, _ = run_cli(capsys, "solve", "--premise", str(path),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["step_9"]["answer"] == "Yes"

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "premise.txt"
        path.write_text(FIVE_VAR_PREMISE)
        trace_path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "solve", "--premise", str(path),
                             "--hypothesis",
                             "There exists at least one collider (i.e., common"
                             " effect) of A and B.",
                             "--trace", str(trace_path))
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["step_8"] == FIVE_VAR_STEP_8

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("This premise is nonsense prose.")
        code, _, err = run_cli(capsys, "solve", "--premise", str(path))
        assert code == 2
        assert "unrecognized" in err

    def test_unknown_mention_is_printed_unquoted(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("Suppose there is a closed system of 3 variables, A, B and C."
                        " A and B are independent given C D.")
        code, _, err = run_cli(capsys, "solve", "--premise", str(path))
        assert code == 2
        assert err == ("error: unparseable premise: [61:95] unknown variable"
                       " mention: 'C D'\n")

    @pytest.mark.parametrize("how, answer, d_to_c", [
        ("off", "Undetermined", 1), ("flag", "Yes", 0)])
    def test_propagate_orients_the_chain(self, tmp_path, capsys, how, answer,
                                         d_to_c):
        path = tmp_path / "chain.txt"
        path.write_text(f"Premise: {PROPAGATION_PREMISE}\n"
                        f"Hypothesis: C directly affects D.")
        argv = ["solve", "--premise", str(path), "--eval-mode", "rule-based",
                "--format", "json"]
        if how == "flag":
            argv.append("--propagate")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        final = json.loads(out)["step_9"]
        assert final["answer"] == answer
        assert final["matrix"]["D"]["C"] == d_to_c

    def test_collider_filter_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--fixture", "three-var",
                  "--collider-filter", "pc-correct"])
        assert err.value.code == 2
        assert "--collider-filter" in capsys.readouterr().err

    @pytest.mark.parametrize("defaults", [{"command": "score"}, {"verbose": "loud"},
                                          {"format": "xml"}],
                             ids=["command", "verbose", "format"])
    def test_config_flag_is_gone(self, tmp_path, capsys, defaults):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "defaults": defaults}))
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "solve", "--fixture", "junk-food"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert not out and "causaltext: error:" in err_text

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--premise", "/no/such/file")
        assert code == 1


class TestGenerate:
    def test_summary_counts(self, tmp_path, capsys):
        out_path = tmp_path / "ds.jsonl"
        code, out, _ = run_cli(capsys, "generate", "--n", "3",
                               "-o", str(out_path), "--format", "json")
        assert code == 0
        summary = json.loads(out)
        assert summary["dags"] == 25 and summary["mecs"] == 11
        assert summary["rows"] == 264

    def test_bounds_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "7",
                               "-o", str(tmp_path / "x.jsonl"))
        assert code == 2

    def test_failed_run_leaves_no_file(self, tmp_path, capsys):
        out_path = tmp_path / "x.jsonl"
        code, _, _ = run_cli(capsys, "generate", "--n", "7", "-o", str(out_path))
        assert code == 2
        assert not out_path.exists()
        assert list(tmp_path.iterdir()) == []
        # a failed run also leaves an earlier dataset as it was
        out_path.write_text("earlier\n")
        code, _, _ = run_cli(capsys, "generate", "--n", "7", "-o", str(out_path))
        assert code == 2
        assert out_path.read_text() == "earlier\n"

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        code, _, err = run_cli(capsys, "generate", "--n", "3",
                               "-o", str(missing / "x.jsonl"))
        assert code == 2
        assert err.strip() == f"error: output directory {missing} does not exist"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("limit,draw", [(0, ()), (5, ()),
                                            (3, ("--balanced", "4", "--seed", "1"))])
    def test_limit(self, tmp_path, capsys, limit, draw):
        out_path = tmp_path / "ds.jsonl"
        code, out, _ = run_cli(capsys, "generate", "--n", "3", "--limit", str(limit),
                               *draw, "-o", str(out_path), "--format", "json")
        assert code == 0
        summary = json.loads(out)
        assert summary["rows"] == summary["yes"] + summary["no"] == limit
        assert len(out_path.read_text().splitlines()) == limit

    @pytest.mark.parametrize("draw", [("--limit", "1000"),
                                      ("--balanced", "5", "--seed", "7")])
    def test_summary_counts_match_the_file(self, tmp_path, capsys, draw):
        out_path = tmp_path / "ds.jsonl"
        code, out, _ = run_cli(capsys, "generate", "--n", "4", *draw,
                               "-o", str(out_path), "--format", "json")
        assert code == 0
        summary = json.loads(out)
        labels = [json.loads(line)["label"] for line in out_path.read_text().splitlines()]
        assert summary["rows"] == len(labels)
        assert summary["yes"] == labels.count("Yes") > 0
        assert summary["no"] == labels.count("No") > 0

    @pytest.mark.parametrize("draw", [(), ("--gzip",), ("--limit", "0"),
                                      ("--limit", "1000"),
                                      ("--balanced", "5", "--seed", "7")])
    def test_summary_digest_is_the_file_digest(self, tmp_path, capsys, draw):
        out_path = tmp_path / "ds.jsonl"
        code, out, _ = run_cli(capsys, "generate", "--n", "4", *draw,
                               "-o", str(out_path), "--format", "json")
        assert code == 0
        assert json.loads(out)["digest"] == dataset_digest(out_path)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, "write",
                                       "flush", "close"],
                             ids=["stream", "interrupt", "full-disk", "full-at-flush",
                                  "full-at-close"])
    def test_failed_write_leaves_no_file_and_no_thread(self, tmp_path, capsys,
                                                       monkeypatch, error):
        monkeypatch.setattr(dataset, "WRITE_ROWS", 1)
        argv = ["generate", "--n", "4", "-o", str(tmp_path / "ds.jsonl")]
        if isinstance(error, str):
            monkeypatch.setattr(dataset, "open", partial(FullDisk, fails_at=error),
                                raising=False)
            if error != "write":  # a few rows, so the disk is met only at the end
                argv += ["--limit", "3"]
        else:
            def failing(*args, **kwargs):
                yield from islice(generate(*args, **kwargs), 500)
                raise error("the stream broke")
            monkeypatch.setattr(cli, "generate", failing)
        before = threading.enumerate()
        if isinstance(error, str):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1 and "No space left on device" in err
        else:
            with pytest.raises(error, match="the stream broke"):
                main(argv)
        assert list(tmp_path.iterdir()) == []
        assert threading.enumerate() == before

    def test_max_cond_flag_is_gone(self, tmp_path, capsys):
        # a premise cut to small separating sets gave classes with different
        # labels one premise text
        with pytest.raises(SystemExit) as err:
            main(["generate", "--n", "4", "--max-cond", "1", "-o", str(tmp_path / "x.jsonl")])
        assert err.value.code == 2
        assert "unrecognized arguments: --max-cond 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "3", "--kinds", "cause,bogus",
                               "-o", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "'bogus'" in err
        for kind in ("direct_cause", "indirect_cause", "cause", "common_effect",
                     "common_cause"):
            assert kind in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kinds", [",", " , ", ""])
    def test_kinds_naming_no_kind_exits_2(self, tmp_path, capsys, kinds):
        code, _, err = run_cli(capsys, "generate", "--n", "3", "--kinds", kinds,
                               "-o", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "names no hypothesis kind" in err
        assert list(tmp_path.iterdir()) == []

    def test_balanced_requires_seed(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "3", "--balanced", "5",
                               "-o", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "seed" in err

    def test_negative_balanced_exits_2_before_drawing(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew from the universe")

        monkeypatch.setattr(cli, "balanced_generate", no_draw)
        out_path = tmp_path / "x.jsonl"
        code, _, err = run_cli(capsys, "generate", "--n", "5", "--balanced", "-2",
                               "--seed", "1", "-o", str(out_path))
        assert code == 2
        assert "--balanced must not be negative" in err
        assert list(tmp_path.iterdir()) == []

    def test_capacity_error_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "2", "--balanced", "1",
                               "--seed", "1", "-o", str(tmp_path / "x.jsonl"))
        assert code == 1
        assert "n_vars=2" in err

    def test_seed_without_balanced_shuffles(self, tmp_path, capsys):
        # one seed gives one file; another seed orders the same rows otherwise
        data = {}
        for name, seed in (("a", "1"), ("b", "1"), ("c", "2")):
            path = tmp_path / f"{name}.jsonl"
            code, _, _ = run_cli(capsys, "generate", "--n", "3", "--seed", seed,
                                 "-o", str(path))
            assert code == 0
            data[name] = path.read_bytes()
        assert data["a"] == data["b"]
        assert data["a"] != data["c"]
        assert sorted(data["a"].splitlines()) == sorted(data["c"].splitlines())

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_limit_takes_the_first_rows_of_the_seeds_order(self, tmp_path, capsys, seed):
        path = tmp_path / "x.jsonl"
        argv = ["generate", "--n", "3", "--limit", "5", "-o", str(path)]
        code, _, _ = run_cli(capsys, *argv, *([] if seed is None else ["--seed", str(seed)]))
        assert code == 0
        assert [s.id for s in read_samples(path)] \
            == [s.id for s in islice(generate(3, seed=seed), 5)]

    def test_story_generation_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "generate", "--n", "3", "--style",
                                 "story", "--theme", "health", "--balanced", "4",
                                 "--seed", "7", "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


DATASET_FORMS = {"canonical": (), "balanced": ("--balanced", "10", "--seed", "3"),
                 "story": ("--style", "story"), "closure": ("--closure",)}
# sha256 of the dataset bytes, pinned from the output of the row-by-row
# labelling (every claim checked in every member DAG) that class labels
# replaced; the closure entry from the search over every subset of the
# other nodes that ancestor-only candidates replaced
GOLDEN_DATASETS = {
    ("3", "canonical"): "6a8ab95bc4f84cde17b5e3ab5332efa8743effcf903dce4cb0a8aa57946fdb6f",
    ("3", "balanced"): "e3277727ad0db838e82121814c38f63fb69cb5ad7341f1e72aa30b3f9853bb5d",
    ("3", "story"): "921c3896dbe23dd49bdbe437023b55216f39ae8aeae006be73a405cb3c12f8e0",
    ("4", "canonical"): "e809d40e5d4864c7311d1bef25bba23840882d660086758eb921a3a87022566e",
    ("4", "balanced"): "5a704a665d427dd8aa080b18624a294d3d496d662b6d8deb6add2fea6edaf11b",
    ("4", "story"): "1315c764736779280577db76c6a5b6c9d364140b0f04cc4964f7efc50a9b2b57",
    ("4", "closure"): "b03f5b9f2662ef61d701fa3074776a06bf4218dc533d129e6afd1dfd85a0e308",
}


# sha256 of the compressed bytes of ``generate --n N --gzip``, whatever the
# -o name: the gzip header carries no file name and no timestamp. Re-pinned
# when the header stopped carrying the name; the stream after it is the one
# the row-by-row writer wrote
GOLDEN_GZIP = {
    "3": "0654a16cd1fc0b16ab29421110b8a8328b0c2aa4f434783136f50fa610507f14",
    "4": "0b18fc42af3970a41108ebe5b5a17eff71051d13b3151fa10b9006f3687e90dd",
}


class TestGoldenDatasets:
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("n,form", list(GOLDEN_DATASETS))
    def test_generate_bytes(self, tmp_path, capsys, n, form, compress):
        out_path = tmp_path / ("ds.jsonl.gz" if compress else "ds.jsonl")
        code, _, _ = run_cli(capsys, "generate", "--n", n, *DATASET_FORMS[form],
                             "-o", str(out_path), *(["--gzip"] if compress else []))
        assert code == 0
        data = out_path.read_bytes()
        if compress:  # the goldens pin the uncompressed bytes
            data = gzip.decompress(data)
        assert hashlib.sha256(data).hexdigest() == GOLDEN_DATASETS[n, form]

    @pytest.mark.parametrize("n", list(GOLDEN_GZIP))
    def test_generate_gzip_bytes(self, tmp_path, capsys, n):
        out_path = tmp_path / "ds.jsonl.gz"
        code, _, _ = run_cli(capsys, "generate", "--n", n, "--gzip", "-o", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_GZIP[n]

    def test_gzip_bytes_do_not_depend_on_the_name(self, tmp_path, capsys):
        paths = [tmp_path / "out_a.jsonl", tmp_path / "out_b.jsonl.gz"]
        for path in paths:
            code, _, _ = run_cli(capsys, "generate", "--n", "3", "--gzip", "-o", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 of ``generate --n 6 --balanced 10 --seed 3``, pinned from the
# output of an index built in process
GOLDEN_N6_BALANCED = "ff6f0d229bacfa27abf557fa1111b7e3ea6ff6288e04a879319a536bf66edcf6"


class TestIndexCacheBytes:
    @pytest.mark.parametrize("n,form", [*GOLDEN_DATASETS, ("6", "balanced")])
    def test_cold_and_warm_index_write_the_same_bytes(self, tmp_path, capsys,
                                                      monkeypatch, n, form):
        # cold: no cache file, so the index is built and written; warm: the
        # index is loaded from that file, and building it would fail
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        want = GOLDEN_DATASETS.get((n, form), GOLDEN_N6_BALANCED)
        try:
            for state in ("cold", "warm"):
                graphs.mec_index.cache_clear()
                if state == "warm":
                    assert (tmp_path / "xdg" / "causaltext" / f"mec_index_{n}").exists()
                    monkeypatch.setattr(graphs, "_index_arrays", None)
                out_path = tmp_path / f"{state}.jsonl"
                code, _, _ = run_cli(capsys, "generate", "--n", n, *DATASET_FORMS[form],
                                     "-o", str(out_path))
                assert code == 0
                assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want, state
        finally:
            graphs.mec_index.cache_clear()


class TestEvalAndScore:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.jsonl"
        code, _, _ = run_cli(capsys, "generate", "--n", "3", "--balanced", "4",
                             "--seed", "3", "-o", str(path))
        assert code == 0
        return path

    def test_mock_eval_perfect(self, tmp_path, dataset, capsys):
        # the fixture's draw, and a balanced closure draw at n=4
        closure = tmp_path / "closure.jsonl"
        code, _, _ = run_cli(capsys, "generate", "--n", "4", "--closure", "--balanced",
                             "20", "--seed", "3", "-o", str(closure))
        assert code == 0
        for path, out_dir in ((closure, tmp_path / "closure-run"), (dataset, tmp_path / "run")):
            code, out, _ = run_cli(capsys, "eval", "--dataset", str(path),
                                   "--backend", "mock", "--out", str(out_dir),
                                   "--format", "json")
            assert code == 0
            report = json.loads(out)
            overall = report["overall"]
            assert all(overall[k] == 1.0 for k in ("accuracy", "f1", "precision", "recall"))
            assert all(v == 1.0 for v in report["step_accuracy"].values())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"version", "config_digest", "dataset_digest",
                                 "mode", "n_records"}
        assert manifest["version"] == causaltext.__version__
        assert str(tmp_path) not in json.dumps(manifest)

    def test_report_that_fails_to_serialise_keeps_the_old_one(self, tmp_path, dataset,
                                                              capsys, monkeypatch):
        out_dir = tmp_path / "run"
        argv = ["eval", "--dataset", str(dataset), "--backend", "mock", "--out", str(out_dir)]
        assert run_cli(capsys, *argv)[0] == 0
        old = (out_dir / "metrics.json").read_bytes()
        as_dict = harness.ScoreReport.as_dict
        # json meets the set only after it has encoded every other entry
        monkeypatch.setattr(harness.ScoreReport, "as_dict",
                            lambda self: {**as_dict(self), "late": {1}})
        with pytest.raises(TypeError):
            main(argv)
        assert (out_dir / "metrics.json").read_bytes() == old
        assert not list(out_dir.glob("*.tmp"))

    @pytest.mark.parametrize("name,compress", [("ds.jsonl", True), ("ds.gz", False)],
                             ids=["gzip-named-plain", "plain-named-gz"])
    def test_dataset_read_by_content_not_name(self, tmp_path, capsys, name, compress):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "generate", "--n", "3", "--balanced", "4",
                             "--seed", "3", "-o", str(path),
                             *(["--gzip"] if compress else []))
        assert code == 0
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == compress
        out_dir = tmp_path / "run"
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path), "--backend",
                                 "mock", "--out", str(out_dir), "--format", "json")
        assert code == 0, err
        assert json.loads(out)["overall"]["accuracy"] == 1.0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        # the manifest hashes the stored bytes, compressed or not
        assert manifest["dataset_digest"] == hashlib.sha256(
            path.read_bytes()).hexdigest()[:16]

    @pytest.mark.parametrize("line,problem", [
        (b"{not json", "not JSON"),
        (b'{"id": "x", "n_vars": 3}', "no field 'premise'"),
        (b'["id", "premise"]', "not a JSON object"),
        (b'{"id": "x\xff"}', "not UTF-8")],
        ids=["non-json", "missing-field", "non-object", "non-utf8"])
    def test_malformed_row_exits_2_with_file_and_line(self, tmp_path, dataset, capsys,
                                                       line, problem):
        bad = tmp_path / "bad.jsonl"
        first = dataset.read_bytes().splitlines()[0]
        bad.write_bytes(first + b"\n\n" + line + b"\n")
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(bad),
                               "--backend", "mock", "--out", str(out_dir))
        assert code == 2
        assert f"{bad} line 3: {problem}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field,value,problem", [
        ("premise", 5, "field 'premise' is int 5, not str"),
        ("id", 7, "field 'id' is int 7, not str"),
        ("n_vars", "3", "field 'n_vars' is str '3', not int"),
        ("n_vars", True, "field 'n_vars' is bool True, not int"),
        ("schema_version", False, "field 'schema_version' is bool False, not int"),
        ("label", "maybe", "label 'maybe' is neither 'Yes' nor 'No'"),
        ("schema_version", 2, "schema_version 2; only 1 is read"),
        ("n_vars", 4, "n_vars 4 but the premise declares 3 variables"),
        ("premise", "A loves B.",
         "premise does not parse: [0:10] unrecognized sentence: 'A loves B'"),
        ("premise", "A correlates with B. A is independent of B.",
         "premise does not parse: pair(s) listed both dependent and independent: A-B"),
        ("hypothesis", "A frobs B.",
         "hypothesis does not parse: [0:10] unrecognized hypothesis: 'A frobs B'"),
        ("hypothesis", "Does A cause A indirectly?",
         "hypothesis does not parse: hypothesis subject and object must differ")],
        ids=["premise-int", "id-int", "n_vars-str", "n_vars-bool",
             "schema_version-bool", "label-maybe", "schema_version-2", "n_vars-4",
             "premise-unparseable", "premise-contradictory", "hypothesis-unparseable",
             "hypothesis-self"])
    def test_mistyped_field_exits_2_with_file_and_line(self, tmp_path, dataset, capsys,
                                                        field, value, problem):
        first, second = dataset.read_text().splitlines()[:2]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{first}\n{json.dumps({**json.loads(second), field: value})}\n")
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(bad),
                               "--backend", "mock", "--out", str(out_dir))
        assert code == 2
        assert f"{bad} line 2: {problem}" in err
        assert not out_dir.exists()

    def test_record_then_replay(self, tmp_path, dataset, capsys):
        run_a = tmp_path / "a"
        code, _, _ = run_cli(capsys, "eval", "--dataset", str(dataset),
                             "--backend", "mock", "--out", str(run_a), "--record")
        assert code == 0
        run_b = tmp_path / "b"
        code, out, _ = run_cli(capsys, "eval", "--dataset", str(dataset),
                               "--replay", str(run_a / "transcripts"),
                               "--out", str(run_b), "--format", "json")
        assert code == 0
        a = json.loads((run_a / "metrics.json").read_text())
        b = json.loads((run_b / "metrics.json").read_text())
        assert a == b

    def test_replay_directory_with_url_characters(self, tmp_path, dataset, capsys):
        # '#' and '?' would end the path of a parsed URL
        for name in ("a#b", "c?d"):
            transcripts = tmp_path / name / "t"
            runs = {}
            for run, source in (("rec", ("--backend", "mock", "--record")),
                                ("rep", ("--replay", str(transcripts)))):
                out_dir = tmp_path / name / run
                code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                                       *source, "--out", str(out_dir))
                assert code == 0, err
                if run == "rec":
                    (out_dir / "transcripts").rename(transcripts)
                runs[run] = {}
                for path in (out_dir / "records").iterdir():
                    record = json.loads(path.read_text())
                    record.pop("elapsed_ms")
                    runs[run][path.name] = record
            assert runs["rec"] == runs["rep"] and len(runs["rec"]) == 8

    @pytest.mark.parametrize("body,problem", [
        ("{not json", "is not JSON"),
        ("[]", "is not an object"),
        ('{"sample_id": "x", "exchanges": {}}', "is not an object"),
        ('{"exchanges": [{"step": 1, "response": 3}]}', "is not an object")],
        ids=["not-json", "not-object", "no-exchanges-list", "no-string-response"])
    def test_broken_transcript_fails_only_its_sample(self, tmp_path, dataset, capsys,
                                                     body, problem):
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset), "--backend",
                               "mock", "--record", "--out", str(tmp_path / "rec"))
        assert code == 0, err
        transcripts = tmp_path / "rec" / "transcripts"
        bad, *good = sorted(transcripts.iterdir())
        bad.write_text(body)
        out_dir = tmp_path / "rep"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset), "--replay",
                               str(transcripts), "--out", str(out_dir))
        assert code == 0, err
        records = {p.name: json.loads(p.read_text())
                   for p in (out_dir / "records").iterdir()}
        error = records.pop(bad.name)["error"]
        assert f"step 1: transcript for {bad.stem!r} {problem}" in error
        assert len(records) == len(good) == 7
        assert all(r["error"] is None and r["correct"] for r in records.values())

    def test_path_like_id_exits_2_and_writes_nothing(self, tmp_path, dataset, capsys):
        samples = read_samples(dataset)
        bad = tmp_path / "x" / "bad.jsonl"
        bad.parent.mkdir()
        write_samples(bad, [samples[0], replace(samples[1], id="../../escaped")])
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run_cli(capsys, "eval", "--dataset", str(bad), "--backend",
                               "mock", "--out", str(tmp_path / "x" / "run"), "--record")
        assert code == 2
        assert "line 2" in err and "../../escaped" in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_repeated_id_exits_2_and_writes_nothing(self, tmp_path, dataset, capsys):
        # a repeated id would overwrite the first row's record file, leaving
        # fewer records on disk than the run reports
        samples = read_samples(dataset)
        bad = tmp_path / "x" / "bad.jsonl"
        bad.parent.mkdir()
        write_samples(bad, [*samples[:3], replace(samples[3], id=samples[1].id)])
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run_cli(capsys, "eval", "--dataset", str(bad), "--backend",
                               "mock", "--out", str(tmp_path / "x" / "run"), "--record")
        assert code == 2
        assert str(bad) in err and "line 4" in err and repr(samples[1].id) in err
        assert "line 2" in err  # the row that first held the id
        assert sorted(tmp_path.rglob("*")) == before

    def test_unsolvable_premise_is_that_sample_error(self, tmp_path, capsys):
        # the stated colliders at B and C conflict, so the engine finds no
        # consistent extension; the other rows must still be graded
        path = tmp_path / "ds.jsonl"
        code, _, _ = run_cli(capsys, "generate", "--n", "4", "--balanced", "2",
                             "--seed", "5", "-o", str(path))
        assert code == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()[:3]]
        bad = dict(rows[0], id="4v-conflict", kind="direct_cause",
                   hypothesis="B directly causes C.")
        bad["premise"] = (
            "Suppose that there is a closed system of 4 variables, A, B, C and D. "
            "All statistical relations among these 4 variables are as follows: "
            "A correlates with B. B correlates with C. C correlates with D. "
            "A is the cause of B. D is the cause of C. However, A is independent "
            "of C. B is independent of D. A is independent of D.")
        path.write_text("".join(json.dumps(r) + "\n" for r in rows + [bad]))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(path),
                               "--backend", "mock", "--out", str(out_dir))
        assert code == 0, err
        records = {p.stem: json.loads(p.read_text())
                   for p in (out_dir / "records").iterdir()}
        assert len(records) == 4
        failed = records.pop("4v-conflict")
        assert failed["error"] == "reference: matrix admits no consistent extension"
        assert failed["steps"] == {} and failed["verdict"] is None
        assert all(r["error"] is None and r["correct"] for r in records.values())
        assert json.loads((out_dir / "manifest.json").read_text())["n_records"] == 4
        # the failed reference grades nothing, so the mock still scores 1.0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["n_records"] == 4 and metrics["reference_errors"] == 1
        assert all(metrics["overall"][k] == 1.0
                   for k in ("accuracy", "precision", "recall", "f1"))
        assert metrics["overall"]["tp"] + metrics["overall"]["tn"] == 3
        assert all(v == 1.0 for v in metrics["step_accuracy"].values())
        code, out, _ = run_cli(capsys, "score", "--records", str(out_dir))
        assert code == 0 and "reference errors: 1" in out

    def test_premise_over_six_variables_is_that_sample_error(self, tmp_path, capsys):
        # the reference enumerates DAGs on at most six nodes; a larger premise
        # must fail its own record, not the batch
        path = tmp_path / "ds.jsonl"
        code, _, _ = run_cli(capsys, "generate", "--n", "4", "--balanced", "2",
                             "--seed", "5", "-o", str(path))
        assert code == 0
        first = json.loads(path.read_text().splitlines()[0])
        labels = "ABCDEFG"
        wide = dict(first, id="7v", n_vars=7, hypothesis="A directly causes B.",
                    premise=f"Suppose that there is a closed system of 7 variables,"
                            f" {', '.join(labels[:-1])} and G. A correlates with B.")
        path.write_text(json.dumps(first) + "\n" + json.dumps(wide) + "\n")
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(path),
                               "--backend", "mock", "--out", str(out_dir))
        assert code == 0, err
        record = json.loads((out_dir / "records" / "7v.json").read_text())
        assert record["error"].startswith("reference: ") and record["steps"] == {}
        assert json.loads((out_dir / "manifest.json").read_text())["n_records"] == 2
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["n_records"] == 2 and metrics["reference_errors"] == 1

    def test_records_are_compact_lines_that_score_reads(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "eval", "--dataset", str(dataset), "--backend",
                               "mock", "--out", str(out_dir), "--format", "json")
        assert code == 0
        paths = sorted((out_dir / "records").iterdir())
        assert len(paths) == 8
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        code, scored, _ = run_cli(capsys, "score", "--records", str(out_dir),
                                  "--format", "json")
        assert code == 0 and json.loads(scored) == json.loads(out)

    def _peak_alive(self, monkeypatch, capsys, dataset, out, *flags, pause=0.0):
        """The most records alive at a write, over an 8-sample mock eval;
        ``pause`` holds each write, so the workers can run ahead."""
        alive, real = [], cli.run_pipeline

        def tracked(*args):
            record = real(*args)
            alive.append(weakref.ref(record))
            return record

        peak = []
        real_write = cli._write_record

        def write(records_dir, rec):
            time.sleep(pause)
            peak.append(sum(ref() is not None for ref in alive))
            real_write(records_dir, rec)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_pipeline", tracked)
            patch.setattr(cli, "_write_record", write)
            code, stdout, _ = run_cli(capsys, "eval", "--dataset", str(dataset), "--backend",
                                      "mock", "--out", str(out), "--format", "json", *flags)
        assert code == 0 and json.loads(stdout)["n_records"] == len(alive) == 8
        return max(peak)

    def test_eval_scores_records_as_written(self, tmp_path, dataset, capsys, monkeypatch):
        # each record is scored once written and then dropped: none is kept
        # until the run ends. The record being written and the one scored
        # before it are alive; with --parallel N, at most 2N records are
        # submitted and not yet written (the one being written among them)
        assert self._peak_alive(monkeypatch, capsys, dataset, tmp_path / "run") <= 2
        assert self._peak_alive(monkeypatch, capsys, dataset, tmp_path / "run2",
                                "--parallel", "2", pause=0.02) <= 2 * 2 + 1

    def test_score_from_records(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "run"
        run_cli(capsys, "eval", "--dataset", str(dataset), "--backend", "mock",
                "--out", str(out_dir))
        code, out, _ = run_cli(capsys, "score", "--records", str(out_dir),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["accuracy"] == 1.0
        assert all(v == 1.0 for v in report["subtask_accuracy"].values())

    def test_score_prints_the_report_eval_printed(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "run"
        code, eval_out, _ = run_cli(capsys, "eval", "--dataset", str(dataset),
                                    "--backend", "mock", "--out", str(out_dir))
        assert code == 0 and "subtask accuracy" in eval_out
        code, score_out, _ = run_cli(capsys, "score", "--records", str(out_dir))
        assert code == 0
        assert score_out == eval_out

    def test_score_empty_dir_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "score", "--records", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("body", ['{"sample_id": "x"}', "not json",
                                      '{"steps": []}'])
    def test_score_malformed_record_exits_2(self, tmp_path, capsys, body):
        (tmp_path / "x.json").write_text(body)
        code, _, err = run_cli(capsys, "score", "--records", str(tmp_path))
        assert code == 2
        assert "malformed record x.json" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--limit", "-1", "--limit must not be negative"),
        ("--parallel", "0", "--parallel must be at least 1")])
    def test_bad_limit_or_parallel_exits_2(self, tmp_path, dataset, capsys,
                                           flag, value, message):
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                               "--backend", "mock", "--out", str(out_dir),
                               flag, value)
        assert code == 2
        assert message in err
        assert not out_dir.exists()

    def test_limit_parses_only_the_first_rows(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ds.jsonl"
        write_samples(path, list(generate(4))[::48])  # one row per class
        calls = []
        real = dataset.parse_premise

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(dataset, "parse_premise", counting)
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "eval", "--dataset", str(path), "--backend",
                               "mock", "--out", str(out_dir), "--limit", "5",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["n_records"] == 5
        assert len(calls) == 5
        assert len(list((out_dir / "records").iterdir())) == 5

    @pytest.mark.parametrize("parallel", ["1", "3"])
    def test_records_written_as_samples_finish(self, tmp_path, dataset, capsys,
                                               monkeypatch, parallel):
        ids = [s.id for s in read_samples(dataset)]
        real = cli.run_pipeline

        def crash_on_third(sample, *args, **kwargs):
            if sample.id == ids[2]:
                raise RuntimeError("worker died")
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", crash_on_third)
        out_dir = tmp_path / "run"
        with pytest.raises(RuntimeError):
            main(["eval", "--dataset", str(dataset), "--backend", "mock",
                  "--out", str(out_dir), "--record", "--parallel", parallel])
        records = out_dir / "records"
        assert sorted(p.name for p in records.iterdir()) == sorted(
            f"{i}.json" for i in ids[:2])
        for i in ids[:2]:
            assert json.loads((records / f"{i}.json").read_text())["correct"]
        assert not list(out_dir.rglob("*.tmp"))

    def test_parallel_records_match_serial(self, tmp_path, dataset, capsys):
        runs = {}
        for parallel in ("1", "3"):
            out_dir = tmp_path / parallel
            code, _, _ = run_cli(capsys, "eval", "--dataset", str(dataset),
                                 "--backend", "mock", "--out", str(out_dir),
                                 "--parallel", parallel)
            assert code == 0
            runs[parallel] = {}
            for path in (out_dir / "records").iterdir():
                record = json.loads(path.read_text())
                record.pop("elapsed_ms")
                runs[parallel][path.name] = record
        assert runs["1"] == runs["3"] and len(runs["1"]) == 8

    def test_parallel_replay_matches_serial(self, tmp_path, dataset, capsys):
        transcripts = tmp_path / "rec" / "transcripts"
        runs = {}
        for run, source in (("rec", ("--backend", "mock", "--record")),
                            ("1", ("--replay", str(transcripts))),
                            ("4", ("--replay", str(transcripts), "--parallel", "4"))):
            out_dir = tmp_path / run
            code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                                   *source, "--out", str(out_dir))
            assert code == 0, err
            runs[run] = {}
            for path in (out_dir / "records").iterdir():
                record = json.loads(path.read_text())
                record.pop("elapsed_ms")
                runs[run][path.name] = record
        assert runs["1"] == runs["4"] == runs["rec"] and len(runs["1"]) == 8

    def test_missing_auth_env_fails_before_request(self, tmp_path, dataset,
                                                   capsys, monkeypatch):
        monkeypatch.delenv("MISSING_TOKEN", raising=False)
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                               "--backend", "https://api.invalid/v1/chat",
                               "--auth-env", "MISSING_TOKEN",
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "MISSING_TOKEN" in err

    def test_missing_replay_directory_exits_2_before_reading(self, tmp_path, dataset,
                                                             capsys, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "read_samples", unread)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                               "--replay", str(tmp_path / "no" / "such"),
                               "--out", str(out_dir))
        assert code == 2
        assert "transcript directory not found" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("backend", ["mock://engine", "replay://transcripts",
                                         "ftp://x"])
    def test_backend_that_is_no_http_url_exits_2_before_reading(
            self, tmp_path, dataset, capsys, monkeypatch, backend):
        # 'mock' is the one spelling of the oracle, and --replay the one of replay
        (tmp_path / "transcripts").mkdir()
        monkeypatch.chdir(tmp_path)

        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "read_samples", unread)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset),
                               "--backend", backend, "--out", str(out_dir))
        assert code == 2
        assert f"not an http(s) endpoint URL: {backend!r}" in err
        assert not out_dir.exists()

    def test_manifest_names_the_http_config_only(self, tmp_path, dataset, capsys):
        digests = {}
        for run, source in (("mock", ("--backend", "mock", "--record")),
                            ("replay", ("--replay", str(tmp_path / "mock" / "transcripts"))),
                            # a refused connection fails the one sample, not the run
                            ("http", ("--backend", "http://127.0.0.1:9",
                                      "--attempts", "1", "--limit", "1"))):
            code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset), *source,
                                   "--out", str(tmp_path / run))
            assert code == 0, err
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            digests[run] = manifest["config_digest"]
        # BackendConfig("http://127.0.0.1:9", attempts=1).digest()
        assert digests == {"mock": None, "replay": None, "http": "f9b051d44b992c24"}

    def test_backend_and_replay_mutually_exclusive(self, tmp_path, dataset,
                                                   capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--dataset", str(dataset), "--backend", "mock",
                  "--replay", "x", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize("source", ["mock", "replay"])
    @pytest.mark.parametrize("flag,value", [("--model", "x"),
                                            ("--auth-env", "NOPE_UNSET"),
                                            ("--attempts", "0")])
    def test_http_option_without_http_backend_exits_2_before_reading(
            self, tmp_path, dataset, capsys, monkeypatch, source, flag, value):
        (tmp_path / "transcripts").mkdir()

        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "read_samples", unread)
        monkeypatch.delenv("NOPE_UNSET", raising=False)
        backend = (("--backend", "mock") if source == "mock"
                   else ("--replay", str(tmp_path / "transcripts")))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset), *backend,
                               flag, value, "--out", str(out_dir))
        assert code == 2
        named = "--backend mock" if source == "mock" else "--replay"
        assert f"{flag} applies to an http(s) --backend only, not to {named}" in err
        assert not out_dir.exists()
