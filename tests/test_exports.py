"""The package's public names: what ``__all__`` lists must exist, so that
``from causaltext import *`` works; and what importing the package loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causaltext
from causaltext.dataset import balanced_generate, write_samples

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_once():
    names = causaltext.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(causaltext, name)]
    assert missing == []


def test_benchmark_imports_resolve():
    # perfbench/child.py builds the benchmark's inputs and gates from these
    # names, so a deletion that breaks it fails here and not in a benchmark
    # run; the file is read, not imported
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "causaltext"
                for alias in node.names]
    assert imported
    missing = []
    for module, name in imported:
        if not hasattr(importlib.import_module(module), name):
            try:  # a submodule, as in ``from causaltext import cli``
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert missing == []


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = code + "\nimport sys\nprint('--modules--', *sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.rpartition("--modules--")[2].split())


def test_import_loads_no_http_client_package():
    # the chat transport is the standard library's urllib, in a fresh
    # interpreter as in a demo run
    loaded = {name.split(".")[0] for name in _loaded_after("import causaltext")}
    assert "causaltext" in loaded
    assert not loaded & {"requests", "urllib3"}


# numpy is imported by the generation and table code and the HTTP stack by
# HttpBackend, each only where it runs; the CLI's version is the package's
# own, so importlib.metadata is never loaded
@pytest.mark.parametrize("module", ["causaltext", "causaltext.cli"])
def test_import_loads_neither_numpy_nor_http(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    assert not loaded & {"numpy", "http.client", "ssl", "email"}


def test_solve_loads_neither_numpy_nor_http_nor_metadata():
    loaded = _loaded_after(
        "from causaltext import cli\n"
        "assert cli.main(['solve', '--fixture', 'junk-food']) == 0")
    assert not loaded & {"numpy", "http.client", "importlib.metadata", "email"}


def test_mock_eval_and_score_load_neither_numpy_nor_http(tmp_path):
    # the manifest's version is read without importlib.metadata
    dataset = tmp_path / "ds.jsonl"
    write_samples(dataset, balanced_generate([3], 2, seed=5))
    run = tmp_path / "run"
    loaded = _loaded_after(
        "from causaltext import cli\n"
        f"assert cli.main(['eval', '--dataset', {str(dataset)!r}, '--backend', 'mock',"
        f" '--out', {str(run)!r}]) == 0\n"
        f"assert cli.main(['score', '--records', {str(run)!r}]) == 0")
    assert (run / "metrics.json").exists()
    assert not loaded & {"numpy", "http.client", "importlib.metadata"}


def test_generate_loads_numpy(tmp_path):
    # the deferred import still happens where the tables are built
    loaded = _loaded_after(
        "from causaltext import cli\n"
        f"assert cli.main(['generate', '--n', '3', '-o', {str(tmp_path / 'ds.jsonl')!r}]) == 0")
    assert "numpy" in loaded
