"""The package's public names: what ``__all__`` lists must exist, so that
``from causaltext import *`` works; and what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import causaltext

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_once():
    names = causaltext.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(causaltext, name)]
    assert missing == []


def test_import_loads_no_http_client_package():
    # the chat transport is the standard library's urllib, in a fresh
    # interpreter as in a demo run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, causaltext; print(*sorted(sys.modules))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "causaltext" in loaded
    assert not loaded & {"requests", "urllib3"}
