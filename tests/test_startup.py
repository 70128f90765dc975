"""Every CLI process imports the whole package, so what that import pulls in
is paid on every command.  ``dataclasses`` (with ``inspect``, which only it
loads) cost about 20 ms of each process and stay out of it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site-packages .pth files from importing modules of their own
    code = (
        "import fatcat.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
