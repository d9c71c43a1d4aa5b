"""Set-up probe: a fresh interpreter imports patdual.cli and serves one request.

Usage: python3 bench/probe.py <patdual argv...>

Prints `ready <exit code>` once the request has returned; `run.py` times
process start to that line as `setup_s`.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import patdual.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = patdual.cli.main(sys.argv[1:])
print(f"ready {code}", flush=True)
