"""The CLI's import path loads only what the command runs.

Each case runs a fresh interpreter, because the test process itself has
long since imported scipy.  Nothing but ``solve`` (Simpson quadrature of the
action) may load ``scipy.integrate``, which brings ``scipy.sparse`` with it;
the invariance and symmetry commands load no scipy at all, and the commands
that solve or take eigenvalues load ``scipy.linalg`` when they call it.  The
Jacobi eigensolve is built on ``scipy.linalg`` alone: ``scipy.sparse.linalg``
would cost a cold ``jacobi`` more than the eigensolve itself.  The
benchmark's import-split self-test reads ``scipy.integrate`` from a ``solve``
process, which the ``solve`` case pins.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noether_lcs

SRC = Path(noether_lcs.__file__).resolve().parents[1]
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.sparse")


def heavy_modules_after(argv, out):
    """Exit code of ``cli.main(argv)`` (None without argv) and the HEAVY
    modules in ``sys.modules`` afterwards, in a fresh interpreter."""
    script = (
        "import contextlib, io, json, sys\n"
        "import noether_lcs.cli as cli\n"
        f"argv = {argv!r}\n"
        "code = None\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        f"print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
    )
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, cwd=out,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded)


@pytest.mark.parametrize(
    "command,problem,code,loaded",
    [
        (None, None, None, set()),
        ("check-invariance", "free_particle.json", 2, set()),
        ("find-symmetries", "free_particle.json", 0, set()),
        ("audit-diff", "free_particle.json", 0, set()),
        ("jacobi", "oscillator.json", 0, {"scipy.linalg"}),
        ("solve", "free_particle.json", 0, {"scipy.integrate", "scipy.linalg", "scipy.sparse"}),
    ],
    ids=["import", "check-invariance", "find-symmetries", "audit-diff", "jacobi", "solve"],
)
def test_cli_loads_only_the_scipy_modules_its_command_calls(
    tmp_path, command, problem, code, loaded
):
    argv = [] if command is None else [command, str(PROBLEMS / problem), "--out", "out"]
    assert heavy_modules_after(argv, tmp_path) == (code, loaded)
