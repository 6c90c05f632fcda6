"""The CLI's import path loads only what the command runs.

Each case runs a fresh interpreter, because the test process itself has
long since imported scipy.  Nothing but ``solve`` (Simpson quadrature of the
action) may load ``scipy.integrate``, which brings ``scipy.linalg`` and
``scipy.sparse`` with it; every other command loads none of the four heavy
modules.  The banded Newton solve and the Jacobi eigensolve take their
LAPACK routines from ``noether_lcs._lapack``, which loads scipy's compiled
extension ``scipy.linalg._flapack`` on its own: those routines are the very
objects ``scipy.linalg.get_lapack_funcs`` hands out once ``scipy.linalg`` is
imported, and a scipy without the extension raises one ``ImportError``.  The
benchmark's import-split self-test reads ``scipy.integrate`` from a
``solve`` process, which the ``solve`` case pins.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noether_lcs
from noether_lcs import _lapack

SRC = Path(noether_lcs.__file__).resolve().parents[1]
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.sparse")


def fresh_interpreter(script, cwd):
    """The JSON that ``script`` prints last, run by a fresh interpreter that
    imports the package from this checkout."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    code, loaded = fresh_interpreter(script, out)
    return code, set(loaded)


@pytest.mark.parametrize(
    "command,problem,options,code,loaded",
    [
        (None, None, [], None, set()),
        ("check-invariance", "free_particle.json", [], 2, set()),
        ("find-symmetries", "free_particle.json", [], 0, set()),
        ("audit-diff", "free_particle.json", [], 0, set()),
        ("jacobi", "oscillator.json", [], 0, set()),
        ("legendre", "oscillator.json", [], 0, set()),
        ("noether", "oscillator.json", ["--generator", "time"], 0, set()),
        ("verify", "oscillator.json", ["--integral", "energy"], 0, set()),
        ("solve", "free_particle.json", [], 0, {"scipy.integrate", "scipy.linalg", "scipy.sparse"}),
    ],
    ids=["import", "check-invariance", "find-symmetries", "audit-diff", "jacobi", "legendre",
         "noether", "verify", "solve"],
)
def test_cli_loads_only_the_scipy_modules_its_command_calls(
    tmp_path, command, problem, options, code, loaded
):
    argv = [] if command is None else [command, str(PROBLEMS / problem), *options, "--out", "out"]
    assert heavy_modules_after(argv, tmp_path) == (code, loaded)


def test_the_lapack_routines_are_the_objects_scipy_linalg_hands_out(tmp_path):
    names = ("gbsv", "pbtrf", "pbtrs", "geqrf", "orgqr", "trtrs")
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from noether_lcs import _lapack\n"
        f"ours = _lapack.routines(*{names!r})\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "from scipy.linalg import get_lapack_funcs\n"
        f"theirs = get_lapack_funcs({names!r}, (np.zeros((2, 2)),))\n"
        "print(json.dumps([before, [a is b for a, b in zip(ours, theirs)]]))\n"
    )
    assert fresh_interpreter(script, tmp_path) == [False, [True] * len(names)]


def test_a_scipy_without_the_lapack_extension_raises_one_import_error(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, _lapack._NAME, raising=False)
    monkeypatch.setattr(_lapack, "_folder", lambda: tmp_path)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no LAPACK") as err:
        _lapack.routines("gbsv")
    assert str(tmp_path) in str(err.value)
