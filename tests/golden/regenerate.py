"""Golden `solve` outputs: the report and the extremal CSV of each case,
as `noether-lcs solve` writes them.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites every golden file from the package on the path.  A change that
moves a number regenerates them and says which fields moved.  The report's
`input` field is the path the problem was given by, so it is replaced by the
problem's file name; everything else is compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
CASES = {
    "oscillator": ROOT / "problems" / "oscillator.json",
    "free_particle": ROOT / "problems" / "free_particle.json",
    # a 3-coordinate anharmonic chain at n=200 (no closed form)
    "anharmonic_d3": GOLDEN / "anharmonic_d3.json",
}
OUTPUTS = ("solve_report.json", "extremal.csv")


def render(problem: Path) -> dict:
    """The normalised bytes of each output of `solve` on ``problem``."""
    from noether_lcs import cli

    with tempfile.TemporaryDirectory() as out:
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = cli.main(["solve", str(problem), "--out", out])
        if code != 0:
            raise RuntimeError(f"solve {problem} exited {code}")
        files = {name: (Path(out) / name).read_bytes() for name in OUTPUTS}
    given = f'"input": {json.dumps(str(problem))},'.encode()
    report = files["solve_report.json"]
    if report.count(given) != 1:
        raise RuntimeError(f"no single input field {given!r} in the report")
    files["solve_report.json"] = report.replace(
        given, f'"input": {json.dumps(problem.name)},'.encode()
    )
    return files


def main() -> int:
    for case, problem in CASES.items():
        folder = GOLDEN / case
        folder.mkdir(exist_ok=True)
        for name, data in render(problem).items():
            (folder / name).write_bytes(data)
            print(f"wrote {folder / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
