"""Golden outputs of the eight commands: every report and CSV each command
writes on each case, and each run's exit code.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites every golden file from the package on the path, and for each file
whose bytes changed prints how many of its numbers moved and their largest
relative change.  A change that moves a number regenerates them and says
which fields moved.  Each run's
files sit in ``<case>/<run>/``, where a run is a command,
``legendre-seed-curve`` and ``jacobi-seed-curve`` (the two commands on the
case's golden ``solve`` curve, read back through ``--seed-curve``), or
``noether-<generator>`` and ``verify-<integral>`` for each generator and
integral of the problem file; ``exit_codes.json`` holds each run's exit code
(2 where a verdict fails).  A report's `input` field is the path the problem
was given by, so it is replaced by the problem's file name; everything else
is compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
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
    # a 3-coordinate oscillator chain with two equal frequencies, so the
    # symmetry search meets a two-dimensional null space (time and rotation)
    "oscillator_d3": GOLDEN / "oscillator_d3.json",
    # a 2-coordinate Lagrangian with sin, cos, exp, log, sqrt and a variable
    # divisor, so the transcendental rules of the evaluator are pinned too
    "transcendental_d2": GOLDEN / "transcendental_d2.json",
}
EXIT_CODES = GOLDEN / "exit_codes.json"
# a decimal number that is not part of a name such as x1 or mode_2
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
_PLAIN = ("solve", "legendre", "jacobi", "check-invariance", "find-symmetries", "audit-diff")


def runs(case: str) -> dict:
    """The command line after the problem path of each run, by run name.
    The ``--seed-curve`` runs read the ``solve`` run's curve, which is
    written first."""
    spec = json.loads(CASES[case].read_text())
    out = {name: [name] for name in _PLAIN}
    seed = str(GOLDEN / case / "solve" / "extremal.csv")
    for name in ("legendre", "jacobi"):
        out[f"{name}-seed-curve"] = [name, "--seed-curve", seed]
    for g in sorted(spec.get("generators", {})):
        out[f"noether-{g}"] = ["noether", "--generator", g]
    for i in sorted(spec.get("integrals", {})):
        out[f"verify-{i}"] = ["verify", "--integral", i]
    return out


def render(problem: Path, argv) -> tuple:
    """The exit code and the normalised bytes of each file of one run."""
    from noether_lcs import cli

    with tempfile.TemporaryDirectory() as out:
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = cli.main([argv[0], str(problem), *argv[1:], "--out", out])
        if code not in (0, 2):
            raise RuntimeError(f"{' '.join(argv)} on {problem} exited {code}")
        return code, normalised(problem, argv, out)


def normalised(problem: Path, argv, out) -> dict:
    """The bytes of each file a run wrote to ``out``, by name, with the
    report's ``input`` field, the path the problem was given by, replaced by
    the problem's file name."""
    files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
    given = f'"input": {json.dumps(str(problem))},'.encode()
    name = f"{argv[0].replace('-', '_')}_report.json"
    if files[name].count(given) != 1:
        raise RuntimeError(f"no single input field {given!r} in {name}")
    files[name] = files[name].replace(
        given, f'"input": {json.dumps(problem.name)},'.encode()
    )
    return files


def moved(old, new: bytes) -> str:
    """What a rewrite changed in a file: nothing, the count of its numbers
    that moved and their largest change relative to the old value, or a
    note that more than its numbers changed."""
    if old is None:
        return " (new file)"
    if old == new:
        return ""
    if _NUMBER.sub(b"#", old) != _NUMBER.sub(b"#", new):
        return ": more than its numbers changed"
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))
             if a != b]
    worst = max((abs(b - a) / abs(a) if a else math.inf for a, b in pairs), default=0.0)
    return f": {len(pairs)} numbers moved, largest relative change {worst:.3g}"


def write(path: Path, data: bytes, old) -> None:
    path.write_bytes(data)
    print(f"wrote {path}{moved(old, data)}")


def main() -> int:
    codes = {}
    for case, problem in CASES.items():
        old = {p: p.read_bytes() for p in (GOLDEN / case).rglob("*") if p.is_file()}
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        codes[case] = {}
        for run, argv in runs(case).items():
            codes[case][run], files = render(problem, argv)
            folder = GOLDEN / case / run
            folder.mkdir(parents=True)
            for name, data in files.items():
                write(folder / name, data, old.get(folder / name))
    old = EXIT_CODES.read_bytes() if EXIT_CODES.exists() else None
    write(EXIT_CODES, (json.dumps(codes, indent=2) + "\n").encode(), old)
    return 0


if __name__ == "__main__":
    sys.exit(main())
