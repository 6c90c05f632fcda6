"""Each command reproduces the committed golden files of each case byte for
byte, with the committed exit code (regenerate them with
tests/golden/regenerate.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_CODES = json.loads(golden.EXIT_CODES.read_text())
_RUNS = [
    (case, run)
    for case in sorted(golden.CASES)
    for run in golden.runs(case)
    if run != "solve"
]


def _check(case, run):
    problem = golden.CASES[case]
    code, got = golden.render(problem, golden.runs(case)[run])
    assert code == _CODES[case][run]
    folder = golden.GOLDEN / case / run
    assert sorted(got) == sorted(p.name for p in folder.iterdir())
    for name, data in got.items():
        assert data == (folder / name).read_bytes(), f"{case}/{run}/{name} differs"


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_solve_reproduces_the_golden_outputs(case):
    _check(case, "solve")


@pytest.mark.parametrize("case,run", _RUNS, ids=[f"{c}/{r}" for c, r in _RUNS])
def test_command_reproduces_the_golden_outputs(case, run):
    _check(case, run)


def test_every_run_has_golden_files():
    assert {c: sorted(golden.runs(c)) for c in golden.CASES} == {
        c: sorted(codes) for c, codes in _CODES.items()
    }
