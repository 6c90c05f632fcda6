"""`solve` reproduces the committed golden report and extremal CSV of each
case byte for byte (regenerate them with tests/golden/regenerate.py)."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_solve_reproduces_the_golden_outputs(case):
    got = golden.render(golden.CASES[case])
    for name in golden.OUTPUTS:
        want = (golden.GOLDEN / case / name).read_bytes()
        assert got[name] == want, f"{case}/{name} differs from the golden file"
