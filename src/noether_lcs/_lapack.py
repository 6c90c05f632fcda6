"""The double-precision LAPACK routines the package calls, from scipy's
Fortran extension ``scipy.linalg._flapack``, without ``import scipy.linalg``.

That import costs a cold process about as much again as numpy's, for the six
routines the Newton step and the Jacobi eigensolve call (``gbsv``; ``pbtrf``,
``pbtrs``, ``geqrf``, ``orgqr`` and ``trtrs``).  The extension is loaded on
its own from scipy's install folder, found without running scipy's
``__init__``, under its real name.  So a later ``import scipy.linalg`` finds
it in ``sys.modules``, and scipy's own LAPACK lookup hands out these very
function objects.  ``_flapack`` is private to scipy; the tests pin that
identity, and a scipy without it raises one ``ImportError``.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"
_TESTED = "1.17.1"  # the scipy on which that identity was last checked


def routines(*names):
    """The ``d``-prefixed (float64) LAPACK routines ``names``, a tuple in
    the same order: the objects scipy.linalg hands out for float64 arrays."""
    module = sys.modules.get(_NAME) or _load(_folder())
    return tuple(getattr(module, "d" + name) for name in names)


def _folder() -> Path:
    """scipy's ``linalg`` folder, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return Path(spec.origin).parent / "linalg"


def _load(folder: Path):
    """Load ``_flapack`` from ``folder`` and register it in ``sys.modules``."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module
            return module
    import scipy  # its __init__ costs time, so only on this path

    raise ImportError(
        f"scipy {scipy.__version__} has no LAPACK extension _flapack in {folder} "
        f"(noether-lcs is tested with scipy {_TESTED})",
        name=_NAME, path=str(folder),
    )
