"""Pin BLAS to one thread and import the package from the checkout's ``src``.

Import this module before numpy: BLAS libraries read their thread count once,
when they load.  ``require_package`` refuses to run against any copy of
``infosched`` other than the one in this checkout, so a stripped checkout (no
``src``) fails instead of silently measuring an installed package.
"""

from __future__ import annotations

import os
import pathlib
import sys

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_package():
    """Import infosched (all of it, through its CLI) from ROOT/src or exit
    with status 2."""
    if not (SRC / "infosched" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'infosched'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import infosched.cli

    where = pathlib.Path(infosched.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"perfbench: imported infosched from {where}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return infosched.cli
