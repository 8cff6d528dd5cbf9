"""Process set-up shared by the benchmark's entry scripts.

`pin_threads` must run before numpy is imported: BLAS and OpenMP read their
thread counts once, when the library loads. `use_checkout_source` makes
`mara_sim` import from the `src/` directory of the checkout that holds this
file, never from an installed copy, and fails when that source is absent.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout holds no `src/mara_sim` package to benchmark."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    if not (SRC / "mara_sim" / "__init__.py").is_file():
        raise MissingSourceError(f"no mara_sim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mara_sim
    if Path(mara_sim.__file__).resolve().parent != SRC / "mara_sim":
        raise MissingSourceError(f"mara_sim imported from {mara_sim.__file__}, not {SRC}")


def environment_record(mara_sim_threads: int) -> dict:
    """Versions and thread settings that a reading depends on."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "MARA_SIM_THREADS": mara_sim_threads,
        "pinned": {var: os.environ.get(var) for var in THREAD_VARS},
    }
