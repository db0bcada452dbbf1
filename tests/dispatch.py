"""Fresh processes under numpy's default SIMD dispatch and with it off.

numpy picks each ufunc loop by the SIMD targets the CPU has, and some
loops round differently from others (``np.power``'s AVX512 loops give
other last bits).  A result that must not depend on the CPU is taken
twice: with the default dispatch, and with ``NPY_DISABLE_CPU_FEATURES``
set to every dispatched target this CPU has, as ``numpy.show_runtime()``
lists them as "found".

Not a test module (no ``test_`` prefix); the tests import it.
"""

import os
from pathlib import Path

import trapcc

SRC = str(Path(trapcc.__file__).resolve().parents[1])


def on_every_dispatch(run) -> list:
    """``run(env)`` with the default dispatch, then with the found targets
    off: ``env`` is this process's environment with trapcc importable."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]
    env = {**os.environ, "PYTHONPATH": SRC}
    return [run(env), run({**env, "NPY_DISABLE_CPU_FEATURES": " ".join(found)})]
