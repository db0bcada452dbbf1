"""numpy, imported on first use, and the CLI's BLAS thread default.

Importing numpy costs more than the rest of a trapcc start-up, and the
scalar commands (``--version``, ``masses``, ``verify``, ``boundary``) and
``simulate`` never touch an array.  Every module therefore takes ``np``
from here: a module object that runs the real import the first time one
of its attributes is looked up.  When numpy is already imported it is
used as it is.
"""

import importlib.util
import os
import sys
import types


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


def default_one_blas_thread() -> None:
    """Start OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` is set.

    OpenBLAS sizes its thread pool from the environment once, when numpy
    is first executed, and starting the pool is a good part of numpy's
    import time, while trapcc's largest BLAS call is a 2x2 solve.  The CLI
    calls this before it touches numpy.  Once numpy has been executed
    (the lazy module has turned into a plain one) the pool exists and this
    does nothing, so an in-process caller keeps its environment; a library
    import never calls it.
    """
    if type(np) is not types.ModuleType:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
