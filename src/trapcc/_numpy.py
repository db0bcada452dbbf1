"""numpy, imported on first use.

Importing numpy costs more than the rest of a trapcc start-up, and the
scalar commands (``--version``, ``masses``, ``boundary``) never touch an
array.  Every module therefore takes ``np`` from here: a
module object that runs the real import the first time one of its
attributes is looked up.  When numpy is already imported it is used as it
is.
"""

import importlib.util
import sys


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
