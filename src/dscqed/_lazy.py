"""numpy, imported on its first attribute access rather than at import time.

``lamb-shift``, ``reproduce-paper``, ``modes`` and ``couplings`` compute
in plain floats, so a fresh process running them never pays numpy's import;
``spectrum`` and ``fit`` load it at their first array operation.  This is the ``importlib.util.LazyLoader``
recipe of the Python documentation ("Implementing lazy imports").  When
numpy is already imported, ``np`` is that module itself.  The lazy load is
not thread-safe before Python 3.12: import numpy first to share it between
threads.
"""

import importlib.util
import sys


def _lazy_import(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
