"""Modules imported on their first attribute access rather than at import time.

``lamb-shift``, ``reproduce-paper``, ``modes`` and ``couplings`` compute in
plain floats, so a fresh process running them never pays numpy's import
(nor ``importlib.resources``'s: ``config`` finds the bundled files by path);
``spectrum`` and ``fit`` load it at their first array operation.  ``cli``
binds ``rabi`` and ``spectrum`` the same way, so only ``spectrum`` and
``fit`` execute them, and ``fitting``, so only ``fit`` executes it; ``config``
binds ``yaml``, so only a config outside its plain subset executes PyYAML.
A lazily bound module is in ``sys.modules`` before it is executed.  This is the
``importlib.util.LazyLoader`` recipe of the Python documentation
("Implementing lazy imports"); a submodule is also bound on its package, as
an import binds it.  When the module is already imported, the result is that
module itself.  The lazy load is not thread-safe before Python 3.12: import
numpy first to share it between threads.
"""

import importlib.util
import sys


def _lazy_import(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # as `import name` would report it
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = _lazy_import("numpy")
