"""numpy for the package's modules, imported at its first attribute access.

A command that computes nothing (``--version``, ``--help``, a usage error,
``ingest``, a refusal made before any input is read) then never loads numpy,
whose import is most of the start-up cost of the CLI. A real flag
(``--lr``, ``--weight-decay``, ``--train-fraction``) is read by numpy's
parser, so a command given one loads numpy while parsing its arguments. A
numpy already imported is used as it is, and a missing one raises
``ImportError`` here.
Where lazy loading cannot load numpy (see ``_lazy_loading_safe``), numpy is
imported here at once.
"""

import importlib.util
import sys


def _lazy_loading_safe(version_info) -> bool:
    """False on CPython 3.12.3 and the 3.13 alphas, which run a lazy module's
    exec_module while it is still lazy: a package whose submodules import it
    back during its own import, as numpy's do, starts loading again at their
    first attribute access (CPython gh-117178, fixed in 3.12.4). There numpy
    is imported at once."""
    return version_info[:3] != (3, 12, 3) and version_info[:4] != (3, 13, 0, "alpha")


np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy") if _lazy_loading_safe(sys.version_info) else None
    if _spec is None:
        import numpy as np
    else:
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        np = importlib.util.module_from_spec(_spec)
        sys.modules["numpy"] = np
        _spec.loader.exec_module(np)
