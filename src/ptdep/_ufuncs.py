"""scipy's ``gammaln`` and ``ndtr`` ufuncs, loaded without scipy.special's package init.

ptdep needs two special functions, and ``scipy/special/__init__.py`` costs
far more than the extension that holds them. Under ``python -X importtime``
``import ptdep.cli`` took about 240 ms, of which ``scipy.special`` took
about 150 ms: 130-150 ms in ``scipy.special._support_alternative_backends``
(the array-API layer), which pulls in ``numpy.f2py`` (40-60 ms) and
``numpy.testing`` (about 20 ms). The compiled ``scipy.special._ufuncs``
loads in about 13 ms on its own.

So unless ``scipy.special`` is already imported, a bare package module of
that name (``__path__`` only) stands in ``sys.modules`` while the
extension loads, and is removed again straight after; it is visible only
during that one extension load at ptdep import. The ufuncs are scipy's own
objects, and a later ``import scipy.special`` reuses the loaded extension
and returns the real package. If the private layout ever changes, the
plain ``from scipy.special import gammaln, ndtr`` is used instead.
"""

import importlib
import os
import sys
import types


def _load():
    special = sys.modules.get("scipy.special")
    if special is None:
        import scipy

        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            special = importlib.import_module("scipy.special._ufuncs")
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
    return special.gammaln, special.ndtr


try:
    gammaln, ndtr = _load()
except (ImportError, AttributeError):
    from scipy.special import gammaln, ndtr
