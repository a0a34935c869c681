"""How ``ptdep._ufuncs`` loads scipy's ufuncs, each case in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import ptdep

# The same ufunc objects scipy.special exports, and a real package behind the name.
SAME_AS_SCIPY = """
import scipy.special, ptdep.kernels, ptdep.transforms
assert ptdep.kernels.gammaln is scipy.special.gammaln
assert ptdep.transforms.ndtr is scipy.special.ndtr
assert scipy.special.__file__ and scipy.special.comb(5, 2) == 10.0
"""


def _run(*parts: str) -> None:
    code = "".join(textwrap.dedent(part) for part in parts)
    env = dict(os.environ, PYTHONPATH=str(Path(ptdep.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_the_scipy_special_package():
    _run("""
        import sys, ptdep.cli
        for name in ("scipy.special", "numpy.f2py", "numpy.testing"):
            assert name not in sys.modules, name
        # no stub bound on scipy either (plain getattr would import the package)
        assert "special" not in vars(sys.modules["scipy"])
        assert ptdep.kernels.gammaln is sys.modules["scipy.special._ufuncs"].gammaln
    """, SAME_AS_SCIPY)


def test_scipy_special_imported_first_is_used():
    _run("""
        import sys
        import scipy.special
        real = sys.modules["scipy.special"]
        import ptdep
        assert sys.modules["scipy.special"] is real
    """, SAME_AS_SCIPY)


def test_ufuncs_are_taken_from_the_imported_module():
    _run("""
        import sys, types
        import scipy
        fake = types.ModuleType("scipy.special")
        fake.gammaln, fake.ndtr = object(), object()
        sys.modules["scipy.special"] = fake
        import ptdep
        assert ptdep.kernels.gammaln is fake.gammaln and ptdep.transforms.ndtr is fake.ndtr
    """)


def test_falls_back_to_the_package_when_the_extension_load_fails():
    # Refuses the extension only while the stub (a module without __file__)
    # stands for scipy.special, as a changed private layout would.
    _run("""
        import sys

        class Refuse:
            refused = 0

            def find_spec(self, name, path=None, target=None):
                parent = sys.modules.get("scipy.special")
                if name == "scipy.special._ufuncs" and not hasattr(parent, "__file__"):
                    Refuse.refused += 1
                    raise ImportError("refused")
                return None

        sys.meta_path.insert(0, Refuse())
        import ptdep
        assert Refuse.refused == 1
        assert sys.modules["scipy.special"].__file__
    """, SAME_AS_SCIPY)
