"""Effect algebra toolkit for finite-dimensional Hilbert spaces.

Effects (Hermitian matrices with spectrum in [0, 1]), the Loewner order,
sequential products, strengths along rays, coexistence checks, and the
fractional family of order automorphisms, plus seeded verification
suites and a small CLI (``effectkit``).

The package exports the ``__all__`` of each of its modules below, except
the names in ``_MODULE_ONLY``, which stay reachable through their module.
"""

__version__ = "0.1.0"

import os

# OpenBLAS reads its thread count once, when numpy loads it, so this runs
# before any submodule imports numpy; a count the user set is kept.  The
# matrices here are small: extra BLAS threads only contend with each other
# and with the suites' own worker threads (``suites._THREAD_DIM``).  With
# another process busy on the second core, ``verify --dims 64`` over the
# nine suites took 12.7-20.7 s at the default count, 0.6 s with one thread.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os

from . import autos, coexist, effects, errors, fracfun, numkern, sequential, strength

# Kept to their modules: ``apply`` reads as a generic verb at package level,
# and the samplers return raw matrices.
_MODULE_ONLY = {"apply", "as_complex_matrix", "random_effect", "random_ray"}

__all__ = ["__version__"]
for _module in (errors, numkern, effects, strength, sequential, coexist, fracfun, autos):
    for _name in _module.__all__:
        if _name not in _MODULE_ONLY:
            globals()[_name] = getattr(_module, _name)
            __all__.append(_name)
del _module, _name
