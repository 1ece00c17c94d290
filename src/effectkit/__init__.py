"""Effect algebra toolkit for finite-dimensional Hilbert spaces.

Effects (Hermitian matrices with spectrum in [0, 1]), the Loewner order,
sequential products, strengths along rays, coexistence checks, and the
fractional family of order automorphisms, plus seeded verification
suites and a small CLI (``effectkit``).

The package exports the ``__all__`` of each of its modules below, except
the names in ``_MODULE_ONLY``, which stay reachable through their module.
"""

__version__ = "0.1.0"

from . import autos, coexist, effects, errors, fracfun, numkern, sequential, strength

# Kept to their modules: ``apply`` reads as a generic verb at package level,
# the samplers return raw matrices, and EffectStack serves the suites.
_MODULE_ONLY = {"apply", "as_complex_matrix", "random_effect", "random_ray", "EffectStack"}

__all__ = ["__version__"]
for _module in (errors, numkern, effects, strength, sequential, coexist, fracfun, autos):
    for _name in _module.__all__:
        if _name not in _MODULE_ONLY:
            globals()[_name] = getattr(_module, _name)
            __all__.append(_name)
del _module, _name
