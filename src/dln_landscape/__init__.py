"""Loss landscapes of deep linear chains.

Compose ``k`` matrix factors through a convex differentiable loss on the
end-to-end product, locate interior bottlenecks, classify critical points,
and escape rank-deficient plateaus with loss-preserving rank-one
perturbations.  Everything is deterministic given a seed, and every claimed
optimum is checkable against a closed-form oracle.

Each name has one import path, its module (``dln_landscape.analyze``,
``dln_landscape.harness``, ...), whose ``__all__`` lists it; the package
root exports only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
