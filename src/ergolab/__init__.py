"""Exact-arithmetic laboratory for nonconventional ergodic averages on
finite measure-preserving Z^{rd}-systems, with a floating-point torus
backend for rotation examples."""

__version__ = "0.1.0"

# Load every computational module with the package, before the CLI loads
# click: the other import order costs the CLI about 0.4 MB of peak memory.
from . import averages, errors, extensions, factors, joinings, observables, system, torus
from .averages import exact_limit
from .observables import Observable
from .system import FiniteSystem

__all__ = ["FiniteSystem", "Observable", "__version__", "exact_limit"]
