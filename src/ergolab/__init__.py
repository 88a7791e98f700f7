"""Exact-arithmetic laboratory for nonconventional ergodic averages on
finite measure-preserving Z^{rd}-systems, with a floating-point torus
backend for rotation examples."""

__version__ = "0.1.0"

# public name -> the module that defines it, loaded on first access (PEP 562)
# so that importing the package, or one command of the CLI, loads no engine
# module it does not use
_HOMES = {
    "FiniteSystem": "system",
    "Observable": "observables",
    "exact_limit": "averages",
}

__all__ = ["FiniteSystem", "Observable", "__version__", "exact_limit"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
