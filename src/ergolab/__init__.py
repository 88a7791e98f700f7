"""Exact-arithmetic laboratory for nonconventional ergodic averages on
finite measure-preserving Z^{rd}-systems, with a floating-point torus
backend for rotation examples."""

__version__ = "0.1.0"
