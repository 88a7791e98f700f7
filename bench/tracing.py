"""In-process tracing of the ergolab layers, from outside the package.

``Tracer.install`` replaces each public function named in ``WRAPPED`` with
a wrapper that records a span (name, start, end, parent) and, for some
functions, an exact work counter computed from the call's arguments and
result.  Every module-level binding of the function in the ``ergolab``
package is replaced, not only the defining one, so calls through a
re-imported name (``extensions.exact_limit``, ``cli.is_pleasant``) are
counted too.  ``Tracer.uninstall`` restores the originals.

Spans are kept in memory and folded into per-name totals by
``self_times``: a span's self time is its duration minus the part of its
interval covered by its child spans.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus the union of the
    child intervals, clipped to the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: Dict[str, float] = defaultdict(float)
    for k, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(k, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.name] += (span.end - span.start) - covered
    return dict(out)


# -- work counters -------------------------------------------------------
# Each takes the call's positional and keyword arguments and its result and
# returns (counter name, amount).  All are exact functions of the inputs.


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _orbit_tuples(args, kwargs, result):
    sys_ = _arg(args, kwargs, 0, "sys")
    box = _arg(args, kwargs, 2, "box")
    points = _arg(args, kwargs, 4, "points")
    count = len(points) if points is not None else box.size
    return "averages.orbit_tuples", count * sys_.n


def _basis_tuples(args, kwargs, result):
    sys_ = _arg(args, kwargs, 0, "sys")
    return "extensions.basis_tuples", len(sys_.support) ** sys_.d


def _extension_states(args, kwargs, result):
    return "extensions.extension_states", result.system.n


def _furstenberg_support(args, kwargs, result):
    return "joinings.furstenberg_support", len(result.mass)


def _hk_support(args, kwargs, result):
    return "joinings.hk_support", sum(len(jm.mass) for jm in result)


def _cells(args, kwargs, result):
    return "factors.cells", len(result.cells)


def _lattice_sample_terms(args, kwargs, result):
    fs = _arg(args, kwargs, 1, "fs")
    box = _arg(args, kwargs, 2, "box")
    samples = _arg(args, kwargs, 3, "samples")
    combos = math.prod(len(f.terms) for f in fs)
    return "torus.lattice_sample_terms", box.size * len(samples) * combos


def _report_bytes(args, kwargs, result):
    return "cli.report_bytes", result.stat().st_size


# (module, attribute path) -> counter; None records only calls and time
WRAPPED: Dict[Tuple[str, str], Optional[Callable]] = {
    ("scenario", "load_scenario"): None,
    ("system", "FiniteSystem.__post_init__"): None,
    ("system", "FiniteSystem.action_perm"): None,
    ("observables", "l2_square"): None,
    ("observables", "linf_norm"): None,
    ("averages", "truncated_average"): _orbit_tuples,
    ("averages", "exact_limit"): None,
    ("averages", "deviation_bound"): None,
    ("factors", "isotropy_partition"): _cells,
    ("factors", "join"): _cells,
    ("factors", "cond_expect"): None,
    ("joinings", "furstenberg_joining"): _furstenberg_support,
    ("joinings", "host_kra_tower"): _hk_support,
    ("joinings", "JoinedMeasure.is_invariant"): None,
    ("extensions", "is_pleasant"): _basis_tuples,
    ("extensions", "pleasant_factor"): None,
    ("extensions", "one_step_extension"): _extension_states,
    ("parallel", "parallel_map"): None,
    ("torus", "torus_truncated_average"): _lattice_sample_terms,
    ("torus", "character_limit"): None,
    ("cli", "_write_report"): _report_bytes,
}

COUNTERS = (
    "averages.orbit_tuples",
    "extensions.basis_tuples",
    "extensions.extension_states",
    "joinings.furstenberg_support",
    "joinings.hk_support",
    "factors.cells",
    "torus.lattice_sample_terms",
    "cli.report_bytes",
)

ROOT = "cli.main"
PACKAGE = "ergolab"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Span recorder plus the patching that routes calls through it.

    The traced program runs in one thread (the benchmark never passes
    ``--threads``), so one stack of open spans suffices.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))  # reserve the slot
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)
            self.calls[name] += 1

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counters[key] += amount
            return result

        return traced

    def fold(self) -> Dict[str, float]:
        """Self time per span name of the spans recorded so far; clears them."""
        if self._stack:
            raise RuntimeError("cannot fold while spans are open")
        out = self_times(self.spans)
        self.spans = []
        return out

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> List[str]:
        """Wrap every function in WRAPPED that exists; return the names of
        those that do not (a later version may have removed them)."""
        missing = []
        for (module, attr), counter in WRAPPED.items():
            name = span_name(module, attr)
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ModuleNotFoundError:
                missing.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            self._set(owner, leaf, wrapper)
            if not path:
                # rebind the same function wherever another module imported it
                for mod in self._modules():
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._set(mod, key, wrapper)
        return missing

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
