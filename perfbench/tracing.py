"""Outside-in tracing of ldpmean's layers.

Spans are recorded by replacing module attributes of the ldpmean package
with timing wrappers, so nothing in the package itself changes.  A wrapper
replaces every reference to the wrapped function in every loaded ldpmean
module (``from .domain import round_randomized_array`` copies the function
into ``freqest`` and ``adaptive``), which makes calls between layers visible
however they are spelled.

A target that a later version of the package removes or renames is skipped:
it yields no span and its metrics read zero.  Result attributes such as
``.iterations`` are read only when present.  Wrappers never touch random
streams, so traced and untraced runs produce the same outputs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "ldpmean"

# module.function inside the package, outermost layers last
TARGETS = (
    "data.gen_gaussian_clipped",
    "domain.rescale_to",
    "domain.round_randomized_array",
    "freqest.collect_perturbed_histogram",
    "freqest.reconstruct_pmf",
    "lp.solve",
    "adaptive.build_lp",
    "adaptive.solve_lp",
    "adaptive.verify_privacy",
    "adaptive.solve_noise_table",
    "adaptive.adaptive_perturb_array",
    "adaptive.run_protocol",
    "baselines.duchi_perturb",
    "baselines.piecewise_perturb",
    "baselines.hybrid_perturb",
    "baselines.laplace_perturb",
    "cli.main",
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    duration: float = 0.0
    child_time: float = 0.0
    children: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


# where the client values sit in the call: (position, keyword)
_CLIENT_ARG = {
    "adaptive.adaptive_perturb_array": (2, "xs"),
    "adaptive.run_protocol": (0, "data"),
}


def _facts(name: str, args, kwargs, result) -> dict:
    """Counts taken at a layer boundary; attributes are read only if present."""
    facts = {}
    if name in ("adaptive.solve_lp", "lp.solve"):
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            facts["iterations"] = int(iterations)
        status = getattr(result, "status", None)
        if status is not None:
            facts["optimal"] = status == "optimal"
    elif name == "adaptive.solve_noise_table":
        facts["table"] = result
    elif name in _CLIENT_ARG:
        position, keyword = _CLIENT_ARG[name]
        data = args[position] if len(args) > position else kwargs.get(keyword)
        if hasattr(data, "__len__"):
            facts["clients"] = len(data)
    return facts


class Tracer:
    """Collects spans while active; ``activate``/``deactivate`` swap the
    wrappers in and out so untraced passes run the original functions."""

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []  # (module, attribute, original, wrapper)
        self.missing = []
        originals = {}
        for target in targets:
            module_name, func_name = target.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(target)
                continue
            original = getattr(home, func_name, None)
            if callable(original):
                originals[target] = original
            else:
                self.missing.append(target)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target, original in originals.items():
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - start
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                    span.parent.children.append(span)
                self.spans.append(span)
            span.facts = _facts(name, args, kwargs, result)
            return result

        return wrapper

    def activate(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def deactivate(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans) -> dict:
    """Per span name: inclusive seconds, self seconds and call count."""
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for span in spans:
        entry = totals[span.name]
        entry["s"] += span.duration
        entry["self_s"] += span.self_time
        entry["calls"] += 1
    return totals
