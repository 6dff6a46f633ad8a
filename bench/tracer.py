"""In-memory spans recorded from the benchmark's side of the program boundary.

`install` swaps the public callables a workload reaches through module or
class attributes for thin wrappers that open a span around each call.
Nothing under `src/` changes: the wrappers live here and are removed by the
returned undo function.  A span is (name, start_ns, end_ns, parent index);
self time is the span's duration minus the durations of its children,
which on one thread never overlap.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Any, Callable


class Tracer:
    """Spans and counters of one traced repeat, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def durations(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Per span name: inclusive durations and self durations, in ns."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        incl: dict[str, list[int]] = {}
        own: dict[str, list[int]] = {}
        for i in range(n):
            d = self.ends[i] - self.starts[i]
            incl.setdefault(self.names[i], []).append(d)
            own.setdefault(self.names[i], []).append(d - child_ns[i])
        return incl, own


def traced(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """`fn` inside a span.  For a search in COUNT_FOUND, a result other
    than None also bumps the counter `<name>_found`; for a layer in
    LARGE_OPERAND, a call whose first argument reaches the threshold also
    adds to `<name>_large` (calls) and `<name>_large_ns` (time)."""
    found = name + "_found" if name in COUNT_FOUND else None
    large = LARGE_OPERAND.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if found and result is not None:
            tracer.count(found)
        if large and args[0] >= large:
            tracer.count(name + "_large")
            tracer.count(name + "_large_ns", tracer.ends[idx] - tracer.starts[idx])
        return result

    return wrapper


COUNT_FOUND = frozenset({"duke.find_duke"})
# Operands from this size on count as large: trial division up to their
# square root dominates, where small operands pay mostly call overhead.
LARGE_OPERAND = {"primes.factorize": 10**6}


def _targets() -> list[tuple[str, list[tuple[Any, str]]]]:
    """Span name -> every (owner, attribute) binding through which the
    workloads reach that callable.  A module that imported a function by
    name holds its own binding, so each one is listed."""
    from chargraph import cli, corpus, duke, primes, psl2
    from chargraph.graphs import PrimeGraph

    return [
        ("cli.splitmix64", [(cli.SplitMix64, "next64")]),
        ("graphs.construct", [(PrimeGraph, "__init__")]),
        ("graphs.masks", [(PrimeGraph, "masks")]),
        ("graphs.diameter", [(PrimeGraph, "diameter")]),
        ("graphs.complement", [(PrimeGraph, "complement")]),
        ("graphs.to_dot", [(PrimeGraph, "to_dot")]),
        ("graphs.bipartition", [(duke, "bipartition_or_odd_cycle"), (corpus, "bipartition_or_odd_cycle")]),
        ("graphs.build_graph", [(psl2, "build_graph"), (corpus, "build_graph")]),
        ("duke.find_duke", [(duke, "find_duke")]),
        ("duke.lemma31", [(duke, "lemma31_holds")]),
        ("duke.screen", [(duke, "screen"), (corpus, "screen")]),
        ("primes.factorize", [(primes, "factorize")]),
        ("psl2.crosscheck", [(psl2, "crosscheck")]),
        ("psl2.degrees", [(psl2, "psl2_degrees")]),
        ("psl2.lemma24", [(psl2, "lemma24_graph")]),
        ("corpus.parse_record", [(corpus, "parse_record")]),
    ]


class MissingBinding(LookupError):
    """A callable the tracer wraps is gone or is no longer callable."""


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; return a function undoing it.

    Raises MissingBinding, wrapping nothing, when a later version of the
    program drops or renames a target, so that its layer cannot silently
    read as 0 calls taking 0 time.
    """
    plan: list[tuple[Any, str, Any, Any]] = []
    for name, bindings in _targets():
        for owner, attr in bindings:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if isinstance(raw, functools.cached_property):
                new: Any = functools.cached_property(traced(tracer, name, raw.func))
                new.__set_name__(owner, attr)
            elif callable(raw):
                new = traced(tracer, name, raw)
            else:
                raise MissingBinding(f"{name}: no callable {getattr(owner, '__name__', owner)}.{attr}")
            plan.append((owner, attr, raw, new))
    for owner, attr, _, new in plan:
        setattr(owner, attr, new)

    def restore() -> None:
        for owner, attr, raw, _ in reversed(plan):
            setattr(owner, attr, raw)

    return restore
