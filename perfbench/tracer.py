"""In-memory span tracer that wraps troplin's public names from outside.

A traced run replaces, for its duration, the names each troplin module looks
up (module-level functions, methods on classes, and the ``Polyhedron.hrep``
cached property) with wrappers that record one span per call.  Spans are
``(name, start, end, parent)`` tuples kept in memory; counters record
outcomes (an LP solve that was feasible, a cut that split).  ``restore``
puts every original object back, so untraced code never pays for tracing.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter


def self_times(spans) -> list[float]:
    """Per-span duration minus the part of it covered by its child spans.

    ``spans`` is a list of ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Child intervals are merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records nested spans and named counters for wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """A callable that runs ``fn`` inside a span named ``name``.

        ``observe(counters, args, result)`` runs after a successful call and
        may bump counters; it is outside the span's timed interval.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, name: str, module, attr: str, observe=None) -> None:
        """Wrap a module-level function under every name troplin binds it to.

        Modules that did ``from .x import f`` hold their own reference, so
        each ``troplin.*`` module attribute that is the same object is
        replaced, and each is restored later.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, observe)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "troplin" or mod_name.startswith("troplin.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, name: str, cls: type, attr: str, observe=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], observe))

    def patch_cached_property(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        replacement = functools.cached_property(self.wrap(name, original.func))
        replacement.__set_name__(cls, attr)
        self._set(cls, attr, replacement)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        out: dict[str, list] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Counters on the first line, then one [name, start, end, parent] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(sorted(self.counters.items()))) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
