"""Span recording around calls into the program's public functions.

The benchmark never edits the program to trace it.  Instead it swaps each
traced function, in every ``hybridntt`` module that holds a reference to
it, for a wrapper that opens a span, calls the original and closes the
span.  Spans nest, so each one's self time is its duration minus the time
its child spans cover.  Totals are kept per (phase, label) in memory and
read once the run ends.
"""

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "hybridntt"


class Tracer:
    """Nested spans aggregated into calls and self seconds per (phase, label)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "op"
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._open = []  # [label, start, seconds covered by children]

    def enter(self, label):
        self._open.append([label, self.clock(), 0.0])

    def exit(self):
        label, start, children = self._open.pop()
        duration = self.clock() - start
        key = (self.phase, label)
        self.calls[key] += 1
        self.self_s[key] += duration - children
        if self._open:
            self._open[-1][2] += duration

    def wrap(self, label, fn):
        """fn with a span around each call; label may be a function of the call."""

        def traced(*args, **kwargs):
            self.enter(label(args, kwargs) if callable(label) else label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every module of PACKAGE that binds a target function.

        targets maps (module object, attribute name) to a label.  Each
        binding identical to the original function is replaced, so calls
        made through `from x import f` in other modules are traced too.
        Every binding is restored on exit.
        """
        patched = []
        try:
            for (module, attr), label in targets.items():
                original = getattr(module, attr)
                wrapper = self.wrap(label, original)
                for name, mod in list(sys.modules.items()):
                    if name != PACKAGE and not name.startswith(PACKAGE + "."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)
