"""Outside-in span tracing for ridgekit.

`Tracer.install()` replaces chosen public functions and methods of the
ridgekit modules with timing wrappers.  Every name bound to an original object
is rebound: the defining module, modules that imported it by name (`pipeline`
imports `build_basis`, `decompose` and `lq_norm` that way), the package
namespace, and class-level aliases such as `__call__ = eval_many`.  Calls made
from inside the package are therefore seen too.  `uninstall()` restores every
binding, and nothing under `src/` is modified.

Spans are kept in memory as (name, start, end, parent, failed) tuples; a
span's self time is its duration minus the durations of its direct children.
"""

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced callable.

    `attr` is "function" or "Class.method" inside `ridgekit.<module>`.
    `counters(args, kwargs, result)` returns counts to add under `name`.
    `span=False` only adds the counts and records no span.
    `keep=True` stores each result for `Tracer.kept(name)`.
    """

    name: str
    module: str
    attr: str
    counters: object = None
    span: bool = True
    keep: bool = False


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.active = True
        self.missing = []
        self._patches = []
        self.clear()

    def clear(self):
        self.spans = []
        self.counters = {}
        self._kept = {}
        self._stack = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "ridgekit" or key.startswith("ridgekit."))]
        self.missing = []
        for target in self.targets:
            original = _resolve(target)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
                    elif isinstance(value, type) and value.__module__.startswith("ridgekit"):
                        for ckey, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                self._rebind(value, ckey, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, new):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, target, original):
        name, counters, keep = target.name, target.counters, target.keep
        tracer = self

        if not target.span:
            @functools.wraps(original)
            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                if tracer.active:
                    tracer._count(name, counters(args, kwargs, result))
                return result
            return counting

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, True)
                stack.pop()
                raise
            spans[index] = (name, start, time.perf_counter(), parent, False)
            stack.pop()
            if counters is not None:
                tracer._count(name, counters(args, kwargs, result))
            if keep:
                tracer._kept.setdefault(name, []).append(result)
            return result

        return traced

    def _count(self, name, values):
        bucket = self.counters.setdefault(name, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    @contextlib.contextmanager
    def paused(self):
        previous = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = previous

    # -- summaries --------------------------------------------------------

    def kept(self, name):
        return list(self._kept.get(name, ()))

    def durations(self):
        """(duration, failed) of every span, in start order."""
        return [(end - start, failed) for _, start, end, _, failed in self.spans]

    def layer_stats(self):
        """{name: {"calls", "self_s", "failed", <counters>}} plus the summed
        duration of top-level spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        top_level = 0.0
        for index, (name, start, end, parent, failed) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["failed"] += int(failed)
            if parent < 0:
                top_level += end - start
        for name, bucket in self.counters.items():
            stats.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0}).update(bucket)
        return stats, top_level


def _resolve(target):
    """The object currently bound at `ridgekit.<module>.<attr>`, or None when
    the program no longer defines it."""
    module = sys.modules.get("ridgekit." + target.module)
    if module is None:
        return None
    owner_name, _, attr = target.attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return None
    return vars(owner).get(attr)


@contextlib.contextmanager
def paused(*tracers):
    with contextlib.ExitStack() as stack:
        for tracer in tracers:
            stack.enter_context(tracer.paused())
        yield
