"""Span recorder installed from outside around the public functions of fractaldim.

The child process calls :func:`install` after importing ``fractaldim.cli``
and before running the command.  Every public function and public method of
the six layer modules (plus the few private helpers the per-layer metrics
name) is replaced by a wrapper that records one span per call:

    [name, parent, start_ns, end_ns, busy_ns, work]

``parent`` is the index of the span that was open when the call began (-1 at
the top).  ``busy_ns`` is the time spent inside the call; for a generator it
is the sum of its resumptions, so the time the consumer spends between two
items is not counted.  ``work`` is a per-function count: terms yielded by a
term generator, ratios times iterations for a Moran solve, intervals built by
a partition.  Spans stay in memory and :func:`run` returns them when the
command ends; the benchmark derives self times and counts from them.

Nothing here changes arguments, results or output, so stdout stays
byte-identical with tracing on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("seqgen", "blockset", "boxdim", "selfsimilar", "hypergrid", "cli")

# private helpers that per-layer metrics name, traced beside the public API
PRIVATE = {
    "seqgen": ("_iter_terms",),
    "cli": ("_load_json", "_parse_ratios"),
}


def _work_of(name):
    """How to read a span's ``work`` count from a call's arguments and result."""
    if name == "selfsimilar.moran_solve":
        return lambda args, result: len(args[0].ratios) * result.iterations
    if name in ("hypergrid.h_delta_s_greedy", "hypergrid.h_delta_s_dp"):
        return lambda args, result: len(result.intervals)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap_call(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        work_of = _work_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, 0, 0]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2], span[3], span[4] = start, end, end - start
            if work_of is not None:
                span[5] = work_of(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def drive(span, idx, gen):
            step, push, pop = gen.__next__, stack.append, stack.pop
            while True:
                push(idx)
                start = clock()
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    end = clock()
                    pop()
                    span[3] = end
                    span[4] += end - start
                span[5] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0, 0, 0]
            spans.append(span)
            return drive(span, idx, fn(*args, **kwargs))

        return wrapper

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(name, fn)
        return self.wrap_call(name, fn)


def _targets(module):
    """(owner, attribute, qualified name) for each function the tracer wraps."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and (not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
            out.append((module, attr, f"{layer}.{attr}"))
        elif inspect.isclass(value):
            for meth, fn in vars(value).items():
                if meth.startswith("_") or not inspect.isfunction(fn):
                    continue
                if getattr(fn, "__isabstractmethod__", False):
                    continue
                out.append((value, meth, f"{layer}.{value.__name__}.{meth}"))
    return out


def install() -> Tracer:
    """Wrap the layer modules in place and return the tracer that records them."""
    tracer = Tracer()
    for layer in LAYERS:
        module = importlib.import_module(f"fractaldim.{layer}")
        for owner, attr, name in _targets(module):
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    return tracer
