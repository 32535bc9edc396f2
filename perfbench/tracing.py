"""Span tracing of hilmod's layers by wrappers installed from outside the
package.

Every listed function is wrapped under every module attribute that names it
(modules import by name, so `bessel_k_grid` is also bound in `eisenstein`
and `domains`).  A span records its name, start, end, parent and an optional
work count; self time is the span's duration minus the durations of its
children.  Spans stay in memory and are reduced to per-name stats when the
round ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# (defining module, function) pairs that get spans.
TRACED = (
    ("specfun", "bessel_k_grid"),
    ("specfun", "gamma"),
    ("zeta", "hurwitz_zeta"),
    ("zeta", "phi"),
    ("fields", "ideal_divisor_norms"),
    ("fields", "ideal_totient_sums"),
    ("quadrature", "gl_panel_nodes"),
    ("geometry", "slice_embeddings"),
    ("eisenstein", "eisenstein_direct"),
    ("eisenstein", "eisenstein_fourier"),
    ("domains", "eisenstein_fourier_grid"),
    ("domains", "shadow_fraction"),
    ("domains", "maass_selberg_numeric"),
    ("equidist", "cusp_section_average"),
    ("equidist", "decay_exponent_fit"),
    ("equidist", "rankin_selberg_check"),
)


def _bessel_values(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["ys"])


def _direct_pairs(args, kwargs, result):
    # the benchmark always asks for return_parts=True: (value, main, tail, pairs)
    return int(result[3]) if isinstance(result, tuple) else 0


def _grid_points(args, kwargs, result):
    return len(result)


# work counted per span, by span name
_WORK = {
    "specfun.bessel_k_grid": _bessel_values,
    "eisenstein.eisenstein_direct": _direct_pairs,
    "domains.eisenstein_fourier_grid": _grid_points,
}


class Tracer:
    """Records spans of the wrapped functions of one process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, work]
        self._stack = []    # indices of open spans

    def wrap(self, name, fn):
        namer = _method_namer(name, fn) if name == "equidist.cusp_section_average" else None
        work = _WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def stats(self) -> dict:
        """Per-name {calls, self_s, total_s, work}.  total_s sums whole
        durations, so it is meaningful only for functions that do not call
        themselves (the ones reported as total_s)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child[i]
            st["total_s"] += end - start
            st["work"] += work
        return out


def _method_namer(name, fn):
    sig = inspect.signature(fn)

    def namer(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return "%s.%s" % (name, bound.arguments["method"])
    return namer


def install(tracer: Tracer) -> list[str]:
    """Wrap every TRACED function under every hilmod module attribute bound
    to it; returns the 'module.attr' names replaced.  Raises if a listed
    function is missing."""
    import hilmod
    modules = [importlib.import_module("hilmod." + m.name)
               for m in pkgutil.iter_modules(hilmod.__path__) if m.name != "__main__"]
    modules.append(hilmod)
    replaced = []
    for mod_name, fn_name in TRACED:
        original = getattr(importlib.import_module("hilmod." + mod_name), fn_name)
        wrapped = tracer.wrap("%s.%s" % (mod_name, fn_name), original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    replaced.append("%s.%s" % (mod.__name__, attr))
    return replaced
