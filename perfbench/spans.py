"""Span tracing of qfold's layers from outside the package.

Each layer is a set of qfold functions.  `install` replaces every
reference to such a function, found by object identity in every loaded
``qfold`` module namespace, with a wrapper that records a span.  Callers
that imported the function by name (``cli`` imports ``matching_sum``,
``pipeline`` and ``gram_block``; ``checks`` imports ``pipeline`` and
``reconstruct_lam``) are therefore traced too.  A layer whose functions no
longer exist is reported as absent.

A layer's self time is the duration of its spans minus the time covered by
the spans they caused.  Time spent in the hooks that compute work counts is
charged to no layer; it shows in the overall tracing overhead.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from itertools import groupby

# layer -> (module, function names).  folding and laurent are not layers of
# their own: folding is under 1% of every workload and runs inside
# sigma_mod_p and the check suites; laurent arithmetic runs inside every
# layer and is charged to its caller.
LAYERS = {
    "presets.build": ("qfold.presets", ("get_preset", "get_folding")),
    "rootsys.enumerate_block": ("qfold.rootsys", ("enumerate_block",)),
    "monomial.word": ("qfold.monomial", ("word_modified", "word_folded", "word_sym")),
    "gram.matching_sum": ("qfold.gram", ("matching_sum",)),
    "gram.inner_mackey": ("qfold.gram", ("inner_mackey",)),
    "gram.delta_weight": ("qfold.gram", ("delta_weight",)),
    "gram.inner_shuffle": ("qfold.gram", ("inner_shuffle",)),
    "transition.gram_block": ("qfold.transition", ("gram_block",)),
    "transition.ldl": ("qfold.transition", ("ldl",)),
    "transition.pq_split": ("qfold.transition", ("pq_split",)),
    "transition.reconstruct_lam": ("qfold.transition", ("reconstruct_lam",)),
    "transition.matmul_laurent": ("qfold.transition", ("matmul_laurent",)),
    "transition.sigma_mod_p": ("qfold.transition", ("sigma_submatrix", "mod_p_compare")),
    "cli.emit": ("qfold.cli", ("_emit",)),
}


def ldl_updates(n):
    """Inner elimination steps of an n x n LDL: row i (bottom up) updates its
    pivot and its i entries to the left, each over the n - 1 - i rows below."""
    return sum((n - 1 - i) * (i + 1) for i in range(n))


def matching_leaves(nu, coeffs):
    """Leaves of the matching-sum recursion that gave the Laurent polynomial
    ``{exponent: coefficient}`` for the letters ``nu``: its value at q = 1
    counts them times the run-collapse prefactor, which at q = 1 is the
    product of the run-length factorials."""
    runs = math.prod(math.factorial(len(list(run))) for _, run in groupby(nu))
    return sum(coeffs.values()) // runs


def degree_and_bits(polys):
    """Largest exponent span and largest coefficient bit length over Laurent
    polynomials given as ``{exponent: coefficient}``."""
    degree = bits = 0
    for coeffs in polys:
        if coeffs:
            degree = max(degree, max(coeffs) - min(coeffs))
            bits = max(bits, max(abs(c) for c in coeffs.values()).bit_length())
    return degree, bits


class _CountingDict(dict):
    """Memo dict that counts lookups through ``get`` and their hits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = super().get(key, default)
        if value is not default:
            self.hits += 1
        return value


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.covered_s = 0.0       # time in spans with no parent and their hooks
        self.hook_s = 0.0
        self.absent = []
        self._stack = []
        self._shuffle_cache = None

    # -- spans -------------------------------------------------------------

    def span(self, layer):
        """Context manager for a span recorded by the caller itself."""
        return _Span(self, layer)

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer, frame, duration):
        self._stack.pop()
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[0]
        self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.covered_s += duration

    def _wrap(self, layer, fn, hook):
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._exit(layer, frame, duration)
            if hook is not None:
                t1 = time.perf_counter()
                try:
                    hook(self, args, result)
                except Exception:  # the layer changed shape; its counts are absent
                    if f"{layer} counts" not in self.absent:
                        self.absent.append(f"{layer} counts")
                spent = time.perf_counter() - t1
                self.hook_s += spent
                if self._stack:
                    self._stack[-1][0] += spent
                else:
                    self.covered_s += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer function in every loaded qfold namespace."""
        import importlib

        for module_name in {m for m, _ in LAYERS.values()} | {"qfold.checks"}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "qfold" or name.startswith("qfold.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(module_name)
            found = False
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                found = True
                wrapper = self._wrap(layer, fn, _HOOKS.get(layer))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
            if not found:
                self.absent.append(layer)
        gram = sys.modules.get("qfold.gram")
        if isinstance(getattr(gram, "_SHUFFLE_CACHE", None), dict):
            self._shuffle_cache = _CountingDict(gram._SHUFFLE_CACHE)
            gram._SHUFFLE_CACHE = self._shuffle_cache
        else:
            self.absent.append("gram.shuffle_cache")

    def cache_ratio(self):
        cache = self._shuffle_cache
        if cache is None or not cache.lookups:
            return 0.0
        return cache.hits / cache.lookups


class _Span:
    def __init__(self, tracer, layer):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        self.frame = self.tracer._enter()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.layer, self.frame, time.perf_counter() - self.t0)
        return False


# -- hooks computing work counts from a layer's inputs and outputs ---------


def _ldl_hook(tracer, args, result):
    H, D = result
    tracer.counts["transition.ldl.updates"] += ldl_updates(len(H))
    degree, bits = degree_and_bits([v.coeffs for row in H for v in row]
                                   + [p.coeffs for v in D for p in (v.num, v.den)])
    tracer.maxima["transition.entry_degree.max"] = max(
        tracer.maxima["transition.entry_degree.max"], degree)
    tracer.maxima["transition.coeff_bits.max"] = max(
        tracer.maxima["transition.coeff_bits.max"], bits)


def _matching_sum_hook(tracer, args, result):
    tracer.counts["gram.matching_leaves"] += matching_leaves(args[1], result.coeffs)


def _enumerate_hook(tracer, args, result):
    n = len(result)
    tracer.counts["rootsys.block_n.sum"] += n
    tracer.maxima["rootsys.block_n.max"] = max(tracer.maxima["rootsys.block_n.max"], n)


_HOOKS = {
    "transition.ldl": _ldl_hook,
    "gram.matching_sum": _matching_sum_hook,
    "rootsys.enumerate_block": _enumerate_hook,
}
