"""Span tracer for the benchmark's traced runs.

The program is traced from outside: `install` replaces each function in
`LAYERS` by a wrapper that records a span (name, start, end, parent) and,
where the layer has one, a work count.  Spans stay in memory; the runner
writes them out when the run ends.  Nothing under src/ changes, and the
untraced run never imports this module.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._clock = clock

    def reset(self):
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.counts = {}

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self._clock()

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                stat, n = counter(bound.arguments, result)
                self.count(f"{name}.{stat}", n)
            return result

        return traced


def self_times(spans):
    """Per span name: the summed span time minus the time of each span's
    direct children.  Children run inside their parent, so their summed
    durations are exactly the part of the parent's interval they cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out = {}
    for s, c in zip(spans, covered):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out


def call_counts(spans):
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def _window_len(seq):
    window = getattr(seq, "window", None)
    return len(window) if window is not None else 2 * seq.degree + 1


# (module, qualified name, counter); a counter maps the bound call
# arguments and the result to (stat, amount).
LAYERS = [
    ("cli", "main", None),
    ("principal", "run_principal", None),
    ("riesz", "riesz_lambda", None),
    ("riesz", "grid_space", None),
    ("gridcert", "superlevel_arcs", None),
    ("gridcert", "restricted_fourier", None),
    ("gridcert", "indicator_coeffs",
     lambda a, r: ("fft_points", 1 << a["grid_bits"])),
    ("trigpoly", "TrigPoly.eval_at",
     lambda a, r: ("points", np.atleast_1d(np.asarray(a["t"])).size)),
    ("trigpoly", "CoeffSeq.multiply", None),
    ("helson", "run_stages", None),
    ("helson", "helson_certificate", None),
    ("helson", "extension_probe",
     lambda a, r: ("iterations", r[1]["iterations"])),
    ("cyclicity", "cyclicity_profile", None),
    ("cyclicity", "multiplier_deficit", None),
    ("cyclicity", "obstruction_bound",
     lambda a, r: ("conv_terms", _window_len(a["S"]) * _window_len(a["f"]))),
    ("cyclicity", "smooth_noncyclic_witness", None),
    ("concentration", "tail_probability",
     lambda a, r: ("outcomes", len(a["space"]))),
    ("concentration", "check_almost_multiplicative",
     lambda a, r: ("subsets", r.subsets_checked)),
]


def install(tracer):
    """Wrap every layer of LAYERS; returns a function that undoes it.

    A module-level function is replaced wherever a module of the package
    holds it, since `from .x import f` copies the binding; a method is
    replaced on its class."""
    pkg = importlib.import_module("trigcert")
    modules = [importlib.import_module(f"trigcert.{m.name}")
               for m in pkgutil.iter_modules(pkg.__path__)]
    undo = []
    for mod_name, qualname, counter in LAYERS:
        owner = importlib.import_module(f"trigcert.{mod_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(owner, cls_name)
        else:
            attr = qualname
        original = getattr(owner, attr)
        traced = tracer.wrap(f"{mod_name}.{qualname}", original, counter)
        holders = [(owner, attr)] + [
            (mod, key) for mod in modules for key, value in vars(mod).items()
            if value is original and mod is not owner]
        for holder, key in holders:
            setattr(holder, key, traced)
            undo.append((holder, key, original))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


def layer_metrics(tracer):
    """Self times, call counts and work counts of the operation traced
    since the last reset, by metric name; layers it never entered are
    absent."""
    selfs = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    values = dict(tracer.counts)
    for name, total in selfs.items():
        values[f"{name}.self_s"] = total
    for name, n in calls.items():
        values[f"{name}.calls"] = n
    values["op.total_s"] = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    values["trace.spans"] = len(tracer.spans)
    return values
