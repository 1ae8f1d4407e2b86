"""Span and counter recorder that wraps pmleak's public functions from outside.

The library has no tracing of its own, so the traced run rebinds each
public function to a wrapper that records a span (name, start, end,
parent).  Modules bind names with ``from .x import y``, so a function is
rebound in its defining module and in every pmleak module holding the same
object.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

MODULES = ("logdomain", "probability", "mechanisms", "leakage", "constructions",
           "oracle", "tables", "svgplot", "cli")

# Per-term kernels called inside O(n) loops: a span each would cost more
# than the work it measures, so their counts are computed from the inputs.
KERNELS = frozenset({"log_add", "log_binom", "laplace_log_density"})

# Methods given a span besides each public class's __init__.
SPAN_METHODS = {
    "probability": {"ExplicitJointModel": ("from_model",),
                    "ProductModel": ("conditional_rest",)},
    "tables": {"ResultTable": ("to_csv",)},
}

# Methods only counted: they run once per database tuple or per atom pass.
COUNTED_METHODS = {
    "probability": {"DatabaseModel": ("atoms",)},
    "mechanisms": {"LaplaceMechanism": ("log_likelihood",)},
}

PML_ENTRY = "leakage.pml_entry"
THEOREM2 = "leakage.theorem2_check"


@dataclass
class PassTrace:
    """Per-name totals of one traced pass."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    durations: dict = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Records spans and counts while installed; ``collect`` folds one pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, label]
        self.stack = []  # indices of open spans
        self.counts = Counter()
        self.rest_keys = set()
        self._saved = []
        self._hooks = {
            "constructions.cond_density_binomial": self._binomial_terms,
            "constructions.pml_d1": self._pml_d1_label,
            "probability.ExplicitJointModel.from_model": self._atoms_built,
            "probability.ProductModel.conditional_rest": self._rest_key,
            "probability.DatabaseModel.atoms": self._atoms_pass,
        }

    # --- hooks: computed counts and labels, from the call's arguments ---

    def _binomial_terms(self, args):
        terms = args[0].n + 1
        self.counts["constructions.binomial_terms"] += terms
        self.counts["logdomain.log_binom.calls"] += terms  # one per term

    @staticmethod
    def _pml_d1_label(args):
        n, y = args[0].n, args[2]
        exponent = len(str(n)) - 1
        if n != 10 ** exponent:
            return None
        return f"{'pos' if y > 0 else 'neg'}_ms.n1e{exponent}"

    def _atoms_built(self, args):
        model = args[1]  # args[0] is the class
        self.counts["probability.atoms"] += len(model.alphabet) ** model.num_entries

    def _enclosing(self, name):
        for i in reversed(self.stack):
            if self.spans[i][0] == name:
                return i
        return -1

    def _rest_key(self, args):
        # distinct (model, i, d) within one theorem2_check call
        self.rest_keys.add((self._enclosing(THEOREM2),) + tuple(args[:3]))

    def _atoms_pass(self, args):
        self.counts["probability.atoms.passes"] += 1
        if self._enclosing(PML_ENTRY) >= 0:
            self.counts["probability.atoms.passes_in_pml_entry"] += 1

    # --- wrappers ---

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = hook(args) if hook else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, label]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if hook:
                hook(args)
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, meth, name, make):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(make(name, raw.__func__)))
        else:
            self._set(cls, meth, make(name, raw))

    def install(self):
        """Wrap every public function and class constructor of MODULES."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("pmleak")
        modules = {m: importlib.import_module(f"pmleak.{m}") for m in MODULES}
        holders = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    prefix = f"{short}.{attr}"
                    if "__init__" in obj.__dict__:
                        self._wrap_method(obj, "__init__", prefix + ".init", self._span)
                    for meth in SPAN_METHODS.get(short, {}).get(attr, ()):
                        self._wrap_method(obj, meth, f"{prefix}.{meth}", self._span)
                    for meth in COUNTED_METHODS.get(short, {}).get(attr, ()):
                        self._wrap_method(obj, meth, f"{prefix}.{meth}", self._counted)
                elif (inspect.isfunction(obj) and attr not in KERNELS
                      and not inspect.isgeneratorfunction(obj)):
                    wrapper = self._span(f"{short}.{attr}", obj)
                    for holder in holders:
                        if holder.__dict__.get(attr) is obj:
                            self._set(holder, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self) -> PassTrace:
        """Fold the spans and counts recorded so far into totals, then reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = PassTrace(counts=Counter(self.counts))
        for i, (name, start, end, _, label) in enumerate(spans):
            out.calls[name] += 1
            out.self_s[name] += end - start - child[i]
            if label:
                out.durations[f"{name}.{label}"].append(end - start)
        out.counts["probability.conditional_rest.distinct"] = len(self.rest_keys)
        spans.clear()
        self.counts.clear()
        self.rest_keys.clear()
        return out
