"""Outside-in tracer: wraps the public functions and methods of every
simpcat module, at every binding that names them, and records per-layer
self time, call counts and a few deterministic result counts.

Self time of a call is its duration minus the time its traced callees
cover.  Calls of hot functions (every function of ``delta`` and those
in HOT, called up to about 1e5 times per pass or more) keep counts and
totals only; every other call also records a span (name, start, end,
parent span, job).  Wrappers return results and
raise exceptions unchanged, and ``uninstall`` restores every binding.
"""

import functools
import os
import time
import types
from collections import defaultdict

MODULES = ("cli", "formats", "delta", "sset", "nerve_cat", "quasicat",
           "hcnerve", "segal", "doldkan", "intlinalg", "chain_model",
           "fibrations")

# every function of the delta layer is hot, and so are these
HOT = frozenset([
    "sset.SimplicialSet.apply", "sset.SimplicialSet._restrict",
    "sset.SimplicialSet.simplex_faces", "sset.SimplicialSet.simplices",
    "sset.SimplicialSet.n_cells", "sset.SimplicialSet.cells",
    "sset.SimplicialSet.cell_index", "sset.SimplicialSet.describe",
    "sset.simplex_dim", "sset.is_degenerate",
    "nerve_cat.FinCategory.compose", "nerve_cat.FinCategory.is_identity",
    "nerve_cat.FinCategory.hom", "nerve_cat.FinCategory.id",
    "hcnerve.SimplicialCategory.compose",
    "segal.BisimplicialSet.h_map", "segal.BisimplicialSet.v_map",
    "segal.BisimplicialSet.level",
    "intlinalg.Mat.apply", "intlinalg.Mat.column", "intlinalg.Mat.columns",
    "intlinalg.Mat.is_zero", "intlinalg.Mat.reduced",
])

# private names traced because a per-layer metric needs them
PRIVATE = frozenset(["sset.SimplicialSet._restrict"])

APPLY = "sset.SimplicialSet.apply"


def canonical(fn):
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__qualname__)


def traceable(name):
    if name in PRIVATE:
        return True
    parts = name.split(".")
    return not any(p.startswith("_") or p.startswith("<") for p in parts)


class Tracer:
    def __init__(self, package):
        self.modules = [getattr(package, m) for m in MODULES]
        self.prefix = package.__name__ + "."
        self.wrappers = {}
        self.bindings = []
        self.job = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.spans = []
        self.stack = [[0.0, None, None]]  # [child time, span id, name]

    # -- recording -------------------------------------------------------

    def reset(self):
        """Start a new pass; wrappers hold these containers, so they are
        cleared in place."""
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()
        self.spans.clear()
        del self.stack[1:]
        self.stack[0][0] = 0.0

    def _wrap(self, name, fn):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        now = time.perf_counter
        span = name not in HOT and not name.startswith("delta.")
        post = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                parent[0] += dur
                if span:
                    tracer.spans[sid] = (name, t0, t1, parent[1],
                                         tracer.job)
                if post is not None:
                    post(tracer, parent, args, kwargs, result)

        return wrapper

    def _wrapper_for(self, fn):
        if not isinstance(fn, types.FunctionType) or \
                not fn.__module__.startswith(self.prefix):
            return None
        name = canonical(fn)
        if not traceable(name):
            return None
        w = self.wrappers.get(id(fn))
        if w is None:
            w = self.wrappers[id(fn)] = (fn, self._wrap(name, fn))
        return w[1]

    # -- installing ------------------------------------------------------

    def _bind(self, setter, getter, key, new):
        self.bindings.append((setter, key, getter(key)))
        setter(key, new)

    def install(self):
        """Patch every binding: module globals (including re-exports
        such as ``from .delta import tcompose``), class methods, and
        module-level tables of functions such as ``cli.COMMANDS``."""
        for mod in self.modules:
            space = vars(mod)
            for attr, obj in list(space.items()):
                w = self._wrapper_for(obj)
                if w is not None:
                    self._bind(lambda k, v, m=mod: setattr(m, k, v),
                               space.get, attr, w)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        w = self._wrapper_for(fn)
                        if isinstance(fn, (staticmethod, classmethod)):
                            w = self._wrapper_for(fn.__func__)
                            w = w and type(fn)(w)
                        if w is not None:
                            self._bind(
                                lambda k, v, c=obj: setattr(c, k, v),
                                vars(obj).get, meth, w)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = self._patched_value(val)
                        if new is not None:
                            self._bind(obj.__setitem__, obj.get, key, new)

    def _patched_value(self, val):
        w = self._wrapper_for(val)
        if w is not None:
            return w
        if isinstance(val, tuple):
            items = [self._wrapper_for(v) or v for v in val]
            if any(a is not b for a, b in zip(items, val)):
                return tuple(items)
        return None

    def uninstall(self):
        for setter, key, original in reversed(self.bindings):
            setter(key, original)
        self.bindings = []

    # -- reading ---------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "extra": dict(self.extra)}


# -- per-layer counts taken at the call boundary ------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _from_presheaf(tr, parent, args, kwargs, result):
    D = _arg(args, kwargs, 0, "D")
    levels = _arg(args, kwargs, 1, "levels")
    tr.extra["from_presheaf.elements"] += sum(len(lv)
                                              for lv in levels[:D + 1])
    if result is not None:
        # names, not n_cells: a hook must not call traced methods
        tr.extra["from_presheaf.cells"] += sum(len(level) for level
                                               in result.names[:D + 1])


def _restrict(tr, parent, args, kwargs, result):
    if parent[2] == APPLY:
        tr.extra["apply.misses"] += 1


def _count_results(key):
    def hook(tr, parent, args, kwargs, result):
        if result is not None:
            tr.extra[key] += len(result)
    return hook


def _classify(tr, parent, args, kwargs, result):
    if result is not None:
        tr.extra["classify.horns_tested"] += sum(
            t for t, _, _ in result.stats.values())


def _rezk(tr, parent, args, kwargs, result):
    if result is not None:
        tr.extra["rezk_nerve.cells"] += sum(len(v)
                                            for v in result.cells.values())


def _fuel_hook(prefix, progress):
    def hook(tr, parent, args, kwargs, result):
        if result is None:
            return
        if type(result).__name__ == "FuelExhausted":
            tr.extra[prefix + ".refusals"] += 1
            result = result.partial
        if result is not None:
            tr.extra[prefix + "." + progress[0]] += progress[1](result)
    return hook


def _load(tr, parent, args, kwargs, result):
    tr.extra["formats.bytes_in"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _dumps(tr, parent, args, kwargs, result):
    if result is not None:
        tr.extra["formats.bytes_out"] += len(result)


POST_HOOKS = {
    "sset.from_presheaf": _from_presheaf,
    "sset.SimplicialSet._restrict": _restrict,
    "sset.lift_extensions": _count_results("lift_extensions.results"),
    "hcnerve.simplicial_functors":
        _count_results("simplicial_functors.results"),
    "quasicat.classify": _classify,
    "segal.rezk_nerve": _rezk,
    "chain_model.factor_cofib_trivfib": _fuel_hook(
        "factor_cofib_trivfib", ("stages", lambda r: len(r.stages))),
    "nerve_cat.localize": _fuel_hook(
        "localize", ("rounds", lambda r: r.rounds_used)),
    "formats.load": _load,
    "formats.dumps": _dumps,
}


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0)


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _extra(key):
    return lambda s: s["extra"].get(key, 0)


def _ratio(num, den):
    def f(s):
        d = den(s)
        return num(s) / d if d else 0.0
    return f


# (metric, unit, function of a pass snapshot); trace.overhead_ratio is
# added by the runner
SELF_TIMED = [
    "cli.main", "cli.build_parser", "formats.load", "formats.load_object",
    "formats.dumps", "sset.SimplicialSet.validate", "sset.from_presheaf",
    "sset.product", "sset.lift_extensions", "sset.SimplicialSet.face_index",
    "sset.find_isomorphism", "nerve_cat.nerve", "quasicat.classify",
    "quasicat.homotopy_category", "quasicat.homotopy_group",
    "quasicat.max_kan_subset", "quasicat.hom_space", "hcnerve.frak_c",
    "hcnerve.coherent_nerve", "hcnerve.simplicial_functors",
    "hcnerve.SimplicialCategory.validate", "segal.rezk_nerve",
    "segal.BisimplicialSet.validate", "segal.BisimplicialSet.row",
    "segal.strict_segal_check", "segal.completeness_check",
    "intlinalg.smith_normal_form", "doldkan.homology",
    "doldkan.dold_kan_gamma", "doldkan.normalized_chains",
    "chain_model.factor_cofib_trivfib", "chain_model.is_quasi_iso",
    "chain_model.factor_trivcofib_fib", "nerve_cat.localize",
    "fibrations.twisted_arrows", "fibrations.is_left_fibration",
    "fibrations.cocart_analyze",
]

_APPLY_CALLS = _calls(APPLY)

LAYER_METRICS = [(n + ".self_s", "s", _self(n)) for n in SELF_TIMED] + [
    ("formats.bytes_in", "bytes", _extra("formats.bytes_in")),
    ("formats.bytes_out", "bytes", _extra("formats.bytes_out")),
    ("delta.tcompose.calls", "count", _calls("delta.tcompose")),
    ("delta.tfactorize.calls", "count", _calls("delta.tfactorize")),
    (APPLY + ".calls", "count", _APPLY_CALLS),
    (APPLY + ".hit_ratio", "ratio", _ratio(
        lambda s: _APPLY_CALLS(s) - s["extra"].get("apply.misses", 0),
        _APPLY_CALLS)),
    ("sset.from_presheaf.elements", "count",
     _extra("from_presheaf.elements")),
    ("sset.from_presheaf.yield", "ratio", _ratio(
        _extra("from_presheaf.cells"), _extra("from_presheaf.elements"))),
    ("sset.lift_extensions.results", "count",
     _extra("lift_extensions.results")),
    ("quasicat.classify.horns_tested", "count",
     _extra("classify.horns_tested")),
    ("hcnerve.simplicial_functors.results", "count",
     _extra("simplicial_functors.results")),
    ("segal.rezk_nerve.cells", "count", _extra("rezk_nerve.cells")),
    ("intlinalg.smith_normal_form.calls", "count",
     _calls("intlinalg.smith_normal_form")),
    ("chain_model.factor_cofib_trivfib.stages", "count",
     _extra("factor_cofib_trivfib.stages")),
    ("chain_model.factor_cofib_trivfib.refusals", "count",
     _extra("factor_cofib_trivfib.refusals")),
    ("nerve_cat.localize.rounds", "count", _extra("localize.rounds")),
    ("nerve_cat.localize.refusals", "count", _extra("localize.refusals")),
]
