"""Span tracer that wraps the public entry points of each lie_kam layer.

Wrappers replace module attributes, so every caller that looks a function
up through a module global (cross-layer ``fts.multiply`` calls and
intra-module calls alike) goes through them. Each span records name, start,
end, parent span and request id in flat arrays kept in memory; ``save``
writes them out once the run ends. Self time is a span's duration minus
the durations of its direct children.
"""
import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); FourierTaylorSeries.__init__ is handled
# separately because it lives on a class
WRAPPED = [
    ("lie_kam.series", "convolve_nonzeros", "backend.convolve_nonzeros"),
    ("lie_kam.series", "multiply", "series.multiply"),
    ("lie_kam.series", "poisson_bracket", "series.poisson_bracket"),
    ("lie_kam.series", "add", "series.add"),
    ("lie_kam.series", "scale", "series.scale"),
    ("lie_kam.series", "majorant_norm", "series.majorant_norm"),
    ("lie_kam.series", "to_json_dict", "series.to_json_dict"),
    ("lie_kam.operators", "homological_derivation",
     "operators.homological_derivation"),
    ("lie_kam.operators", "small_divisor_solve", "operators.small_divisor_solve"),
    ("lie_kam.operators", "projection_correction",
     "operators.projection_correction"),
    ("lie_kam.operators", "hamiltonian_apply", "operators.hamiltonian_apply"),
    ("lie_kam.operators", "run_identity_suite", "operators.run_identity_suite"),
    ("lie_kam.operators", "estimate_diophantine",
     "operators.estimate_diophantine"),
    ("lie_kam.normalform", "compute_v_star", "normalform.compute_v_star"),
    ("lie_kam.normalform", "kam_iterate", "normalform.kam_iterate"),
    ("lie_kam.normalform", "certify_bounds", "normalform.certify_bounds"),
    ("lie_kam.normalform", "compute_bound_constants",
     "normalform.compute_bound_constants"),
    ("lie_kam.rigidbody", "rk4_integrate", "rigidbody.rk4_integrate"),
    ("lie_kam.rigidbody", "make_reduced_field", "rigidbody.make_reduced_field"),
    ("lie_kam.rigidbody", "conservation_report", "rigidbody.conservation_report"),
    ("lie_kam.rigidbody", "write_trajectory_csv",
     "rigidbody.write_trajectory_csv"),
    ("lie_kam.presets", "default_diophantine", "presets.default_diophantine"),
    ("lie_kam.presets", "reduced_drive_series", "presets.reduced_drive_series"),
    ("lie_kam.cli", "main", "cli.main"),
]
CONSTRUCTOR = "series.FourierTaylorSeries"


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.req = array("l")
        self._stack = []
        self.request = -1
        # counters[request][name] -> exact count
        self.counters = {}
        self._saved = []

    # -- spans ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, amount):
        per_req = self.counters.setdefault(self.request, {})
        per_req[name] = per_req.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """fn wrapped in a span; after(tracer, args, kwargs, result) counts."""
        nid = self._id(name)
        clock = time.perf_counter
        start, end, parent, names, reqs = (self.start, self.end, self.parent,
                                           self.name, self.req)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            reqs.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace every module-level reference to a wrapped function."""
        import lie_kam.cli  # noqa: F401  (loads every layer)
        from lie_kam import series

        modules = [m for k, m in sys.modules.items()
                   if k == "lie_kam" or k.startswith("lie_kam.")]
        for modname, attr, span in WRAPPED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(orig, span, _AFTER.get(attr))
            if attr == "make_reduced_field":
                wrapper = self._field_factory(wrapper)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        cls = series.FourierTaylorSeries
        self._saved.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap(cls.__init__, CONSTRUCTOR)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def _field_factory(self, make_field):
        """make_reduced_field whose returned closure is traced as a field."""
        @functools.wraps(make_field)
        def traced_factory(*args, **kwargs):
            return self.wrap(make_field(*args, **kwargs), "rigidbody.field")
        return traced_factory

    # -- analysis ---------------------------------------------------------

    def per_request(self):
        """{request: {name: (calls, inclusive_s, self_s)}} from the spans."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        req = np.frombuffer(self.req, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        out = {}
        n_names = len(self.names)
        for r in np.unique(req):
            sel = req == r
            calls = np.bincount(name[sel], minlength=n_names)
            incl = np.bincount(name[sel], weights=dur[sel], minlength=n_names)
            slf = np.bincount(name[sel], weights=self_s[sel], minlength=n_names)
            out[int(r)] = {self.names[k]: (int(calls[k]), float(incl[k]),
                                           float(slf[k]))
                           for k in range(n_names) if calls[k]}
        return out

    def count_under(self, name, ancestor):
        """{request: number of `name` spans nested inside an `ancestor` span}."""
        if name not in self._ids or ancestor not in self._ids:
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        req = np.frombuffer(self.req, dtype=np.int64)
        inside = names == self._ids[ancestor]
        # spans are numbered in opening order, so a parent precedes its
        # children; propagate the flag one nesting level per pass
        while True:
            nxt = inside | np.where(parent >= 0, inside[parent], False)
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        hit = inside & (names == self._ids[name])
        return {int(r): int(np.sum(hit & (req == r))) for r in np.unique(req)}

    def save(self, path):
        """Write the spans as a compressed array file with the name table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            request=np.frombuffer(self.req, dtype=np.int64))


def _count_pairs(tr, args, kwargs, result):
    tr.count("backend.convolve_nonzeros.pairs", args[0].size * args[4].size)


def _count_operands(tr, args, kwargs, result):
    tr.count("series.multiply.operand_nnz",
             int(np.count_nonzero(args[0].coeffs))
             + int(np.count_nonzero(args[1].coeffs)))


def _count_lie_terms(tr, args, kwargs, result):
    tr.count("normalform.lie_terms", result.series_terms_used)


def _arguments(module, fn, args, kwargs):
    # signature() follows __wrapped__, so this works while traced
    sig = inspect.signature(getattr(sys.modules[module], fn))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_trials(tr, args, kwargs, result):
    bound = _arguments("lie_kam.operators", "run_identity_suite", args, kwargs)
    tr.count("operators.run_identity_suite.trials", bound["n_trials"])


def _count_member_steps(tr, args, kwargs, result):
    bound = _arguments("lie_kam.rigidbody", "rk4_integrate", args, kwargs)
    shape = np.shape(bound["y0"])
    members = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
    steps = int(round(bound["t_final"] / bound["h"]))
    tr.count("rigidbody.member_steps", members * steps)


def _count_csv_bytes(tr, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    if isinstance(path, (str, os.PathLike)):
        tr.count("rigidbody.write_trajectory_csv.bytes", os.path.getsize(path))


_AFTER = {
    "convolve_nonzeros": _count_pairs,
    "multiply": _count_operands,
    "compute_v_star": _count_lie_terms,
    "run_identity_suite": _count_trials,
    "rk4_integrate": _count_member_steps,
    "write_trajectory_csv": _count_csv_bytes,
}
