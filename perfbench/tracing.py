"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each qcpn layer from outside the
package: module functions are rebound in every qcpn module that holds them
(so ``from .x import y`` bindings are caught too), class methods are replaced
on the class, and ``np.linalg.svd`` is wrapped only as ``suq2`` sees it.
Every wrapped call records a span (job, id, parent, name, layer, start, end,
self time).  QScalar operators are too many for spans: they are wrapped on
the class, counted, and timed only at the outermost operator, and that time
counts as child time of the enclosing span.  Spans stay in memory until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter

_clock = time.perf_counter

QCPN_MODULES = (
    "qcpn",
    "qcpn.qcoeff",
    "qcpn.ncpoly",
    "qcpn.projections",
    "qcpn.identities",
    "qcpn.suq2",
    "qcpn.rep_sphere",
    "qcpn.parser",
    "qcpn.report",
    "qcpn.cli",
)

# (module, function names, layer)
FUNCTIONS = (
    ("qcpn.ncpoly", ("mul", "normalize", "star", "uq_act"), "ncpoly"),
    ("qcpn.suq2", ("build_triple", "index_numeric", "index_analytic", "holo_dim", "tau1_pairing",
                   "modular_check", "haar_symbolic", "triple_axiom_suite", "dirac_spectrum_check"), "suq2"),
    ("qcpn.rep_sphere", ("fredholm_pairing",), "rep_sphere"),
    ("qcpn.parser", ("parse_expr",), "parser"),
    ("qcpn.cli", ("main", "build_parser"), "cli"),
)
# every public function defined in these modules is wrapped
WHOLE_MODULES = (("qcpn.projections", "projections"), ("qcpn.identities", "identities"))

# (module, class, method names, layer)
METHODS = (
    ("qcpn.suq2", "SUq2Box", ("__init__", "alpha", "beta", "a_op", "b_op", "lk", "lf", "le",
                              "k_left", "theta", "generator", "represent", "right_mult"), "suq2"),
    ("qcpn.suq2", "SpectralTriple", ("dirac", "grading", "real_structure", "represent",
                                     "right_represent"), "suq2"),
    ("qcpn.rep_sphere", "FockRep", ("__init__", "generator", "poly"), "rep_sphere"),
    ("qcpn.report", "Report", ("human", "to_json", "to_csv"), "report"),
)
SUQ2_BUILD = {"SUq2Box.__init__", "SUq2Box.alpha", "SUq2Box.beta", "SUq2Box.a_op", "SUq2Box.b_op",
              "SUq2Box.lk", "SUq2Box.lf", "SUq2Box.le", "SUq2Box.k_left", "SUq2Box.theta"}
FOCK_BUILD = {"FockRep.__init__", "FockRep.generator"}
QSCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inv")


class _Proxy:
    """Attribute proxy: overrides first, everything else from the target."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (job, id, parent, name, layer, start, end, self_s)
        self.counts = Counter()
        self.qcoeff_busy_s = 0.0
        self._stack = []  # open spans: [id, child_s]
        self._q_depth = 0
        self._ids = itertools.count()
        self._job = None
        self._presentations = []
        self._patches = []  # (owner, attribute, original)

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, job):
        self._job = job
        self._presentations = []

    def end_job(self):
        for P in self._presentations:
            self.counts["ncpoly.cache_entries"] += len(P._nf_cache) + len(P._push_cache)
        self._presentations = []
        self._job = None

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        stack, spans, clock = self._stack, self.spans, _clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((self._job, sid, parent, name, layer, start, end, end - start - frame[1]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _qscalar_op(self, name, fn, qscalar):
        counts, clock = self.counts, _clock

        @functools.wraps(fn)
        def wrapper(*args):
            counts["qcoeff.calls"] += 1
            if self._q_depth:
                result = fn(*args)
            else:
                self._q_depth = 1
                start = clock()
                try:
                    result = fn(*args)
                finally:
                    busy = clock() - start
                    self._q_depth = 0
                self.qcoeff_busy_s += busy
                if self._stack:
                    self._stack[-1][1] += busy
            if name in ("__truediv__", "inv") or any(
                isinstance(x, qscalar) and not x.is_laurent() for x in (*args, result)
            ):
                counts["qcoeff.gcd_path_calls"] += 1
            return result

        return wrapper

    # -- per-layer counters fed from results -------------------------------------

    def _count_terms(self, args, result):
        self.counts["ncpoly.terms_out"] += len(result.terms)

    def _count_box(self, args, result):
        self.counts["suq2.box_states"] += args[0].dim

    def _count_fock(self, args, result):
        self.counts["rep_sphere.fock_states"] += args[0].dimension

    def _counted_build(self, build):
        # nnz of each operator the box assembles; cached returns are not counted
        def wrapper(box, name, entries):
            new = name not in box._ops
            mat = build(box, name, entries)
            if new:
                self.counts["suq2.operator_nnz"] += mat.nnz
            return mat

        return wrapper

    # -- install / uninstall -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for modname in QCPN_MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        import numpy as np
        from qcpn import ncpoly, qcoeff, suq2

        after_fn = {"ncpoly": self._count_terms}
        for modname, names, layer in FUNCTIONS:
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                self._rebind(fn, self._span(name, layer, fn, after_fn.get(layer)))
        for modname, layer in WHOLE_MODULES:
            mod = sys.modules[modname]
            for name, fn in list(vars(mod).items()):
                if callable(fn) and not isinstance(fn, type) and not name.startswith("_") \
                        and getattr(fn, "__module__", None) == modname:
                    self._rebind(fn, self._span(name, layer, fn))

        for modname, clsname, names, layer in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for name in names:
                fn = cls.__dict__[name]
                qual = f"{clsname}.{name}"
                if qual == "SUq2Box.__init__":
                    after = self._count_box
                elif qual == "FockRep.__init__":
                    after = self._count_fock
                else:
                    after = None
                self._patch(cls, name, self._span(qual, layer, fn, after))

        self._patch(suq2.SUq2Box, "_build", self._counted_build(suq2.SUq2Box.__dict__["_build"]))

        P = ncpoly.Presentation
        post_init = P.__dict__["__post_init__"]

        def register(p):
            post_init(p)
            self._presentations.append(p)

        self._patch(P, "__post_init__", register)

        for name in QSCALAR_OPS:
            fn = qcoeff.QScalar.__dict__[name]
            self._patch(qcoeff.QScalar, name, self._qscalar_op(name, fn, qcoeff.QScalar))

        svd = self._span("np.linalg.svd", "linalg", np.linalg.svd)
        self._patch(suq2, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=svd)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def metrics(self):
        calls, self_s = Counter(), Counter()
        for span in self.spans:
            calls[span[4]] += 1
            self_s[span[4]] += span[7]

        by_id = {span[1]: span for span in self.spans}

        def outermost_s(names):
            total = 0.0
            for span in self.spans:
                if span[3] not in names:
                    continue
                parent = span[2]
                while parent is not None and by_id[parent][3] not in names:
                    parent = by_id[parent][2]
                if parent is None:
                    total += span[6] - span[5]
            return total

        svd = [s for s in self.spans if s[3] == "np.linalg.svd"]
        c = self.counts
        return {
            "qcoeff.calls": (c["qcoeff.calls"], "count"),
            "qcoeff.gcd_path_calls": (c["qcoeff.gcd_path_calls"], "count"),
            "qcoeff.busy_s": (self.qcoeff_busy_s, "s"),
            "ncpoly.calls": (calls["ncpoly"], "count"),
            "ncpoly.self_s": (self_s["ncpoly"], "s"),
            "ncpoly.cache_entries": (c["ncpoly.cache_entries"], "count"),
            "ncpoly.terms_out": (c["ncpoly.terms_out"], "count"),
            "projections.calls": (calls["projections"], "count"),
            "projections.self_s": (self_s["projections"], "s"),
            "identities.calls": (calls["identities"], "count"),
            "identities.self_s": (self_s["identities"], "s"),
            "suq2.box_states": (c["suq2.box_states"], "count"),
            "suq2.operator_nnz": (c["suq2.operator_nnz"], "count"),
            "suq2.box_build_s": (outermost_s(SUQ2_BUILD), "s"),
            "suq2.svd_calls": (len(svd), "count"),
            "suq2.svd_s": (sum(s[6] - s[5] for s in svd), "s"),
            "suq2.self_s": (self_s["suq2"], "s"),
            "rep_sphere.fock_states": (c["rep_sphere.fock_states"], "count"),
            "rep_sphere.fock_build_s": (outermost_s(FOCK_BUILD), "s"),
            "rep_sphere.self_s": (self_s["rep_sphere"], "s"),
            "cli.calls": (calls["cli"], "count"),
            "cli.self_s": (self_s["cli"], "s"),
            "report.emit_s": (self_s["report"], "s"),
            "parser.parse_s": (self_s["parser"], "s"),
        }

    def write_spans(self, path):
        keys = ("job", "id", "parent", "name", "layer", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
