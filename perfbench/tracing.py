"""Span tracing for the benchmark's traced run.

``Tracer.installed()`` wraps the public functions of each specdens layer, and
the ``matvec``/``draw`` methods, so that every call records a span: name,
start, end and parent. The wrappers replace the module attributes for the
duration of the ``with`` block only and are removed afterwards; no file of the
library changes. Spans are kept in compact arrays in memory and written out
once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. Within one root span the self times therefore add up to the root's
duration, which ``check_round`` verifies against the wall time measured
outside the tracer.

The tracer assumes one thread: the benchmark leaves ``threads`` unset, so
every probe runs in the calling thread.
"""

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, public function, span name). A span name is "<layer>.<part>"; the
# layer is the specdens module, except "compare", which is dispatch and glue.
FUNCTIONS = (
    ("matrix", "load_matrix_market", "matrix.load"),
    ("matrix", "estimate_spectral_interval", "matrix.interval"),
    ("kpm", "compute_chebyshev_moments", "kpm.moments"),
    ("kpm", "compute_legendre_moments", "kpm.moments"),
    ("kpm", "moments_via_product_formula", "kpm.moments"),
    ("kpm", "moments_to_coefficients", "kpm.eval"),
    ("kpm", "evaluate_kpm_dos", "kpm.eval"),
    ("kpm", "spectroscopic_dos", "kpm.eval"),
    ("kpm", "delta_chebyshev_dos", "kpm.eval"),
    ("kpm", "evaluate_kpml_dos", "kpm.eval"),
    ("dgl", "evaluate_dgl_dos", "dgl.eval"),
    ("lanczos", "lanczos_factorize", "lanczos.factorize"),
    ("lanczos", "prefix_factorization", "lanczos.ritz"),
    ("lanczos", "ritz_quadrature", "lanczos.ritz"),
    ("lanczos", "ritz_residual_bounds", "lanczos.ritz"),
    ("lanczos", "pool_ritz_quadratures", "lanczos.ritz"),
    ("lanczos", "continued_fraction_resolvent", "lanczos.resolvent"),
    ("lanczos", "tridiagonal_resolvent_first", "lanczos.resolvent"),
    ("lanczos", "blur_nodes", "lanczos.blur"),
    ("lanczos", "cdos_refine", "lanczos.cdos"),
    ("reference", "dense_eigensolve", "reference.eigensolve"),
    ("reference", "exact_regularized_dos", "reference.exact_blur"),
    ("metrics", "error_sup_gaussian", "metrics.sup_gaussian"),
    ("compare", "estimate_dos", "compare"),
    ("compare", "run_method_comparison", "compare"),
)

# (module, class, method, span name)
METHODS = (
    ("matrix", "SparseSymmetricMatrix", "matvec", "matrix.spmv"),
    ("matrix", "MappedOperator", "matvec", "matrix.map"),
    ("stochastic", "ProbeVectorSource", "draw", "stochastic.draw"),
)

NO_PARENT = -1


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        nid = self._id(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code; yields its index."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced specdens name for the duration of the block.

        A function is replaced wherever a specdens module binds it (the
        package namespace and modules that imported it by name), so calls
        through any of those names are traced.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specdens" or name.startswith("specdens."))]
        undo = []
        try:
            for mod_name, attr, span in FUNCTIONS:
                original = getattr(importlib.import_module(f"specdens.{mod_name}"), attr)
                wrapper = self._wrap(original, span)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            for mod_name, cls_name, attr, span in METHODS:
                cls = getattr(importlib.import_module(f"specdens.{mod_name}"), cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, span))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends, self times."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent != NO_PARENT
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name_id, parent, start, end, dur - child

    def subtree(self, root):
        """Index range of a root span and its descendants (recorded contiguously)."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        later_roots = np.flatnonzero(parent[root + 1:] == NO_PARENT)
        stop = root + 1 + int(later_roots[0]) if later_roots.size else len(parent)
        return root, stop

    def layer_totals(self, root):
        """Per span name under one root: self seconds, calls, inclusive seconds."""
        name_id, _, start, end, self_s = self.arrays()
        lo, hi = self.subtree(root)
        ids = name_id[lo:hi]
        n = len(self.names)
        selfs = np.bincount(ids, weights=self_s[lo:hi], minlength=n)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=(end - start)[lo:hi], minlength=n)
        return {name: {"self_s": float(selfs[i]), "calls": int(calls[i]),
                       "inclusive_s": float(incl[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def check_round(self, root, wall_s):
        """Problems with one traced root: unclosed or badly nested spans, or
        self times that do not add up to the wall time measured outside."""
        _, parent, start, end, self_s = self.arrays()
        lo, hi = self.subtree(root)
        problems = []
        if np.any(end[lo:hi] < start[lo:hi]):
            problems.append("span closed before it opened")
        kids = np.arange(lo + 1, hi)
        par = parent[lo + 1:hi]
        if np.any(par < lo) or np.any(start[kids] < start[par]) or np.any(end[kids] > end[par]):
            problems.append("child span outside its parent")
        total = float(self_s[lo:hi].sum())
        if abs(total - wall_s) > 1e-3 * wall_s + 1e-4:
            problems.append(f"self times add up to {total:.6f} s, traced wall is {wall_s:.6f} s")
        return problems

    def write(self, path):
        """Write all spans as arrays: names, name_id, parent, start, end."""
        name_id, parent, start, end, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
