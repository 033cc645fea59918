"""Outside-in span tracer for the solver benchmark.

Nothing under src/ knows about it. While an ``Instrumentation`` is active
it replaces the public functions and methods of the library's layers with
thin wrappers, and restores the originals when it exits:

- operators: ``DenseDictionary`` products and column gathers;
- numerics: Cholesky factor, update, solve, PCG, spectral norm and the
  elementwise kernels, patched at every module that imported them;
- ell1._accel: the four compiled-or-numpy kernels;
- robust: ``ExtendedDictionary`` products and column protocol, and the work
  that depends only on the dictionary (``gram_dd``, ``norm_sq``, the
  column-Gram factor);
- the five solver modules and robust: every public function.

Solvers that take a raw matrix see the dictionary as an ndarray subclass
view whose ``__array_ufunc__`` times ``np.matmul``; the view is applied
after the problem objects are built because ``np.ascontiguousarray`` in
their constructors would strip it. Products are counted once, at the
outermost product boundary: a product made inside another product span
(``ExtendedDictionary.gram_column`` calling its own ``columns_dot``)
passes straight through.

Each span records its name, start, end, parent span and solve id; spans
stay in memory and are written out by the caller at the end of the run.
"""

import functools
import gzip
import inspect
import json
import time

import numpy as np

PRODUCT = "operators.product"
GATHER = "operators.gather"
EXT_PRODUCT = "robust.ext_product"
A_ONLY = "robust.a_only"
ACCEL = "accel"
SOLVER_PREFIX = "solver:"

# spans of these layers nest no span of their own kind
_LEAF_KINDS = (PRODUCT, GATHER, EXT_PRODUCT)

_NUMERICS = {
    "chol_factor": "numerics.chol_factor",
    "chol_append": "numerics.chol_update",
    "chol_delete": "numerics.chol_update",
    "chol_rank1": "numerics.chol_update",
    "pcg_solve": "numerics.pcg",
    "spectral_norm_sq": "numerics.spectral_norm",
    "soft_threshold": "numerics.elementwise",
    "project_box_linf": "numerics.elementwise",
}
_ACCEL_KERNELS = ("soft_threshold", "project_box_linf", "chol_update",
                  "chol_downdate")
_DENSE_METHODS = {
    "apply": PRODUCT, "adjoint": PRODUCT, "weighted_gram_dd": PRODUCT,
    "gram_dd": PRODUCT, "apply_columns": GATHER, "columns_dot": GATHER,
    "gram_column": GATHER,
}
_EXT_METHODS = {
    "apply": EXT_PRODUCT, "adjoint": EXT_PRODUCT, "__matmul__": EXT_PRODUCT,
    "column": EXT_PRODUCT, "apply_columns": EXT_PRODUCT,
    "columns_dot": EXT_PRODUCT, "gram_column": EXT_PRODUCT,
    "column_norms_sq": EXT_PRODUCT, "weighted_gram_dd": EXT_PRODUCT,
    "gram_dd": A_ONLY, "norm_sq": A_ONLY,
}
_SOLVER_MODULES = ("alm", "gradient_projection", "homotopy", "pdipa",
                   "shrinkage", "robust")


class Tracer:
    """In-memory span store: parallel lists, one entry per span."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.solve = []
        self.pcg_iters = 0
        self.solve_id = -1
        self._stack = []
        self._leaf_depth = 0

    def open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span named name, honouring leaf nesting."""
        leaf = name in _LEAF_KINDS
        if leaf:
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            if leaf:
                self._leaf_depth -= 1

    def durations(self):
        """(duration, self time) per span; self = duration - children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=np.intp)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def write(self, path):
        """Gzipped text: a JSON header naming the columns and the span
        names, then one line per span: name index, start, end, parent
        span index (-1 at the top) and solve id."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end",
                                             "parent", "solve"],
                                 "names": names}) + "\n")
            for i, name in enumerate(self.name):
                fh.write("%d %r %r %d %d\n" % (
                    index[name], self.start[i], self.end[i], self.parent[i],
                    self.solve[i]))


def _wrapped(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(out)
        return out
    return traced


class Instrumentation:
    """Context manager that installs the wrappers and removes them again.

    ``view(matrix)`` returns the product-timing view of a dictionary that
    a solver will receive as a raw ndarray.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []
        tr = tracer

        class TracedMatrix(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = tuple(x.view(np.ndarray)
                              if isinstance(x, TracedMatrix) else x
                              for x in inputs)
                fn = getattr(ufunc, method)
                if ufunc is np.matmul and method == "__call__":
                    return tr.call(PRODUCT, fn, plain, kwargs)
                return fn(*plain, **kwargs)

        self._matrix_type = TracedMatrix

    def view(self, matrix):
        return matrix.view(self._matrix_type)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def __enter__(self):
        import ell1._accel
        from ell1 import (alm, bench, gradient_projection, homotopy, numerics,
                          operators, pdipa, robust, shrinkage)
        tr = self.tracer
        modules = (numerics, operators, robust, alm, shrinkage,
                   gradient_projection, homotopy, pdipa, bench)
        try:
            for attr in _ACCEL_KERNELS:
                fn = getattr(ell1._accel, attr)
                self._set(ell1._accel, attr, _wrapped(tr, ACCEL, fn))
            for attr, name in _NUMERICS.items():
                fn = getattr(numerics, attr)
                after = None
                if attr == "pcg_solve":
                    def after(res):
                        tr.pcg_iters += res.iterations
                self._patch_everywhere(modules, fn,
                                       _wrapped(tr, name, fn, after))
            self._set(numerics.CholFactor, "solve",
                      _wrapped(tr, "numerics.chol_solve",
                               numerics.CholFactor.solve))
            for attr, name in _DENSE_METHODS.items():
                fn = operators.DenseDictionary.__dict__[attr]
                self._set(operators.DenseDictionary, attr,
                          _wrapped(tr, name, fn))
            for attr, name in _EXT_METHODS.items():
                fn = robust.ExtendedDictionary.__dict__[attr]
                self._set(robust.ExtendedDictionary, attr,
                          _wrapped(tr, name, fn))
            self._set(robust._AdjointView, "__matmul__",
                      _wrapped(tr, EXT_PRODUCT,
                               robust._AdjointView.__matmul__))
            fn = robust._column_gram_factor
            self._patch_everywhere(modules, fn, _wrapped(tr, A_ONLY, fn))
            for short in _SOLVER_MODULES:
                mod = modules[[m.__name__ for m in modules].index(
                    "ell1." + short)]
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    self._patch_everywhere(
                        modules, fn,
                        _wrapped(tr, SOLVER_PREFIX + short + "." + attr, fn))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
