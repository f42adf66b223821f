"""Span tracing of lrmor from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function and method of the
measured modules by a wrapper that records one span per call:
``[name, start, end, parent, info]``, where ``parent`` is the index of the
enclosing span (-1 for none) and ``info`` holds the counts read at that
boundary (RHS columns, iterations, cells, ...).  The wrappers are bound in
every lrmor module namespace that holds the original function, so names a
module imports by value (``from .lradi import lr_adi`` in ``lrnm`` and
``mor``, ``transfer_eval`` in ``sgrid``, ``project`` in ``pmor``, ...) are
traced as well.  Installing rebinds names in the running process only, and
is meant for a throw-away pass process: nothing is ever unwrapped.  A layer
is the lrmor module a span belongs to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import weakref
from time import perf_counter

import numpy as np

# lrmor modules measured as layers; cli and mmio only do file I/O
LAYERS = ("system", "operators", "equations", "lradi", "lrnm", "mor", "pmor",
          "sgrid", "benchmarks")
# constructors traced besides the public methods
CONSTRUCTORS = ("system.LtiSystem", "operators.OperatorSet")

_OPS = "operators.OperatorSet."
SOLVES = {_OPS + m for m in ("sol_a", "sol_e", "sol_ape")}
WOODBURY = {_OPS + m for m in ("sol_a_splr", "sol_ape_splr")}
MULS = {_OPS + m for m in ("mul_a", "mul_e", "mul_ape", "mul_a_splr")}
SHIFT_GEN = {"lradi.projection_shifts", "lradi.heuristic_shifts"}
RESIDUALS = {"equations.lyap_residual", "equations.riccati_residual"}
SWEEPS = {"sgrid.sigma_grid", "sgrid.sigma_error_grid"}
ASSEMBLE = {"pmor.piecewise_assemble", "pmor.interpolatory_assemble"}


def _columns(b):
    b = np.asarray(b)
    return 1 if b.ndim == 1 else int(b.shape[1])


def _factor_key(name, args):
    """Cache key of the factorization a base solve touches, mirroring
    ``OperatorSet``: one LU of A, one of E, one per (shift, E transposed
    relative to A).  ``None`` when no factorization is involved."""
    ops = args["self"]
    if name.endswith(".sol_a"):
        return ("A",)
    if name.endswith(".sol_e"):
        return ("E",) if ops.system.have_e else None
    p = complex(args["p"])
    if p.imag == 0.0:
        p = p.real
    return ("ApE", p, args["tr_a"] != args["tr_e"])


# per-span counts read from the call's arguments and result
_INFO = {
    "lradi.lr_adi": lambda a, r: {
        "iterations": len(r.residual_history),
        "distinct_shifts": 0 if r.shifts_used is None
        else len(set(r.shifts_used.values.tolist())),
        "cols": r.z.columns},
    "lrnm.lr_newton": lambda a, r: {"steps": len(r.newton_residuals) - 1},
    "equations.lyap_residual": lambda a, r: {"cols": a["zf"].columns},
    "equations.riccati_residual": lambda a, r: {"cols": a["zf"].columns},
    "mor.irka": lambda a, r: {"iterations": r.n_iter},
    "pmor.train": lambda a, r: {"local_order_sum": sum(r.local_orders)},
    "sgrid.sigma_grid": lambda a, r: {
        "cells": int(r.values.size), "nan": int(np.isnan(r.values).sum())},
}
_INFO["sgrid.sigma_error_grid"] = _INFO["sgrid.sigma_grid"]


class Tracer:
    """Records spans of lrmor calls made in this process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # factorization keys already touched, per OperatorSet instance; a
        # weak key so an id reused after garbage collection is not reuse
        self._touched = weakref.WeakKeyDictionary()
        self._originals = {}  # id(original) -> (original, wrapper)
        self._package = None

    # -- installing -----------------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of every measured module and
        rebind the wrappers wherever the package binds the originals."""
        self._package = package
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._register(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                entry = self._originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])

    def unwrapped_bindings(self):
        """Module-level names of the package still bound to an original."""
        return [f"{mod.__name__}.{name}" for mod in self._modules()
                for name, obj in vars(mod).items()
                if id(obj) in self._originals
                and self._originals[id(obj)][0] is obj]

    def _modules(self):
        prefix = self._package.__name__
        return [m for n, m in list(sys.modules.items())
                if n == prefix or n.startswith(prefix + ".")]

    def _wrap_methods(self, cls, qual):
        for attr, member in list(vars(cls).items()):
            kind = type(member) if isinstance(
                member, (classmethod, staticmethod)) else None
            fn = member.__func__ if kind else member
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and not (attr == "__init__"
                                             and qual in CONSTRUCTORS):
                continue
            wrapper = self._wrap(f"{qual}.{attr}", fn)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _register(self, name, fn):
        self._originals[id(fn)] = (fn, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        info_fn = _INFO.get(name)
        is_solve = name in SOLVES

        def wrapper(*args, **kwargs):
            bound = None
            if info_fn is not None or is_solve:
                bound = signature.bind(*args, **kwargs).arguments
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if is_solve:
                span[4] = self._solve_info(name, bound)
            elif info_fn is not None:
                span[4] = info_fn(bound, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _solve_info(self, name, args):
        key = _factor_key(name, args)
        first = False
        if key is not None:
            touched = self._touched.setdefault(args["self"], set())
            first = key not in touched
            touched.add(key)
        is_complex = first and len(key) > 1 and isinstance(key[1], complex)
        return {"cols": _columns(args["b"]), "lu": first,
                "complex": is_complex}


# -- per-layer metrics -------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the time covered by its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, wall, setup_spans=()):
    """Per-layer metrics of one traced pass (``wall`` seconds long);
    ``setup_spans`` are those of the model generations before it."""
    own = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    info = [s[4] or {} for s in spans]
    index, layer_self = {}, {}
    for i, span in enumerate(spans):
        index.setdefault(span[0], []).append(i)
        layer = span[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]

    def of(*names):
        return [i for n in names for i in index.get(n, ())]

    def under(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def total(idx, values=dur):
        return float(sum(values[i] for i in idx))

    def count(idx, key):
        return int(sum(info[i].get(key, 0) for i in idx))

    newton = {"lrnm.lr_newton"}
    solves = of(*SOLVES)
    lus = [i for i in solves if info[i].get("lu")]
    muls = [i for i in of(*MULS) if not under(i, MULS)]
    inits = of(_OPS + "__init__")
    woodbury = of(*WOODBURY)
    adi = of("lradi.lr_adi")
    shift_gen = [i for i in of(*SHIFT_GEN) if not under(i, SHIFT_GEN)]
    residuals = of(*RESIDUALS)
    irka = of("mor.irka")
    sweeps = of(*SWEEPS)
    cells = count(sweeps, "cells")
    gen = [s[2] - s[1] for s in setup_spans
           if s[0].startswith("benchmarks.") and s[3] < 0]
    return {
        "operators.lu_count": len(lus),
        "operators.lu_complex_count": sum(info[i]["complex"] for i in lus),
        "operators.lu_s": total(lus),
        "operators.solve_count": len(solves),
        "operators.solve_cols": count(solves, "cols"),
        "operators.solve_s": total(set(solves) - set(lus)),
        "operators.solves_per_lu": len(solves) / len(lus) if lus else 0.0,
        "operators.init_count": len(inits),
        "operators.init_s": total(inits),
        "operators.woodbury_count": len(woodbury),
        "operators.woodbury_self_s": total(woodbury, own),
        "operators.mul_count": len(muls),
        "operators.mul_s": total(muls),
        "lradi.calls": len(adi),
        "lradi.self_s": layer_self.get("lradi", 0.0),
        "lradi.iterations": count(adi, "iterations"),
        "lradi.distinct_shifts": count(adi, "distinct_shifts"),
        "lradi.shift_gen_count": len(shift_gen),
        "lradi.shift_gen_s": total(shift_gen),
        "lradi.out_cols": count(adi, "cols"),
        "lrnm.steps": count([i for i in of("lrnm.lr_newton")
                             if not under(i, newton)], "steps"),
        "lrnm.self_s": layer_self.get("lrnm", 0.0),
        "lrnm.residual_evals": len([i for i in of("equations.riccati_residual")
                                    if under(i, newton)]),
        "lrnm.inner_iterations": count([i for i in adi if under(i, newton)],
                                       "iterations"),
        "equations.residual_count": len(residuals),
        "equations.residual_s": total(residuals),
        "equations.residual_cols": count(residuals, "cols"),
        "mor.project_count": len(of("mor.project")),
        "mor.project_s": total(of("mor.project")),
        "mor.sqrt_s": total(of("mor.square_root_method")),
        "mor.irka_iterations": count(irka, "iterations"),
        "mor.irka_self_s": total(irka, own),
        "mor.transfer_eval_count": len(of("mor.transfer_eval")),
        "mor.transfer_eval_s": total(of("mor.transfer_eval")),
        "mor.rom_transfer_count": len(of("mor.Rom.transfer")),
        "mor.rom_transfer_s": total(of("mor.Rom.transfer")),
        "pmor.instantiate_count": len(of("pmor.ParametricSystem.instantiate")),
        "pmor.instantiate_s": total(of("pmor.ParametricSystem.instantiate")),
        "pmor.local_order_sum": count(of("pmor.train"), "local_order_sum"),
        "pmor.assemble_s": total(of(*ASSEMBLE)),
        "pmor.reduce_count": len(of("pmor.PiecewiseRom.reduce")),
        "pmor.reduce_s": total(of("pmor.PiecewiseRom.reduce")),
        "pmor.interp_transfer_s": total(of("pmor.InterpolatoryRom.transfer")),
        "sgrid.cells": cells,
        "sgrid.nan_cells": count(sweeps, "nan"),
        "sgrid.self_s": layer_self.get("sgrid", 0.0),
        "sgrid.lu_per_cell": (len([i for i in lus if under(i, SWEEPS)])
                              / cells if cells else 0.0),
        "system.construct_count": len(of("system.LtiSystem.__init__")),
        "system.construct_s": total(of("system.LtiSystem.__init__")),
        "benchmarks.gen_s": statistics.median(gen) if gen else 0.0,
        "trace.coverage": sum(own) / wall,
    }
