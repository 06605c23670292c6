"""Per-layer counters and spans for nplectic, installed from outside.

The engine has no trace hooks of its own, so this module wraps its public
functions and methods in place.  nplectic modules import names directly
(``from .calculus import contract``), so a function is replaced in every
``nplectic.*`` namespace that binds it, and a method under every class
attribute that holds it (``__rmul__ = __mul__``).  ``Tracer.restore`` puts
each original object back.

Two kinds of wrapper:

* counted: hot, fine-grained calls; one counter increment, no clock.
* timed: a span with a call count, an inclusive time (outermost activation
  only, so recursion is not counted twice) and a self time per module,
  which is the span's duration minus the time covered by its child spans.

Everything but the ``.s`` metrics repeats exactly for a fixed input.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# metric prefix -> (module, qualified name); "Class.attr" names a method
COUNTED = {
    "scalars.poly_mul": ("nplectic.scalars", ["Poly.__mul__"]),
    "scalars.enumerate_shuffles": ("nplectic.scalars", ["enumerate_shuffles"]),
    "scalars.koszul_sign": ("nplectic.scalars", ["koszul_sign"]),
    "elements.wedge": ("nplectic.elements", ["_Element.wedge"]),
    "pairs.bracket_basis": ("nplectic.pairs", ["ConstantPair.bracket_basis",
                                               "PolyVectorFieldPair.bracket_basis"]),
    "pairs.action_basis": ("nplectic.pairs", ["ConstantPair.action_basis",
                                              "PolyVectorFieldPair.action_basis"]),
    "linalg.null_space": ("nplectic.linalg", ["null_space"]),
    "linalg.echelon_reduce": ("nplectic.linalg", ["Echelon.reduce"]),
    "linalg.echelon_add": ("nplectic.linalg", ["Echelon.add"]),
}

TIMED = {
    "calculus.higher_bracket": ("nplectic.calculus", ["higher_bracket"]),
    "calculus.schouten": ("nplectic.calculus", ["schouten"]),
    "calculus.contract": ("nplectic.calculus", ["contract"]),
    "calculus.ce_differential": ("nplectic.calculus", ["ce_differential"]),
    "linalg.rref": ("nplectic.linalg", ["rref"]),
    "linalg.rank_fraction_free": ("nplectic.linalg", ["rank_fraction_free"]),
    "engine.kernel_basis": ("nplectic.engine", ["kernel_basis"]),
    "engine.reduce_mod_kernel": ("nplectic.engine", ["reduce_mod_kernel"]),
    "engine.matrix_of": ("nplectic.engine", ["matrix_of"]),
    "engine.extension_bracket": ("nplectic.engine", ["extension_bracket"]),
    "engine.symplectic_slice": ("nplectic.engine", ["symplectic_slice"]),
    "cohomology.extension_slice": ("nplectic.cohomology", ["extension_slice"]),
    "cohomology.extension_cohomology_rank": ("nplectic.cohomology",
                                             ["extension_cohomology_rank"]),
    "cohomology.class_of": ("nplectic.cohomology", ["class_of"]),
    "cohomology.poisson_bracket": ("nplectic.cohomology", ["poisson_bracket"]),
    "linf.jacobi_residual": ("nplectic.linf", ["jacobi_residual"]),
    "linf.morphism_residual": ("nplectic.linf", ["morphism_residual"]),
    "report.canonical_json": ("nplectic.report", ["canonical_json"]),
}

# spans whose argument tuples are remembered, to count rebuilds
REPEATS = ("engine.kernel_basis", "cohomology.extension_slice")
# spans whose first argument is a matrix handed to an elimination routine
MATRICES = ("linalg.rref", "linalg.rank_fraction_free")
SELF_TIME_MODULES = ("calculus", "linalg", "engine")


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for a module function or class method."""
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, qualname, getattr(module, qualname)


def _bindings(owner, original):
    """Every place the original object is bound and will be looked up."""
    if isinstance(owner, type):
        return [(owner, name) for name, value in vars(owner).items() if value is original]
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nplectic" or name.startswith("nplectic."))]
    return [(m, name) for m in modules for name, value in vars(m).items()
            if value is original]


def _matrix_size(mat) -> tuple[int, int]:
    cells = sum(len(row) for row in mat)
    nnz = sum(1 for row in mat for v in row if v)
    return cells, nnz


class Tracer:
    """Installs the wrappers on construction; ``restore`` removes them."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {m: 0.0 for m in SELF_TIME_MODULES}
        self.seen: dict[str, set] = {name: set() for name in REPEATS}
        self.repeats: dict[str, int] = {name: 0 for name in REPEATS}
        self.cells = 0
        self.nnz = 0
        self._children: list[float] = []  # child time per open span
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        for table, make in ((COUNTED, self._counted), (TIMED, self._timed)):
            for metric, (module_name, qualnames) in table.items():
                self.calls[metric] = 0
                for qualname in qualnames:
                    self._install(metric, *_resolve(module_name, qualname), make)

    def _install(self, metric, owner, attr, original, make):
        wrapper = make(metric, original)
        bindings = _bindings(owner, original)
        if not bindings:
            raise RuntimeError(f"{metric}: {attr} is not bound anywhere")
        for target, name in bindings:
            self._patched.append((target, name, original))
            setattr(target, name, wrapper)

    def _counted(self, metric, original):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[metric] += 1
            return original(*args, **kwargs)
        return counted

    def _timed(self, metric, original):
        module = metric.split(".")[0]
        signature = inspect.signature(original)
        calls, children, depth = self.calls, self._children, self._depth
        self.inclusive[metric] = 0.0
        depth[metric] = 0
        clock = time.perf_counter

        def timed(*args, **kwargs):
            calls[metric] += 1
            if metric in self.seen:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                if key in self.seen[metric]:
                    self.repeats[metric] += 1
                else:
                    self.seen[metric].add(key)
            elif metric in MATRICES:
                cells, nnz = _matrix_size(args[0] if args else kwargs["mat"])
                self.cells += cells
                self.nnz += nnz
            children.append(0.0)
            depth[metric] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[metric] -= 1
                if depth[metric] == 0:
                    self.inclusive[metric] += elapsed
                own = elapsed - children.pop()
                if module in self.self_time:
                    self.self_time[module] += own
                if children:
                    children[-1] += elapsed
        return timed

    def restore(self):
        """Put back every original binding, last patched first."""
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, n in self.calls.items():
            out[f"{metric}.calls"] = n
        for metric, seconds in self.inclusive.items():
            out[f"{metric}.s"] = seconds
        for metric in REPEATS:
            n = self.calls[metric]
            out[f"{metric}.repeat_ratio"] = self.repeats[metric] / n if n else 0.0
        for module, seconds in self.self_time.items():
            out[f"{module}.self_s"] = seconds
        out["linalg.cells"] = self.cells
        out["linalg.nnz"] = self.nnz
        out["linalg.density"] = self.nnz / self.cells if self.cells else 0.0
        return out
