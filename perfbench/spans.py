"""Spans around annkh's layers, recorded from outside the program.

While a :class:`Tracer` is installed, every public function of the traced
modules, and the methods named in ``METHODS``, is replaced by a wrapper
that records a span: name, start, end, parent span and job id.  The
wrapper is bound to every name a caller looks up, because modules import
functions by name (``complexes`` holds its own ``cube_edge_pairs``) and
call module globals (``homology.homology`` calls ``smith_normal_form``).
``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("diagram", "tqft", "complexes", "linalg", "homology", "tl", "cli")

# Methods traced besides the module-level functions.  Methods called per
# basis word (StateSpace.word_index and the like) stay untraced: their
# wrappers would cost more than the work they time.
METHODS = {
    "diagram": {"AnnularDiagram": ("resolve", "validate", "is_valid", "ensure_valid")},
    "linalg": {"SparseMatrix": ("__matmul__", "submatrix", "to_dense")},
}

PROBE = "trace.probe"  # time spent taking size counters, a child of the caller


def coeff_bits(v):
    """Largest numerator or denominator bit length in a ring element."""
    if hasattr(v, "numerator"):  # int, Fraction, prime-field residue
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    if hasattr(v, "coeffs"):  # HPoly
        return max((coeff_bits(c) for c in v.coeffs), default=0)
    if hasattr(v, "terms"):  # BivariatePoly
        return max((coeff_bits(c) for c in v.terms.values()), default=0)
    raise TypeError(f"no coefficient size for {type(v).__name__}")


class Tracer:
    """Spans and size counters for one traced pass over a workload."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"annkh.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    original = cls.__dict__[m]
                    self._patch(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "annkh" and not mod_name.startswith("annkh."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = _PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                start = clock()
                probe(tracer.counters, args, result)
                spans.append([PROBE, start, clock(), stack[-1] if stack else -1, tracer.job])
            return result

        return traced


# -- size counters, taken after the call returns ----------------------------


def _snf_probe(counters, args, result):
    m = args[0]
    counters["snf_cells"] += m.nrows * m.ncols
    counters["snf_max_rows"] = max(counters["snf_max_rows"], m.nrows)
    counters["snf_max_cols"] = max(counters["snf_max_cols"], m.ncols)
    bits = [coeff_bits(v) for v in m.entries.values()]
    bits += [coeff_bits(v) for v in result.invariants]
    counters["max_coeff_bits"] = max([counters["max_coeff_bits"], *bits])


def _cube_probe(counters, args, cube):
    counters["cube_vertices"] += len(cube.resolutions)
    counters["cube_edges"] += len(cube.edges)


def _assemble_probe(counters, args, c):
    mats = list(c.diff.values()) + list((c.diff2 or {}).values())
    counters["chain_rank"] = max(counters["chain_rank"], c.total_rank())
    counters["diff_nnz"] = max(counters["diff_nnz"], sum(len(m.entries) for m in mats))
    bits = [coeff_bits(v) for m in mats for v in m.entries.values()]
    counters["max_coeff_bits"] = max([counters["max_coeff_bits"], *bits])


_PROBES = {
    "homology.smith_normal_form": _snf_probe,
    "complexes.build_cube": _cube_probe,
    "complexes.assemble": _assemble_probe,
}


# -- per-layer figures from one traced pass ---------------------------------


def summarize(spans):
    """Per span name: inclusive time (outermost spans of that name only),
    self time (duration minus the time child spans cover) and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += end - start - child[i]
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return incl, own, calls


def layer_metrics(tracer, wall_s):
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    incl, own, calls = summarize(tracer.spans)
    c = tracer.counters

    def incl_sum(*names):
        return sum(incl[n] for n in names)

    snf_s = incl["homology.smith_normal_form"]
    saddle = ("tqft.annular_saddle_map", "tqft.full_saddle_map")
    verify = (
        "complexes.verify_d_squared",
        "complexes.verify_grading",
        "complexes.verify_beta",
    )
    state_spaces = calls["tqft.state_space"]
    return {
        "homology.snf_s": (snf_s, "s"),
        "homology.snf_calls": (calls["homology.smith_normal_form"], "count"),
        "homology.snf_cells": (c["snf_cells"], "count"),
        "homology.snf_max_rows": (c["snf_max_rows"], "count"),
        "homology.snf_max_cols": (c["snf_max_cols"], "count"),
        "homology.snf_share": (snf_s / wall_s, "ratio"),
        "homology.slice_s": (own["homology.homology"], "s"),
        "homology.canonical_s": (
            incl_sum("homology.verify_canonical", "homology.canonical_span_rank"),
            "s",
        ),
        "ring.max_coeff_bits": (c["max_coeff_bits"], "bits"),
        "tqft.saddle_map_s": (incl_sum(*saddle), "s"),
        "tqft.saddle_map_calls": (sum(calls[n] for n in saddle), "count"),
        "tqft.classify_saddle_s": (incl["tqft.classify_saddle"], "s"),
        "tqft.state_space_s": (incl["tqft.state_space"], "s"),
        "tqft.state_space_calls": (state_spaces, "count"),
        "tqft.state_space_per_vertex": (
            state_spaces / c["cube_vertices"] if c["cube_vertices"] else 0.0,
            "ratio",
        ),
        "tqft.compose_s": (incl["tqft.compose"], "s"),
        "tqft.compose_calls": (calls["tqft.compose"], "count"),
        "diagram.resolve_s": (incl["diagram.AnnularDiagram.resolve"], "s"),
        "diagram.resolve_calls": (calls["diagram.AnnularDiagram.resolve"], "count"),
        "diagram.load_s": (incl["cli.load"], "s"),
        "complexes.build_cube_s": (own["complexes.build_cube"], "s"),
        "complexes.assemble_s": (incl["complexes.assemble"], "s"),
        "complexes.verify_s": (incl_sum(*verify), "s"),
        "complexes.cube_vertices": (c["cube_vertices"], "count"),
        "complexes.cube_edges": (c["cube_edges"], "count"),
        "complexes.chain_rank": (c["chain_rank"], "count"),
        "complexes.diff_nnz": (c["diff_nnz"], "count"),
        "linalg.matmul_s": (incl["linalg.SparseMatrix.__matmul__"], "s"),
        "linalg.matmul_calls": (calls["linalg.SparseMatrix.__matmul__"], "count"),
        "linalg.submatrix_s": (incl["linalg.SparseMatrix.submatrix"], "s"),
        "tl.kernel_rank_s": (incl["tl.kernel_rank_experiment"], "s"),
        "cli.self_s": (sum(v for n, v in own.items() if n.startswith("cli.")), "s"),
        "trace.wall_s": (wall_s, "s"),
    }
