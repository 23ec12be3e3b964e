"""Spans recorded from outside the library, and the per-layer metrics they give.

``Tracer.install`` replaces the public functions of every layer module, a
fixed set of ``DenseMatrix`` methods and ``cli.main`` with wrappers that
record one span per call: (name, parent, start, end, cells, nnz, scan), where
scan is the time spent counting the nonzeros of a sized span's matrix.  A
module that imported a function by name gets the wrapper too, so calls made
through ``from .x import f`` are seen.  Nothing under ``src/`` is edited.
Spans stay in memory until the run ends; ``derive`` turns them into the
metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("exactfield", "rankmetric", "compress", "liealg", "verma", "rolli", "prng", "cli")

# DenseMatrix methods given their own span.  Element access and comparison
# are left out: they run inside the loops of the other layers, and a span
# around each would cost more than the work it measures.
MATRIX_METHODS = (
    "__init__", "__add__", "__sub__", "__neg__", "scale", "__mul__", "rank",
    "kernel_basis", "inverse", "transpose", "rref", "column_space_basis",
    "solve_right", "direct_sum", "pad", "map_entries",
)

# Span names whose cells (rows * cols) and nonzero entries are counted.
SIZED = ("exactfield.DenseMatrix.rank", "exactfield.DenseMatrix.kernel_basis")


def _dm(method: str) -> str:
    return f"exactfield.DenseMatrix.{method}"


# metric group -> the span names it sums over
GROUPS = {
    "exactfield.addsub": [_dm("__add__"), _dm("__sub__"), _dm("scale"), _dm("__neg__")],
    "exactfield.mul": [_dm("__mul__")],
    "exactfield.construct": [_dm("__init__")],
    "exactfield.rank": [_dm("rank")],
    "exactfield.kernel_basis": [_dm("kernel_basis")],
    "exactfield.inverse": [_dm("inverse")],
    "liealg.pointwise_defect": ["liealg.pointwise_defect"],
    "liealg.direct_sum_rep": ["liealg.direct_sum_rep"],
    "verma.build_truncation": ["verma.build_truncation"],
    "verma.check_highest_weight_structure": ["verma.check_highest_weight_structure"],
    "verma.evaluate_uea": ["verma.evaluate_uea"],
    "verma.rep_distance_certificate": ["verma.rep_distance_certificate"],
    "verma.separation_certificate": ["verma.separation_certificate"],
    "rankmetric.flexible_distance": ["rankmetric.flexible_distance"],
    "rolli.preset_tau": ["rolli.preset_tau"],
    "rolli.exact_defect": ["rolli.exact_defect"],
    "rolli.phi_eval": ["rolli.phi_eval"],
    "rolli.rep_distance_certificate": ["rolli.rep_distance_certificate"],
    "prng.random_unimodular": ["prng.random_unimodular"],
    "prng.random_matrix": ["prng.random_matrix"],
    "compress.random_frame": ["compress.random_frame"],
    "compress.verify": ["compress.verify_rank_lower", "compress.verify_mult_defect"],
    "compress.align_compressions": ["compress.align_compressions"],
    "cli": ["cli.main"],
}

# (metric, unit, better); NOTES.md says which end-to-end metric each should move
PER_LAYER = [
    ("exactfield.addsub.calls", "count", "lower"),
    ("exactfield.addsub.self_s", "s", "lower"),
    ("exactfield.mul.calls", "count", "lower"),
    ("exactfield.mul.self_s", "s", "lower"),
    ("exactfield.construct.calls", "count", "lower"),
    ("exactfield.construct.self_s", "s", "lower"),
    ("exactfield.rank.calls", "count", "lower"),
    ("exactfield.rank.self_s", "s", "lower"),
    ("exactfield.rank.cells", "count", "lower"),
    ("exactfield.rank.nnz_frac", "ratio", "higher"),
    ("exactfield.kernel_basis.calls", "count", "lower"),
    ("exactfield.kernel_basis.self_s", "s", "lower"),
    ("exactfield.kernel_basis.cells", "count", "lower"),
    ("exactfield.inverse.calls", "count", "lower"),
    ("exactfield.inverse.self_s", "s", "lower"),
    ("liealg.pointwise_defect.calls", "count", "lower"),
    ("liealg.pointwise_defect.self_s", "s", "lower"),
    ("verma.build_truncation.self_s", "s", "lower"),
    ("verma.check_highest_weight_structure.self_s", "s", "lower"),
    ("verma.evaluate_uea.self_s", "s", "lower"),
    ("verma.rep_distance_certificate.self_s", "s", "lower"),
    ("verma.separation_certificate.self_s", "s", "lower"),
    ("liealg.direct_sum_rep.self_s", "s", "lower"),
    ("rankmetric.flexible_distance.calls", "count", "lower"),
    ("rankmetric.flexible_distance.self_s", "s", "lower"),
    ("rolli.preset_tau.self_s", "s", "lower"),
    ("rolli.exact_defect.self_s", "s", "lower"),
    ("rolli.phi_eval.self_s", "s", "lower"),
    ("rolli.rep_distance_certificate.self_s", "s", "lower"),
    ("prng.random_unimodular.self_s", "s", "lower"),
    ("compress.random_frame.self_s", "s", "lower"),
    ("compress.random_frame.draws_per_frame", "draws/frame", "lower"),
    ("compress.verify.self_s", "s", "lower"),
    ("compress.align_compressions.self_s", "s", "lower"),
    ("prng.random_matrix.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

# Metrics that must repeat exactly for the same seed.
EXACT_SUFFIXES = (".calls", ".cells", ".nnz_frac", ".draws_per_frame")
EXACT_NAMES = ("trace.spans",)


class Tracer:
    """Span recorder.  One instance per process; ``install`` once."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []
        self._ids: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        sized = name in SIZED
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            cells = nnz = scan = 0
            if sized:
                scan = clock()
                m = args[0]
                cells = m.rows * m.cols
                nnz = sum(1 for row in m._data for a in row if a)
                scan = clock() - scan
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, start, end, cells, nnz, scan)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every layer's public functions and the listed DenseMatrix methods."""
        import rankstability.cli  # noqa: F401  (imports every layer)

        package = [m for n, m in sys.modules.items() if n == "rankstability" or n.startswith("rankstability.")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"rankstability.{layer}"]
            if layer == "cli":
                targets.append((mod.main, "cli.main"))
                continue
            targets += [
                (fn, f"{layer}.{attr}") for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
            ]
        for fn, name in targets:
            wrapper = self._wrap(fn, name)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        matrix = sys.modules["rankstability.exactfield"].DenseMatrix
        for method in MATRIX_METHODS:
            setattr(matrix, method, self._wrap(vars(matrix)[method], _dm(method)))

    def dump(self) -> dict:
        """The spans in a JSON-ready form, times in ns from the first span."""
        t0 = self.spans[0][2] if self.spans else 0
        return {
            "names": self.names,
            "spans": [[n, p, s - t0, e - t0, c, z, w] for n, p, s, e, c, z, w in self.spans],
        }


def derive(trace: dict, passes: list) -> dict:
    """Per-layer metrics from a ``Tracer.dump`` and the span range of each pass.

    ``passes`` holds one (first, end) span index range per traced pass.  A
    self time is the span's duration minus the time its child spans cover; a
    layer's self_s is the median over passes of its summed self time.  The
    tracer's own nonzero scan before a sized span counts as covered time of
    the parent, so neither the parent nor the sized span is charged for it.
    Counts are taken per pass and must agree across passes, else ValueError.
    """
    names = trace["names"]
    spans = trace["spans"]
    covered = [0] * len(spans)
    for name, parent, start, end, _, _, scan in spans:
        if parent >= 0:
            covered[parent] += end - start + scan
    group_of = {member: group for group, members in GROUPS.items() for member in members}
    ids = {name: i for i, name in enumerate(names)}
    frame_id = ids.get("compress.random_frame", -2)
    draw_id = ids.get("prng.random_matrix", -2)

    per_pass = []
    for first, end in passes:
        self_ns = dict.fromkeys(GROUPS, 0)
        calls = dict.fromkeys(GROUPS, 0)
        cells = dict.fromkeys(GROUPS, 0)
        nnz = dict.fromkeys(GROUPS, 0)
        frames = draws = 0
        for idx in range(first, end):
            name, parent, start, stop, c, z, _ = spans[idx]
            if name == frame_id:
                frames += 1
            elif name == draw_id and parent >= 0 and spans[parent][0] == frame_id:
                draws += 1
            group = group_of.get(names[name])
            if group is None:
                continue
            self_ns[group] += stop - start - covered[idx]
            calls[group] += 1
            cells[group] += c
            nnz[group] += z
        counts = {f"{g}.calls": calls[g] for g in GROUPS}
        counts["exactfield.rank.cells"] = cells["exactfield.rank"]
        counts["exactfield.kernel_basis.cells"] = cells["exactfield.kernel_basis"]
        rank_cells = cells["exactfield.rank"]
        counts["exactfield.rank.nnz_frac"] = nnz["exactfield.rank"] / rank_cells if rank_cells else 0.0
        counts["compress.random_frame.draws_per_frame"] = draws / frames if frames else 0.0
        counts["trace.spans"] = end - first
        per_pass.append((self_ns, counts))

    first_counts = per_pass[0][1]
    for _, counts in per_pass[1:]:
        if counts != first_counts:
            diff = sorted(k for k in counts if counts[k] != first_counts[k])
            raise ValueError(f"count metrics differ between traced passes: {diff}")
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in first_counts:
            out[metric] = first_counts[metric]
        elif metric.endswith(".self_s"):
            group = metric[: -len(".self_s")]
            out[metric] = statistics.median(p[0][group] for p in per_pass) / 1e9
    return out
