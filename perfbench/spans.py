"""Outside-in span tracing of the compactness_lab library, for the traced run.

`install` replaces every public function of each library module, in every
`compactness_lab.*` namespace that holds it, by a wrapper that records a span
(name, start, end, parent).  The package binds names at import time
(`cli` does `from .mollify import commutator`, `divfree` and `probe` import
across modules the same way), so patching the defining module alone would
miss most calls.  Two methods are layer boundaries as well:
`DirichletEigenbasis.__init__` (an eigenbasis build) and
`NonCylindricalDomain.transported`.

Spans stay in memory.  A few wrappers also count work that can be computed
exactly from arguments and results (convolution taps, Newton evaluations,
distinct rasters); those counts are taken outside the span's own interval.
`layer_metrics` turns spans and counts into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types

LAYERS = ("grid", "mollify", "truncate", "parabolic", "productlimit", "movedom",
          "divfree", "probe", "synth", "cli")

# (module, class, method, span name)
METHODS = (
    ("grid", "DirichletEigenbasis", "__init__", "grid.DirichletEigenbasis"),
    ("movedom", "NonCylindricalDomain", "transported",
     "movedom.NonCylindricalDomain.transported"),
)

# spans reported with inclusive seconds `<span>.s`
TIMED = (
    "mollify.commutator", "mollify.convolve_space", "mollify.convolve_staggered",
    "grid.DirichletEigenbasis", "grid.h_minus_m_norm", "grid.neumann_laplacian",
    "grid.signed_distance_transform",
    "parabolic.run_scheme", "parabolic.hypothesis_monitor", "parabolic.energy_report",
    "movedom.poincare_constant", "movedom.eps_interior",
    "movedom.NonCylindricalDomain.transported", "movedom.framing_check",
    "divfree.neumann_harmonic", "divfree.project_divfree0", "divfree.dual_norm_check",
    "divfree.per_slice_project",
    "probe.ns_probe", "probe.kruzhkov_probe", "probe.time_shift_safety",
    "productlimit.product_pipeline", "productlimit.transposition_defect",
)
# spans reported with a call count, and the suffix it goes by
COUNTED = {
    "mollify.commutator": "calls", "mollify.convolve_space": "calls",
    "mollify.convolve_staggered": "calls", "grid.DirichletEigenbasis": "builds",
    "grid.h_minus_m_norm": "calls", "grid.neumann_laplacian": "calls",
    "grid.signed_distance_transform": "calls", "parabolic.run_scheme": "calls",
    "movedom.poincare_constant": "calls", "movedom.eps_interior": "calls",
    "movedom.NonCylindricalDomain.transported": "calls",
    "divfree.neumann_harmonic": "calls",
}
# spans whose domain argument is hashed: distinct rasters per call
DISTINCT = {"movedom.poincare_constant": 0, "divfree.neumann_harmonic": 1}
SELF_TIMED = ("mollify", "grid", "parabolic", "movedom", "divfree", "probe", "synth", "cli")
COUNTERS = ("mollify.cell_taps", "parabolic.newton_evals", "parabolic.steps")


def exact_metric_names():
    """Per-layer metrics that are counts and must repeat exactly."""
    names = [f"{span}.{suffix}" for span, suffix in COUNTED.items()]
    names += [f"{span}.distinct_ratio" for span in DISTINCT]
    return names + list(COUNTERS)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _taps(mol):
    return int((mol.weights != 0).sum())


def _count_commutator(tracer, args, kwargs, result):
    a, mol = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 2, "mol")
    # two convolutions per slice: b * phi and (a b) * phi
    tracer.counts["mollify.cell_taps"] += 2 * sum(f.values.size for f in a.fields) * _taps(mol)


def _count_convolve_space(tracer, args, kwargs, result):
    f, mol = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "mol")
    # a step series recurses into convolve_space per slice; the slices count there
    if not hasattr(f, "fields"):
        tracer.counts["mollify.cell_taps"] += f.values.size * _taps(mol)


def _count_convolve_staggered(tracer, args, kwargs, result):
    u, mol = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 1, "mol")
    tracer.counts["mollify.cell_taps"] += sum(c.size for c in u.components) * _taps(mol)


def _count_run_scheme(tracer, args, kwargs, result):
    tracer.counts["parabolic.newton_evals"] += sum(result.newton_iters)
    tracer.counts["parabolic.steps"] += len(result.newton_iters)


def _distinct_rasters(name, position):
    def hook(tracer, args, kwargs, result):
        inside = _arg(args, kwargs, position, "domain").inside
        digest = hashlib.blake2b(inside.tobytes(), digest_size=16).digest()
        tracer.rasters.setdefault(name, set()).add((inside.shape, digest))
    return hook


HOOKS = {
    "mollify.commutator": _count_commutator,
    "mollify.convolve_space": _count_convolve_space,
    "mollify.convolve_staggered": _count_convolve_staggered,
    "parabolic.run_scheme": _count_run_scheme,
}
HOOKS.update((name, _distinct_rasters(name, position)) for name, position in DISTINCT.items())


class Tracer:
    """In-memory span store: each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rasters = {}
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


def install(tracer):
    """Wrap the public functions of every layer module wherever they are bound."""
    import compactness_lab.cli  # noqa: F401  (imports every layer module)

    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = sys.modules[f"compactness_lab.{layer}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "compactness_lab" or n.startswith("compactness_lab.")]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(namespace, attr, entry[1])
    for layer, cls_name, method, name in METHODS:
        cls = getattr(sys.modules[f"compactness_lab.{layer}"], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, plus `trace.coverage`: the share of
    `cli.run` time spent inside the wrapped library calls it makes."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive, calls, self_time = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i]
        # inclusive time counts only the outermost span of a recursive name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    run_total = covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "cli.run" and parent < 0:
            run_total += end - start
            covered += child_time[i]

    metrics = {}
    for name in TIMED:
        metrics[f"{name}.s"] = inclusive.get(name, 0.0)
    for name, suffix in COUNTED.items():
        metrics[f"{name}.{suffix}"] = calls.get(name, 0)
    for name in DISTINCT:
        n = calls.get(name, 0)
        metrics[f"{name}.distinct_ratio"] = len(tracer.rasters.get(name, ())) / n if n else 0.0
    for layer in SELF_TIMED:
        metrics[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    metrics.update(tracer.counts)
    metrics["trace.coverage"] = covered / run_total if run_total else 0.0
    return metrics
