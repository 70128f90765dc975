"""Layer trace for the fatcat benchmark, taken from outside the package.

As a program, ``python bench/tracer.py SPANS_FILE CLI_ARGS...`` imports
``fatcat.cli``, rebinds the public functions and methods listed in
``TRACED`` (in every ``fatcat.*`` module namespace that holds them) to
recording wrappers, runs ``fatcat.cli.main(CLI_ARGS)`` and writes the spans
to SPANS_FILE at exit.  Stdout is left to the command, so it stays byte
identical to an untraced run.

A span is ``(name, start, end, parent, attrs)``.  Counts are computed from
call arguments and return values outside the timed interval; the time spent
counting is itself a ``trace.count`` span, so it is charged to no layer.
Calls listed with ``timed=False`` are counted but get no span of their own:
their time stays with the caller.

Imported as a module (by ``run.py``) only ``layer_metrics`` and
``PER_LAYER`` are used, and nothing of fatcat is imported.
"""

import json
import sys
import time
from collections import defaultdict, namedtuple

Traced = namedtuple(
    "Traced", "module qualname span pre post timed", defaults=(None, None, True)
)


# --- counters: (args, kwargs) -> attrs before the call; (result, attrs) after


def _nnz(matrix):
    return sum(len(row) - row.count(0) for row in matrix.rows)


def _matrices_pre(matrices):
    return {
        "entries": sum(m.nrows * m.ncols for m in matrices),
        "nnz": sum(_nnz(m) for m in matrices),
    }


def _complex_pre(args, kwargs):
    _, D, _, boundary = args
    return _matrices_pre([boundary[k] for k in range(1, D + 1)])


def _chain_map_pre(args, kwargs):
    _, source, target, matrices = args
    return _matrices_pre(matrices[: min(source.D, target.D) + 1])


def _smith_pre(args, kwargs):
    A = args[0]
    wants = list(args[1:]) + list(kwargs.values())
    return {"entries": A.nrows * A.ncols, "nnz": _nnz(A), "transform": int(any(wants))}


def _smith_post(form, attrs):
    attrs["rank"] = form.rank
    attrs["unit"] = form.factors.count(1)
    attrs["bits"] = max((abs(f).bit_length() for f in form.factors), default=0)


def _cells_pre(args, kwargs):
    return {"cells": sum(len(level) for level in args[2])}


def _map_pre(args, kwargs):
    return {}


def _fiber_pre(args, kwargs):
    """The nondegenerate core of the nerve cell, as the fiber depends on it."""
    c, N, D, cell, degree = args[:5]
    if degree == 0:
        core = ((cell,), ())
    else:
        arrows = tuple(f for f in cell if not c.is_identity(f))
        core = ((c.src[cell[0]],) + tuple(c.tgt[f] for f in arrows), arrows)
    return {"core": repr((id(c), N, D, core))}


TRACED = [
    Traced("fatcat.cli", "main", "cli.main"),
    Traced("fatcat.fincat", "unravel", "fincat.unravel"),
    Traced("fatcat.fincat", "check_category", "fincat.check"),
    Traced("fatcat.fincat", "check_groupoid", "fincat.check"),
    Traced("fatcat.fincat", "category_from_json", "fincat.load"),
    Traced("fatcat.fincat", "groupoid_from_json", "fincat.load"),
    Traced("fatcat.simpset", "nerve", "simpset.enumerate"),
    Traced("fatcat.simpset", "s_semisimplicial", "simpset.enumerate"),
    Traced("fatcat.simpset", "product_with_S", "simpset.enumerate"),
    Traced("fatcat.simpset", "unravel_simplicial", "simpset.enumerate"),
    Traced("fatcat.simpset", "SemiSimplicialSet.audit", "simpset.audit"),
    Traced("fatcat.simpset", "TruncatedSimplicialSet.audit", "simpset.audit"),
    Traced("fatcat.simpset", "SimplicialMap.audit", "simpset.audit"),
    Traced("fatcat.simpset", "SemiSimplicialSet.__init__", "simpset.object",
           pre=_cells_pre, timed=False),
    Traced("fatcat.simpset", "SimplicialMap.__init__", "simpset.map",
           pre=_map_pre, timed=False),
    Traced("fatcat.homology", "fat_chains", "homology.boundary"),
    Traced("fatcat.homology", "geometric_chains", "homology.boundary"),
    Traced("fatcat.homology", "induced_map", "homology.boundary"),
    Traced("fatcat.homology", "IntegerChainComplex.__init__", "homology.check",
           pre=_complex_pre),
    Traced("fatcat.homology", "ChainMap.__init__", "homology.check",
           pre=_chain_map_pre),
    Traced("fatcat.homology", "quasi_iso_through", "homology.compare"),
    Traced("fatcat.homology", "identity_on_homology_through", "homology.compare"),
    Traced("fatcat.homology", "homology", "homology.compare"),
    Traced("fatcat.homology", "HomologyClasses.__init__", "homology.compare"),
    Traced("fatcat.intlinalg", "smith", "intlinalg.smith",
           pre=_smith_pre, post=_smith_post),
    Traced("fatcat.intlinalg", "HomologyPresentation.__init__", "intlinalg.presentation"),
    Traced("fatcat.intlinalg", "HomologyPresentation.coords", "intlinalg.presentation"),
    Traced("fatcat.intlinalg", "HomologyPresentation.generators", "intlinalg.presentation"),
    Traced("fatcat.intlinalg", "surjective_onto", "intlinalg.presentation"),
    Traced("fatcat.comparison", "quillen_fiber", "comparison.fiber", pre=_fiber_pre),
    Traced("fatcat.comparison", "contractibility_report", "comparison.contract"),
    Traced("fatcat.comparison", "projection_map", "comparison.projection"),
    Traced("fatcat.comparison", "projection_pi", "comparison.projection"),
    Traced("fatcat.comparison", "tau_chain_map", "comparison.tau"),
    Traced("fatcat.cocycle", "universal_cocycle", "cocycle.universal"),
    Traced("fatcat.cocycle", "bg_complex", "cocycle.bg"),
    Traced("fatcat.cocycle", "blowup", "cocycle.blowup"),
    Traced("fatcat.cocycle", "blowup_vs_base", "cocycle.blowup"),
    Traced("fatcat.cocycle", "base_chain_complex", "cocycle.blowup"),
    Traced("fatcat.cocycle", "classifying_chain_map", "cocycle.classify"),
    Traced("fatcat.cocycle", "pullback_is_restriction", "cocycle.classify"),
    Traced("fatcat.cocycle", "check_cocycle", "cocycle.check"),
    Traced("fatcat.cocycle", "check_isomorphism", "cocycle.check"),
    Traced("fatcat.cocycle", "check_partition_grid", "cocycle.partition"),
]


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, refusal_type):
        self.spans = []
        self.stack = []
        self.refusal_type = refusal_type

    def _count(self, counter, parent, *args):
        start = time.perf_counter()
        attrs = counter(*args)
        self.spans.append(("trace.count", start, time.perf_counter(), parent, None))
        return attrs

    def wrap(self, fn, entry):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name, pre, post, timed = entry.span, entry.pre, entry.post, entry.timed

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            attrs = self._count(pre, parent, args, kwargs) if pre else None
            index = len(spans)
            if timed:
                spans.append(None)
                stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self.refusal_type:
                if attrs is not None:
                    attrs["refused"] = 1
                raise
            finally:
                end = clock()
                if timed:
                    stack.pop()
                    spans[index] = (name, start, end, parent, attrs)
                else:
                    spans.append((name, end, end, parent, attrs))
            if post:
                self._count(post, parent, result, attrs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path, install_s):
        start = time.perf_counter()
        text = json.dumps(self.spans, separators=(",", ":"))
        dump_s = time.perf_counter() - start
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"install_s": install_s, "dump_s": dump_s}) + "\n")
            fh.write(text + "\n")


def install(recorder):
    """Rebind every ``TRACED`` callable to a recording wrapper."""
    import fatcat.cli  # noqa: F401  (imports every fatcat module)

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fatcat"]
    for entry in TRACED:
        owner = sys.modules[entry.module]
        path = entry.qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = vars(owner)[path[-1]]
        if isinstance(original, property):
            setattr(owner, path[-1], property(recorder.wrap(original.fget, entry)))
            continue
        wrapper = recorder.wrap(original, entry)
        if len(path) > 1:
            setattr(owner, path[-1], wrapper)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main():
    span_path, argv = sys.argv[1], sys.argv[2:]
    import fatcat.cli
    from fatcat.errors import EnumerationLimitError

    start = time.perf_counter()
    recorder = Recorder(EnumerationLimitError)
    install(recorder)
    install_s = time.perf_counter() - start
    try:
        code = fatcat.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(span_path, install_s)
    sys.exit(code)


# --- aggregation, run in the benchmark process

PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.process_s", "s"),
    ("cli.wait_s", "s"),
    ("fincat.unravel_s", "s"),
    ("fincat.unravel_calls", "count"),
    ("fincat.check_s", "s"),
    ("fincat.load_s", "s"),
    ("simpset.enumerate_s", "s"),
    ("simpset.audit_s", "s"),
    ("simpset.cells", "count"),
    ("simpset.objects", "count"),
    ("simpset.audits_per_object", "ratio"),
    ("simpset.refused", "count"),
    ("homology.boundary_s", "s"),
    ("homology.check_s", "s"),
    ("homology.compare_s", "s"),
    ("homology.matrix_entries", "count"),
    ("homology.matrix_nnz", "count"),
    ("homology.fill", "ratio"),
    ("intlinalg.smith_s", "s"),
    ("intlinalg.smith_calls", "count"),
    ("intlinalg.smith_transform_calls", "count"),
    ("intlinalg.smith_entries", "count"),
    ("intlinalg.smith_nnz", "count"),
    ("intlinalg.smith_max_entries", "count"),
    ("intlinalg.unit_pivot_frac", "ratio"),
    ("intlinalg.max_factor_bits", "count"),
    ("intlinalg.presentation_s", "s"),
    ("comparison.fiber_s", "s"),
    ("comparison.contract_s", "s"),
    ("comparison.fibers", "count"),
    ("comparison.fiber_cores", "count"),
    ("comparison.fiber_reuse", "ratio"),
    ("comparison.projection_s", "s"),
    ("comparison.tau_s", "s"),
    ("cocycle.universal_s", "s"),
    ("cocycle.bg_s", "s"),
    ("cocycle.blowup_s", "s"),
    ("cocycle.classify_s", "s"),
    ("cocycle.check_s", "s"),
    ("cocycle.partition_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# span name -> the self-time metric it adds to
_SELF_TIME = {
    "cli.main": "cli.self_s",
    "fincat.unravel": "fincat.unravel_s",
    "fincat.check": "fincat.check_s",
    "fincat.load": "fincat.load_s",
    "simpset.enumerate": "simpset.enumerate_s",
    "simpset.audit": "simpset.audit_s",
    "homology.boundary": "homology.boundary_s",
    "homology.check": "homology.check_s",
    "homology.compare": "homology.compare_s",
    "intlinalg.smith": "intlinalg.smith_s",
    "intlinalg.presentation": "intlinalg.presentation_s",
    "comparison.fiber": "comparison.fiber_s",
    "comparison.contract": "comparison.contract_s",
    "comparison.projection": "comparison.projection_s",
    "comparison.tau": "comparison.tau_s",
    "cocycle.universal": "cocycle.universal_s",
    "cocycle.bg": "cocycle.bg_s",
    "cocycle.blowup": "cocycle.blowup_s",
    "cocycle.classify": "cocycle.classify_s",
    "cocycle.check": "cocycle.check_s",
    "cocycle.partition": "cocycle.partition_s",
}


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        spans = json.loads(fh.readline())
    return meta, spans


def child_totals(meta, spans, traced_wall):
    """Sums of one traced child: self times per metric, counts, and the parts
    needed for the ratios.  ``traced_wall`` is the child's wall time."""
    totals = dict.fromkeys(
        ["main_s", "top_audits", "audits", "objects", "cells", "refused",
         "unravel_calls", "matrix_entries", "matrix_nnz", "smith_calls",
         "smith_transform_calls", "smith_entries", "smith_nnz",
         "smith_max_entries", "smith_rank", "smith_unit", "max_factor_bits",
         "fibers"], 0)
    totals.update(dict.fromkeys(_SELF_TIME.values(), 0.0))
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    cores = set()
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        metric = _SELF_TIME.get(name)
        if metric:
            totals[metric] += (end - start) - covered[index]
        attrs = attrs or {}
        if name == "cli.main":
            totals["main_s"] += end - start
        elif name == "simpset.audit":
            totals["audits"] += 1
            if parent < 0 or spans[parent][0] != "simpset.audit":
                totals["top_audits"] += 1
        elif name in ("simpset.object", "simpset.map"):
            totals["objects"] += 1
            totals["cells"] += attrs.get("cells", 0)
            totals["refused"] += attrs.get("refused", 0)
        elif name == "fincat.unravel":
            totals["unravel_calls"] += 1
        elif name == "homology.check":
            totals["matrix_entries"] += attrs["entries"]
            totals["matrix_nnz"] += attrs["nnz"]
        elif name == "intlinalg.smith":
            totals["smith_calls"] += 1
            totals["smith_transform_calls"] += attrs["transform"]
            totals["smith_entries"] += attrs["entries"]
            totals["smith_nnz"] += attrs["nnz"]
            totals["smith_max_entries"] = max(totals["smith_max_entries"], attrs["entries"])
            totals["smith_rank"] += attrs.get("rank", 0)
            totals["smith_unit"] += attrs.get("unit", 0)
            totals["max_factor_bits"] = max(totals["max_factor_bits"], attrs.get("bits", 0))
        elif name == "comparison.fiber":
            totals["fibers"] += 1
            cores.add(attrs["core"])
    totals["fiber_cores"] = len(cores)
    totals["process_s"] = traced_wall - totals["main_s"] - meta["install_s"] - meta["dump_s"]
    return totals


def layer_metrics(children):
    """Per-layer metrics of one pass.

    ``children`` holds, per case, ``(totals, traced_wall, untraced_wall,
    untraced_cpu)`` with ``totals`` from ``child_totals``."""
    total = defaultdict(int)  # all zero when every traced case failed
    for totals, _, _, _ in children:
        for key, value in totals.items():
            if key in ("smith_max_entries", "max_factor_bits"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    traced = sum(c[1] for c in children)
    untraced = sum(c[2] for c in children)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {metric: total[metric] for metric in _SELF_TIME.values()}
    out.update({
        "cli.process_s": total["process_s"],
        "cli.wait_s": sum(wall - cpu for _, _, wall, cpu in children),
        "fincat.unravel_calls": total["unravel_calls"],
        "simpset.cells": total["cells"],
        "simpset.objects": total["objects"],
        "simpset.audits_per_object": ratio(total["top_audits"], total["objects"]),
        "simpset.refused": total["refused"],
        "homology.matrix_entries": total["matrix_entries"],
        "homology.matrix_nnz": total["matrix_nnz"],
        "homology.fill": ratio(total["matrix_nnz"], total["matrix_entries"]),
        "intlinalg.smith_calls": total["smith_calls"],
        "intlinalg.smith_transform_calls": total["smith_transform_calls"],
        "intlinalg.smith_entries": total["smith_entries"],
        "intlinalg.smith_nnz": total["smith_nnz"],
        "intlinalg.smith_max_entries": total["smith_max_entries"],
        "intlinalg.unit_pivot_frac": ratio(total["smith_unit"], total["smith_rank"]),
        "intlinalg.max_factor_bits": total["max_factor_bits"],
        "comparison.fibers": total["fibers"],
        "comparison.fiber_cores": total["fiber_cores"],
        "comparison.fiber_reuse": ratio(total["fiber_cores"], total["fibers"]),
        "trace.wall_s": traced,
        "trace.overhead_frac": ratio(traced - untraced, untraced),
    })
    return out


if __name__ == "__main__":
    main()
