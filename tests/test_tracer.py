"""The benchmark's layer trace rebinds fatcat functions by name, so a
rename inside the package must fail here, not only under ``--trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from fatcat import homology, intlinalg
from fatcat.comparison import quillen_fiber
from fatcat.errors import EnumerationLimitError
from fatcat.fixtures import z2_groupoid
from fatcat.homology import HomologyClasses, fat_chains
from fatcat.intlinalg import IntMatrix, smith
from fatcat.simpset import SemiSimplicialSet, nerve, s_semisimplicial

from oracles import _nondegenerate_factorization

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("fatcat_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TRACED
    for entry in tracer.TRACED:
        owner = importlib.import_module(entry.module)
        path = entry.qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        assert path[-1] in vars(owner), f"{entry.module}.{entry.qualname} is gone"
        target = vars(owner)[path[-1]]
        assert callable(target.fget if isinstance(target, property) else target)


def test_fiber_counter_reads_quillen_fiber_by_position():
    # the tracer's fiber counter unpacks the first five positional arguments
    params = list(inspect.signature(quillen_fiber).parameters)
    assert params[:5] == ["c", "N", "D", "y_cell", "y_degree"]
    fiber_pre = load_tracer()._fiber_pre
    c = z2_groupoid().base
    ner = nerve(c, 2)
    for k in range(3):
        for cell in ner.cells[k]:
            core = _nondegenerate_factorization(c, k, cell)
            assert fiber_pre((c, 3, 2, cell, k), {}) == {"core": repr((id(c), 3, 2, core))}


def test_cells_counter_reads_the_constructor_by_position(monkeypatch):
    # the tracer's object counter reads the cell lists as args[2] of
    # SemiSimplicialSet.__init__, so simplicial_set must pass them positionally
    params = list(inspect.signature(SemiSimplicialSet.__init__).parameters)
    assert params[:4] == ["self", "D", "cells", "face"]
    calls = []
    original = SemiSimplicialSet.__init__

    def init(*args, **kwargs):
        calls.append((args, kwargs))
        original(*args, **kwargs)

    monkeypatch.setattr(SemiSimplicialSet, "__init__", init)
    cells_pre = load_tracer()._cells_pre
    # a nerve reaches the constructor through TruncatedSimplicialSet, the
    # stage complex directly
    for build in (lambda: nerve(z2_groupoid().base, 3), lambda: s_semisimplicial(3, 3)):
        calls.clear()
        x = build()
        assert len(calls) == 1
        cells = sum(x.n_cells(k) for k in range(4))
        assert cells_pre(*calls[0]) == {"cells": cells}


def test_smith_counters_read_the_recording_flags():
    # the tracer counts a call as a transform call when any argument after
    # the matrix is truthy, and reads rank and unit pivots off the form
    tracer = load_tracer()
    a = IntMatrix([[2, 1], [0, 3]], 2)
    for kwargs, transform in (({}, 0), ({"rows": True}, 1), ({"cols": True}, 1)):
        attrs = tracer._smith_pre((a,), kwargs)
        assert attrs["transform"] == transform
        tracer._smith_post(smith(a, **kwargs), attrs)
        assert (attrs["rank"], attrs["unit"], attrs["bits"]) == (2, 1, 3)


def test_smith_transform_calls_count_recording_calls(monkeypatch):
    tracer = load_tracer()
    entry = next(e for e in tracer.TRACED if e.span == "intlinalg.smith")
    recorder = tracer.Recorder(EnumerationLimitError)
    traced = recorder.wrap(intlinalg.smith, entry)
    for module in (intlinalg, homology):
        monkeypatch.setattr(module, "smith", traced)
    cx = fat_chains(nerve(z2_groupoid().base, 3))
    HomologyClasses(cx, 1)  # d_2 with rows, then the rest of d_1 with columns
    homology.homology(cx, 1)  # d_1 and d_2, rank only
    totals = tracer.child_totals({"install_s": 0.0, "dump_s": 0.0}, recorder.spans, 1.0)
    metrics = tracer.layer_metrics([(totals, 1.0, 1.0, 1.0)])
    assert metrics["intlinalg.smith_calls"] == 4
    assert metrics["intlinalg.smith_transform_calls"] == 2
