"""The benchmark's layer trace rebinds fatcat functions by name, so a
rename inside the package must fail here, not only under ``--trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from fatcat.comparison import _nondegenerate_factorization, quillen_fiber
from fatcat.fixtures import z2_groupoid
from fatcat.simpset import SemiSimplicialSet, nerve, s_semisimplicial

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
