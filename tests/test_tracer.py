"""The benchmark's layer trace rebinds fatcat functions by name, so a
rename inside the package must fail here, not only under ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

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
