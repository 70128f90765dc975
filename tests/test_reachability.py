"""Every module-level function of the package runs under some command.

The runs are ``report all``, every pinned suite line of ``test_cli``,
``nerve`` and both ``homology`` styles, made in process under a profile
hook.  A function that none of them reaches belongs with the tests that
use it, unless ``ALLOWED`` names it with the reason it stays.
"""

import importlib
import inspect
import sys
from pathlib import Path

from fatcat.cli import main

from test_cli import GOLDEN, inputs  # noqa: F401  (inputs is a fixture)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fatcat"

WRITER = "document writer, used by bench/workloads.py and the README"
TRACED_BY_NAME = "bench/tracer.py traces check_isomorphism by name"

# functions that no command reaches, each with the reason it stays
ALLOWED = {
    "fatcat.fincat.category_to_json": WRITER,
    "fatcat.fincat.groupoid_to_json": WRITER,
    "fatcat.cocycle.covered_complex_to_json": WRITER,
    "fatcat.cocycle.cocycle_to_json": WRITER,
    "fatcat.cocycle.check_isomorphism": TRACED_BY_NAME,
    "fatcat.cocycle.union_cocycle": TRACED_BY_NAME,
    "fatcat.cocycle._cross_overlap": TRACED_BY_NAME,
    "fatcat.comparison.rho_evaluate": "the planned numeric sorting-map witness evaluates it",
}


def package_functions():
    """Qualified name and function of every module-level def, fixtures aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "fixtures"):
            continue
        module = importlib.import_module(f"fatcat.{path.stem}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", value


def test_every_package_function_is_reached(capsys, inputs):
    bz2 = inputs["bz2.json"]
    runs = [["report", "all"], ["nerve", "--input", bz2, "--D", "3"]]
    runs += [["homology", "--input", bz2, style, "--D", "3", "--k", "1"]
             for style in ("--fat", "--geometric")]
    runs += [[inputs.get(a, a) for a in line.split()] for line, _, _ in GOLDEN]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in runs:
            main(argv)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = {name for name, f in package_functions() if f.__code__ not in called}
    assert unreached - set(ALLOWED) == set(), "move these to tests/, or allow them"
    assert set(ALLOWED) - unreached == set(), "these run now or are gone: drop them"
