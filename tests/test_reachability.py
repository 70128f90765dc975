"""Every function and class member of the package runs under some command.

The runs are ``report all``, every pinned suite line of ``test_cli``,
``nerve`` and both ``homology`` styles, made in process under a profile
hook.  A module-level function, method, property, cached property,
classmethod or record constructor that none of them reaches belongs with
the tests that use it, unless ``ALLOWED`` names it with the reason it
stays.  Members whose code lives outside the package, such as the ones
``namedtuple`` generates, are not the package's to keep or move.
"""

import importlib
import inspect
import sys
from functools import cached_property
from pathlib import Path

from fatcat.cli import main

from test_cli import GOLDEN, inputs  # noqa: F401  (inputs is a fixture)
from test_tracer import load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fatcat"

WRITER = "document writer, used by bench/workloads.py and the README"
TRACED_BY_NAME = "bench/tracer.py traces check_isomorphism by name"
TRACED_NAME = ("fatcat.cocycle", "check_isomorphism")

# code that no command reaches, each with the reason it stays
ALLOWED = {
    "fatcat.fincat.category_to_json": WRITER,
    "fatcat.fincat.groupoid_to_json": WRITER,
    "fatcat.cocycle.covered_complex_to_json": WRITER,
    "fatcat.cocycle.cocycle_to_json": WRITER,
    "fatcat.cocycle.check_isomorphism": TRACED_BY_NAME,
    "fatcat.cocycle.union_cocycle": TRACED_BY_NAME,
    "fatcat.cocycle._cross_overlap": TRACED_BY_NAME,
    "fatcat.cocycle.CocycleIsomorphism.__init__": TRACED_BY_NAME,
    "fatcat.comparison.rho_evaluate": "the planned numeric sorting-map witness evaluates it",
    "fatcat.intlinalg.IntMatrix.rows": "bench/tracer.py counts nonzeros through it",
    "fatcat.fincat.FinCategory.__repr__": "names a category in failure messages and tracebacks",
    "fatcat.intlinalg.IntMatrix.__repr__": "names a matrix in failure messages and tracebacks",
}


def _codes(member):
    """The code objects behind a class member, one per callable part."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f.__code__ for f in (member.fget, member.fset, member.fdel) if f]
    if isinstance(member, cached_property):
        return [member.func.__code__]
    if inspect.isfunction(member):
        return [member.__code__]
    return []


def package_code():
    """Qualified name and code of every module-level def and every member
    of a module-level class, fixtures aside, whose code is the package's."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "fixtures"):
            continue
        module = importlib.import_module(f"fatcat.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            prefix = f"{module.__name__}.{name}"
            if inspect.isfunction(value):
                yield prefix, value.__code__
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    for code in _codes(member):
                        if Path(code.co_filename).resolve().parent == PACKAGE:
                            yield f"{prefix}.{attr}", code


def test_package_code_covers_members():
    names = {name for name, _ in package_code()}
    # a method, a property, a cached property, a classmethod and a record constructor
    for name in ("fatcat.simpset.SemiSimplicialSet.audit", "fatcat.intlinalg.IntMatrix.shape",
                 "fatcat.intlinalg.HomologyPresentation._columns",
                 "fatcat.intlinalg.IntMatrix.zeros", "fatcat.homology.HomologyGroup.__new__"):
        assert name in names
    # namedtuple's own members are generated outside the package
    assert not {n for n in names if n.startswith("fatcat.cli.Suite.")}


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
    unreached = {name for name, code in package_code() if code not in called}
    assert unreached - set(ALLOWED) == set(), "move these to tests/, or allow them"
    assert set(ALLOWED) - unreached == set(), "these run now or are gone: drop them"


def test_traced_by_name_entries_are_still_traced():
    traced = {(entry.module, entry.qualname) for entry in load_tracer().TRACED}
    kept = sorted(name for name, why in ALLOWED.items() if why == TRACED_BY_NAME)
    assert TRACED_NAME in traced, f"the tracer no longer traces it: delete {kept}"
