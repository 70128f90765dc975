"""Every function, class member and parameter default of the package is
used by some command.

The runs are ``report all`` (with and without ``--out``), every pinned
suite line of ``test_cli``, one of them again with ``--out``, ``nerve`` and
both ``homology`` styles, and ``homology`` at an edge degree.  They are made
once per session, in process, under a profile hook that records every
code object called and, at each call of a package function with defaulted
parameters, whether each of them holds its default.

A module-level function, method, property, cached property, classmethod
or record constructor that none of the runs reaches belongs with the tests
that use it, and a defaulted parameter whose runs never hold its default,
or never hold another value, should lose its default or the parameter,
unless ``ALLOWED`` names it with the reason it stays.  Members whose code
lives outside the package, such as the ones ``namedtuple`` generates, are
not the package's to keep or move.
"""

import contextlib
import importlib
import inspect
import io
import sys
from functools import cached_property
from pathlib import Path

import pytest

from fatcat.cli import main

from test_cli import GOLDEN, write_inputs
from test_tracer import load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fatcat"

WRITER = "document writer, used by bench/workloads.py and the README"
TRACED_BY_NAME = "bench/tracer.py traces check_isomorphism by name"
TRACED_NAME = ("fatcat.cocycle", "check_isomorphism")

# code that no command reaches, and defaults, written "function(parameter)",
# that the commands take only one way, each with the reason it stays
ALLOWED = {
    "fatcat.fincat.category_to_json": WRITER,
    "fatcat.fincat.groupoid_to_json": WRITER,
    "fatcat.cocycle.covered_complex_to_json": WRITER,
    "fatcat.cocycle.cocycle_to_json": WRITER,
    "fatcat.cocycle.check_isomorphism": TRACED_BY_NAME,
    "fatcat.cocycle.union_cocycle": TRACED_BY_NAME,
    "fatcat.cocycle._cross_overlap": TRACED_BY_NAME,
    "fatcat.comparison.projection_pi": "bench/tracer.py traces it by name, and the tom-dieck "
                                       "oracle in tests/oracles.py decides through it",
    "fatcat.intlinalg.IntMatrix.rows": "bench/tracer.py counts nonzeros through it",
    "fatcat.fincat.FinCategory.__repr__": "names a category in failure messages and tracebacks",
    "fatcat.intlinalg.IntMatrix.__repr__": "names a matrix in failure messages and tracebacks",
    "fatcat.simpset.interleave_cell": "builds lemma42's image ids on its id path, which only a "
                                      "doctored image reaches (tests/test_simpset.py)",
    "fatcat.cli.run_and_exit": "ends the process, so only `python -m fatcat.cli` and the console "
                               "script run it; tests/test_startup.py runs both in a subprocess",
}
FUNCTIONS = {name for name in ALLOWED if "(" not in name}
DEFAULTS = set(ALLOWED) - FUNCTIONS


def _functions(member):
    """The functions behind a class member, one per callable part."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f]
    if isinstance(member, cached_property):
        return [member.func]
    if inspect.isfunction(member):
        return [member]
    return []


def package_functions():
    """Qualified name and function of every module-level def and every
    member of a module-level class, fixtures aside, whose code is the
    package's."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "fixtures"):
            continue
        module = importlib.import_module(f"fatcat.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            prefix = f"{module.__name__}.{name}"
            if inspect.isfunction(value):
                yield prefix, value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    for fn in _functions(member):
                        if Path(fn.__code__.co_filename).resolve().parent == PACKAGE:
                            yield f"{prefix}.{attr}", fn


def defaults(fn):
    """(parameter, default) of each defaulted parameter of a function."""
    params = inspect.signature(fn).parameters.values()
    return [(p.name, p.default) for p in params if p.default is not p.empty]


def command_runs(paths, out_dir):
    runs = [["report", "all"], ["report", "all", "--out", str(out_dir / "report.json")]]
    bz2 = paths["bz2.json"]
    runs.append(["nerve", "--input", bz2, "--D", "3"])
    runs += [["homology", "--input", bz2, style, "--D", "3", "--k", "1"]
             for style in ("--fat", "--geometric")]
    # k = D: the edge degree, reported as not reliable
    runs.append(["homology", "--input", bz2, "--D", "3", "--k", "3"])
    runs += [[paths.get(a, a) for a in line.split()] for line, _, _ in GOLDEN]
    line = "verify tom-dieck --input bz2.json --N 5 --D 3 --d 1"
    runs.append([paths.get(a, a) for a in line.split()] + ["--out", str(out_dir / "td.json")])
    return runs


def profile_runs(runs):
    """Run the commands under a profile hook.  Returns the code objects
    called and, for each defaulted package parameter, written
    "function(parameter)", the set of answers over its calls to "did the
    call hold the default?"."""
    watched, held = {}, {}
    for name, fn in package_functions():
        for param, default in defaults(fn):
            watched.setdefault(fn.__code__, []).append((f"{name}({param})", param, default))
            held[f"{name}({param})"] = set()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            if code in watched:
                values = frame.f_locals
                for key, param, default in watched[code]:
                    value = values[param]
                    held[key].add(type(value) is type(default) and value == default)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in runs:
                main(argv)
        finally:
            sys.setprofile(None)
    return called, held


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One profiled pass over the command runs, read by both guards."""
    directory = tmp_path_factory.mktemp("commands")
    return profile_runs(command_runs(write_inputs(directory), directory))


def test_package_code_covers_members():
    names = {name for name, _ in package_functions()}
    # a method, a property, a classmethod and a record constructor
    for name in ("fatcat.simpset.SemiSimplicialSet.audit", "fatcat.intlinalg.IntMatrix.shape",
                 "fatcat.intlinalg.IntMatrix.zeros", "fatcat.homology.HomologyGroup.__new__"):
        assert name in names
    # namedtuple's own members are generated outside the package
    assert not {n for n in names if n.startswith("fatcat.cli.Suite.")}


def test_every_package_function_is_reached(profiled):
    called, _ = profiled
    unreached = {name for name, fn in package_functions() if fn.__code__ not in called}
    assert unreached - FUNCTIONS == set(), "move these to tests/, or allow them"
    assert FUNCTIONS - unreached == set(), "these run now or are gone: drop them"


def test_every_default_is_taken_both_ways(profiled):
    _, held = profiled
    answers = {False: "never holds its default", True: "always holds its default"}
    one_way = {
        name: answers[next(iter(answered))] if answered else "is never called"
        for name, answered in held.items() if len(answered) < 2
    }
    assert {n: w for n, w in one_way.items() if n not in DEFAULTS} == {}, (
        "drop these defaults, or allow them"
    )
    assert DEFAULTS - set(one_way) == set(), "these are taken both ways now or are gone: drop them"


def test_traced_by_name_entries_are_still_traced():
    traced = {(entry.module, entry.qualname) for entry in load_tracer().TRACED}
    kept = sorted(name for name, why in ALLOWED.items() if why == TRACED_BY_NAME)
    assert TRACED_NAME in traced, f"the tracer no longer traces it: delete {kept}"
