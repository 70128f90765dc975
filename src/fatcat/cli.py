"""Deterministic command-line surface.

Reads JSON inputs, runs the verification suites and prints machine
readable reports.  Exit codes: 0 when every requested check passes, 1 when
a check fails (the witnesses are in the payload), 2 on malformed input.
The counterexample command succeeds when a witness IS found, since the
ill-definedness is the claim under test.

Reports are canonical: same inputs give byte-identical stdout.  Timings
are kept outside the canonical payload and only written with --out.
"""

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from functools import partial

from .errors import EnumerationLimitError, StructureError, check_units
from .fincat import (
    category_from_json,
    check_category,
    check_groupoid,
    groupoid_from_json,
    ordinal,
    ordinal_unravel_equivalences,
    unravel,
)
from .homology import (
    check_degree_range,
    fat_chains,
    geometric_chains,
    homology,
    induced_map,
)
from .comparison import (
    all_fibers_contractible,
    pi_tau_homology_check,
    projection_map,
    projection_quasi_iso,
    rho_witnesses,
    subdivision_commutes,
    tau_chain_map,
)
from .cocycle import (
    blowup_vs_base,
    check_cocycle,
    check_partition_grid,
    classifying_chain_map,
    cocycle_from_json,
    covered_complex_from_json,
    pullback_is_restriction,
    universal_cocycle,
)
from .simpset import lemma42_bijection, nerve
from . import fixtures

PASS, FAIL, BAD_INPUT = 0, 1, 2

# fewest (point, time) pairs the partition grid must check to count
MIN_PARTITION_PAIRS = 100


def _emit(payload, out_path=None, timing=None):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    print(canonical)
    if out_path:
        full = dict(payload)
        if timing is not None:
            full["timing_ms"] = timing
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(full, fh, sort_keys=True, indent=2)


def _witnesses(violations):
    return [v.to_json() for v in violations]


def _load(path, loader):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return loader(doc)
    except StructureError:
        raise
    # bytes that are not UTF-8 or JSON, or nesting past the recursion limit
    # while parsing or while decoding an identifier
    except (OSError, ValueError, RecursionError) as exc:
        raise StructureError(f"cannot read {path}: {exc}")


# ---------------------------------------------------------------------------
# Suites.  Each is one function, run by `verify <suite>` (or `counterexample
# rho`) on a loaded input and by its `report all` claim on fixtures.  It
# takes its input (None when it reads none) and its parameters and returns
# (ok, payload); the payload is what the command prints.


def _result(ok, violations, **fields):
    return ok, {"ok": ok, "witnesses": _witnesses(violations), **fields}


def _quasi_iso_result(rep):
    """Result of a quasi-isomorphism report, with its per-degree homology."""
    degrees = [
        {
            "degree": c.degree,
            "source": c.source.to_json(),
            "target": c.target.to_json(),
            "isomorphism": c.isomorphism,
        }
        for c in rep.degrees
    ]
    return _result(rep.ok, rep.violations, degrees=degrees)


def suite_lemma42(cat, N, D):
    rep = lemma42_bijection(cat, N, D)
    return _result(
        rep.ok,
        rep.violations,
        product_counts=list(rep.product_counts),
        nondegenerate_counts=list(rep.nondegenerate_counts),
    )


def _check_stages(N, D, d):
    """Refuse a check through degree d unless d is in range for D and there
    are N >= d + 1 stages: below that the stage cutoff removes the cells
    above degree N, and the homology it leaves through degree d (of the
    stage product, or of a comma fiber) is an artifact of the cutoff."""
    check_degree_range(d, D)
    if N < d + 1:
        raise StructureError(f"too few stages: need N >= d + 1, got N = {N}, d = {d}")


def suite_tom_dieck(cat, N, D, d):
    _check_stages(N, D, d)
    return _quasi_iso_result(projection_quasi_iso(cat, N, D, d))


def suite_quillen_a(cat, N, D, d=None):
    d = D - 1 if d is None else d
    _check_stages(N, D, d)
    checked, violations = all_fibers_contractible(cat, N, D, d)
    return _result(not violations, violations, fibers_checked=checked)


def suite_tau(cat, N, D, d):
    rep = pi_tau_homology_check(cat, N, D, d)
    return _result(rep.ok, rep.violations, boundary_identity="exact")


def suite_cocycle(coc):
    violations = check_cocycle(coc)
    return _result(not violations, violations)


def suite_blowup(base, d):
    return _quasi_iso_result(blowup_vs_base(base, d))


def suite_universal_cocycle(g, N, D):
    violations = universal_cocycle(g, N, D)
    return _result(not violations, violations)


def suite_partition(_):
    pairs, violations = check_partition_grid()
    return _result(not violations and pairs >= MIN_PARTITION_PAIRS, violations, pairs=pairs)


def suite_rho(_, n, convention="both"):
    conventions = ["zero-based", "literal"] if convention == "both" else [convention]
    # each reading finds n witnesses, and each repeats the n + 1
    # coordinates of the barycenter
    check_units(len(conventions) * max(n, 0) * (n + 1), "the rho payload", "coordinate strings")
    found = {c: [w.to_json() for w in rho_witnesses(n, c)] for c in conventions}
    return all(found.values()), {"n": n, "witnesses": found}


# suite, JSON loader of its --input (None: it takes none), and its
# required and optional integer options
Suite = namedtuple("Suite", "run loader required optional", defaults=((), ()))

SUITES = {
    "lemma42": Suite(suite_lemma42, category_from_json, ("N", "D")),
    "tom-dieck": Suite(suite_tom_dieck, category_from_json, ("N", "D", "d")),
    "quillen-a": Suite(suite_quillen_a, category_from_json, ("N", "D"), ("d",)),
    "tau": Suite(suite_tau, category_from_json, ("N", "D", "d")),
    "cocycle": Suite(suite_cocycle, cocycle_from_json),
    "blowup": Suite(suite_blowup, covered_complex_from_json, ("d",)),
    "universal-cocycle": Suite(suite_universal_cocycle, groupoid_from_json, ("N", "D")),
    "partition": Suite(suite_partition, None),
}
RHO = Suite(suite_rho, None, ("n",), ("convention",))


def run_suite(suite, args):
    source = _load(args.input, suite.loader) if suite.loader else None
    params = {k: getattr(args, k) for k in suite.required + suite.optional}
    ok, payload = suite.run(source, **params)
    _emit(payload, args.out)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# Claim registry for `report all`


def _claim_witnesses(result, **tags):
    """Witnesses of one suite run.  A run that fails without naming any
    still fails, with the rest of its payload as the witness."""
    ok, payload = result
    witnesses = [{**tags, **w} for w in payload["witnesses"]]
    if not ok and not witnesses:
        rest = {k: v for k, v in payload.items() if k not in ("ok", "witnesses")}
        witnesses.append({**tags, **rest, "missing": "ok"})
    return witnesses


def _claim_laws(params, check, bundled, broken, caught_by, missing):
    """Witnesses of a law check: every violation it finds on the
    ``bundled()`` fixtures, and ``missing`` when none of the laws
    ``caught_by`` catches the broken fixture, ``broken = (name, build)``."""
    witnesses = [
        {"fixture": name, **v.to_json()} for name, x in bundled().items() for v in check(x)
    ]
    name, build = broken
    if not any(v.law in caught_by for v in check(build())):
        witnesses.append({"fixture": name, "missing": missing})
    return witnesses


def _claim_unraveled_laws(params):
    witnesses = []
    for n in range(params["max_n"] + 1):
        report = check_category(unravel(ordinal(n), params["N"]))
        witnesses.extend(_witnesses(report))
    for name, g in fixtures.standard_groupoids().items():
        report = check_category(unravel(g.base, 3))
        witnesses.extend(_witnesses(report))
    return witnesses


def _claim_ordinal_equivalences(params):
    witnesses = []
    for n, N in params["cases"]:
        bundle = ordinal_unravel_equivalences(n, N)
        witnesses.extend(_witnesses(bundle.report))
    return witnesses


def _claim_cell_bijection(params):
    cats = fixtures.standard_categories()
    witnesses = []
    for name, (N, D) in params["cases"].items():
        witnesses += _claim_witnesses(suite_lemma42(cats[name], N, D), fixture=name)
    return witnesses


def _claim_projection_quasi_iso(params):
    return _claim_witnesses(suite_tom_dieck(fixtures.z2_groupoid().base, **params))


def _claim_comma_fibers(params):
    return _claim_witnesses(suite_quillen_a(ordinal(1), **params))


def _claim_subdivision_boundary(params):
    witnesses = []
    for n in range(params["max_n"] + 1):
        witnesses.extend(_witnesses(subdivision_commutes(n)))
    proj = projection_map(fixtures.z2_groupoid().base, params["N"], 2)
    tau_chain_map(proj, induced_map(proj), params["N"])
    return witnesses


def _claim_section_homology(params):
    return _claim_witnesses(suite_tau(fixtures.z2_groupoid().base, **params))


def _claim_sorting_ill_defined(params):
    witnesses = []
    for n in params["n"]:
        _, payload = suite_rho(None, n)
        for convention, found in payload["witnesses"].items():
            if not found:
                witnesses.append({"n": n, "convention": convention, "missing": "witness"})
    return witnesses


def _claim_blowup_collapse(params):
    witnesses = _claim_witnesses(suite_blowup(fixtures.circle_star_cover(), 1))
    return witnesses + _claim_witnesses(suite_blowup(fixtures.hemisphere_cover(), 2))


def _claim_universal_cocycle(params):
    witnesses = []
    for name, g in fixtures.standard_groupoids().items():
        witnesses += _claim_witnesses(suite_universal_cocycle(g, **params), groupoid=name)
    return witnesses


def _claim_classifying_pullback(params):
    witnesses = []
    for name, coc in fixtures.bundled_cocycles().items():
        classifying_chain_map(coc, params["N"], params["D"])
        for v in pullback_is_restriction(coc, params["N"], params["D"]):
            witnesses.append({"fixture": name, **v.to_json()})
    return witnesses


def _claim_partition(params):
    return _claim_witnesses(suite_partition(None))


CLAIMS = [
    {
        "id": "category-laws",
        "statement": "bundled categories satisfy the category laws; broken fixtures are caught",
        "parameters": {},
        "run": partial(_claim_laws, check=check_category, bundled=fixtures.standard_categories,
                       broken=("broken-category", fixtures.broken_category_rewired_identity),
                       caught_by=("identity-law",), missing="identity-law"),
    },
    {
        "id": "groupoid-laws",
        "statement": "bundled groupoids satisfy the inverse laws; broken fixtures are caught",
        "parameters": {},
        "run": partial(_claim_laws, check=check_groupoid, bundled=fixtures.standard_groupoids,
                       broken=("broken-groupoid", fixtures.broken_groupoid_bad_inverse),
                       caught_by=("left-inverse", "right-inverse"), missing="inverse-law"),
    },
    {
        "id": "unraveled-category-laws",
        "statement": "stagewise unraveling always yields a category",
        "parameters": {"max_n": 3, "N": 5},
        "run": _claim_unraveled_laws,
    },
    {
        "id": "ordinal-retraction-equivalences",
        "statement": "the unraveled ordinal retracts onto the ordinal through exact equivalences",
        "parameters": {"cases": [(1, 2), (2, 4)]},
        "run": _claim_ordinal_equivalences,
    },
    {
        "id": "cell-bijection",
        "statement": "nerve-times-stages cells biject with nondegenerate unraveled nerve cells",
        "parameters": {"cases": {"ordinal-1": (2, 2), "z2": (3, 3)}},
        "run": _claim_cell_bijection,
    },
    {
        "id": "projection-quasi-iso",
        "statement": "forgetting the stage factor preserves integral homology",
        "parameters": {"N": 5, "D": 3, "d": 1},
        "run": _claim_projection_quasi_iso,
    },
    {
        "id": "comma-fibers-contractible",
        "statement": "every comma fiber over a nerve simplex has vanishing reduced homology",
        "parameters": {"N": 3, "D": 3},
        "run": _claim_comma_fibers,
    },
    {
        "id": "subdivision-boundary",
        "statement": "the flag subdivision operator and the stage section commute with boundaries",
        "parameters": {"max_n": 3, "N": 3},
        "run": _claim_subdivision_boundary,
    },
    {
        "id": "section-fixes-homology",
        "statement": "collapse after the flag section fixes every homology class",
        "parameters": {"N": 4, "D": 3, "d": 1},
        "run": _claim_section_homology,
    },
    {
        "id": "sorting-map-ill-defined",
        "statement": "the coordinate-sorting assignment admits concrete ill-definedness witnesses",
        "parameters": {"n": [1, 2]},
        "run": _claim_sorting_ill_defined,
    },
    {
        "id": "cocycle-laws",
        "statement": "bundled cocycles satisfy the composition law; broken fixtures are caught",
        "parameters": {},
        "run": partial(_claim_laws, check=check_cocycle, bundled=fixtures.bundled_cocycles,
                       broken=("broken-cocycle", fixtures.broken_circle_cocycle),
                       caught_by=("cocycle-law",), missing="cocycle-law"),
    },
    {
        "id": "blowup-collapse",
        "statement": "collapsing the blowup of a covered complex preserves integral homology",
        "parameters": {},
        "run": _claim_blowup_collapse,
    },
    {
        "id": "universal-cocycle-law",
        "statement": "the canonical transitions on the classifying complex form a cocycle",
        "parameters": {"N": 3, "D": 2},
        "run": _claim_universal_cocycle,
    },
    {
        "id": "classifying-pullback-restriction",
        "statement": "pulling the canonical transitions back along the classifying rule restricts the cocycle",
        "parameters": {"N": 3, "D": 2},
        "run": _claim_classifying_pullback,
    },
    {
        "id": "partition-homotopy",
        "statement": "the partition deformation is exact: unit sum, identity at time zero, truncated support at time one",
        "parameters": {"grid": f">={MIN_PARTITION_PAIRS} pairs"},
        "run": _claim_partition,
    },
]


def run_report_all(out_path=None):
    claims = []
    timing = {}
    failed = False
    for claim in CLAIMS:
        started = time.perf_counter()
        try:
            witnesses = claim["run"](claim["parameters"])
        # the claims read no input, so a structural refusal fails the claim
        except StructureError as exc:
            witnesses = [{"error": str(exc)}]
        timing[claim["id"]] = round((time.perf_counter() - started) * 1000, 3)
        ok = not witnesses
        failed = failed or not ok
        claims.append(
            {
                "id": claim["id"],
                "statement": claim["statement"],
                "parameters": claim["parameters"],
                "result": "pass" if ok else "fail",
                "witnesses": witnesses,
            }
        )
    _emit({"claims": claims}, out_path, timing)
    return FAIL if failed else PASS


# ---------------------------------------------------------------------------
# Individual commands


def cmd_nerve(args):
    cat = _load(args.input, category_from_json)
    ner = nerve(cat, args.D)
    payload = {
        "cells": [ner.n_cells(k) for k in range(args.D + 1)],
        "nondegenerate": [len(ner.nondegenerate(k)) for k in range(args.D + 1)],
    }
    _emit(payload, args.out)
    return PASS


def cmd_homology(args):
    cat = _load(args.input, category_from_json)
    ner = nerve(cat, args.D)
    chains = geometric_chains(ner) if args.geometric else fat_chains(ner)
    h = homology(chains, args.k)
    _emit(h.to_json(), args.out)
    return PASS


COMMANDS = ("nerve", "homology", "verify", "counterexample", "report")


def _selected(action, names, argv):
    """The names to build under the subparsers ``action``: the one that
    ``argv`` starts with, or all of them when it starts with none.  The
    pruned action shows every name as its metavar, so usage and error text
    read the same as with all of them built."""
    if argv and argv[0] in names:
        action.metavar = "{%s}" % ",".join(names)
        return (argv[0],)
    return names


def build_parser(argv):
    """The argparse tree for ``argv``: the top level plus only the command,
    and the suite, that ``argv`` names.  When it names none (no arguments,
    ``-h``, an unknown name) the whole tree is built, so help lists every
    command and a bad choice is reported against all of them."""
    parser = argparse.ArgumentParser(
        prog="fatcat",
        description="exact verification of classifying-space comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = _selected(sub, COMMANDS, argv)

    if "nerve" in commands:
        p = sub.add_parser("nerve", help="cell counts of a truncated nerve")
        p.add_argument("--input", "--category", dest="input", required=True)
        p.add_argument("--D", type=int, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_nerve)

    if "homology" in commands:
        p = sub.add_parser("homology", help="one homology group of a nerve")
        p.add_argument("--input", "--category", dest="input", required=True)
        p.add_argument("--D", type=int, required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--k", type=int, required=True)
        style = p.add_mutually_exclusive_group()
        style.add_argument("--fat", action="store_true", default=True)
        style.add_argument("--geometric", action="store_true", default=False)
        p.set_defaults(func=cmd_homology)

    if "verify" in commands:
        verify = sub.add_parser("verify", help="run one verification suite")
        vs = verify.add_subparsers(dest="suite", required=True)
        for name in _selected(vs, SUITES, argv[1:]):
            suite = SUITES[name]
            p = vs.add_parser(name)
            if suite.loader:
                p.add_argument("--input", "--category", dest="input", required=True)
            for option in suite.required:
                p.add_argument(f"--{option}", type=int, required=True)
            p.add_argument("--out", default=None)
            for option in suite.optional:
                p.add_argument(f"--{option}", type=int, default=None)
            p.set_defaults(func=partial(run_suite, suite))

    if "counterexample" in commands:
        counter = sub.add_parser("counterexample", help="search for a witness")
        cs = counter.add_subparsers(dest="target", required=True)
        p = cs.add_parser("rho")
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--convention",
            choices=["zero-based", "literal", "both"],
            default="both",
        )
        p.add_argument("--out", default=None)
        p.set_defaults(func=partial(run_suite, RHO))

    if "report" in commands:
        p = sub.add_parser("report", help="run the full claim registry")
        p.add_argument("what", choices=["all"])
        p.add_argument("--out", default=None)
        p.set_defaults(func=lambda args: run_report_all(args.out))

    return parser


def main(argv):
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (StructureError, EnumerationLimitError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return BAD_INPUT


def run_and_exit():
    """Entry point of ``python -m fatcat.cli`` and the ``fatcat`` script.

    Runs :func:`main` on the process arguments, flushes stdout and stderr
    and ends the process with main's exit code, skipping the interpreter's
    teardown, which would free every object the run left behind.  A
    ``--out`` file is closed by then.  Usage errors and ``--help`` leave
    through argparse's ``SystemExit``, and an uncaught exception through
    the normal path.
    """
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
