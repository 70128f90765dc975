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
import sys
import time

from .errors import EnumerationLimitError, StructureError
from .fincat import (
    category_from_json,
    check_category,
    check_groupoid,
    groupoid_from_json,
)
from .homology import fat_chains, geometric_chains, homology, quasi_iso_through
from .comparison import (
    all_fibers_contractible,
    pi_tau_homology_check,
    projection_pi,
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
    return payload


def _witnesses(violations):
    return [v.to_json() for v in violations]


def _degrees(rep):
    """Per-degree homology comparison of a quasi-isomorphism report."""
    return [
        {
            "degree": c.degree,
            "source": c.source.to_json(),
            "target": c.target.to_json(),
            "isomorphism": c.isomorphism,
        }
        for c in rep.degrees
    ]


def _load(path, loader):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read {path}: {exc}")
    return loader(doc)


# ---------------------------------------------------------------------------
# Claim registry for `report all`


def _claim_category_laws(params):
    witnesses = []
    for name, cat in fixtures.standard_categories().items():
        for v in check_category(cat):
            witnesses.append({"fixture": name, **v.to_json()})
    broken = check_category(fixtures.broken_category_rewired_identity())
    if not any(v.law == "identity-law" for v in broken):
        witnesses.append({"fixture": "broken-category", "missing": "identity-law"})
    return witnesses


def _claim_groupoid_laws(params):
    witnesses = []
    for name, g in fixtures.standard_groupoids().items():
        for v in check_groupoid(g):
            witnesses.append({"fixture": name, **v.to_json()})
    broken = check_groupoid(fixtures.broken_groupoid_bad_inverse())
    if not any(v.law in ("left-inverse", "right-inverse") for v in broken):
        witnesses.append({"fixture": "broken-groupoid", "missing": "inverse-law"})
    return witnesses


def _claim_unraveled_laws(params):
    from .fincat import ordinal, unravel

    witnesses = []
    for n in range(params["max_n"] + 1):
        report = check_category(unravel(ordinal(n), params["N"]))
        witnesses.extend(_witnesses(report))
    for name, g in fixtures.standard_groupoids().items():
        report = check_category(unravel(g.base, 3))
        witnesses.extend(_witnesses(report))
    return witnesses


def _claim_ordinal_equivalences(params):
    from .fincat import ordinal_unravel_equivalences

    witnesses = []
    for n, N in params["cases"]:
        bundle = ordinal_unravel_equivalences(n, N)
        witnesses.extend(_witnesses(bundle.report))
    return witnesses


def _claim_cell_bijection(params):
    witnesses = []
    cats = {"ordinal-1": fixtures.standard_categories()["ordinal-1"],
            "z2": fixtures.z2_groupoid().base}
    for name, (N, D) in params["cases"].items():
        rep = lemma42_bijection(cats[name], N, D)
        if not rep.ok:
            witnesses.extend(_witnesses(rep.violations))
    return witnesses


def _claim_projection_quasi_iso(params):
    pi = projection_pi(fixtures.z2_groupoid().base, params["N"], params["D"])
    rep = quasi_iso_through(pi, params["d"])
    return _witnesses(rep.violations)


def _claim_comma_fibers(params):
    from .fincat import ordinal

    _, violations = all_fibers_contractible(ordinal(1), params["N"], params["D"])
    return _witnesses(violations)


def _claim_subdivision_boundary(params):
    witnesses = []
    for n in range(params["max_n"] + 1):
        witnesses.extend(_witnesses(subdivision_commutes(n)))
    tau_chain_map(nerve(fixtures.z2_groupoid().base, 2), params["N"], 2)
    return witnesses


def _claim_section_homology(params):
    rep = pi_tau_homology_check(
        fixtures.z2_groupoid().base, params["N"], params["D"], params["d"]
    )
    return _witnesses(rep.violations)


def _claim_sorting_ill_defined(params):
    witnesses = []
    for n in (1, 2):
        for convention in ("zero-based", "literal"):
            found = rho_witnesses(n, convention)
            if not found:
                witnesses.append(
                    {"n": n, "convention": convention, "missing": "witness"}
                )
    return witnesses


def _claim_cocycle_laws(params):
    witnesses = []
    for name, coc in fixtures.bundled_cocycles().items():
        for v in check_cocycle(coc):
            witnesses.append({"fixture": name, **v.to_json()})
    broken = check_cocycle(fixtures.broken_circle_cocycle())
    if not any(v.law == "cocycle-law" for v in broken):
        witnesses.append({"fixture": "broken-cocycle", "missing": "cocycle-law"})
    return witnesses


def _claim_blowup_collapse(params):
    witnesses = []
    rep = blowup_vs_base(fixtures.circle_star_cover(), 1)
    witnesses.extend(_witnesses(rep.violations))
    rep = blowup_vs_base(fixtures.hemisphere_cover(), 2)
    witnesses.extend(_witnesses(rep.violations))
    return witnesses


def _claim_universal_cocycle(params):
    witnesses = []
    for name, g in fixtures.standard_groupoids().items():
        rep = universal_cocycle(g, params["N"], params["D"])
        for v in rep.report:
            witnesses.append({"groupoid": name, **v.to_json()})
    return witnesses


def _claim_classifying_pullback(params):
    witnesses = []
    for name, coc in fixtures.bundled_cocycles().items():
        classifying_chain_map(coc, params["N"], params["D"])
        for v in pullback_is_restriction(coc, params["N"], params["D"]):
            witnesses.append({"fixture": name, **v.to_json()})
    return witnesses


def _claim_partition(params):
    pairs, violations = check_partition_grid()
    witnesses = _witnesses(violations)
    if pairs < MIN_PARTITION_PAIRS:
        witnesses.append({"missing": f"grid too small: {pairs}"})
    return witnesses


CLAIMS = [
    {
        "id": "category-laws",
        "statement": "bundled categories satisfy the category laws; broken fixtures are caught",
        "parameters": {},
        "run": _claim_category_laws,
    },
    {
        "id": "groupoid-laws",
        "statement": "bundled groupoids satisfy the inverse laws; broken fixtures are caught",
        "parameters": {},
        "run": _claim_groupoid_laws,
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
        "run": _claim_cocycle_laws,
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
        witnesses = claim["run"](claim["parameters"])
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


def cmd_verify_lemma42(args):
    cat = _load(args.input, category_from_json)
    rep = lemma42_bijection(cat, args.N, args.D)
    payload = {
        "ok": rep.ok,
        "product_counts": list(rep.product_counts),
        "nondegenerate_counts": list(rep.nondegenerate_counts),
        "witnesses": _witnesses(rep.violations),
    }
    _emit(payload, args.out)
    return PASS if rep.ok else FAIL


def cmd_verify_tom_dieck(args):
    cat = _load(args.input, category_from_json)
    pi = projection_pi(cat, args.N, args.D)
    rep = quasi_iso_through(pi, args.d)
    payload = {
        "ok": rep.ok,
        "degrees": _degrees(rep),
        "witnesses": _witnesses(rep.violations),
    }
    _emit(payload, args.out)
    return PASS if rep.ok else FAIL


def cmd_verify_quillen_a(args):
    cat = _load(args.input, category_from_json)
    d = args.d if args.d is not None else args.D - 1
    checked, violations = all_fibers_contractible(cat, args.N, args.D, d)
    payload = {
        "ok": not violations,
        "fibers_checked": checked,
        "witnesses": _witnesses(violations),
    }
    _emit(payload, args.out)
    return PASS if not violations else FAIL


def cmd_verify_tau(args):
    cat = _load(args.input, category_from_json)
    rep = pi_tau_homology_check(cat, args.N, args.D, args.d)
    payload = {
        "ok": rep.ok,
        "boundary_identity": "exact",
        "witnesses": _witnesses(rep.violations),
    }
    _emit(payload, args.out)
    return PASS if rep.ok else FAIL


def cmd_counterexample_rho(args):
    conventions = (
        ["zero-based", "literal"] if args.convention == "both" else [args.convention]
    )
    found = {}
    for convention in conventions:
        found[convention] = [w.to_json() for w in rho_witnesses(args.n, convention)]
    ok = all(found[c] for c in conventions)
    _emit({"n": args.n, "witnesses": found}, args.out)
    return PASS if ok else FAIL


def cmd_verify_cocycle(args):
    coc = _load(args.input, cocycle_from_json)
    violations = check_cocycle(coc)
    _emit({"ok": not violations, "witnesses": _witnesses(violations)}, args.out)
    return PASS if not violations else FAIL


def cmd_verify_blowup(args):
    base = _load(args.input, covered_complex_from_json)
    rep = blowup_vs_base(base, args.d)
    payload = {
        "ok": rep.ok,
        "degrees": _degrees(rep),
        "witnesses": _witnesses(rep.violations),
    }
    _emit(payload, args.out)
    return PASS if rep.ok else FAIL


def cmd_verify_universal(args):
    g = _load(args.input, groupoid_from_json)
    rep = universal_cocycle(g, args.N, args.D)
    _emit({"ok": rep.ok, "witnesses": _witnesses(rep.report)}, args.out)
    return PASS if rep.ok else FAIL


def cmd_verify_partition(args):
    pairs, violations = check_partition_grid()
    payload = {
        "ok": not violations and pairs >= MIN_PARTITION_PAIRS,
        "pairs": pairs,
        "witnesses": _witnesses(violations),
    }
    _emit(payload, args.out)
    return PASS if payload["ok"] else FAIL


def cmd_report(args):
    if args.what != "all":
        raise StructureError(f"unknown report: {args.what}")
    return run_report_all(args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fatcat",
        description="exact verification of classifying-space comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=False, big_d=False, small_d=False, needs_input=True):
        if needs_input:
            p.add_argument("--input", "--category", dest="input", required=True)
        if n:
            p.add_argument("--N", type=int, required=True)
        if big_d:
            p.add_argument("--D", type=int, required=True)
        if small_d:
            p.add_argument("--d", type=int, required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("nerve", help="cell counts of a truncated nerve")
    common(p, big_d=True)
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("homology", help="one homology group of a nerve")
    common(p, big_d=True)
    p.add_argument("--k", type=int, required=True)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--fat", action="store_true", default=True)
    style.add_argument("--geometric", action="store_true", default=False)
    p.set_defaults(func=cmd_homology)

    verify = sub.add_parser("verify", help="run one verification suite")
    vs = verify.add_subparsers(dest="suite", required=True)

    p = vs.add_parser("lemma42")
    common(p, n=True, big_d=True)
    p.set_defaults(func=cmd_verify_lemma42)

    p = vs.add_parser("tom-dieck")
    common(p, n=True, big_d=True, small_d=True)
    p.set_defaults(func=cmd_verify_tom_dieck)

    p = vs.add_parser("quillen-a")
    common(p, n=True, big_d=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=cmd_verify_quillen_a)

    p = vs.add_parser("tau")
    common(p, n=True, big_d=True, small_d=True)
    p.set_defaults(func=cmd_verify_tau)

    p = vs.add_parser("cocycle")
    common(p)
    p.set_defaults(func=cmd_verify_cocycle)

    p = vs.add_parser("blowup")
    common(p, small_d=True)
    p.set_defaults(func=cmd_verify_blowup)

    p = vs.add_parser("universal-cocycle")
    common(p, n=True, big_d=True)
    p.set_defaults(func=cmd_verify_universal)

    p = vs.add_parser("partition")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_verify_partition)

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
    p.set_defaults(func=cmd_counterexample_rho)

    p = sub.add_parser("report", help="run the full claim registry")
    p.add_argument("what", choices=["all"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructureError, EnumerationLimitError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
