"""Acceptance suite.

One test per criterion; each prints a single pass/fail line with its
runtime and enforces the stated budget.  All comparisons are exact integer
or exact rational identities; there are no tolerances anywhere.
"""

import json
import time
from fractions import Fraction

from fatcat.cli import main as cli_main
from fatcat.cocycle import (
    GRID_DENOMINATOR,
    blowup_vs_base,
    check_cocycle,
    check_partition_grid,
    classifying_chain_map,
    partition_grid,
    partition_homotopy,
    pullback_is_restriction,
    universal_cocycle,
)
from fatcat.comparison import (
    all_fibers_contractible,
    pi_tau_homology_check,
    projection_map,
    projection_pi,
    rho_witnesses,
    tau_chain_map,
)
from fatcat.fincat import check_category, check_groupoid, ordinal, unravel
from fatcat.fixtures import (
    broken_category_rewired_identity,
    broken_groupoid_bad_inverse,
    bundled_cocycles,
    circle_star_cover,
    hemisphere_cover,
    pair_groupoid,
    random_two_complex,
    standard_groupoids,
    terminal_category,
    vertex_star_cover,
    z2_groupoid,
)
from fatcat.homology import induced_map, quasi_iso_through
from fatcat.simpset import lemma42_bijection, nerve

from oracles import betti_torsion, oracle_homology


class Stopwatch:
    def __init__(self, number, title, budget):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} ({elapsed:.2f}s / {self.budget:.0f}s): {self.title}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


CATALOG = {
    "terminal": terminal_category(),
    "interval": ordinal(1),
    "z2": z2_groupoid().base,
    "pair": pair_groupoid().base,
}


def test_criterion_1_law_suites():
    with Stopwatch(1, "category and groupoid law suites", 1.0):
        for n in range(4):
            assert check_category(ordinal(n)) == []
        for N in range(6):
            assert check_category(ordinal(N)) == []
        assert check_groupoid(z2_groupoid()) == []
        assert check_groupoid(pair_groupoid()) == []
        for n in range(4):
            for N in range(6):
                assert check_category(unravel(ordinal(n), N)) == []
        broken = check_category(broken_category_rewired_identity())
        assert any(
            v.law == "identity-law" and v.witness == ((0, 1, "le"), (0, 0, "le"))
            for v in broken
        )
        broken_g = check_groupoid(broken_groupoid_bad_inverse())
        assert any(
            v.law in ("left-inverse", "right-inverse")
            and v.witness[0] == ("*", "*", "s")
            for v in broken_g
        )


def test_criterion_2_cell_bijection():
    cases = [
        (ordinal(1), 2, 2),
        (ordinal(2), 3, 3),
        (z2_groupoid().base, 3, 3),
        (pair_groupoid().base, 3, 3),
    ]
    with Stopwatch(2, "stage-product cells biject with nondegenerate unraveled cells", 5.0):
        for cat, N, D in cases:
            report = lemma42_bijection(cat, N, D)
            assert report.ok, report.violations[:3]
            assert report.product_counts == report.nondegenerate_counts


def test_criterion_3_projection_quasi_iso():
    with Stopwatch(3, "stage projection is a homology isomorphism through degree 2", 60.0):
        for name, cat in CATALOG.items():
            pi = projection_pi(cat, 6, 4)
            report = quasi_iso_through(pi, 2)
            assert report.ok, name
            groups = [betti_torsion(c.target) for c in report.degrees]
            assert groups == [betti_torsion(c.source) for c in report.degrees]
            if name == "z2":
                assert groups == [(1, ()), (0, (2,)), (0, ())]
                # independent oracle: the one-generator-per-degree complex
                # with boundaries 0, 2, 0 has the same homology
                from fatcat.intlinalg import IntMatrix
                from fatcat.homology import IntegerChainComplex, homology

                ref = IntegerChainComplex(
                    4,
                    [[("c", k)] for k in range(5)],
                    {k: IntMatrix([[2 if k % 2 == 0 else 0]], 1) for k in range(1, 5)},
                )
                assert [betti_torsion(homology(ref, k)) for k in range(3)] == groups
            else:
                assert groups == [(1, ()), (0, ()), (0, ())]
            for c, cx in ((0, pi.source), (1, pi.source)):
                assert oracle_homology(cx, c) == (
                    report.degrees[c].source.betti,
                    report.degrees[c].source.torsion,
                )


def test_criterion_4_comma_fibers():
    with Stopwatch(4, "all comma fibers have vanishing reduced homology through 2", 60.0):
        for cat in (ordinal(1), ordinal(2), z2_groupoid().base):
            checked, violations = all_fibers_contractible(cat, 4, 3, 2)
            assert violations == []
            assert checked == sum(nerve(cat, 3).n_cells(k) for k in range(4))


def test_criterion_5_section_suite():
    with Stopwatch(5, "flag section is an exact chain map and fixes homology", 30.0):
        for name, cat in CATALOG.items():
            proj = projection_map(cat, 4, 3)
            tau = tau_chain_map(proj, induced_map(proj), 4)
            for k in range(1, 4):
                left = tau.target.boundary[k].mul(tau.matrices[k])
                right = tau.matrices[k - 1].mul(tau.source.boundary[k])
                assert left == right, (name, k)
        for name, cat in CATALOG.items():
            report = pi_tau_homology_check(cat, 6, 4, 2)
            assert report.ok, name


def test_criterion_6_sorting_map_ill_defined():
    with Stopwatch(6, "coordinate-sorting assignment has concrete witnesses", 1.0):
        for n in (1, 2):
            for convention in ("zero-based", "literal"):
                witnesses = rho_witnesses(n, convention)
                assert witnesses, (n, convention)
            zero_based = rho_witnesses(n, "zero-based")
            assert any(w.kind == "face-mismatch" for w in zero_based)
        witness = rho_witnesses(1, "zero-based")[0]
        assert witness.face_of_image == ("d0(y)", (1,))
        assert witness.image_of_face == ("d0(y)", (0,))
        assert any(w.kind == "face-mismatch" for w in rho_witnesses(2, "literal"))


def test_criterion_7_partition_formulas():
    with Stopwatch(7, "partition deformation identities over the grid", 1.0):
        q = GRID_DENOMINATOR
        points = partition_grid()
        assert len(points) * 5 >= 100
        assert any(max(a) == q for a in points)
        pairs, violations = check_partition_grid()
        assert violations == []
        for a in points:
            v, total = partition_homotopy(a, 0, q)
            assert [Fraction(vi, total) for vi in v] == [Fraction(ai, q) for ai in a]
            v, total = partition_homotopy(a, q, q)
            running = 0
            for i, ai in enumerate(a):
                if running >= ai:
                    assert v[i] == 0
                running += ai


def test_criterion_8_blowup():
    with Stopwatch(8, "blowup collapse preserves integral homology", 30.0):
        rep = blowup_vs_base(circle_star_cover(), 1)
        assert rep.ok
        assert [betti_torsion(c.target) for c in rep.degrees] == [(1, ()), (1, ())]
        rep = blowup_vs_base(hemisphere_cover(), 2)
        assert rep.ok
        assert [betti_torsion(c.target) for c in rep.degrees] == [(1, ()), (0, ()), (1, ())]
        faces = random_two_complex(seed=7)
        assert len(faces) <= 50
        rep = blowup_vs_base(vertex_star_cover(faces), 2)
        assert rep.ok


def test_criterion_9_universal_cocycle():
    with Stopwatch(9, "universal transitions form a cocycle and pull back to restrictions", 30.0):
        for g in standard_groupoids().values():
            for N, D in ((2, 2), (4, 3)):
                assert universal_cocycle(g, N, D) == []
        for name, u in bundled_cocycles().items():
            assert check_cocycle(u) == [], name
            classifying_chain_map(u, 3, 2)
            assert pullback_is_restriction(u, 3, 2) == [], name


def test_criterion_10_report_determinism(capsys, tmp_path):
    with Stopwatch(10, "full claim report is byte-identical across runs", 120.0):
        assert cli_main(["report", "all"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["report", "all"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert all(c["result"] == "pass" for c in payload["claims"])
