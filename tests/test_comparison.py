import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

import fatcat.comparison as comparison
from fatcat.comparison import (
    BarycentricPoint,
    _nondegenerate_factorization,
    all_fibers_contractible,
    apply_operator,
    contractibility_report,
    pi_tau_homology_check,
    projection_map,
    projection_pi,
    quillen_fiber,
    rho_evaluate,
    rho_witnesses,
    subdivision_chain_operator,
    subdivision_commutes,
    tau_chain_map,
)
from fatcat.errors import EnumerationLimitError, StructureError, Violation
from fatcat.fincat import (
    FinCategory,
    FinGroupoid,
    check_groupoid,
    ordinal,
    truncated_nat,
    unravel,
)
from fatcat.fixtures import (
    cyclic_groupoid,
    idempotent_monoid_category,
    pair_groupoid,
    terminal_category,
    z2_groupoid,
)
from fatcat.homology import fat_chains, geometric_chains, homology, quasi_iso_through
from fatcat.intlinalg import IntMatrix
from fatcat.simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    TruncatedSimplicialSet,
    chain_composites,
    nerve,
)

from oracles import apply, oracle_homology
from test_simpset import record_builds


def test_projection_terminal_is_h0_iso():
    pi = projection_pi(terminal_category(), 3, 2)
    rep = quasi_iso_through(pi, 1)
    assert rep.ok
    assert rep.degrees[0].target.group() == (1, ())


def test_projection_sends_generator_to_first_factor():
    f = projection_map(z2_groupoid().base, 3, 2)
    sigma = ("*", "*", "s")
    assert apply(f, 2, ((sigma, sigma), (0, 1, 2))) == (sigma, sigma)


def test_projection_flip_group_quasi_iso():
    pi = projection_pi(z2_groupoid().base, 6, 4)
    rep = quasi_iso_through(pi, 2)
    assert rep.ok
    assert [c.source.group() for c in rep.degrees] == [(1, ()), (0, (2,)), (0, ())]


def subdivision_operator(n):
    """Top-degree subdivision matrix: the fundamental cell to its flags."""
    _, _, mats = subdivision_chain_operator(n)
    return mats[n]


def test_subdivision_point_is_identity():
    assert subdivision_operator(0) == IntMatrix([[1]])


def test_subdivision_interval_signs():
    simp, flags, mats = subdivision_chain_operator(1)
    top = mats[1]
    column = top.column(0)
    idx = {cell: i for i, cell in enumerate(flags.basis[1])}
    assert column[idx[((0,), (0, 1))]] == 1
    assert column[idx[((1,), (0, 1))]] == -1
    assert subdivision_commutes(1) == []


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_subdivision_boundary_identity(n):
    assert subdivision_commutes(n) == []


def test_apply_operator_collapse():
    ner = nerve(z2_groupoid().base, 2)
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    p = ner.index[1][(sigma,)]
    # constant map [1] -> [1] at vertex 1 collapses the flip to s0 d0
    assert ner.cells[1][apply_operator(ner, 1, (1, 1))[p]] == (ident,)
    assert ner.cells[1][apply_operator(ner, 1, (0, 1))[p]] == (sigma,)


def test_tau_on_flip_generator():
    ner = nerve(z2_groupoid().base, 3)
    tau = tau_chain_map(ner, 4, 3)
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    src = tau.source
    j = src.basis[1].index((sigma,))
    col = tau.matrices[1].column(j)
    hits = {
        tau.target.basis[1][i]: v for i, v in enumerate(col) if v
    }
    assert hits == {((sigma,), (1, 2)): 1, ((ident,), (1, 2)): -1}


def test_tau_boundary_identity_is_exact():
    ner = nerve(ordinal(1), 2)
    tau = tau_chain_map(ner, 3, 2)
    for k in range(1, 3):
        left = tau.target.boundary[k].mul(tau.matrices[k])
        right = tau.matrices[k - 1].mul(tau.source.boundary[k])
        assert left == right


def test_tau_needs_enough_stages():
    with pytest.raises(StructureError):
        tau_chain_map(nerve(ordinal(1), 2), 2, 2)


def test_pi_tau_fixes_homology_terminal():
    rep = pi_tau_homology_check(terminal_category(), 2, 1, 0)
    assert rep.ok


def test_pi_tau_fixes_homology_interval():
    rep = pi_tau_homology_check(ordinal(1), 4, 3, 1)
    assert rep.ok
    assert [c.source.group() for c in rep.degrees] == [(1, ()), (0, ())]


def test_pi_tau_fixes_homology_flip_group():
    rep = pi_tau_homology_check(z2_groupoid().base, 6, 4, 2)
    assert rep.ok
    assert [c.source.group() for c in rep.degrees] == [(1, ()), (0, (2,)), (0, ())]


def count_audits(monkeypatch):
    """Counter of audit calls per (object id, class name)."""
    calls = Counter()
    audited = []  # keeps every audited object alive, so ids stay distinct
    for cls in (SemiSimplicialSet, TruncatedSimplicialSet, SimplicialMap):
        original = vars(cls)["audit"]

        def audit(self, original=original, name=cls.__name__):
            audited.append(self)
            calls[(id(self), name)] += 1
            return original(self)

        monkeypatch.setattr(cls, "audit", audit)
    return calls


def test_pi_tau_audits_each_object_once(monkeypatch):
    calls = count_audits(monkeypatch)
    rep = pi_tau_homology_check(z2_groupoid().base, 4, 3, 1)
    assert rep.ok
    assert len({obj for obj, _ in calls}) >= 4
    assert set(calls.values()) == {1}


@pytest.mark.parametrize(
    "cat, cells, cores",
    [(ordinal(2), 34, 7), (cyclic_groupoid(3).base, 40, 15)],
    ids=["ordinal-2", "z3"],
)
def test_fiber_sweep_builds_once_per_core(monkeypatch, cat, cells, cores):
    # a core is a nondegenerate cell, and Z/3 has two edges on one object pair
    assert sum(len(nerve(cat, 3).nondegenerate(k)) for k in range(4)) == cores
    degrees = sum(1 for k in range(4) if nerve(cat, 3).nondegenerate(k))
    audits = count_audits(monkeypatch)
    calls = Counter()
    for name in ("unravel", "quillen_fiber"):
        original = getattr(comparison, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(comparison, name, counted)
    checked, violations = all_fibers_contractible(cat, 3, 3)
    assert (checked, violations) == (cells, [])
    assert calls == {"unravel": 1, "quillen_fiber": cores}
    # the nerve, the shared target, per core a fiber and both legs, and one
    # simplex per core degree, each audited exactly once
    assert len({obj for obj, _ in audits}) == 2 + cores * 3 + degrees
    assert set(audits.values()) == {1}


def test_rho_evaluate_matches_closed_forms():
    half = Fraction(1, 2)
    assert rho_evaluate(1, 1, (half, half)) == 1
    assert rho_evaluate(1, 1, (Fraction(1, 4), Fraction(3, 4))) == half
    for t0, t1 in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 5), Fraction(4, 5))):
        assert rho_evaluate(1, 1, (t0, t1)) == 2 * min(t0, t1)


def test_rho_vanishes_at_vertices():
    vertex = (Fraction(1), Fraction(0), Fraction(0))
    for j in (1, 2):
        assert rho_evaluate(2, j, vertex) == 0


def rho_face_counterexample(n, convention="zero-based"):
    """First ill-definedness witness, preferring a face mismatch."""
    witnesses = rho_witnesses(n, convention)
    if not witnesses:
        raise StructureError(f"no witness found for n={n} under the {convention} reading")
    for w in witnesses:
        if w.kind == "face-mismatch":
            return w
    return witnesses[0]


def test_rho_counterexample_names_distinct_cells():
    w = rho_face_counterexample(1)
    assert w.kind == "face-mismatch"
    assert w.face_index == 0
    assert w.face_of_image == ("d0(y)", (1,))
    assert w.image_of_face == ("d0(y)", (0,))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("convention", ["zero-based", "literal"])
def test_rho_witness_found_under_both_readings(n, convention):
    witnesses = rho_witnesses(n, convention)
    assert witnesses, (n, convention)
    if convention == "zero-based":
        assert any(w.kind == "face-mismatch" for w in witnesses)


def test_rho_face_mismatch_for_every_small_n_zero_based():
    for n in (1, 2, 3):
        assert any(w.kind == "face-mismatch" for w in rho_witnesses(n, "zero-based"))


def test_barycentric_point_validation():
    with pytest.raises(StructureError):
        BarycentricPoint(1, (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(StructureError):
        BarycentricPoint(1, (Fraction(3, 2), Fraction(-1, 2)))


def test_fiber_over_vertex_is_stage_poset_nerve():
    c = pair_groupoid().base
    fib = quillen_fiber(c, 3, 3, "a", 0)
    reference = nerve(truncated_nat(3), 3)
    counts = [fib.fiber.n_cells(k) for k in range(4)]
    assert counts == [reference.n_cells(k) for k in range(4)]
    assert contractibility_report(fib, 2).ok


def test_fiber_over_interval_simplex():
    c = ordinal(1)
    fib = quillen_fiber(c, 3, 3, ((0, 1, "le"),), 1)
    reference = nerve(unravel(c, 3), 3)
    assert [fib.fiber.n_cells(k) for k in range(4)] == [
        reference.n_cells(k) for k in range(4)
    ]
    rep = contractibility_report(fib, 2)
    assert rep.ok
    chains = geometric_chains(fib.fiber)
    for k in range(3):
        assert oracle_homology(chains, k) == homology(chains, k).group()


def test_fiber_refuses_a_wrong_target():
    c = ordinal(1)
    edge = ((0, 1, "le"),)
    shared = nerve(unravel(c, 3), 2)
    assert quillen_fiber(c, 3, 2, edge, 1, shared).to_unraveled.target is shared
    for wrong in (nerve(unravel(c, 2), 2), nerve(unravel(c, 3), 3)):
        with pytest.raises(StructureError):
            quillen_fiber(c, 3, 2, edge, 1, wrong)


FIBER_CORES = {
    "vertex": (pair_groupoid().base, "a", 0),
    "edge": (ordinal(1), ((0, 1, "le"),), 1),
    # the composite s o s is an identity, so equal stages may follow it
    "z2-ss": (z2_groupoid().base, (("*", "*", "s"), ("*", "*", "s")), 2),
}


def test_fiber_is_refused_before_any_cell_is_built(monkeypatch):
    built = record_builds(monkeypatch)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    c, cell, k = FIBER_CORES["z2-ss"]
    with pytest.raises(
        EnumerationLimitError, match="^TruncatedSimplicialSet needs 59422 cells"
    ):
        quillen_fiber(c, 10, 4, cell, k)
    assert built == []


@pytest.mark.parametrize("name", sorted(FIBER_CORES))
def test_fiber_budget_counts_every_cell(monkeypatch, name):
    c, cell, k = FIBER_CORES[name]
    target = nerve(unravel(c, 3), 3)
    fib = quillen_fiber(c, 3, 3, cell, k, target)
    total = sum(fib.fiber.n_cells(j) for j in range(4))
    built = record_builds(monkeypatch)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total))
    quillen_fiber(c, 3, 3, cell, k, target)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total - 1))
    with pytest.raises(EnumerationLimitError, match=f"needs {total} cells"):
        quillen_fiber(c, 3, 3, cell, k, target)
    # the fiber and its simplex, both from the run inside the budget
    assert len(built) == 2


@pytest.mark.parametrize("name", sorted(FIBER_CORES))
def test_fiber_cells_are_the_sorted_step_chains(name):
    """Each degree lists every chain of steps, sorted by (vertex tuple, stage
    tuple).  A step (a0, l0) -> (a1, l1) lowers neither entry, and keeps the
    stage only over an identity composite."""
    c, cell, k = FIBER_CORES[name]
    fib = quillen_fiber(c, 3, 3, cell, k)
    objects, arrows = _nondegenerate_factorization(c, k, cell)
    composite = chain_composites(c, objects, arrows)
    vertices = [(a, l) for a in range(len(objects)) for l in range(4)]

    def step(v, w):
        (a0, l0), (a1, l1) = v, w
        return a0 <= a1 and l0 <= l1 and (l0 < l1 or c.is_identity(composite[(a0, a1)]))

    for j in range(4):
        chains = [
            ch for ch in product(vertices, repeat=j + 1)
            if all(step(v, w) for v, w in zip(ch, ch[1:]))
        ]
        expected = sorted((tuple(a for a, _ in ch), tuple(l for _, l in ch)) for ch in chains)
        assert list(fib.fiber.cells[j]) == expected


def test_fiber_of_degenerate_simplex_factors():
    c = z2_groupoid().base
    ident = ("*", "*", "e")
    degenerate = quillen_fiber(c, 3, 3, (ident,), 1)
    vertex = quillen_fiber(c, 3, 3, "*", 0)
    assert degenerate.fiber.cells == vertex.fiber.cells
    assert degenerate.degree == 0


def test_fiber_with_identity_composite():
    # chains whose composite collapses to an identity enlarge the fiber but
    # leave it contractible
    c = z2_groupoid().base
    sigma = ("*", "*", "s")
    fib = quillen_fiber(c, 3, 3, (sigma, sigma), 2)
    assert contractibility_report(fib, 2).ok


def test_all_fibers_interval():
    checked, violations = all_fibers_contractible(ordinal(1), 3, 3)
    assert checked == 14
    assert violations == []


def per_cell_sweep(c, N, D, d):
    """The fiber sweep without reuse: one fiber, target and report per cell."""
    ner = nerve(c, D)
    violations = []
    checked = 0
    for k in range(D + 1):
        for cell in ner.cells[k]:
            fib = comparison.quillen_fiber(c, N, D, cell, k)
            rep = comparison.contractibility_report(fib, d)
            checked += 1
            for v in rep.violations:
                violations.append(Violation(v.law, (k, cell) + v.witness, v.detail))
    return checked, violations


def random_poset(seed, n):
    """Transitive closure of a seeded random DAG on 0..n-1."""
    rng = random.Random(seed)
    above = {x: {x} | {y for y in range(x + 1, n) if rng.random() < 0.5} for x in range(n)}
    for y in reversed(range(n)):
        for x in range(y):
            if y in above[x]:
                above[x] |= above[y]
    mor = {(x, y): (x, y, "le") for x in range(n) for y in above[x]}
    compose = {(mor[(x, y)], mor[(y, z)]): mor[(x, z)] for (x, y) in mor for z in above[y]}
    return FinCategory(
        range(n),
        [(m, x, y) for (x, y), m in mor.items()],
        {x: mor[(x, x)] for x in range(n)},
        compose,
    )


SWEEP_CASES = {
    "ordinal-1": ordinal(1),
    "ordinal-2": ordinal(2),
    "z2": z2_groupoid().base,
    "idempotent-monoid": idempotent_monoid_category(),
    "poset-seed-0": random_poset(0, 4),
    "poset-seed-1": random_poset(1, 4),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_fiber_sweep_matches_per_cell_reference(name):
    cat = SWEEP_CASES[name]
    assert all_fibers_contractible(cat, 2, 3) == per_cell_sweep(cat, 2, 3, 2)


@pytest.mark.parametrize("name", ["ordinal-2", "z2", "idempotent-monoid"])
def test_fiber_sweep_repeats_core_witness_on_every_cell(monkeypatch, name):
    cat = SWEEP_CASES[name]
    original = comparison.contractibility_report

    def fails_on_edges(fiber, d):
        rep = original(fiber, d)
        if fiber.degree == 1:
            rep.violations.append(Violation("fiber-contractible", (1,), "forced"))
        return rep

    monkeypatch.setattr(comparison, "contractibility_report", fails_on_edges)
    ner = nerve(cat, 3)
    edge_cells = [
        (k, cell)
        for k in range(4)
        for cell in ner.cells[k]
        if k > 0 and sum(not cat.is_identity(f) for f in cell) == 1
    ]
    checked, violations = all_fibers_contractible(cat, 2, 3)
    assert edge_cells
    assert [v for v in violations if v.detail == "forced"] == [
        Violation("fiber-contractible", (k, cell, 1), "forced") for k, cell in edge_cells
    ]
    assert (checked, violations) == per_cell_sweep(cat, 2, 3, 2)


def test_tau_point_hits_stage_one():
    ner = nerve(terminal_category(), 1)
    tau = tau_chain_map(ner, 2, 1)
    col = tau.matrices[0].column(0)
    hits = {tau.target.basis[0][i]: v for i, v in enumerate(col) if v}
    assert hits == {(0, (1,)): 1}


def s3_action_groupoid():
    """S_3 acting on {0, 1, 2}: 3 objects and 18 arrows (x, g(x), g).  It is
    connected with stabilizer Z/2, so it is equivalent to Z/2."""
    perms = list(permutations(range(3)))

    def arrow(g, x):
        return (x, g[x], g)

    def after(h, g):
        return tuple(h[g[i]] for i in range(3))

    arrows = [(arrow(g, x), x, g[x]) for g in perms for x in range(3)]
    identity = {x: arrow(perms[0], x) for x in range(3)}
    compose = {
        (arrow(g, x), arrow(h, g[x])): arrow(after(h, g), x)
        for g in perms
        for h in perms
        for x in range(3)
    }
    inverse = {
        arrow(g, x): arrow(h, g[x])
        for g in perms
        for h in perms
        if after(h, g) == perms[0]
        for x in range(3)
    }
    return FinGroupoid(FinCategory(range(3), arrows, identity, compose), inverse)


def test_action_groupoid_matches_its_stabilizer():
    g = s3_action_groupoid()
    assert check_groupoid(g) == []
    c = g.base
    assert (len(c.objects), len(c.morphisms)) == (3, 18)
    # closed form H_*(BZ/2) through degree 3
    expected = [(1, ()), (0, (2,)), (0, ()), (0, (2,))]
    ner = nerve(c, 4)
    for chains in (fat_chains(ner), geometric_chains(ner)):
        assert [homology(chains, k).group() for k in range(4)] == expected
    assert quasi_iso_through(projection_pi(c, 3, 3), 2).ok
    assert all_fibers_contractible(c, 2, 2, 1)[1] == []
    assert pi_tau_homology_check(c, 3, 2, 1).ok
