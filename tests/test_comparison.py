import json
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

import fatcat.comparison as comparison
import fatcat.cone as cone
from fatcat.cli import _quasi_iso_result, suite_tom_dieck
from fatcat.comparison import (
    CommaFiber,
    all_fibers_contractible,
    apply_operator,
    contractibility_report,
    dismantle,
    pi_tau_homology_check,
    projection_map,
    projection_pi,
    quillen_fiber,
    replay_dismantling,
    rho_witnesses,
    subdivision_chain_operator,
    subdivision_commutes,
    tau_chain_map,
)
from fatcat.cone import (
    check_face_tables,
    check_map_tables,
    cone_certifies,
    projection_cone_certifies,
)
from fatcat.errors import EnumerationLimitError, StructureError, Violation
from fatcat.fincat import (
    FinCategory,
    FinGroupoid,
    category_from_json,
    check_groupoid,
    mid,
    ordinal,
    unravel,
)
from fatcat.fixtures import (
    cyclic_groupoid,
    idempotent_monoid_category,
    pair_groupoid,
    standard_categories,
    terminal_category,
    z2_groupoid,
)
from fatcat.homology import (
    IntegerChainComplex,
    fat_chains,
    geometric_chains,
    homology,
    induced_map,
    quasi_iso_through,
)
from fatcat.intlinalg import IntMatrix
from fatcat.simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    TruncatedSimplicialSet,
    chain_composites,
    chain_count,
    nerve,
)

import oracles
from oracles import (
    BarycentricPoint,
    _nondegenerate_factorization,
    apply,
    betti_torsion,
    cell_index,
    column,
    nerve_level_fiber,
    nondegenerate,
    oracle_core_pattern,
    oracle_homology,
    oracle_tom_dieck,
    poset_category,
    random_poset,
    rho_evaluate,
)
from test_cli import fiber_sweep_cases
from test_simpset import record_builds


def test_projection_terminal_is_h0_iso():
    pi = projection_pi(terminal_category(), 3, 2)
    rep = quasi_iso_through(pi, 1)
    assert rep.ok
    assert betti_torsion(rep.degrees[0].target) == (1, ())


def test_projection_sends_generator_to_first_factor():
    f = projection_map(z2_groupoid().base, 3, 2)
    sigma = ("*", "*", "s")
    assert apply(f, 2, ((sigma, sigma), (0, 1, 2))) == (sigma, sigma)


def test_projection_flip_group_quasi_iso():
    pi = projection_pi(z2_groupoid().base, 6, 4)
    rep = quasi_iso_through(pi, 2)
    assert rep.ok
    assert [betti_torsion(c.source) for c in rep.degrees] == [(1, ()), (0, (2,)), (0, ())]


TOM_DIECK_CATEGORIES = {**standard_categories(),
                        **{f"z{n}": cyclic_groupoid(n).base for n in (3, 4, 5)}}


def canonical(result):
    """A suite result as the exit verdict and the bytes its command prints."""
    ok, payload = result
    return ok, json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(TOM_DIECK_CATEGORIES))
def test_tom_dieck_matches_its_presentation_oracle(monkeypatch, name):
    """Over N <= 5, D <= 4, d < D and N >= d + 1, ``verify tom-dieck``
    prints what comparing presentations on the projection built through D
    prints, byte for byte.  Every cone certifies but the idempotent
    monoid's at d >= 1, so its runs reach the fallback."""
    c = TOM_DIECK_CATEGORIES[name]
    verdicts = []
    certifies = cone.projection_cone_certifies
    monkeypatch.setattr(cone, "projection_cone_certifies", lambda proj, s, chains, d:
                        verdicts.append(certifies(proj, s, chains, d)) or verdicts[-1])
    for D in range(1, 5):
        for d in range(D):
            for N in range(d + 1, 6):
                want = canonical(_quasi_iso_result(oracle_tom_dieck(c, N, D, d)))
                assert canonical(suite_tom_dieck(c, N, D, d)) == want, (N, D, d)
    assert len(verdicts) == 40
    assert (False in verdicts) == (name == "idempotent-monoid")


def test_tom_dieck_builds_the_product_through_d_plus_one(monkeypatch):
    """Z/2 at N = 8, D = 4, d = 2: the nerve is built through d + 2 = 4,
    and the stage complex and the stage product through d + 1 = 3, where
    the product has 1,425 of its 3,441 cells at D.  π maps the product
    into the nerve itself, so no copy of the nerve is built."""
    built = record_builds(monkeypatch, SemiSimplicialSet)
    assert suite_tom_dieck(z2_groupoid().base, 8, 4, 2)[0]
    counts = [[len(level) for level in x.cells] for x in built]
    assert counts == [[1, 2, 4, 8, 16], [9, 36, 84, 126], [9, 72, 336, 1008]]


def test_certified_tom_dieck_audits_the_nerve_once(monkeypatch):
    """Z/2 at N = 8, D = 4, d = 2: a certified run checks dd = 0 on the
    tables of the stage product alone.  The nerve's dd = 0 is checked once,
    when its fat chains are built, and the cone and the report share
    those chains."""
    checked, built = [], []
    check = cone.check_face_tables
    monkeypatch.setattr(cone, "check_face_tables",
                        lambda x, top: checked.append((x, top)) or check(x, top))
    init = IntegerChainComplex.__init__
    monkeypatch.setattr(IntegerChainComplex, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    assert suite_tom_dieck(z2_groupoid().base, 8, 4, 2)[0]
    assert [(list(map(len, x.cells)), top) for x, top in checked] == [([9, 72, 336, 1008], 3)]
    assert [list(map(len, cx.basis)) for cx in built] == [[1, 2, 4, 8, 16]]


CONE_CATEGORIES = {**standard_categories(),
                   **{f"z{n}": cyclic_groupoid(n).base for n in (3, 4, 5)}}


@pytest.mark.parametrize("name", sorted(CONE_CATEGORIES))
def test_projection_cone_reads_tables_as_the_matrix_cone(name):
    """The table cone of π and :func:`cone_certifies` on π's matrices give
    the same verdict over 1 <= D <= 5, d < D and 1 <= N <= 6, N < d + 1
    included, within the default budget: 899 cases over the ten
    categories, all 90 but one of Z/5's."""
    c = CONE_CATEGORIES[name]
    verdicts = []
    for D in range(1, 6):
        for d in range(D):
            for N in range(1, 7):
                try:
                    proj, s = comparison.stage_projection(nerve(c, max(D, d + 2)), N, d + 1)
                except EnumerationLimitError:
                    continue
                verdict = projection_cone_certifies(proj, s, fat_chains(proj.target), d)
                assert verdict == cone_certifies(induced_map(proj), d), (N, D, d)
                verdicts.append(verdict)
    assert len(verdicts) == (89 if name == "z5" else 90)
    # only the contractible nerves clear every cone; elsewhere too few
    # stages leave homology, and the idempotent monoid's cone stalls
    assert True in verdicts
    assert (False in verdicts) == (name not in ("ordinal-1", "terminal"))


def doctor_face(x, k, i, p, q):
    x.faces[k][i][p] = q


def swap_faces(x, k, i, j):
    x.faces[k][i], x.faces[k][j] = x.faces[k][j], x.faces[k][i]


def doctor_map(f, k, p, q):
    f.maps[k][p] = q


@pytest.mark.parametrize("name, N, d, doctor, message", [
    # a product face, a face of x and π's table, each changed after its
    # audit, break dd = 0 or commutation for both readers alike; a face of
    # x is refused when x's fat chains are built, before either cone
    ("z2", 3, 1, lambda proj: doctor_face(proj.source, 2, 0, 0, 1),
     "dd != 0 between degrees 2 and 0"),
    ("z2", 3, 1, lambda proj: doctor_face(proj.target, 3, 1, 0, 3),
     "dd != 0 between degrees 3 and 1"),
    ("z2", 3, 1, lambda proj: doctor_map(proj, 2, 0, 3),
     "chain map does not commute with boundary 2"),
    # d_0 and d_1 of the product's edges traded: -d_1, so dd = 0 still holds
    ("ordinal-2", 3, 1, lambda proj: swap_faces(proj.source, 1, 0, 1),
     "chain map does not commute with boundary 1"),
])
def test_table_checks_raise_the_matrix_messages(name, N, d, doctor, message):
    c = CONE_CATEGORIES[name]
    proj, s = comparison.stage_projection(nerve(c, d + 2), N, d + 1)
    doctor(proj)
    with pytest.raises(StructureError, match=message):
        projection_cone_certifies(proj, s, fat_chains(proj.target), d)
    with pytest.raises(StructureError, match=message):
        cone_certifies(induced_map(proj), d)


@pytest.mark.parametrize("N, doctor, message", [
    # Z/2 through d + 1 = 1 has no boundary in degree 1, so π's commutation
    # cannot see an edge sent over the other nerve edge
    (2, lambda proj: doctor_map(proj, 1, 0, 1 - proj.maps[1][0]),
     "π's map leaves the stage product's layout in degree 1"),
    # at N = 1 the product has no 2-cell whose dd could see an edge's face
    # moved to the other stage over the same object
    (1, lambda proj: doctor_face(proj.source, 1, 0, 0, 1 - proj.source.faces[1][0][0]),
     "a product face leaves its layout in degree 1"),
])
def test_table_cone_reads_only_the_layout(N, doctor, message):
    """The cone reads cofaces off the factors' tables, so it refuses a
    product or a π that is not laid out from them, even where dd = 0 and
    commutation hold."""
    proj, s = comparison.stage_projection(nerve(z2_groupoid().base, 2), N, 1)
    doctor(proj)
    check_face_tables(proj.source, 1)
    check_map_tables(proj, 1)
    with pytest.raises(StructureError, match=message):
        projection_cone_certifies(proj, s, fat_chains(proj.target), 0)


def test_table_cone_sums_each_nerve_column(monkeypatch):
    """A cell of the nerve can repeat a face.  In the nerve of Z/2 the edge
    e has d_0 = d_1, a coefficient of 0, so it has no face at all, and
    (s, s) has d_0 = d_2 = s, a coefficient of 2.  The cone counts only the
    faces whose summed coefficient is nonzero and pairs a nerve cell only
    across a coefficient of +-1."""
    engine = cone.coreduction_clears
    asked = []

    def spy(count, face_sum, top, unit, cofaces):
        asked.append((bytes(count), list(face_sum)))

        def recorded(t, b):
            asked.append((t, b, unit(t, b)))
            return asked[-1][2]

        return engine(count, face_sum, top, recorded, cofaces)

    monkeypatch.setattr(cone, "coreduction_clears", spy)
    d, ner = 2, nerve(z2_groupoid().base, 4)
    proj, s = comparison.stage_projection(ner, 5, d + 1)
    assert projection_cone_certifies(proj, s, fat_chains(ner), d)
    (count, face_sum), *pairs = asked
    # the nerve's k-cells start after the cells of degree < k
    starts = [sum(ner.n_cells(j) + proj.source.n_cells(j) for j in range(k)) for k in range(5)]
    coefficients = Counter()
    for k in range(1, 5):
        for b in range(ner.n_cells(k)):
            column = Counter()
            for i, table in enumerate(ner.faces[k]):
                column[starts[k - 1] + table[b]] += (-1) ** i
            coefficients.update(column.values())
            faces = [t for t, coeff in column.items() if coeff]
            assert (count[starts[k] + b], face_sum[starts[k] + b]) == (len(faces), sum(faces))
            for t, cell, unit in pairs:
                if cell == starts[k] + b:
                    assert unit == (abs(column[t]) == 1) and column[t]
    assert coefficients[0] and coefficients[2]
    assert any(not unit for _, _, unit in pairs)


def subdivision_operator(n):
    """Top-degree subdivision matrix: the fundamental cell to its flags."""
    _, _, mats = subdivision_chain_operator(n)
    return mats[n]


def test_subdivision_point_is_identity():
    assert subdivision_operator(0) == IntMatrix([[1]], 1)


def test_subdivision_interval_signs():
    simp, flags, mats = subdivision_chain_operator(1)
    top = mats[1]
    col = column(top, 0)
    idx = {cell: i for i, cell in enumerate(flags.basis[1])}
    assert col[idx[((0,), (0, 1))]] == 1
    assert col[idx[((1,), (0, 1))]] == -1
    assert subdivision_commutes(1) == []


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_subdivision_boundary_identity(n):
    assert subdivision_commutes(n) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subdivision_boundary_fails_on_a_flipped_sign(monkeypatch, n):
    """One maximal flag of the n-simplex with the wrong sign breaks the
    boundary identity in degree n only."""
    original = comparison.maximal_flags

    def flipped(k):
        flags = original(k)
        if k == n:
            flags[0] = (flags[0][0], -flags[0][1])
        return flags

    monkeypatch.setattr(comparison, "maximal_flags", flipped)
    assert subdivision_commutes(n) == [Violation("subdivision-boundary", (n, n))]


def test_subdivision_boundary_names_each_failing_degree(monkeypatch):
    """Sd doubled in degrees 0 and 3 of the 3-simplex breaks the square
    of d_1 and that of d_3, and only those."""
    original = comparison.subdivision_chain_operator

    def doubled(n):
        simp, flags, mats = original(n)
        for k in (0, n):
            mats[k] = IntMatrix([[2 * x for x in row] for row in mats[k].rows], mats[k].ncols)
        return simp, flags, mats

    monkeypatch.setattr(comparison, "subdivision_chain_operator", doubled)
    assert subdivision_commutes(3) == [
        Violation("subdivision-boundary", (3, 1)), Violation("subdivision-boundary", (3, 3))]


def test_apply_operator_collapse():
    ner = nerve(z2_groupoid().base, 2)
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    p = cell_index(ner, 1)[(sigma,)]
    # constant map [1] -> [1] at vertex 1 collapses the flip to s0 d0
    assert ner.cells[1][apply_operator(ner, 1, (1, 1))[p]] == (ident,)
    assert ner.cells[1][apply_operator(ner, 1, (0, 1))[p]] == (sigma,)


def flag_section(c, N, D):
    """The flag section of the stage projection of c's nerve."""
    proj = projection_map(c, N, D)
    return tau_chain_map(proj, induced_map(proj), N)


def test_tau_on_flip_generator():
    tau = flag_section(z2_groupoid().base, 4, 3)
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    src = tau.source
    j = src.basis[1].index((sigma,))
    col = column(tau.matrices[1], j)
    hits = {
        tau.target.basis[1][i]: v for i, v in enumerate(col) if v
    }
    assert hits == {((sigma,), (1, 2)): 1, ((ident,), (1, 2)): -1}


def test_tau_boundary_identity_is_exact():
    tau = flag_section(ordinal(1), 3, 2)
    for k in range(1, 3):
        left = tau.target.boundary[k].mul(tau.matrices[k])
        right = tau.matrices[k - 1].mul(tau.source.boundary[k])
        assert left == right


def test_tau_needs_enough_stages():
    with pytest.raises(StructureError, match="need N >= D"):
        flag_section(ordinal(1), 2, 2)


def test_tau_lands_on_the_projection_complexes():
    proj = projection_map(ordinal(1), 3, 2)
    pi = induced_map(proj)
    tau = tau_chain_map(proj, pi, 3)
    assert tau.source is pi.target
    assert tau.target is pi.source
    # the stage count must be the projection's
    with pytest.raises(StructureError, match="another N"):
        tau_chain_map(proj, pi, 4)


def test_pi_tau_fixes_homology_terminal():
    rep = pi_tau_homology_check(terminal_category(), 2, 1, 0)
    assert rep.ok


def test_pi_tau_fixes_homology_interval():
    rep = pi_tau_homology_check(ordinal(1), 4, 3, 1)
    assert rep.ok
    assert [betti_torsion(c.source) for c in rep.degrees] == [(1, ()), (0, ())]


def test_pi_tau_fixes_homology_flip_group():
    rep = pi_tau_homology_check(z2_groupoid().base, 6, 4, 2)
    assert rep.ok
    assert [betti_torsion(c.source) for c in rep.degrees] == [(1, ()), (0, (2,)), (0, ())]


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
    "cat, cells, cores, patterns",
    [(ordinal(2), 34, 7, 3), (cyclic_groupoid(3).base, 40, 15, 8)],
    ids=["ordinal-2", "z3"],
)
def test_fiber_sweep_builds_once_per_core(monkeypatch, cat, cells, cores, patterns):
    # a core is a nondegenerate cell, and Z/3 has two edges on one object pair
    assert sum(len(nondegenerate(nerve(cat, 3), k)) for k in range(4)) == cores
    audits = count_audits(monkeypatch)
    calls = Counter()
    for name in ("nerve", "require_category", "quillen_fiber", "_fiber_shape", "_check_order",
                 "contractibility_report"):
        original = getattr(comparison, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(comparison, name, counted)
    checked, violations = all_fibers_contractible(cat, 3, 3, 2)
    assert (checked, violations) == (cells, [])
    # C's nerve and law audit once; per pattern one fiber: P's up-sets,
    # their budget check and order audit and their dismantling, and nothing
    # per core
    assert calls == {"nerve": 1, "require_category": 1, "quillen_fiber": patterns,
                     "_fiber_shape": patterns, "_check_order": patterns,
                     "contractibility_report": patterns}
    # the nerve of C is the one simplicial object, audited exactly once
    assert len({obj for obj, _ in audits}) == 1
    assert set(audits.values()) == {1}


def count_numberings(monkeypatch):
    """The categories numbered from now on, one entry per numbering built;
    the attribute keeps its own caching."""
    numbered = []
    attribute = vars(FinCategory)["numbering"]
    number = attribute.func
    monkeypatch.setattr(attribute, "func", lambda c: numbered.append(c) or number(c))
    return numbered


@pytest.mark.parametrize(
    "make, cores, patterns",
    [(lambda: ordinal(2), 7, 3), (lambda: ordinal(4), 30, 4),
     (lambda: cyclic_groupoid(3).base, 15, 8)],
    ids=["ordinal-2", "ordinal-4", "z3"],
)
def test_fiber_sweep_numbers_each_category_once(monkeypatch, make, cores, patterns):
    """C is the one category numbered, for its nerve and its law audit,
    and no category is built, however many cores and patterns there are:
    neither unravel(C, N) nor any P or [m]."""
    cat = make()
    shapes = []
    original = comparison._fiber_shape
    monkeypatch.setattr(comparison, "_fiber_shape",
                        lambda *args: shapes.append(original(*args)) or shapes[-1])
    numbered = count_numberings(monkeypatch)
    categories = record_builds(monkeypatch, FinCategory)
    assert all_fibers_contractible(cat, 3, 3, 2)[1] == []
    assert len(shapes) == patterns
    assert len(numbered) == 1 and numbered[0] is cat
    assert categories == []
    assert sum(len(nondegenerate(nerve(cat, 3), k)) for k in range(4)) == cores


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


def core_simplex(c, D, cell, k):
    """``nerve(ordinal(m), D)`` for the core degree m of a nerve cell, the
    codomain of its nerve-level fiber's ``to_simplex`` leg."""
    objects, _ = _nondegenerate_factorization(c, k, cell)
    return nerve(ordinal(len(objects) - 1), D)


def fiber(c, N, D, cell, k):
    """The comma fiber of a nerve cell."""
    return comparison.quillen_fiber(c, N, D, cell, k)


def fiber_nerve(fib):
    """The comma fiber itself: the nerve of the pullback category, built
    from its up-sets."""
    return nerve(poset_category(fib.steps), fib.D)


def test_fiber_over_vertex_is_stage_poset_nerve():
    c = pair_groupoid().base
    fib = fiber(c, 3, 3, "a", 0)
    reference = nerve(ordinal(3), 3)
    counts = [fiber_nerve(fib).n_cells(k) for k in range(4)]
    assert counts == [reference.n_cells(k) for k in range(4)]
    assert contractibility_report(fib, 2) == []


def test_fiber_over_interval_simplex():
    c = ordinal(1)
    fib = fiber(c, 3, 3, ((0, 1, "le"),), 1)
    reference = nerve(unravel(c, 3), 3)
    assert [fiber_nerve(fib).n_cells(k) for k in range(4)] == [
        reference.n_cells(k) for k in range(4)
    ]
    assert contractibility_report(fib, 2) == []
    chains = geometric_chains(fiber_nerve(fib))
    for k in range(3):
        assert oracle_homology(chains, k) == betti_torsion(homology(chains, k))


def test_fiber_refuses_a_wrong_target():
    c = ordinal(1)
    edge = ((0, 1, "le"),)
    # the nerve-level reference refuses a leg codomain with another N or D
    simplex = nerve(ordinal(1), 2)
    target = nerve(unravel(c, 3), 2)
    assert nerve_level_fiber(c, 3, 2, edge, 1, target, simplex, {}).to_unraveled.target is target
    for wrong in (nerve(unravel(c, 2), 2), nerve(unravel(c, 3), 3)):
        with pytest.raises(StructureError):
            nerve_level_fiber(c, 3, 2, edge, 1, wrong, simplex, {})


FIBER_CORES = {
    "vertex": (pair_groupoid().base, "a", 0),
    "edge": (ordinal(1), ((0, 1, "le"),), 1),
    # the composite s o s is an identity, so equal stages may follow it
    "z2-ss": (z2_groupoid().base, (("*", "*", "s"), ("*", "*", "s")), 2),
}


def test_fiber_is_refused_before_any_cell_is_built(monkeypatch):
    built = record_builds(monkeypatch)
    # P: 78 points, 2,054 arrows and 30,680 composable pairs
    categories = record_builds(monkeypatch, FinCategory)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    c, cell, k = FIBER_CORES["z2-ss"]
    with pytest.raises(EnumerationLimitError, match="^pullback category needs 32812 cells"):
        quillen_fiber(c, 25, 4, cell, k)
    assert built == []
    assert categories == []


@pytest.mark.parametrize("name", sorted(FIBER_CORES))
def test_fiber_budget_counts_every_cell(monkeypatch, name):
    c, cell, k = FIBER_CORES[name]
    fib = quillen_fiber(c, 3, 3, cell, k)
    # P's objects, arrows and composition table, its chains through degree 2
    pullback = poset_category(fib.steps)
    total = len(pullback.objects) + len(pullback.morphisms) + len(pullback.table)
    assert total == sum(chain_count(fib.steps, 2))
    built = record_builds(monkeypatch)
    categories = record_builds(monkeypatch, FinCategory)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total))
    quillen_fiber(c, 3, 3, cell, k)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total - 1))
    with pytest.raises(EnumerationLimitError, match=f"needs {total} cells"):
        quillen_fiber(c, 3, 3, cell, k)
    # no category and no nerve, from the run inside the budget either
    assert categories == []
    assert built == []


# ---------------------------------------------------------------------------
# Mutations: what the nerve audits of the reference catch, the order audit
# of P's up-sets catches


def fiber_levels(c, cell, k, N=2, D=3):
    """The comma fiber of one core built both ways, as two thunks: the
    package's up-sets with their order audit, and the nerve-level
    reference with its audited nerve and legs.  Also returns the
    reference's simplex."""
    simplex = core_simplex(c, D, cell, k)
    target = nerve(unravel(c, N), D)
    return (lambda: quillen_fiber(c, N, D, cell, k),
            lambda: nerve_level_fiber(c, N, D, cell, k, target, simplex, {}),
            simplex)


def drop_a_transitive_step(steps):
    """The first step u -> w that the steps u -> v -> w, v neither u nor
    w, compose to, removed."""
    u, w = next((u, w) for u, ws in steps.items() for v in ws if v != u
                for w in steps[v] if w not in (u, v))
    return {**steps, u: [x for x in steps[u] if x != w]}


def drop_a_reflexive_step(steps):
    """The first point's step to itself removed."""
    v = next(iter(steps))
    return {**steps, v: steps[v][1:]}


def lower_the_core_vertex(steps):
    """A step (1, 1) -> (0, 1): the stage stays and the core vertex falls."""
    return {**steps, (1, 1): [(0, 1)] + steps[(1, 1)]}


def lower_the_stage(steps):
    """A step (0, 1) -> (0, 0): the core vertex stays and the stage falls."""
    return {**steps, (0, 1): [(0, 0)] + steps[(0, 1)]}


def assert_doctored_steps_are_caught(monkeypatch, doctor, message):
    """With ``doctor`` applied to P's up-sets of the edge core, the package's
    order audit raises ``message`` and the nerve of the reference's P,
    built from the same up-sets, is refused too."""
    c, cell, k = FIBER_CORES["edge"]
    category_level, nerve_level, _ = fiber_levels(c, cell, k)
    category_level()
    nerve_level()
    with monkeypatch.context() as m:
        check, build = comparison._check_order, oracles.poset_category
        m.setattr(comparison, "_check_order", lambda steps: check(doctor(steps)))
        m.setattr(oracles, "poset_category", lambda steps: build(doctor(steps)))
        with pytest.raises(StructureError, match=message):
            category_level()
        with pytest.raises(StructureError):
            nerve_level()


def test_a_doctored_composite_of_P_is_caught_at_both_levels(monkeypatch):
    """P's composites are its transitive steps and its identities its
    reflexive steps: dropping either is refused."""
    assert_doctored_steps_are_caught(monkeypatch, drop_a_transitive_step,
                                     "^P misses a transitive step")
    assert_doctored_steps_are_caught(monkeypatch, drop_a_reflexive_step,
                                     "^P misses a reflexive step, e.g. \\(0, 0\\)")


def test_a_doctored_unraveled_arrow_is_caught_at_both_levels(monkeypatch):
    # the package builds no projection onto unravel(C, N), so only the
    # nerve-level reference has a lift to doctor
    c, cell, k = FIBER_CORES["edge"]
    _, nerve_level, _ = fiber_levels(c, cell, k)
    nerve_level()

    def wrong_stage(c, f, i, j):
        # every step from stage 0 to 1 lands at stage 2
        return mid(c, f, i, 2 if (i, j) == (0, 1) else j)

    monkeypatch.setattr(oracles, "mid", wrong_stage)
    with pytest.raises(StructureError, match="structure maps do not commute"):
        nerve_level()


def test_a_doctored_simplex_image_is_caught_at_both_levels(monkeypatch):
    """A step that lowers the core vertex has no image under the
    projection onto [m], and one that lowers the stage has no lift into
    unravel(C, N): each is refused before the transitivity it also
    breaks."""
    message = "^a step of P leaves the product order of \\[m\\] x \\[N\\], e.g. "
    assert_doctored_steps_are_caught(monkeypatch, lower_the_core_vertex,
                                     message + "\\(\\(1, 1\\), \\(0, 1\\)\\)")
    assert_doctored_steps_are_caught(monkeypatch, lower_the_stage,
                                     message + "\\(\\(0, 1\\), \\(0, 0\\)\\)")


@pytest.mark.parametrize("name", sorted(FIBER_CORES))
def test_fiber_cells_are_the_sorted_step_chains(name):
    """Each degree lists every chain of steps, sorted by its vertex
    sequence; a 0-cell is its vertex and a longer chain the tuple of its
    steps.  A step (a0, l0) -> (a1, l1) lowers neither entry, and keeps the
    stage only over an identity composite."""
    c, cell, k = FIBER_CORES[name]
    fib = fiber(c, 3, 3, cell, k)
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
        expected = [ch[0] if j == 0 else tuple(zip(ch, ch[1:])) for ch in sorted(chains)]
        assert list(fiber_nerve(fib).cells[j]) == expected


def test_fiber_with_identity_composite():
    # chains whose composite collapses to an identity enlarge the fiber but
    # leave it contractible
    c = z2_groupoid().base
    sigma = ("*", "*", "s")
    fib = fiber(c, 3, 3, (sigma, sigma), 2)
    assert contractibility_report(fib, 2) == []


def test_all_fibers_interval():
    checked, violations = all_fibers_contractible(ordinal(1), 3, 3, 2)
    assert checked == 14
    assert violations == []


def core_of(c, k, cell):
    """The nondegenerate core of a nerve cell as (degree, cell), found by
    scanning its arrows for identities."""
    objects, arrows = _nondegenerate_factorization(c, k, cell)
    return (0, objects[0]) if not arrows else (len(arrows), arrows)


def per_cell_sweep(c, N, D, d):
    """The fiber sweep without reuse: one fiber and report per cell, each
    built from the cell's core as the identity scan finds it."""
    ner = nerve(c, D)
    violations = []
    checked = 0
    for k in range(D + 1):
        for cell in ner.cells[k]:
            m, core = core_of(c, k, cell)
            fib = fiber(c, N, D, core, m)
            checked += 1
            for v in comparison.contractibility_report(fib, d):
                violations.append(Violation(v.law, (k, cell) + v.witness, v.detail))
    return checked, violations


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
    assert all_fibers_contractible(cat, 2, 3, 2) == per_cell_sweep(cat, 2, 3, 2)


@pytest.mark.parametrize("name", ["ordinal-2", "z2", "idempotent-monoid"])
def test_fiber_sweep_repeats_core_witness_on_every_cell(monkeypatch, name):
    cat = SWEEP_CASES[name]
    original = comparison.contractibility_report

    def fails_on_edges(fiber, d):
        violations = original(fiber, d)
        if fiber.degree == 1:
            violations.append(Violation("fiber-contractible", (1,), "forced"))
        return violations

    monkeypatch.setattr(comparison, "contractibility_report", fails_on_edges)
    ner = nerve(cat, 3)
    edge_cells = [
        (k, cell)
        for k in range(4)
        for cell in ner.cells[k]
        if k > 0 and sum(not cat.is_identity(f) for f in cell) == 1
    ]
    checked, violations = all_fibers_contractible(cat, 2, 3, 2)
    assert edge_cells
    assert [v for v in violations if v.detail == "forced"] == [
        Violation("fiber-contractible", (k, cell, 1), "forced") for k, cell in edge_cells
    ]
    assert (checked, violations) == per_cell_sweep(cat, 2, 3, 2)


def test_sweep_builds_one_fiber_per_pattern_from_a_nondegenerate_cell(monkeypatch, tmp_path):
    """The sweep passes ``quillen_fiber`` the first cell of each core
    pattern in cell order, once, and that cell is nondegenerate: on the
    sweep cases and on the fiber-sweep benchmark's categories."""
    runs = [(cat, 2, 3) for cat in SWEEP_CASES.values()]
    for case in fiber_sweep_cases(tmp_path):
        opts = dict(zip(case["argv"][2::2], case["argv"][3::2]))
        with open(opts["--input"]) as fh:
            runs.append((category_from_json(json.load(fh)), int(opts["--N"]), int(opts["--D"])))
    calls = []
    original = comparison.quillen_fiber

    def recording(c, N, D, y_cell, y_degree):
        calls.append((y_degree, y_cell))
        return original(c, N, D, y_cell, y_degree)

    monkeypatch.setattr(comparison, "quillen_fiber", recording)
    for cat, N, D in runs:
        calls.clear()
        all_fibers_contractible(cat, N, D, 2)
        ner = nerve(cat, D)
        first = {}
        for k in range(D + 1):
            for cell in ner.cells[k]:
                first.setdefault(oracle_core_pattern(cat, k, cell), (k, cell))
        assert calls == list(first.values())
        assert all(cell in nondegenerate(ner, k) for k, cell in calls)


def test_tau_point_hits_stage_one():
    tau = flag_section(terminal_category(), 2, 1)
    col = column(tau.matrices[0], 0)
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
        assert [betti_torsion(homology(chains, k)) for k in range(4)] == expected
    assert quasi_iso_through(projection_pi(c, 3, 3), 2).ok
    assert all_fibers_contractible(c, 2, 2, 1)[1] == []
    assert pi_tau_homology_check(c, 3, 2, 1).ok


# ---------------------------------------------------------------------------
# The beat-point certificate


def poset_steps(c):
    """The up-sets of a category with at most one arrow between two
    objects: steps[x] lists the targets of the arrows leaving x."""
    return {x: sorted(c.tgt[m] for m, s, _ in c.morphisms if s == x) for x in c.objects}


def poset_fiber(c):
    """A fiber record around a poset, truncated at D = 3, for the
    certificate and its fallback."""
    return CommaFiber(0, poset_steps(c), 3)


def crown():
    """The crown a, b < c, d, whose order complex is a circle: no point is
    a beat point, yet removing any point leaves a contractible poset."""
    le = [(x, x) for x in "abcd"] + [(x, y) for x in "ab" for y in "cd"]
    mor = {p: (*p, "le") for p in le}
    compose = {(mor[(x, y)], mor[(v, z)]): mor[(x, z)] for x, y in le for v, z in le if v == y}
    return FinCategory("abcd", [(m, x, y) for (x, y), m in mor.items()],
                       {x: mor[(x, x)] for x in "abcd"}, compose)


def is_beat_point(steps, live, x):
    """By brute force: the live points strictly above x have a minimum, or
    those strictly below it a maximum."""
    above = [y for y in live if y != x and y in steps[x]]
    below = [y for y in live if y != x and x in steps[y]]
    return (any(all(z in steps[w] for z in above) for w in above)
            or any(all(w in steps[z] for z in below) for w in below))


CERTIFIED = {
    **standard_categories(),
    **{f"z{n}": cyclic_groupoid(n).base for n in range(2, 6)},
    "s3-on-3": s3_action_groupoid().base,
    **{f"poset-seed-{seed}": random_poset(seed, 4) for seed in range(3)},
}
CONTRACTIBLE = [(1, ()), (0, ()), (0, ())]


def test_certificate_agrees_with_the_homology_oracle(monkeypatch):
    """Every fiber the sweep checks over the bundled categories and
    groupoids, Z/n for n = 2..5, S_3 on {0, 1, 2} and seeded posets, at
    D = 3 and N = 1, 2, 3: it dismantles to a point exactly when the sympy
    oracle finds its reduced homology zero through degree 2, and its report
    agrees.  Below N = 3 the stage cutoff cuts some fibers short, so both
    verdicts occur.  Fibers with the same steps are compared once."""
    verdicts = {}
    for name, c in CERTIFIED.items():
        for N in (1, 2, 3):
            fibers = []
            with monkeypatch.context() as m:
                m.setattr(comparison, "contractibility_report",
                          lambda fib, d: fibers.append(fib) or [])
                all_fibers_contractible(c, N, 3, 2)
            for fib in fibers:
                key = tuple((v, tuple(ws)) for v, ws in fib.steps.items())
                if key not in verdicts:
                    chains = geometric_chains(fiber_nerve(fib))
                    verdicts[key] = [oracle_homology(chains, k) for k in range(3)] == CONTRACTIBLE
                certified = replay_dismantling(fib.steps, dismantle(fib.steps))
                assert certified == verdicts[key], (name, N, fib.degree)
                assert (contractibility_report(fib, 2) == []) == verdicts[key]
    assert set(verdicts.values()) == {True, False}


def test_certificate_is_sound_on_random_posets():
    """A random poset that dismantles to a point has the reduced homology
    of a point, and the report, certificate or homology, matches the
    oracle on every poset."""
    outcomes = Counter()
    for seed in range(40):
        fib = poset_fiber(random_poset(seed, 6))
        chains = geometric_chains(fiber_nerve(fib))
        contractible = [oracle_homology(chains, k) for k in range(3)] == CONTRACTIBLE
        certified = replay_dismantling(fib.steps, dismantle(fib.steps))
        assert contractible or not certified, seed
        assert (contractibility_report(fib, 2) == []) == contractible, seed
        outcomes[certified, contractible] += 1
    assert outcomes[True, True] and outcomes[False, False]


def record_fallbacks(monkeypatch):
    """The bases that ``contractibility_report`` builds chains on, and the
    nerves it builds, as two lists."""
    bases, nerves = [], []
    chains, build = comparison.deletion_complex, comparison.nerve
    monkeypatch.setattr(comparison, "deletion_complex",
                        lambda basis: bases.append(basis) or chains(basis))
    monkeypatch.setattr(comparison, "nerve", lambda c, D: nerves.append(build(c, D)) or nerves[-1])
    return bases, nerves


def order_complex_cells(fib):
    """The strict chains of P through degree D, by degree: the vertex
    sequences of the nondegenerate cells of the fiber's nerve, sorted."""
    x = fiber_nerve(fib)
    return [sorted((cell,) if k == 0 else (cell[0][0],) + tuple(w for _, w in cell)
                   for cell in nondegenerate(x, k)) for k in range(fib.D + 1)]


def test_crown_reaches_the_homology_fallback(monkeypatch):
    fib = poset_fiber(crown())
    assert not any(is_beat_point(fib.steps, fib.steps, x) for x in fib.steps)
    assert dismantle(fib.steps) == []
    assert not replay_dismantling(fib.steps, [])
    bases, nerves = record_fallbacks(monkeypatch)
    assert contractibility_report(fib, 2) == [
        Violation("fiber-contractible", (1,), "H_1 = (1, ()), expected (0, ())")
    ]
    # the order complex of P, built only here, and no nerve
    assert bases == [order_complex_cells(fib)]
    assert bases[0][1] == [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    assert nerves == []


def test_order_complex_has_the_homology_of_the_nerve(monkeypatch):
    """On the crown and 300 seeded random posets of 1 to 8 points, sent to
    the fallback whether or not they dismantle, the order complex it builds
    has the homology of the geometric chains of the nerve of P through
    degree D - 1, at D = 3 and 4, and the report agrees with the latter."""
    complexes = []
    build = comparison.deletion_complex
    monkeypatch.setattr(comparison, "deletion_complex",
                        lambda basis: complexes.append(build(basis)) or complexes[-1])
    monkeypatch.setattr(comparison, "replay_dismantling", lambda steps, removals: False)
    posets = [poset_steps(crown())] + [poset_steps(random_poset(seed, 1 + seed % 8))
                                       for seed in range(300)]
    groups = Counter()
    for i, steps in enumerate(posets):
        D = 3 + i % 2
        violations = contractibility_report(CommaFiber(0, steps, D), D - 1)
        order = complexes.pop()
        chains = geometric_chains(nerve(poset_category(steps), D))
        want = [betti_torsion(homology(chains, k)) for k in range(D)]
        assert [betti_torsion(homology(order, k)) for k in range(D)] == want, i
        assert (violations == []) == (want == [(1, ())] + [(0, ())] * (D - 1)), i
        groups.update((k, h) for k, h in enumerate(want))
    assert complexes == []
    # both verdicts occur: a circle, and posets of two components
    assert groups[1, (1, ())] and groups[0, (2, ())]


def test_order_complex_budget_counts_every_strict_chain(monkeypatch):
    """The fallback counts the crown's strict chains through D = 2, its 4
    points and 4 steps a < c, and refuses one under that count before it
    lists any; at the count it builds the complex."""
    fib = CommaFiber(0, poset_steps(crown()), 2)
    count = sum(len(cells) for cells in order_complex_cells(fib))
    assert count == 8
    built = record_builds(monkeypatch, SemiSimplicialSet)
    bases, _ = record_fallbacks(monkeypatch)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(count - 1))
    with pytest.raises(EnumerationLimitError, match=f"^SemiSimplicialSet needs {count} cells"):
        contractibility_report(fib, 1)
    assert (built, bases) == ([], [])
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(count))
    assert contractibility_report(fib, 1) == [
        Violation("fiber-contractible", (1,), "H_1 = (1, ()), expected (0, ())")
    ]
    assert len(built) == len(bases) == 1


def test_replay_rejects_doctored_removals(monkeypatch):
    fib = fiber(ordinal(1), 2, 3, ((0, 1, "le"),), 1)
    steps = fib.steps
    removals = dismantle(steps)
    assert replay_dismantling(steps, removals)
    assert len(removals) == len(steps) - 1
    # every genuine removal is a beat point when it is made
    live = set(steps)
    for x, _ in removals:
        assert is_beat_point(steps, live, x)
        live.remove(x)
    # two points left
    assert not replay_dismantling(steps, removals[:-1])
    # a first removal that is not a beat point, whatever its witness, even
    # when the rest of the sequence dismantles what is left to a point
    doctored = Counter()
    for name, poset in (("fiber", steps), ("crown", poset_steps(crown()))):
        for x in poset:
            if is_beat_point(poset, poset, x):
                continue
            rest = {v: [u for u in ws if u != x] for v, ws in poset.items() if v != x}
            tail = dismantle(rest)
            if replay_dismantling(rest, tail):
                for w in poset:
                    assert not replay_dismantling(poset, [(x, w)] + tail)
                doctored[name] += 1
    assert doctored["fiber"] and doctored["crown"] == 4
    # a rejected sequence sends the report to the homology fallback
    bases, nerves = record_fallbacks(monkeypatch)
    monkeypatch.setattr(comparison, "dismantle", lambda s: removals[:-1])
    assert contractibility_report(fib, 2) == []
    assert bases == [order_complex_cells(fib)]
    assert nerves == []
