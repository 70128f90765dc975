import json
import random

import pytest

from fatcat.errors import StructureError
from fatcat.fincat import ordinal
from fatcat.fixtures import (
    cyclic_groupoid,
    pair_groupoid,
    standard_categories,
    terminal_category,
    z2_groupoid,
)
from fatcat.homology import (
    ChainMap,
    HomologyClasses,
    HomologyGroup,
    IntegerChainComplex,
    fat_chains,
    geometric_chains,
    homology,
    identity_on_homology_through,
    induced_map,
    normalization_projection,
    quasi_iso_through,
)
from fatcat.intlinalg import IntMatrix, _dense_smith, kernel_basis, smith
from fatcat.simpset import nerve, product_with_S, s_semisimplicial, simplicial_map

from oracles import oracle_homology, oracle_invariant_factors


def reference_flip_complex(D):
    """Normalized chains of the one-object flip groupoid: Z in each degree
    with boundaries alternating 0, 2, 0, 2, ...  An independent oracle for
    the classifying-space homology (Z, Z/2, 0, Z/2, ...)."""
    basis = [[("cell", k)] for k in range(D + 1)]
    boundary = {}
    for k in range(1, D + 1):
        boundary[k] = IntMatrix([[2 if k % 2 == 0 else 0]])
    return IntegerChainComplex(D, basis, boundary)


def test_smith_small_matrix():
    form = smith(IntMatrix([[2, 4], [6, 8]]), want_u=True, want_v=True)
    assert form.factors == [2, 4]
    recon = form.U.mul(IntMatrix([[2, 4], [6, 8]])).mul(form.V)
    assert recon.rows == [[2, 0], [0, 4]]


def test_smith_transforms_are_inverse():
    rng = random.Random(11)
    a = IntMatrix([[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)])
    form = smith(a, want_u=True, want_uinv=True, want_v=True, want_vinv=True)
    assert form.U.mul(form.Uinv) == IntMatrix.identity(4)
    assert form.Vinv.mul(form.V) == IntMatrix.identity(5)
    prev = None
    for d in form.factors:
        assert d > 0
        if prev:
            assert d % prev == 0
        prev = d


def test_kernel_basis_is_a_kernel():
    a = IntMatrix([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(a)
    assert ker.ncols == 2
    assert a.mul(ker).is_zero()


def test_fat_chains_stage_complex():
    cx = fat_chains(s_semisimplicial(2, 2))
    assert [cx.rank(k) for k in range(3)] == [3, 3, 1]
    assert homology(cx, 0).group() == (1, ())
    assert homology(cx, 1).group() == (0, ())
    for k in range(2):
        assert oracle_homology(cx, k) == homology(cx, k).group()


def test_fat_chains_point():
    cx = fat_chains(nerve(terminal_category(), 3))
    assert [cx.rank(k) for k in range(4)] == [1, 1, 1, 1]
    assert [homology(cx, k).group() for k in range(3)] == [(1, ()), (0, ()), (0, ())]


def test_boundary_squares_to_zero():
    cx = fat_chains(nerve(z2_groupoid().base, 3))
    assert cx.boundary[1].mul(cx.boundary[2]).is_zero()
    assert cx.boundary[2].mul(cx.boundary[3]).is_zero()


def test_flip_group_fat_homology_matches_reference_complex():
    cx = fat_chains(nerve(z2_groupoid().base, 5))
    ref = reference_flip_complex(5)
    for k in range(3):
        assert homology(cx, k).group() == homology(ref, k).group()
        assert homology(cx, k).group() == oracle_homology(cx, k)
    assert homology(cx, 0).group() == (1, ())
    assert homology(cx, 1).group() == (0, (2,))
    assert homology(cx, 2).group() == (0, ())


def test_geometric_chains_flip_group():
    cx = geometric_chains(nerve(z2_groupoid().base, 4))
    assert [cx.rank(k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert homology(cx, 1).group() == (0, (2,))


def test_geometric_chains_interval():
    cx = geometric_chains(nerve(ordinal(1), 2))
    assert [cx.rank(k) for k in range(3)] == [2, 1, 0]
    assert homology(cx, 0).group() == (1, ())
    assert homology(cx, 1).group() == (0, ())


def test_geometric_basis_has_no_degenerate_cells():
    ner = nerve(z2_groupoid().base, 3)
    cx = geometric_chains(ner)
    for k in range(4):
        for cell in cx.basis[k]:
            assert not ner.is_degenerate(k, cell)


def test_geometric_chains_need_degeneracies():
    with pytest.raises(StructureError):
        geometric_chains(s_semisimplicial(2, 2))


def test_homology_degree_out_of_range():
    cx = fat_chains(nerve(terminal_category(), 2))
    with pytest.raises(StructureError):
        homology(cx, 3)


def test_homology_edge_degree_flagged_unreliable():
    cx = fat_chains(nerve(z2_groupoid().base, 3))
    assert homology(cx, 2).reliable
    assert not homology(cx, 3).reliable


def test_homology_group_validates_divisor_chain():
    with pytest.raises(StructureError):
        HomologyGroup(1, 0, (3, 2))
    with pytest.raises(StructureError):
        HomologyGroup(1, 0, (1,))


def shuffle_complex(cx, seed):
    rng = random.Random(seed)
    perms = []
    for k in range(cx.D + 1):
        order = list(range(cx.rank(k)))
        rng.shuffle(order)
        perms.append(order)
    basis = [
        [cx.basis[k][i] for i in perms[k]] for k in range(cx.D + 1)
    ]
    boundary = {}
    for k in range(1, cx.D + 1):
        old = cx.boundary[k]
        mat = IntMatrix.zeros(old.nrows, old.ncols)
        inv_prev = {old_i: new_i for new_i, old_i in enumerate(perms[k - 1])}
        for j_new, j_old in enumerate(perms[k]):
            for i_old in range(old.nrows):
                mat.rows[inv_prev[i_old]][j_new] = old.rows[i_old][j_old]
        boundary[k] = mat
    return IntegerChainComplex(cx.D, basis, boundary)


def test_homology_independent_of_basis_order():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    shuffled = shuffle_complex(cx, seed=3)
    for k in range(4):
        assert homology(cx, k).group() == homology(shuffled, k).group()


def test_identity_map_is_quasi_iso():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    ident = ChainMap(cx, cx, [IntMatrix.identity(cx.rank(k)) for k in range(5)])
    rep = quasi_iso_through(ident, 3)
    assert rep.ok
    rep = identity_on_homology_through(ident, 3)
    assert rep.ok


def test_projection_is_quasi_iso_flip_group():
    ner = nerve(z2_groupoid().base, 4)
    s = s_semisimplicial(6, 4)
    prod = product_with_S(ner, s)
    maps = [{cell: cell[0] for cell in prod.cells[k]} for k in range(5)]
    pi = simplicial_map(prod, ner, lambda k, cell: maps[k][cell])
    rep = quasi_iso_through(induced_map(pi), 2)
    assert rep.ok
    groups = [c.target.group() for c in rep.degrees]
    assert groups == [(1, ()), (0, (2,)), (0, ())]


def test_chain_map_must_commute():
    cx = fat_chains(nerve(ordinal(1), 2))
    bad = [IntMatrix.identity(cx.rank(k)) for k in range(3)]
    bad[1] = IntMatrix.zeros(cx.rank(1), cx.rank(1))
    with pytest.raises(StructureError):
        ChainMap(cx, cx, bad)


def test_normalization_projection_is_quasi_iso():
    for cat in (ordinal(1), z2_groupoid().base, pair_groupoid().base):
        proj = normalization_projection(nerve(cat, 3))
        assert quasi_iso_through(proj, 2).ok


def test_normalized_inclusion_interval():
    """Hand-built section of the normalization for the interval nerve."""
    ner = nerve(ordinal(1), 2)
    fat = fat_chains(ner)
    geo = geometric_chains(ner)
    mats = []
    for k in range(3):
        idx = fat.index(k)
        m = IntMatrix.zeros(fat.rank(k), geo.rank(k))
        for j, cell in enumerate(geo.basis[k]):
            m.rows[idx[cell]][j] = 1
        mats.append(m)
    inclusion = ChainMap(geo, fat, mats)
    assert quasi_iso_through(inclusion, 1).ok


def test_geometric_equals_fat_homology():
    for cat in (ordinal(2), z2_groupoid().base, pair_groupoid().base):
        ner = nerve(cat, 3)
        fat = fat_chains(ner)
        geo = geometric_chains(ner)
        for k in range(3):
            assert homology(fat, k).group() == homology(geo, k).group()


def test_homology_classes_expose_generators():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    classes = HomologyClasses(cx, 1)
    assert classes.betti == 0 and classes.torsion == (2,)
    gen = classes.generators()[0]
    tor, free = classes.coords(gen)
    assert tor == (1,) and free == ()
    doubled = [2 * v for v in gen]
    assert classes.presentation.zero_class(doubled)


def test_quasi_iso_rejects_scalar_doubling():
    """Doubling every chain commutes with boundaries and matches betti and
    torsion, but is not surjective on the free part of homology."""
    from fatcat.fixtures import circle_complex
    from fatcat.cocycle import CoveredComplex, base_chain_complex

    cc = CoveredComplex(circle_complex(), [circle_complex()])
    cx = base_chain_complex(cc, D=2)
    doubling = ChainMap(
        cx,
        cx,
        [
            IntMatrix([[2 if i == j else 0 for j in range(cx.rank(k))]
                       for i in range(cx.rank(k))], ncols=cx.rank(k))
            for k in range(cx.D + 1)
        ],
    )
    rep = quasi_iso_through(doubling, 1)
    assert not rep.ok
    assert {v.witness[0] for v in rep.violations} == {0, 1}


def test_identity_check_rejects_sign_flip():
    from fatcat.fixtures import circle_complex
    from fatcat.cocycle import CoveredComplex, base_chain_complex

    cc = CoveredComplex(circle_complex(), [circle_complex()])
    cx = base_chain_complex(cc, D=2)
    negation = ChainMap(
        cx,
        cx,
        [
            IntMatrix([[-1 if i == j else 0 for j in range(cx.rank(k))]
                       for i in range(cx.rank(k))], ncols=cx.rank(k))
            for k in range(cx.D + 1)
        ],
    )
    assert quasi_iso_through(negation, 1).ok
    rep = identity_on_homology_through(negation, 1)
    assert not rep.ok


# ---------------------------------------------------------------------------
# Two-stage smith against the dense eliminator and sympy


def assert_smith_form(a):
    """Full transforms are valid and inverse, partial requests give the same
    matrices, and the factors match the dense eliminator and sympy."""
    form = smith(a, want_u=True, want_uinv=True, want_v=True, want_vinv=True)
    diag = IntMatrix.zeros(a.nrows, a.ncols)
    for i, d in enumerate(form.factors):
        diag.rows[i][i] = d
    assert form.U.mul(a).mul(form.V) == diag
    assert form.U.mul(form.Uinv) == IntMatrix.identity(a.nrows)
    assert form.V.mul(form.Vinv) == IntMatrix.identity(a.ncols)
    assert form.rank == len(form.factors)
    assert all(d > 0 for d in form.factors)
    assert all(e % d == 0 for d, e in zip(form.factors, form.factors[1:]))
    assert smith(a, want_u=True, want_uinv=True).U == form.U
    assert smith(a, want_v=True, want_vinv=True).Vinv == form.Vinv
    assert smith(a).factors == form.factors
    dense = _dense_smith(a, False, False, False, False)
    assert form.factors == dense.factors
    assert form.factors == oracle_invariant_factors(a)


def random_matrix(rng, rows, cols, values, density):
    return IntMatrix(
        [
            [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ],
        ncols=cols,
    )


@pytest.mark.parametrize("seed", range(8))
def test_smith_differential_sparse_units(seed):
    rng = random.Random(100 + seed)
    a = random_matrix(rng, rng.randint(4, 12), rng.randint(4, 12), (1, -1, 1, -1, 2), 0.3)
    assert_smith_form(a)


@pytest.mark.parametrize("seed", range(12))
def test_smith_matches_oracle_on_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    assert_smith_form(a)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_smith_differential_empty_and_zero(shape):
    a = IntMatrix.zeros(*shape)
    assert_smith_form(a)
    assert smith(a).rank == 0


@pytest.mark.parametrize("seed", range(6))
def test_smith_differential_unit_block_with_residual(seed):
    """A unimodular mix of I_k and a unit-free residual: the sparse stage
    must hand the residual's torsion on intact."""
    rng = random.Random(300 + seed)
    k = rng.randint(1, 4)
    res = [[rng.choice((0, 2, 3, 4, 6, -4)) for _ in range(3)] for _ in range(3)]
    n, m = k + 3, k + 4
    block = IntMatrix.zeros(n, m)
    for i in range(k):
        block.rows[i][i] = 1
    for i in range(3):
        block.rows[k + i][k : k + 3] = res[i]
    left = IntMatrix.identity(n)
    right = IntMatrix.identity(m)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        left.rows[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(left.rows[i], left.rows[j])]
        i, j = rng.sample(range(m), 2)
        for row in right.rows:
            row[i] += row[j]
    a = left.mul(block).mul(right)
    assert_smith_form(a)
    assert smith(a).factors[:k] == [1] * k


def test_smith_unit_pivot_rule():
    """Column 0 is shortest but holds no unit, so column 2 (length 2) goes
    first; then column 1 at row 2; the residual -6 goes to the dense stage.
    Uinv's columns are the pivot columns as they stood, Vinv's rows the
    pivot rows."""
    a = IntMatrix([[2, 1, 1], [0, -1, 3], [0, 1, 0]])
    form = smith(a, want_uinv=True, want_vinv=True)
    assert form.factors == [1, 1, 6]
    assert form.Uinv.rows == [[1, 0, 0], [3, -4, -1], [0, 1, 0]]
    assert form.Vinv.rows == [[2, 1, 1], [0, 1, 0], [1, 0, 0]]
    assert_smith_form(a)


def fixture_complexes():
    from fatcat.cocycle import CoveredComplex, base_chain_complex, blowup
    from fatcat.comparison import flag_chain_complex, simplex_chain_complex
    from fatcat.fixtures import (
        circle_star_cover,
        edge_star_cover,
        hemisphere_cover,
        random_two_complex,
    )

    out = {}
    for name, cat in standard_categories().items():
        out[f"fat-{name}"] = fat_chains(nerve(cat, 3))
        out[f"geometric-{name}"] = geometric_chains(nerve(cat, 3))
    out["fat-z3"] = fat_chains(nerve(cyclic_groupoid(3).base, 3))
    out["stage-product"] = fat_chains(product_with_S(nerve(z2_groupoid().base, 2), s_semisimplicial(3, 2)))
    out["blowup-edge-stars"] = blowup(edge_star_cover()).total
    out["blowup-vertex-stars"] = blowup(circle_star_cover()).total
    out["blowup-hemispheres"] = blowup(hemisphere_cover()).total
    faces = random_two_complex()
    out["random-two-complex"] = base_chain_complex(CoveredComplex(faces, [faces]))
    out["flags-2"] = flag_chain_complex(2)
    out["simplex-3"] = simplex_chain_complex(3)
    return out


def test_smith_differential_fixture_boundaries():
    for name, cx in fixture_complexes().items():
        for k in range(1, cx.D + 1):
            assert_smith_form(cx.boundary[k])


# ---------------------------------------------------------------------------
# Closed form: H_k(BZ/n) is Z, then Z/n in odd and 0 in even degrees


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_group_homology_closed_form(n):
    cx = fat_chains(nerve(cyclic_groupoid(n).base, 5))
    assert homology(cx, 0).group() == (1, ())
    for k in range(1, 5):
        assert homology(cx, k).group() == ((0, (n,)) if k % 2 else (0, ()))


def test_tom_dieck_on_z3(tmp_path, capsys):
    from fatcat.cli import main
    from fatcat.fincat import groupoid_to_json

    path = tmp_path / "z3.json"
    path.write_text(json.dumps(groupoid_to_json(cyclic_groupoid(3))))
    code = main(["verify", "tom-dieck", "--input", str(path), "--N", "4", "--D", "3", "--d", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"]
    assert [d["target"]["torsion"] for d in payload["degrees"]] == [[], [3], []]
