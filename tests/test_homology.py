import json
import random
from functools import partial

import pytest

from fatcat.errors import StructureError, Violation
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
    DegreeComparison,
    HomologyClasses,
    HomologyGroup,
    IntegerChainComplex,
    cell_matrix,
    fat_chains,
    geometric_chains,
    homology,
    identity_on_homology_through,
    induced_map,
    quasi_iso_through,
)
from fatcat import intlinalg
from fatcat.intlinalg import HomologyPresentation, IntMatrix, _transposed, smith, surjective_onto
from fatcat.simpset import nerve, product_with_S, s_semisimplicial

from oracles import (
    DensePresentation,
    betti_torsion,
    dense_identity,
    dense_smith,
    dense_mul,
    dense_mulvec,
    dense_transposed,
    column,
    identity,
    is_degenerate,
    is_zero,
    kernel_basis,
    normalization_projection,
    oracle_homology,
    oracle_invariant_factors,
    oracle_simplicial_map,
    transforms,
    zero_class,
)


def reference_flip_complex(D):
    """Normalized chains of the one-object flip groupoid: Z in each degree
    with boundaries alternating 0, 2, 0, 2, ...  An independent oracle for
    the classifying-space homology (Z, Z/2, 0, Z/2, ...)."""
    basis = [[("cell", k)] for k in range(D + 1)]
    boundary = {}
    for k in range(1, D + 1):
        boundary[k] = IntMatrix([[2 if k % 2 == 0 else 0]], 1)
    return IntegerChainComplex(D, basis, boundary)


def test_smith_small_matrix():
    form = smith(IntMatrix([[2, 4], [6, 8]], 2), rows=True, cols=True)
    assert form.factors == [2, 4]
    t = transforms(form)
    recon = t.U.mul(IntMatrix([[2, 4], [6, 8]], 2)).mul(t.V)
    assert recon == IntMatrix([[2, 0], [0, 4]], 2)


def test_smith_transforms_are_inverse():
    rng = random.Random(11)
    a = IntMatrix([[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)], 5)
    form = smith(a, rows=True, cols=True)
    t = transforms(form)
    assert t.U.mul(t.Uinv) == identity(4)
    assert t.Vinv.mul(t.V) == identity(5)
    prev = None
    for d in form.factors:
        assert d > 0
        if prev:
            assert d % prev == 0
        prev = d


def test_kernel_basis_is_a_kernel():
    a = IntMatrix([[1, 2, 3], [2, 4, 6]], 3)
    ker = kernel_basis(a)
    assert ker.ncols == 2
    assert is_zero(a.mul(ker))


def test_chain_complex_refuses_a_wrong_shape():
    with pytest.raises(StructureError, match="^boundary 1 has wrong shape$"):
        IntegerChainComplex(1, [("v",), ("e",)], [None, IntMatrix([[1, 0]], 2)])


def test_chain_complex_refuses_dd_nonzero():
    one = IntMatrix([[1]], 1)
    with pytest.raises(StructureError, match="^dd != 0 between degrees 2 and 0$"):
        IntegerChainComplex(2, [("v",), ("e",), ("f",)], [None, one, one])


def test_fat_chains_stage_complex():
    cx = fat_chains(s_semisimplicial(2, 2))
    assert [cx.rank(k) for k in range(3)] == [3, 3, 1]
    assert betti_torsion(homology(cx, 0)) == (1, ())
    assert betti_torsion(homology(cx, 1)) == (0, ())
    for k in range(2):
        assert oracle_homology(cx, k) == betti_torsion(homology(cx, k))


def test_fat_chains_point():
    cx = fat_chains(nerve(terminal_category(), 3))
    assert [cx.rank(k) for k in range(4)] == [1, 1, 1, 1]
    assert [betti_torsion(homology(cx, k)) for k in range(3)] == [(1, ()), (0, ()), (0, ())]


def test_boundary_squares_to_zero():
    cx = fat_chains(nerve(z2_groupoid().base, 3))
    assert is_zero(cx.boundary[1].mul(cx.boundary[2]))
    assert is_zero(cx.boundary[2].mul(cx.boundary[3]))


def test_flip_group_fat_homology_matches_reference_complex():
    cx = fat_chains(nerve(z2_groupoid().base, 5))
    ref = reference_flip_complex(5)
    for k in range(3):
        assert betti_torsion(homology(cx, k)) == betti_torsion(homology(ref, k))
        assert betti_torsion(homology(cx, k)) == oracle_homology(cx, k)
    assert betti_torsion(homology(cx, 0)) == (1, ())
    assert betti_torsion(homology(cx, 1)) == (0, (2,))
    assert betti_torsion(homology(cx, 2)) == (0, ())


def test_geometric_chains_flip_group():
    cx = geometric_chains(nerve(z2_groupoid().base, 4))
    assert [cx.rank(k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert betti_torsion(homology(cx, 1)) == (0, (2,))


def test_geometric_chains_interval():
    cx = geometric_chains(nerve(ordinal(1), 2))
    assert [cx.rank(k) for k in range(3)] == [2, 1, 0]
    assert betti_torsion(homology(cx, 0)) == (1, ())
    assert betti_torsion(homology(cx, 1)) == (0, ())


def test_geometric_basis_has_no_degenerate_cells():
    ner = nerve(z2_groupoid().base, 3)
    cx = geometric_chains(ner)
    for k in range(4):
        for cell in cx.basis[k]:
            assert not is_degenerate(ner, k, cell)


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
        HomologyGroup(1, 0, (3, 2), True)
    with pytest.raises(StructureError):
        HomologyGroup(1, 0, (1,), True)


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
        old_rows = old.rows
        rows = [[0] * old.ncols for _ in range(old.nrows)]
        inv_prev = {old_i: new_i for new_i, old_i in enumerate(perms[k - 1])}
        for j_new, j_old in enumerate(perms[k]):
            for i_old in range(old.nrows):
                rows[inv_prev[i_old]][j_new] = old_rows[i_old][j_old]
        boundary[k] = IntMatrix(rows, ncols=old.ncols)
    return IntegerChainComplex(cx.D, basis, boundary)


def test_homology_independent_of_basis_order():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    shuffled = shuffle_complex(cx, seed=3)
    for k in range(4):
        assert betti_torsion(homology(cx, k)) == betti_torsion(homology(shuffled, k))


def test_identity_map_is_quasi_iso():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    ident = ChainMap(cx, cx, [identity(cx.rank(k)) for k in range(5)])
    rep = quasi_iso_through(ident, 3)
    assert rep.ok
    rep = identity_on_homology_through(ident, 3)
    assert rep.ok


def test_projection_is_quasi_iso_flip_group():
    ner = nerve(z2_groupoid().base, 4)
    s = s_semisimplicial(6, 4)
    prod = product_with_S(ner, s)
    maps = [{cell: cell[0] for cell in prod.cells[k]} for k in range(5)]
    pi = oracle_simplicial_map(prod, ner, lambda k, cell: maps[k][cell])
    rep = quasi_iso_through(induced_map(pi), 2)
    assert rep.ok
    groups = [betti_torsion(c.target) for c in rep.degrees]
    assert groups == [(1, ()), (0, (2,)), (0, ())]


def test_chain_map_must_commute():
    cx = fat_chains(nerve(ordinal(1), 2))
    bad = [identity(cx.rank(k)) for k in range(3)]
    bad[1] = IntMatrix.zeros(cx.rank(1), cx.rank(1))
    # a zero in degree 1 breaks both squares it sits in
    assert [k for k in (1, 2) if cx.boundary[k].mul(bad[k]) != bad[k - 1].mul(cx.boundary[k])] \
        == [1, 2]
    with pytest.raises(StructureError, match="^chain map does not commute with boundary 1$"):
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
        idx = {cell: i for i, cell in enumerate(fat.basis[k])}
        rows = [[0] * geo.rank(k) for _ in range(fat.rank(k))]
        for j, cell in enumerate(geo.basis[k]):
            rows[idx[cell]][j] = 1
        mats.append(IntMatrix(rows, ncols=geo.rank(k)))
    inclusion = ChainMap(geo, fat, mats)
    assert quasi_iso_through(inclusion, 1).ok


def test_geometric_equals_fat_homology():
    for cat in (ordinal(2), z2_groupoid().base, pair_groupoid().base):
        ner = nerve(cat, 3)
        fat = fat_chains(ner)
        geo = geometric_chains(ner)
        for k in range(3):
            assert betti_torsion(homology(fat, k)) == betti_torsion(homology(geo, k))


def test_homology_classes_expose_generators():
    cx = fat_chains(nerve(z2_groupoid().base, 4))
    classes = HomologyClasses(cx, 1)
    assert classes.betti == 0 and classes.torsion == (2,)
    gen = classes.generators[0]
    tor, free = classes.coords(gen)
    assert tor == (1,) and free == ()
    doubled = [2 * v for v in gen]
    assert zero_class(classes, doubled)


def test_coords_of_combinations_and_refusals():
    """The class of sum c_j gen_j plus a boundary is c, torsion entries
    reduced; a non-cycle and a vector of the wrong length are refused."""
    cx = fat_chains(nerve(cyclic_groupoid(3).base, 4))
    rng = random.Random(5)
    for k in range(1, 4):
        classes = HomologyClasses(cx, k)
        gens = classes.generators
        torsion = classes.torsion + (0,) * classes.betti
        above = cx.boundary[k + 1]
        for _ in range(10):
            c = [rng.randint(-4, 4) for _ in gens]
            vec = [sum(cj * g[p] for cj, g in zip(c, gens)) for p in range(cx.rank(k))]
            for j in rng.sample(range(above.ncols), 3):
                r = rng.randint(-3, 3)
                vec = [v + r * w for v, w in zip(vec, column(above, j))]
            want = tuple(cj % d if d else cj for cj, d in zip(c, torsion))
            tor, free = classes.coords(vec)
            assert tor + free == want
    classes = HomologyClasses(cx, 2)
    p = next(j for j in range(cx.rank(2)) if any(column(cx.boundary[2], j)))
    with pytest.raises(StructureError, match="not a cycle"):
        classes.coords([int(j == p) for j in range(cx.rank(2))])
    with pytest.raises(StructureError, match="shape mismatch"):
        classes.coords([0] * (cx.rank(2) + 1))


def assert_generator_classes(cx, expected):
    """In each degree k < D the group is ``expected(k)``, the j-th generator
    has the j-th unit class, and every column of d_{k+1} has the zero class."""
    for k in range(cx.D):
        classes = HomologyClasses(cx, k)
        assert (classes.betti, classes.torsion) == expected(k)
        t = len(classes.torsion)
        gens = classes.generators
        assert len(gens) == t + classes.betti
        for j, gen in enumerate(gens):
            tor, free = classes.coords(gen)
            assert tor == tuple(int(i == j) for i in range(t))
            assert free == tuple(int(t + i == j) for i in range(classes.betti))
        above = cx.boundary[k + 1]
        for j in range(above.ncols):
            assert zero_class(classes, column(above, j))


def test_homology_classes_of_every_fixture():
    for cx in fixture_complexes().values():
        assert_generator_classes(cx, partial(oracle_homology, cx))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_homology_classes_of_cyclic_groups(n):
    """Against the closed form H_*(BZ/n): sympy's Smith form of the
    625x3125 boundary of Z/5 would not finish in test time."""
    cx = fat_chains(nerve(cyclic_groupoid(n).base, 5))

    def closed_form(k):
        return (1, ()) if k == 0 else (0, (n,) if k % 2 else ())

    assert_generator_classes(cx, closed_form)


def test_quasi_iso_rejects_scalar_doubling():
    """Doubling every chain commutes with boundaries and matches betti and
    torsion, but is not surjective on the free part of homology."""
    from fatcat.fixtures import circle_complex
    from fatcat.cocycle import CoveredComplex, base_chain_complex

    cc = CoveredComplex(circle_complex(), [circle_complex()])
    cx = base_chain_complex(cc, 2)
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
    cx = base_chain_complex(cc, 2)
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
    # the circle's one class in each degree, sent to its negative
    group = [HomologyGroup(k, 1, (), True) for k in range(2)]
    assert rep.degrees == [DegreeComparison(k, group[k], group[k], False) for k in range(2)]
    assert rep.violations == [
        Violation("identity-on-homology", (k, 0), "class moved: (), (-1,)") for k in range(2)
    ]


def test_identity_check_reads_torsion_classes():
    """On the nerve of Z/3, H_1 = Z/3: multiplying by 4 fixes its class
    and multiplying by 2 moves it, while both move the class of H_0 = Z."""
    cx = fat_chains(nerve(cyclic_groupoid(3).base, 3))

    def times(c):
        return ChainMap(cx, cx, [
            IntMatrix([[c if i == j else 0 for j in range(cx.rank(k))]
                       for i in range(cx.rank(k))], ncols=cx.rank(k))
            for k in range(cx.D + 1)
        ])

    law = "identity-on-homology"
    assert identity_on_homology_through(times(4), 2).violations == [
        Violation(law, (0, 0), "class moved: (), (4,)")]
    assert identity_on_homology_through(times(2), 2).violations == [
        Violation(law, (0, 0), "class moved: (), (2,)"),
        Violation(law, (1, 0), "class moved: (2,), ()")]


# ---------------------------------------------------------------------------
# The sparse IntMatrix against the dense oracle


def dense_random(rng, nrows, ncols, density=0.4):
    return [
        [rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def assert_stores(m, dense):
    """m has the shape of ``dense`` and stores exactly its nonzeros."""
    assert m.nrows == len(dense)
    assert all(len(row) == m.ncols for row in dense)
    assert all(v for row in m.nz for v in row.values())
    assert m.rows == tuple(tuple(row) for row in dense)


@pytest.mark.parametrize("seed", range(16))
def test_sparse_operations_match_dense_oracle(seed):
    rng = random.Random(500 + seed)
    # every fourth seed has an empty dimension
    n, k, p = (rng.randint(0 if seed % 4 == 0 else 1, 6) for _ in range(3))
    a, b = dense_random(rng, n, k), dense_random(rng, k, p)
    A, B = IntMatrix(a, ncols=k), IntMatrix(b, ncols=p)
    assert_stores(A, a)
    product = dense_mul(a, b, p)
    assert_stores(A.mul(B), product)
    assert A.annihilates(B) == (not any(v for row in product for v in row))
    vec = [rng.randint(-3, 3) for _ in range(k)]
    assert A.mulvec(vec) == dense_mulvec(a, vec)
    for j in range(k):
        assert column(A, j) == [row[j] for row in a]
    assert_stores(_transposed(A), dense_transposed(a, k))
    assert A == IntMatrix(a, ncols=k)
    if n and k:
        i, j = rng.randrange(n), rng.randrange(k)
        a[i][j] += 1
        assert A != IntMatrix(a, ncols=k)


def test_sparse_product_drops_cancelled_entries():
    a = [[1, 1], [2, 0]]
    b = [[1, 3], [-1, 0]]
    product = IntMatrix(a, 2).mul(IntMatrix(b, 2))
    assert product.nz == [{1: 3}, {0: 2, 1: 6}]
    assert_stores(product, dense_mul(a, b, 2))
    assert IntMatrix([[1, 1]], 2).annihilates(IntMatrix([[1], [-1]], 1))
    assert not IntMatrix([[1, 1]], 2).annihilates(IntMatrix([[1], [1]], 1))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_sparse_empty_shapes(shape):
    m = IntMatrix.zeros(*shape)
    assert m.rows == ((0,) * shape[1],) * shape[0]
    assert m == IntMatrix([[0] * shape[1] for _ in range(shape[0])], ncols=shape[1])
    assert m != IntMatrix.zeros(shape[0], shape[1] + 1)
    assert m.mulvec([0] * shape[1]) == [0] * shape[0]
    assert _transposed(m).shape == (shape[1], shape[0])
    assert m.mul(IntMatrix.zeros(shape[1], 2)) == IntMatrix.zeros(shape[0], 2)
    assert m.annihilates(IntMatrix.zeros(shape[1], 2))


def test_dense_view_refuses_writes():
    m = IntMatrix([[1, 0], [0, 2]], 2)
    with pytest.raises(TypeError):
        m.rows[0][1] = 5
    with pytest.raises(TypeError):
        m.rows[0] = (1, 5)
    assert m == IntMatrix([[1, 0], [0, 2]], 2)


def test_matrix_shape_is_validated():
    with pytest.raises(StructureError):
        IntMatrix([[1, 2], [3]], 2)
    with pytest.raises(StructureError):
        IntMatrix([[1, 2]], ncols=3)
    assert IntMatrix([[1, 2]], ncols=2).shape == (1, 2)
    with pytest.raises(StructureError):
        IntMatrix([[1, 2]], 2).mul(IntMatrix([[1, 2]], 2))
    with pytest.raises(StructureError):
        IntMatrix([[1, 2]], 2).mulvec([1])


def test_cell_matrix_drops_cancelled_entries():
    def column(j):
        if j == 0:
            yield from ((0, 1), (1, 2), (0, -1), (2, 0))
        else:
            yield from ((1, 3), (2, 1), (1, -3))

    m = cell_matrix(3, 2, column)
    assert m.nz == [{}, {0: 2}, {1: 1}]
    plain = [[(1, 2)], [(2, 1)]]
    assert m == cell_matrix(3, 2, plain.__getitem__)


@pytest.mark.parametrize("seed", range(6))
def test_smith_transforms_store_only_nonzeros(seed):
    """The record holds only operations that change the matrix: no zero
    multiplier, and a row meets itself only in a negation, (p, 2, p).
    The transforms it applies are inverse and diagonalize."""
    rng = random.Random(700 + seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    a = IntMatrix(dense_random(rng, nrows, ncols, 0.5), ncols)
    form = smith(a, rows=True, cols=True)
    assert all(c and (i != p or c == 2) for i, c, p in form.row_ops)
    assert all(c and j != q for j, c, q in form.col_ops)
    assert sorted(form.row_order) == list(range(nrows))
    assert sorted(form.col_order) == list(range(ncols))
    t = transforms(form)
    assert dense_mul(t.U.rows, t.Uinv.rows, a.nrows) == dense_identity(a.nrows)
    assert dense_mul(t.V.rows, t.Vinv.rows, a.ncols) == dense_identity(a.ncols)
    diag = dense_mul(dense_mul(t.U.rows, a.rows, a.ncols), t.V.rows, a.ncols)
    assert [diag[i][i] for i in range(form.rank)] == form.factors


# ---------------------------------------------------------------------------
# The sparse smith against the dense eliminator and sympy


def assert_smith_form(a):
    """The transforms the record applies are valid and inverse, one side
    alone records the same operations, and the factors match the dense
    eliminator and sympy."""
    form = smith(a, rows=True, cols=True)
    diag = [[0] * a.ncols for _ in range(a.nrows)]
    for i, d in enumerate(form.factors):
        diag[i][i] = d
    t = transforms(form)
    assert t.U.mul(a).mul(t.V) == IntMatrix(diag, ncols=a.ncols)
    assert t.U.mul(t.Uinv) == identity(a.nrows)
    assert t.V.mul(t.Vinv) == identity(a.ncols)
    assert form.rank == len(form.factors)
    assert all(d > 0 for d in form.factors)
    assert all(e % d == 0 for d, e in zip(form.factors, form.factors[1:]))
    assert smith(a, rows=True).row_ops == form.row_ops
    assert smith(a, cols=True).col_ops == form.col_ops
    assert smith(a).factors == form.factors
    dense = dense_smith(a)
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
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)
    assert_smith_form(a)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_smith_differential_empty_and_zero(shape):
    a = IntMatrix.zeros(*shape)
    assert_smith_form(a)
    assert smith(a).rank == 0


@pytest.mark.parametrize("seed", range(6))
def test_smith_differential_unit_block_with_residual(seed):
    """A unimodular mix of I_k and a unit-free residual: the unit pivots
    must leave the residual's torsion intact."""
    rng = random.Random(300 + seed)
    k = rng.randint(1, 4)
    res = [[rng.choice((0, 2, 3, 4, 6, -4)) for _ in range(3)] for _ in range(3)]
    n, m = k + 3, k + 4
    block = [[0] * m for _ in range(n)]
    for i in range(k):
        block[i][i] = 1
    for i in range(3):
        block[k + i][k : k + 3] = res[i]
    left = dense_identity(n)
    right = dense_identity(m)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        left[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(left[i], left[j])]
        i, j = rng.sample(range(m), 2)
        for row in right:
            row[i] += row[j]
    a = IntMatrix(left, n).mul(IntMatrix(block, m)).mul(IntMatrix(right, m))
    assert_smith_form(a)
    assert smith(a).factors[:k] == [1] * k


def fill_in_matrix(rng, nrows, ncols):
    """One row of units among half-filled rows of non-units.  The first pivot
    is a unit of that row, and clearing its column subtracts the row from
    every row meeting the column, so columns grow long before later pivots
    shrink them again."""
    rows = [[rng.choice((1, -1)) for _ in range(ncols)]]
    rows += [
        [rng.choice((2, -2, 3, 4, -6)) if rng.random() < 0.5 else 0 for _ in range(ncols)]
        for _ in range(nrows - 1)
    ]
    rng.shuffle(rows)
    return IntMatrix(rows, ncols)


@pytest.mark.parametrize("seed", range(10))
def test_smith_differential_fill_in(seed):
    """Each of the four settings on a matrix that fills in: the factors
    match the dense eliminator, only the sides asked for are recorded, each
    as recorded with both, and the transforms the record applies give
    U * A * V = diag, U * Uinv = I and V * Vinv = I."""
    rng = random.Random(900 + seed)
    a = fill_in_matrix(rng, rng.randint(5, 10), rng.randint(5, 10))
    assert_smith_form(a)
    full = smith(a, rows=True, cols=True)
    assert full.factors == dense_smith(a).factors
    diag = IntMatrix([[full.factors[i] if i == j and i < full.rank else 0
                       for j in range(a.ncols)] for i in range(a.nrows)], a.ncols)
    t = transforms(full)
    assert t.U.mul(a).mul(t.V) == diag
    assert t.U.mul(t.Uinv) == identity(a.nrows)
    assert t.V.mul(t.Vinv) == identity(a.ncols)
    for rows in (False, True):
        for cols in (False, True):
            form = smith(a, rows=rows, cols=cols)
            assert form.factors == full.factors
            assert form.row_ops == (full.row_ops if rows else None), (rows, cols)
            assert form.col_ops == (full.col_ops if cols else None), (rows, cols)
            assert (form.row_order, form.col_order) == (full.row_order, full.col_order)


def test_smith_unit_pivot_rule():
    """Column 0 is shortest but holds no unit, so column 2 (length 2) goes
    first; then column 1 at row 2; the residual -6 is the one non-unit pivot.
    Uinv's columns are the pivot columns as they stood, Vinv's rows the
    pivot rows."""
    a = IntMatrix([[2, 1, 1], [0, -1, 3], [0, 1, 0]], 3)
    form = smith(a, rows=True, cols=True)
    assert form.factors == [1, 1, 6]
    t = transforms(form)
    assert t.Uinv == IntMatrix([[1, 0, 0], [3, -4, -1], [0, 1, 0]], 3)
    assert t.Vinv == IntMatrix([[2, 1, 1], [0, 1, 0], [1, 0, 0]], 3)
    assert_smith_form(a)


def fixture_complexes():
    from fatcat.cocycle import CoveredComplex, base_chain_complex, blowup
    from fatcat.comparison import flag_chain_complex
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
    out["blowup-edge-stars"] = blowup(edge_star_cover(), 1)
    out["blowup-vertex-stars"] = blowup(circle_star_cover(), 2)
    out["blowup-hemispheres"] = blowup(hemisphere_cover(), 2)
    faces = random_two_complex()
    cc = CoveredComplex(faces, [faces])
    out["random-two-complex"] = base_chain_complex(cc, cc.dimension())
    out["flags-2"] = flag_chain_complex(2)
    out["simplex-3"] = fat_chains(s_semisimplicial(3, 3))
    return out


def test_smith_differential_fixture_boundaries():
    for name, cx in fixture_complexes().items():
        for k in range(1, cx.D + 1):
            assert_smith_form(cx.boundary[k])


def test_generator_classes_match_dense_smith():
    """The presentation read off ``dense_smith``'s matrices gives the same
    group in each degree through 3, and the generators of each, written in
    the other's coordinates, generate it: an invertible change of basis,
    since a surjection between isomorphic finitely generated abelian
    groups is an isomorphism."""
    complexes = fixture_complexes()
    for n in range(2, 6):
        complexes[f"bz{n}"] = fat_chains(nerve(cyclic_groupoid(n).base, 4))
    for name, cx in complexes.items():
        for k in range(min(cx.D, 3) + 1):
            sparse = HomologyClasses(cx, k)
            dense = DensePresentation(cx.boundary_or_zero(k), cx.boundary_or_zero(k + 1),
                                      cx.rank(k))
            assert (dense.betti, dense.torsion) == (sparse.betti, sparse.torsion), (name, k)
            images = [dense.coords(gen) for gen in sparse.generators]
            assert len(images) == len(dense.torsion) + dense.betti
            assert surjective_onto(dense, images), (name, k)
            images = [sparse.coords(gen) for gen in dense.generators]
            assert surjective_onto(sparse, images), (name, k)


# ---------------------------------------------------------------------------
# Closed form: H_k(BZ/n) is Z, then Z/n in odd and 0 in even degrees


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_group_homology_closed_form(n):
    cx = fat_chains(nerve(cyclic_groupoid(n).base, 5))
    assert betti_torsion(homology(cx, 0)) == (1, ())
    for k in range(1, 5):
        assert betti_torsion(homology(cx, k)) == ((0, (n,)) if k % 2 else (0, ()))


def test_tom_dieck_on_z3(tmp_path, capsys):
    from fatcat.cli import main
    from fatcat.fincat import groupoid_to_json

    path = tmp_path / "z3.json"
    path.write_text(json.dumps(groupoid_to_json(cyclic_groupoid(3))))
    code = main(["verify", "tom-dieck", "--input", str(path), "--N", "4", "--D", "3", "--d", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"]
    assert [d["target"]["torsion"] for d in payload["degrees"]] == [[], [3], []]


def recorded_smith(monkeypatch):
    """Wrap ``smith`` where the package calls it; returns the list that
    gets the input and the form of every call."""
    import fatcat.homology as homology_module

    calls = []
    original = intlinalg.smith

    def record(A, *args, **kwargs):
        form = original(A, *args, **kwargs)
        calls.append((A, form))
        return form

    for module in (intlinalg, homology_module):
        monkeypatch.setattr(module, "smith", record)
    return calls


def recorded_sides(form):
    """(rows recorded?, columns recorded?) of one elimination."""
    return form.row_ops is not None, form.col_ops is not None


def test_tom_dieck_records_one_side_per_elimination(tmp_path, capsys, monkeypatch):
    """Each presentation of ``quasi_iso_through``, on the stage product and
    on the nerve alike, eliminates d_{k+1} recording its row operations
    only and then the rest of d_k recording its column operations only;
    the surjectivity checks record nothing."""
    from fatcat.cli import main
    from fatcat.comparison import projection_map
    from fatcat.fincat import groupoid_to_json

    path = tmp_path / "z2.json"
    path.write_text(json.dumps(groupoid_to_json(z2_groupoid())))
    calls = recorded_smith(monkeypatch)
    argv = ["verify", "tom-dieck", "--input", str(path), "--N", "6", "--D", "4", "--d", "2"]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["ok"]
    proj = projection_map(z2_groupoid().base, 6, 4)
    boundaries = [cx.boundary[k] for cx in (fat_chains(proj.source), fat_chains(proj.target))
                  for k in range(1, cx.D + 1)]
    presentations, rest = [], []
    i = 0
    while i < len(calls):
        if any(calls[i][0] == b for b in boundaries):
            # the elimination of d_{k+1}, then that of the rest of d_k
            presentations.append((recorded_sides(calls[i][1]), recorded_sides(calls[i + 1][1])))
            i += 2
        else:
            rest.append(recorded_sides(calls[i][1]))
            i += 1
    assert presentations == [((True, False), (False, True))] * 6
    assert rest and all(sides == (False, False) for sides in rest)


def test_tau_records_one_side_per_elimination(tmp_path, capsys, monkeypatch):
    """``identity_on_homology_through`` reads both generators and
    coordinates of one presentation per degree, from the same two records:
    the row operations of d_{k+1}, then the column operations of the rest
    of d_k."""
    from fatcat.cli import main
    from fatcat.fincat import groupoid_to_json

    path = tmp_path / "z2.json"
    path.write_text(json.dumps(groupoid_to_json(z2_groupoid())))
    calls = recorded_smith(monkeypatch)
    argv = ["verify", "tau", "--input", str(path), "--N", "4", "--D", "3", "--d", "1"]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["ok"]
    assert [recorded_sides(form) for _, form in calls] == [(True, False), (False, True)] * 2


def test_homology_and_surjectivity_record_nothing(monkeypatch):
    calls = recorded_smith(monkeypatch)
    cx = fat_chains(nerve(cyclic_groupoid(3).base, 3))
    for k in range(3):
        homology(cx, k)
    assert len(calls) == 6
    classes = HomologyClasses(cx, 1)
    del calls[:]
    assert surjective_onto(classes, [classes.coords(gen) for gen in classes.generators])
    assert len(calls) == 1
    assert all(recorded_sides(form) == (False, False) for _, form in calls)


def test_presentation_refuses_b_outside_the_kernel_and_bad_shapes():
    A = IntMatrix([[1, 1, 0], [0, 1, 1]], 3)
    with pytest.raises(StructureError, match="B does not map into ker"):
        HomologyPresentation(A, IntMatrix([[1], [-1], [0]], 1), 3)
    # ker(A) is spanned by (1, -1, 1), so this B kills all of it
    pres = HomologyPresentation(A, IntMatrix([[1], [-1], [1]], 1), 3)
    assert (pres.betti, pres.torsion, pres.generators) == (0, (), [])
    with pytest.raises(StructureError, match="shape mismatch"):
        HomologyPresentation(A, IntMatrix([[1], [-1]], 1), 3)
