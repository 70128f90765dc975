"""Independent oracles used by the tests.

* Homology: Betti numbers and invariant factors with sympy (rank over the
  rationals plus Smith normal form over the integers), a code path fully
  disjoint from the package's own elimination.
* Simplicial identities: the per-cell audits, over cell lists and per-cell
  rules, that the package's whole-table audits must reproduce violation
  for violation.
* Per-cell builders: simplicial sets and maps laid out from rules, each
  image hashed back into the index of its degree, and the nerve from its
  chain rules (``oracle_nerve``), whose tables the package's composed
  ``nerve`` and ``nerve_map`` must reproduce entry for entry.
* Per-cell lookups (``face``, ``degeneracy``, ``apply``,
  ``is_degenerate``) through an object's position tables, for tests that
  name cells.
* The rule-built chain layer: boundaries, chain maps, the stage product,
  the projection and the flag section built cell by cell and hashed back
  into rows, which the package's position-table builders must reproduce
  matrix for matrix.
* The classifying complex: the stagewise unraveling built from a face rule
  per cell, and the universal cocycle checked cell by cell over it, which
  the package's table-composing ``unravel_simplicial`` and its once per
  nerve simplex ``universal_cocycle`` must reproduce cell for cell and
  witness for witness; and the cellwise isomorphism of the unraveled nerve
  onto the nerve of the unraveled category.
* Comma fibers: the step-chain simplicial set of (vertex tuple, stage
  tuple) pairs with its own face, degeneracy and leg rules, which the
  package's nerve of the pullback category must match through the
  vertex sequence of each chain; and both legs of a fiber from the
  per-cell rule that maps a chain arrow by arrow.
* Dense matrices: products and transposes of plain row lists, the
  reference for the package's sparse ``IntMatrix``; ``dense_smith``, the
  dense eliminator that the package's sparse ``smith`` must agree with; and
  the helpers that only tests need (identity, zero test, zero class,
  kernel basis, the normalization projection).
"""

from collections import namedtuple
from functools import partial
from itertools import combinations_with_replacement, groupby
from math import comb
from operator import itemgetter

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from fatcat.comparison import CommaFiber, _nondegenerate_factorization
from fatcat.errors import StructureError, Violation, check_budget
from fatcat.fincat import FinCategory, arrows_leaving, mid, unravel
from fatcat.homology import ChainMap, IntegerChainComplex, fat_chains, geometric_chains
from fatcat.intlinalg import IntMatrix, SmithForm, _dense, smith
from fatcat.simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    TruncatedSimplicialSet,
    chain_composites,
    chain_count,
    chain_objects,
    delete_entry,
    maximal_flags,
    nerve,
    s_semisimplicial,
    unravel_simplicial,
)


def _to_sympy(mat):
    if mat.nrows == 0 or mat.ncols == 0:
        return Matrix.zeros(mat.nrows, mat.ncols)
    return Matrix(mat.rows)


def oracle_homology(cx, k):
    """(betti, torsion tuple) of degree k of an IntegerChainComplex."""
    n = cx.rank(k)
    below = _to_sympy(cx.boundary_or_zero(k))
    above = _to_sympy(cx.boundary_or_zero(k + 1))
    rank_below = below.rank() if below.rows and below.cols else 0
    rank_above = above.rank() if above.rows and above.cols else 0
    betti = n - rank_below - rank_above
    torsion = []
    if above.rows and above.cols:
        snf = smith_normal_form(above, domain=ZZ)
        for i in range(min(snf.rows, snf.cols)):
            d = abs(int(snf[i, i]))
            if d > 1:
                torsion.append(d)
    torsion.sort()
    return betti, tuple(torsion)


def oracle_invariant_factors(mat):
    """Sorted nonzero invariant factors of an IntMatrix, by sympy."""
    if mat.nrows == 0 or mat.ncols == 0:
        return []
    snf = smith_normal_form(Matrix(mat.rows), domain=ZZ)
    return sorted(
        abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols)) if snf[i, i] != 0
    )


# A simplicial object as cell lists and rules: ``face(k, i, cell)`` is d_i of
# a k-cell and ``degeneracy(k, i, cell)`` is s_i of one (None when the object
# is only semi-simplicial).  A rule that raises LookupError is undefined there.
Rules = namedtuple("Rules", "cells face degeneracy")


def _check_rule(rule, k, cells, allowed, undefined, leaves):
    allowed = set(allowed)
    for cell in cells:
        try:
            image = rule(k, cell)
        except LookupError:
            raise StructureError(undefined) from None
        if image not in allowed:
            raise StructureError(leaves)


def oracle_simplicial_audit(D, x):
    """Violations of the simplicial identities of ``x`` (a ``Rules``),
    checked cell by cell."""
    cells, face, degeneracy = x
    for k in range(1, D + 1):
        for i in range(k + 1):
            _check_rule(
                lambda k, c: face(k, i, c), k, cells[k], cells[k - 1],
                f"face d_{i} undefined on a {k}-cell", f"face d_{i} leaves degree {k - 1}",
            )
    violations = []
    for k in range(2, D + 1):
        for cell in cells[k]:
            for j in range(k + 1):
                for i in range(j):
                    left = face(k - 1, i, face(k, j, cell))
                    right = face(k - 1, j - 1, face(k, i, cell))
                    if left != right:
                        violations.append(Violation("face-face", (k, i, j, cell)))
    if degeneracy is None:
        return violations
    for k in range(D):
        for i in range(k + 1):
            _check_rule(
                lambda k, c: degeneracy(k, i, c), k, cells[k], cells[k + 1],
                f"degeneracy s_{i} undefined on a {k}-cell",
                f"degeneracy s_{i} leaves degree {k + 1}",
            )
    # s_i s_j = s_{j+1} s_i for i <= j
    for k in range(D - 1):
        for cell in cells[k]:
            for j in range(k + 1):
                for i in range(j + 1):
                    left = degeneracy(k + 1, i, degeneracy(k, j, cell))
                    right = degeneracy(k + 1, j + 1, degeneracy(k, i, cell))
                    if left != right:
                        violations.append(
                            Violation("degeneracy-degeneracy", (k, i, j, cell))
                        )
    # d_i s_j interchange
    for k in range(D):
        for cell in cells[k]:
            for j in range(k + 1):
                sj = degeneracy(k, j, cell)
                for i in range(k + 2):
                    got = face(k + 1, i, sj)
                    if i == j or i == j + 1:
                        want = cell
                    elif i < j:
                        want = degeneracy(k - 1, j - 1, face(k, i, cell))
                    else:
                        want = degeneracy(k - 1, j, face(k, i - 1, cell))
                    if got != want:
                        violations.append(Violation("face-degeneracy", (k, i, j, cell)))
    return violations


def oracle_map_audit(D, source, target, image):
    """Violations of a map ``image(k, cell)`` between two ``Rules``
    commuting with faces, and with degeneracies when both have them,
    checked cell by cell."""
    for k in range(D + 1):
        _check_rule(
            image, k, source.cells[k], target.cells[k],
            f"map undefined on a {k}-cell", f"map image leaves target degree {k}",
        )
    violations = []
    for k in range(1, D + 1):
        for cell in source.cells[k]:
            img = image(k, cell)
            for i in range(k + 1):
                if image(k - 1, source.face(k, i, cell)) != target.face(k, i, img):
                    violations.append(Violation("map-face", (k, i, cell)))
    if source.degeneracy and target.degeneracy:
        for k in range(D):
            for cell in source.cells[k]:
                img = image(k, cell)
                for i in range(k + 1):
                    left = image(k + 1, source.degeneracy(k, i, cell))
                    if left != target.degeneracy(k, i, img):
                        violations.append(Violation("map-degeneracy", (k, i, cell)))
    return violations


# ---------------------------------------------------------------------------
# Per-cell builders: tables laid out from rules, each image hashed back into
# the index of its degree


def _lookup(index, images, leaves):
    positions = [index.get(image) for image in images]
    if None in positions:
        raise StructureError(leaves)
    return positions


def oracle_simplicial_set(D, cells, face, degeneracy=None):
    """Face and degeneracy tables laid out from per-cell rules:
    ``face(k, i, cell)`` is d_i of a k-cell (1 <= k <= D) and
    ``degeneracy(k, i, cell)`` is s_i of a k-cell (k < D).  A result that
    is not a cell of its degree raises :class:`StructureError`.  Without
    ``degeneracy`` the result is semi-simplicial."""
    index = [{cell: p for p, cell in enumerate(cs)} for cs in cells]
    faces = [None] + [
        [_lookup(index[k - 1], (face(k, i, cell) for cell in cells[k]),
                 f"face d_{i} leaves degree {k - 1}") for i in range(k + 1)]
        for k in range(1, D + 1)
    ]
    if degeneracy is None:
        return SemiSimplicialSet(D, cells, faces)
    degeneracies = [
        [_lookup(index[k + 1], (degeneracy(k, i, cell) for cell in cells[k]),
                 f"degeneracy s_{i} leaves degree {k + 1}") for i in range(k + 1)]
        for k in range(D)
    ]
    return TruncatedSimplicialSet(D, cells, faces, degeneracies)


def oracle_simplicial_map(source, target, image) -> SimplicialMap:
    """A simplicial map laid out from a per-cell rule: ``image(k, cell)``
    is the image of a k-cell of ``source``, looked up in ``target``."""
    if source.D != target.D:
        raise StructureError("source and target truncation degrees differ")
    maps = [
        _lookup(target.index[k], (image(k, cell) for cell in source.cells[k]),
                f"map image leaves target degree {k}")
        for k in range(source.D + 1)
    ]
    return SimplicialMap(source, target, maps)


def oracle_nerve(c: FinCategory, D: int) -> TruncatedSimplicialSet:
    """The nerve of c from its per-cell rules: d_0 drops the first arrow,
    d_k the last, an inner d_i composes two neighbours, and s_i inserts the
    identity at vertex i."""
    if D < 0:
        raise StructureError("truncation degree must be >= 0")
    from_obj = arrows_leaving(c)
    ends = {x: [c.tgt[m] for m in ms] for x, ms in from_obj.items()}
    check_budget(chain_count(ends, D), TruncatedSimplicialSet.__name__)
    cells = [list(c.objects)]
    if D:
        cells.append([(m,) for x in c.objects for m in from_obj[x]])
    for k in range(2, D + 1):
        cells.append(
            [chain + (m,) for chain in cells[k - 1] for m in from_obj[c.tgt[chain[-1]]]]
        )

    def face(k, i, chain):
        if k == 1:
            return c.tgt[chain[0]] if i == 0 else c.src[chain[0]]
        if i == 0:
            return chain[1:]
        if i == k:
            return chain[:-1]
        return chain[: i - 1] + (c.table[(chain[i - 1], chain[i])],) + chain[i + 1:]

    def degeneracy(k, i, chain):
        ident = c.identity[chain_objects(c, k, chain)[i]]
        return (ident,) if k == 0 else chain[:i] + (ident,) + chain[i:]

    return oracle_simplicial_set(D, cells, face, degeneracy)


# ---------------------------------------------------------------------------
# Per-cell lookups through position tables


def face(x, k, i, cell):
    """d_i of a k-cell of x."""
    return x.cells[k - 1][x.faces[k][i][x.index[k][cell]]]


def degeneracy(x, k, i, cell):
    """s_i of a k-cell of x."""
    return x.cells[k + 1][x.degeneracies[k][i][x.index[k][cell]]]


def apply(f, k, cell):
    """Image of a k-cell under a simplicial map."""
    return f.target.cells[k][f.maps[k][f.source.index[k][cell]]]


def degenerate_cells(x, k):
    """The k-cells of x that are some s_i of a (k-1)-cell, found cell by cell."""
    if k == 0:
        return set()
    return {degeneracy(x, k - 1, i, below) for below in x.cells[k - 1] for i in range(k)}


def is_degenerate(x, k, cell):
    return cell in degenerate_cells(x, k)


# ---------------------------------------------------------------------------
# The chain layer, rule by rule: every term named by its cell and hashed
# back into a row


def oracle_cell_matrix(source_cells, target_cells, terms):
    """Column j belongs to ``source_cells[j]`` and row i to
    ``target_cells[i]``; ``terms(cell)`` yields ``(target_cell, coeff)``
    pairs, and coefficients on one entry add up."""
    row_of = {cell: i for i, cell in enumerate(target_cells)}
    rows = [[0] * len(source_cells) for _ in target_cells]
    for j, cell in enumerate(source_cells):
        for target, coeff in terms(cell):
            rows[row_of[target]][j] += coeff
    return IntMatrix(rows, ncols=len(source_cells))


def oracle_complex_from_terms(D, basis, terms):
    """Chain complex whose boundary of a k-cell is ``terms(k, cell)``."""
    boundary = {
        k: oracle_cell_matrix(basis[k], basis[k - 1], partial(terms, k))
        for k in range(1, D + 1)
    }
    return IntegerChainComplex(D, basis, boundary)


def oracle_cellular_map(source, target, terms):
    """Chain map sending a k-cell of source to ``terms(k, cell)`` in target."""
    matrices = [
        oracle_cell_matrix(source.basis[k], target.basis[k], partial(terms, k))
        for k in range(min(source.D, target.D) + 1)
    ]
    return ChainMap(source, target, matrices)


def oracle_deletion_complex(basis):
    """Chains on tuple cells whose face d_i deletes entry i."""

    def terms(k, cell):
        for i in range(k + 1):
            yield cell[:i] + cell[i + 1:], -1 if i % 2 else 1

    return oracle_complex_from_terms(len(basis) - 1, basis, terms)


def oracle_fat_chains(x):
    def terms(k, cell):
        for i in range(k + 1):
            yield face(x, k, i, cell), -1 if i % 2 else 1

    return oracle_complex_from_terms(x.D, x.cells, terms)


def oracle_geometric_chains(x):
    marks = [degenerate_cells(x, k) for k in range(x.D + 1)]

    def terms(k, cell):
        for i in range(k + 1):
            below = face(x, k, i, cell)
            if below not in marks[k - 1]:
                yield below, -1 if i % 2 else 1

    basis = [[c for c in x.cells[k] if c not in marks[k]] for k in range(x.D + 1)]
    return oracle_complex_from_terms(x.D, basis, terms)


def oracle_induced_map(f):
    return oracle_cellular_map(
        oracle_fat_chains(f.source), oracle_fat_chains(f.target),
        lambda k, cell: ((apply(f, k, cell), 1),),
    )


def oracle_product_with_S(x, s):
    """The stage product with its faces looked up factor by factor."""
    cells = [[(a, b) for a in x.cells[k] for b in s.cells[k]] for k in range(x.D + 1)]
    return oracle_simplicial_set(
        x.D, cells, lambda k, i, cell: (face(x, k, i, cell[0]), face(s, k, i, cell[1]))
    )


def oracle_projection_map(c, N, D):
    ner = nerve(c, D)
    prod = oracle_product_with_S(ner, s_semisimplicial(N, D))
    return oracle_simplicial_map(prod, ner, lambda k, cell: cell[0])


def oracle_apply_operator(x, k_from, cell, u):
    """A monotone map u: [k_to] -> [k_from] applied to one cell: faces at
    the missed values, then degeneracies at the repeated ones."""
    k_to = len(u) - 1
    for v in range(k_from + 1):
        if v not in u:
            reduced = tuple(val if val < v else val - 1 for val in u)
            return oracle_apply_operator(x, k_from - 1, face(x, k_from, v, cell), reduced)
    for i in range(k_to):
        if u[i] == u[i + 1]:
            lower = oracle_apply_operator(x, k_from, cell, u[: i + 1] + u[i + 2:])
            return degeneracy(x, k_to - 1, i, lower)
    return cell


def oracle_tau_chain_map(x, N, D):
    """The flag section, one flag and one cell at a time."""
    pullbacks = [
        [(tuple(max(part) for part in flag.chain), sign) for flag, sign in maximal_flags(n)]
        for n in range(D + 1)
    ]

    def terms(n, cell):
        stage = tuple(range(1, n + 2))
        for u, sign in pullbacks[n]:
            yield (oracle_apply_operator(x, n, cell, u), stage), sign

    prod = oracle_product_with_S(x, s_semisimplicial(N, D))
    return oracle_cellular_map(oracle_fat_chains(x), oracle_fat_chains(prod), terms)


# ---------------------------------------------------------------------------
# The classifying complex, cell by cell


def _group_index(seq, pos):
    """Index of the value group of ``seq[pos]``."""
    return len(set(seq[: pos + 1])) - 1


def _in_multi_group(seq, pos):
    """Does ``seq[pos]`` share its value with a neighbour?"""
    before = pos > 0 and seq[pos - 1] == seq[pos]
    after = pos + 1 < len(seq) and seq[pos] == seq[pos + 1]
    return before or after


def oracle_unravel_simplicial(y: TruncatedSimplicialSet, N: int) -> TruncatedSimplicialSet:
    """Stagewise unraveling of a simplicial set.

    n-cells are pairs (k_0 <= ... <= k_n, z) with z a cell of y in degree
    l - 1, l the number of distinct stages.  For y a nerve this reproduces
    the nerve of the unraveled category cell for cell.  The cells are
    counted and budgeted before any of them is built.
    """
    if N < 0:
        raise StructureError("N must be >= 0")
    D = y.D
    # weakly increasing (n+1)-tuples over N+1 stages with l distinct values:
    # choose the values, then cut the tuple into l nonempty runs
    total = sum(
        comb(N + 1, l) * comb(n, l - 1) * y.n_cells(l - 1)
        for n in range(D + 1)
        for l in range(1, n + 2)
    )
    check_budget(total, TruncatedSimplicialSet.__name__)
    cells = []
    for n in range(D + 1):
        level = []
        for seq in combinations_with_replacement(range(N + 1), n + 1):
            l = len(set(seq))
            for z in y.cells[l - 1]:
                level.append((seq, z))
        cells.append(level)

    def face_rule(n, i, cell):
        seq, z = cell
        rest = seq[:i] + seq[i + 1:]
        if _in_multi_group(seq, i):
            return rest, z
        return rest, face(y, len(set(seq)) - 1, _group_index(seq, i), z)

    def degeneracy_rule(n, i, cell):
        seq, z = cell
        return seq[: i + 1] + seq[i:], z

    return oracle_simplicial_set(D, cells, face_rule, degeneracy_rule)


def _gamma_for_cell(g, cell):
    """Canonical transition assignment on one cell, keyed by stage pairs."""
    cat = g.base
    seq, z = cell
    values = sorted(set(seq))
    objects = chain_objects(cat, len(values) - 1, z)
    gamma = {}
    # with two or more stages z is the chain of arrows between them
    for (a, b), f in chain_composites(cat, objects, z).items():
        gamma[(values[a], values[b])] = f
        if a < b:
            gamma[(values[b], values[a])] = g.inverse[f]
    return gamma


def oracle_universal_cocycle(g, N, D):
    """Canonical transitions on every cell of the classifying complex,
    checked cell by cell for the composition law and face compatibility:
    the ``{(k, cell): transitions}`` dict and the report."""
    space = oracle_unravel_simplicial(nerve(g.base, D), N)
    cat = g.base
    gamma = {}
    for k in range(D + 1):
        for cell in space.cells[k]:
            gamma[(k, cell)] = _gamma_for_cell(g, cell)
    report = []
    for k in range(D + 1):
        for cell in space.cells[k]:
            table = gamma[(k, cell)]
            values = sorted(set(cell[0]))
            for a in values:
                for b in values:
                    for cc in values:
                        left = cat.table.get((table[(a, b)], table[(b, cc)]))
                        if left != table[(a, cc)]:
                            report.append(
                                Violation("universal-cocycle-law", (k, cell, a, b, cc))
                            )
    for k in range(1, D + 1):
        for cell in space.cells[k]:
            parent = gamma[(k, cell)]
            for i in range(k + 1):
                child_cell = face(space, k, i, cell)
                child = gamma[(k - 1, child_cell)]
                for pair, val in child.items():
                    if parent.get(pair) != val:
                        report.append(
                            Violation("universal-face-compat", (k, i, cell, pair))
                        )
    return gamma, report


def unravel_nerve_isomorphism(c: FinCategory, N: int, D: int) -> SimplicialMap:
    """The cellwise isomorphism unravel_simplicial(nerve c) -> nerve(unravel c)."""
    ner = nerve(c, D)
    left = unravel_simplicial(ner, N)
    cN = unravel(c, N)
    right = nerve(cN, D)

    def image(n, cell):
        seq, z = cell
        if n == 0:
            return (z, seq[0])
        objects = chain_objects(c, len(set(seq)) - 1, z)
        arrows = []
        for i in range(1, n + 1):
            g = _group_index(seq, i)
            f = c.identity[objects[g]] if seq[i - 1] == seq[i] else z[g - 1]
            arrows.append(mid(c, f, seq[i - 1], seq[i]))
        return tuple(arrows)

    iso = oracle_simplicial_map(left, right, image)
    for n in range(D + 1):
        if len(set(iso.maps[n])) != left.n_cells(n) or left.n_cells(
            n
        ) != right.n_cells(n):
            raise StructureError(f"cell counts differ in degree {n}")
    return iso


# ---------------------------------------------------------------------------
# Comma fibers as step-chain simplicial sets


def oracle_quillen_fiber(c, N, D, y_cell, y_degree, target, simplex) -> CommaFiber:
    """The comma fiber of a nerve simplex built cell by cell: a degree-k
    cell is a pair (vertex tuple, stage tuple) of weakly increasing tuples
    where equal consecutive stages force the core arrow between the two
    vertices to be an identity, the cells sorted by that pair; faces delete
    an entry of both tuples and degeneracies repeat one.  ``target`` and
    ``simplex`` are the codomains of the two legs."""
    objects, arrows = _nondegenerate_factorization(c, y_degree, y_cell)
    m = len(objects) - 1
    composite = chain_composites(c, objects, arrows)
    vertices = [(a, l) for a in range(m + 1) for l in range(N + 1)]

    def step_ok(v0, v1):
        (a0, l0), (a1, l1) = v0, v1
        if a0 > a1 or l0 > l1:
            return False
        return l0 < l1 or c.is_identity(composite[(a0, a1)])

    # stages[v][a]: the stages l, ascending, with a step from v to (a, l)
    stages = {
        v: [[l for l in range(N + 1) if step_ok(v, (a, l))] for a in range(m + 1)]
        for v in vertices
    }
    # Extending the cells of one vertex tuple, in stage order, by one vertex
    # a and then by its stages in ascending order keeps the sort order.
    cells = [[((a,), (l,)) for a, l in vertices]]
    for k in range(1, D + 1):
        level = []
        for avec, group in groupby(cells[k - 1], key=itemgetter(0)):
            lvecs = [lvec for _, lvec in group]
            for a in range(avec[-1], m + 1):
                for lvec in lvecs:
                    for l in stages[(avec[-1], lvec[-1])][a]:
                        level.append((avec + (a,), lvec + (l,)))
        cells.append(level)

    def face(k, i, cell):
        avec, lvec = cell
        return delete_entry(k, i, avec), delete_entry(k, i, lvec)

    def degeneracy(k, i, cell):
        avec, lvec = cell
        return avec[: i + 1] + avec[i:], lvec[: i + 1] + lvec[i:]

    fiber = oracle_simplicial_set(D, cells, face, degeneracy)

    def to_simplex(k, cell):
        avec = cell[0]
        if k == 0:
            return avec[0]
        return tuple((a0, a1, "le") for a0, a1 in zip(avec, avec[1:]))

    def to_unraveled(k, cell):
        avec, lvec = cell
        if k == 0:
            return (objects[avec[0]], lvec[0])
        return tuple(
            mid(c, composite[(avec[i - 1], avec[i])], lvec[i - 1], lvec[i])
            for i in range(1, k + 1)
        )

    return CommaFiber(
        category=c,
        stages=N,
        degree=m,
        vertex_objects=objects,
        fiber=fiber,
        to_simplex=oracle_simplicial_map(fiber, simplex, to_simplex),
        to_unraveled=oracle_simplicial_map(fiber, target, to_unraveled),
    )


def oracle_fiber_legs(c, y_cell, y_degree, fib):
    """Both legs of the comma fiber ``fib`` of a nerve simplex from per-cell
    rules: a chain of arrows (v, w) of the pullback category goes to the
    chain of the images of its arrows, a vertex to the image of its object."""
    objects, arrows = _nondegenerate_factorization(c, y_degree, y_cell)
    composite = chain_composites(c, objects, arrows)

    def leg(codomain, obj, arrow):
        return oracle_simplicial_map(fib.fiber, codomain, lambda k, cell: (
            obj(cell) if k == 0 else tuple(arrow(*step) for step in cell)))

    return (
        leg(fib.to_simplex.target, lambda v: v[0], lambda v, w: (v[0], w[0], "le")),
        leg(fib.to_unraveled.target, lambda v: (objects[v[0]], v[1]),
            lambda v, w: mid(c, composite[(v[0], w[0])], v[1], w[1])),
    )


# ---------------------------------------------------------------------------
# Dense matrices as lists of row lists


def dense_mul(a, b, ncols):
    """a * b for row lists; ``ncols`` is b's column count."""
    return [
        [sum(row[k] * b[k][j] for k in range(len(row))) for j in range(ncols)]
        for row in a
    ]


def dense_mulvec(a, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in a]


def dense_transposed(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def dense_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _find_pivot(rows, t, nrows, ncols):
    """Minimal-absolute-value nonzero entry of the trailing submatrix.

    Row-major tie break; an entry of absolute value 1 wins immediately.
    """
    best = None
    best_i = best_j = -1
    for i in range(t, nrows):
        row = rows[i]
        for j in range(t, ncols):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if a == 1:
                    return i, j
                if best is None or a < best:
                    best, best_i, best_j = a, i, j
    if best is None:
        return None
    return best_i, best_j


def dense_smith(A, want_u, want_uinv, want_v, want_vinv):
    """Dense Smith normal form, the reference for :func:`smith`.

    Elimination picks the minimal-absolute-value pivot, clears its row and
    column with Euclidean steps, then forces the pivot to divide the whole
    trailing submatrix before moving on, which yields the divisibility chain
    directly.
    """
    nrows, ncols = A.nrows, A.ncols
    M = [_dense(r, ncols) for r in A.nz]
    U = dense_identity(nrows) if want_u else None
    Uinv = dense_identity(nrows) if want_uinv else None
    V = dense_identity(ncols) if want_v else None
    Vinv = dense_identity(ncols) if want_vinv else None

    def swap_rows(i, j):
        if i == j:
            return
        M[i], M[j] = M[j], M[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for r in Uinv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in M:
            r[i], r[j] = r[j], r[i]
        if V is not None:
            for r in V:
                r[i], r[j] = r[j], r[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]
        if Uinv is not None:
            for r in Uinv:
                r[i] = -r[i]

    def row_axpy(i, j, q):
        # row_i -= q * row_j
        if not q:
            return
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        if Uinv is not None:
            for r in Uinv:
                r[j] += q * r[i]

    def col_axpy(i, j, q):
        # col_i -= q * col_j
        if not q:
            return
        for r in M:
            r[i] -= q * r[j]
        if V is not None:
            for r in V:
                r[i] -= q * r[j]
        if Vinv is not None:
            Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        found = _find_pivot(M, t, nrows, ncols)
        if found is None:
            break
        swap_rows(t, found[0])
        swap_cols(t, found[1])
        while True:
            if M[t][t] < 0:
                negate_row(t)
            pivot = M[t][t]
            # Euclidean reduction of column t below the pivot.
            dirty = False
            for i in range(t + 1, nrows):
                v = M[i][t]
                if v:
                    row_axpy(i, t, v // pivot)
                    if M[i][t]:
                        dirty = True
            if dirty:
                found = _find_pivot(M, t, nrows, ncols)
                swap_rows(t, found[0])
                swap_cols(t, found[1])
                continue
            # Euclidean reduction of row t right of the pivot.
            dirty = False
            for j in range(t + 1, ncols):
                v = M[t][j]
                if v:
                    col_axpy(j, t, v // pivot)
                    if M[t][j]:
                        dirty = True
            if dirty:
                found = _find_pivot(M, t, nrows, ncols)
                swap_rows(t, found[0])
                swap_cols(t, found[1])
                continue
            # Pivot must divide the trailing submatrix for the divisibility
            # chain; merging an offending row restarts the reduction.  A
            # pivot of 1 divides everything.
            if pivot == 1:
                break
            offender = None
            for i in range(t + 1, nrows):
                row = M[i]
                for j in range(t + 1, ncols):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(t, offender, -1)
        t += 1

    def wrap(T, n):
        return None if T is None else IntMatrix(T, ncols=n)

    factors = [M[i][i] for i in range(t)]
    return SmithForm(
        factors=factors,
        rank=t,
        nrows=nrows,
        ncols=ncols,
        U=wrap(U, nrows),
        Uinv=wrap(Uinv, nrows),
        V=wrap(V, ncols),
        Vinv=wrap(Vinv, ncols),
    )



def identity(n):
    return IntMatrix(dense_identity(n), ncols=n)


def is_zero(mat):
    return all(not v for row in mat.rows for v in row)


def zero_class(presentation, vec):
    """Is the cycle ``vec`` a boundary?"""
    tor, free = presentation.coords(vec)
    return not any(tor) and not any(free)


def kernel_basis(mat):
    """Columns spanning ker(mat) as a saturated sublattice (a direct summand)."""
    form = smith(mat, want_v=True)
    if form.rank == mat.ncols:
        return IntMatrix.zeros(mat.ncols, 0)
    return form.V.submatrix_cols(form.rank)


def normalization_projection(x):
    """Projection from fat chains onto geometric chains, killing the
    degenerate generators.  A classical quasi-isomorphism."""

    marks = [degenerate_cells(x, k) for k in range(x.D + 1)]

    def terms(k, cell):
        return () if cell in marks[k] else ((cell, 1),)

    return oracle_cellular_map(fat_chains(x), geometric_chains(x), terms)
