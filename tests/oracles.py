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
  ``nerve`` and the composed ``nerve_map`` below must reproduce entry for
  entry.
* Per-cell lookups (``face``, ``degeneracy``, ``apply``,
  ``is_degenerate``) through an object's position tables, for tests that
  name cells.
* The rule-built chain layer: boundaries, chain maps, the stage product,
  the projection and the flag section built cell by cell and hashed back
  into rows, which the package's position-table builders must reproduce
  matrix for matrix.  The flags come from their own enumerations: nested
  combinations filtered and sorted (``oracle_sd_flags``), and maximal
  flags from permutations (``oracle_maximal_flags``).
* The nerve of a cover: every combination of cover indices with a
  nonempty overlap (``oracle_cover_nerve``), which the package's
  level-by-level ``_cover_nerve`` must reproduce in order, and the cocycle
  check over every ordered triple of cover indices
  (``oracle_check_cocycle``), whose refusals and witnesses the package's
  walk over that nerve must reproduce in order.
* The classifying complex: the stagewise unraveling built from a face rule
  per cell, and the universal cocycle checked cell by cell over it, which
  the package's table-composing ``unravel_simplicial`` and its once per
  nerve simplex ``universal_cocycle`` must reproduce cell for cell and
  witness for witness; and the cellwise isomorphism of the unraveled nerve
  onto the nerve of the unraveled category.
* The category-law audit and the functor check keyed by identifier
  tuples (``oracle_check_category``, ``oracle_check_functor``), whose
  violations the package's checks on the categories' numberings must
  reproduce, the category audit in order, the functor check up to the
  order of its composition witnesses, and the partition homotopy over
  Fractions (``oracle_partition_homotopy``), which the package's integer
  ``partition_homotopy`` must match as rationals.
* Comma fibers: the nondegenerate core of a nerve cell, found by
  scanning its arrows for identities (``_nondegenerate_factorization``),
  and the core's identity pattern (``oracle_core_pattern``), where the
  package reads degeneracy off the nerve's tables and a pattern only on
  nondegenerate cells; the category of a poset built from its up-sets
  (``poset_category``), the pullback category P that the package holds
  only as up-sets, with one composite per 2-chain, and its projection onto
  [m] as a functor (``simplex_leg``); the nerve-level reference
  (``nerve_level_fiber``), the audited nerve of P with both legs as
  audited ``nerve_map``s, which the package replaces by an order audit of
  P's up-sets, and whose fiber ``nerve(P, D)`` has the package's order
  complex as its normalized chains; the projection onto unravel(C, N) as
  a functor (``unraveled_leg``), which the package leaves unchecked; the
  step-chain simplicial set of (vertex tuple, stage tuple) pairs with its
  own face, degeneracy and leg rules, which the reference must match
  through the vertex sequence of each chain; and both legs of a fiber
  from the per-cell rule that maps a chain arrow by arrow.
* The tom Dieck decision on homology presentations
  (``oracle_tom_dieck``): ``quasi_iso_through`` on the whole projection,
  built through D, whose payload the package's cone certificate and its
  fallback must reproduce byte for byte.
* The sorting assignment's coordinate components as exact rationals
  (``rho_evaluate``), checked against closed forms.
* Dense matrices: products and transposes of plain row lists, the
  reference for the package's sparse ``IntMatrix``; ``dense_smith``, the
  dense eliminator that the package's sparse ``smith`` must agree with,
  which builds only the transforms asked for, and the presentation read
  off its matrices (``DensePresentation``); the transforms of a ``smith``
  record built as matrices (``transforms``); and the helpers that only
  tests need (identity, a column, equality of chain complexes, zero test,
  zero class, kernel basis, the normalization projection).
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from math import comb
from operator import itemgetter

from sympy import QQ, Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from fatcat import simpset
from fatcat.comparison import BarycentricPoint, projection_pi
from fatcat.errors import StructureError, Violation, check_budget
from fatcat.fincat import FinCategory, Functor, mid, ordinal, unravel
from fatcat.homology import (
    ChainMap,
    IntegerChainComplex,
    fat_chains,
    geometric_chains,
    quasi_iso_through,
)
from fatcat.ids import sort_ids, sort_key
from fatcat.intlinalg import IntMatrix, smith
from fatcat.simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    TruncatedSimplicialSet,
    _compose,
    _shifted,
    chain_composites,
    chain_count,
    chain_objects,
    delete_entry,
    nerve,
    s_semisimplicial,
    unravel_simplicial,
)


def _to_sympy(mat):
    if mat.nrows == 0 or mat.ncols == 0:
        return Matrix.zeros(mat.nrows, mat.ncols)
    return Matrix(mat.rows)


def betti_torsion(h):
    """(betti, torsion tuple) of a HomologyGroup, the form oracle_homology
    returns."""
    return h.betti, h.torsion


def _rank(mat):
    """Rank over the rationals, by sympy's DomainMatrix over QQ."""
    if not (mat.rows and mat.cols):
        return 0
    return DomainMatrix.from_Matrix(mat).convert_to(QQ).rank()


def oracle_homology(cx, k):
    """(betti, torsion tuple) of degree k of an IntegerChainComplex."""
    n = cx.rank(k)
    below = _to_sympy(cx.boundary_or_zero(k))
    above = _to_sympy(cx.boundary_or_zero(k + 1))
    rank_below = _rank(below)
    rank_above = _rank(above)
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
        _lookup(target.index(k), (image(k, cell) for cell in source.cells[k]),
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
    check_budget(sum(chain_count(ends, D)), TruncatedSimplicialSet.__name__)
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
    return x.cells[k - 1][x.faces[k][i][x.index(k)[cell]]]


def degeneracy(x, k, i, cell):
    """s_i of a k-cell of x."""
    return x.cells[k + 1][x.degeneracies[k][i][x.index(k)[cell]]]


def apply(f, k, cell):
    """Image of a k-cell under a simplicial map."""
    return f.target.cells[k][f.maps[k][f.source.index(k)[cell]]]


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


def oracle_tom_dieck(c, N, D, d):
    """Is π a homology isomorphism in degrees <= d, decided by comparing
    presentations of both sides' homology, with the stage product and the
    nerve built through D."""
    return quasi_iso_through(projection_pi(c, N, D), d)


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
        [(tuple(max(part) for part in flag), sign) for flag, sign in oracle_maximal_flags(n)]
        for n in range(D + 1)
    ]

    def terms(n, cell):
        stage = tuple(range(1, n + 2))
        for u, sign in pullbacks[n]:
            yield (oracle_apply_operator(x, n, cell, u), stage), sign

    prod = oracle_product_with_S(x, s_semisimplicial(N, D))
    return oracle_cellular_map(oracle_fat_chains(x), oracle_fat_chains(prod), terms)


# ---------------------------------------------------------------------------
# The category-law and functor checks over identifiers and the partition
# formula over Fractions


def arrows_leaving(c: FinCategory):
    """The morphisms leaving each object, in morphism order."""
    leaving = {x: [] for x in c.objects}
    for m, s, _ in c.morphisms:
        leaving[s].append(m)
    return leaving


def _check_ids(c: FinCategory):
    """Raise StructureError on dangling identifiers or missing identity
    entries."""
    objset = set(c.objects)
    morset = set(c.src)
    for m, s, t in c.morphisms:
        if s not in objset or t not in objset:
            raise StructureError(f"morphism {m} has dangling endpoint")
    if set(c.identity) != objset:
        raise StructureError("identity table is not total on objects")
    for x, m in c.identity.items():
        if m not in morset:
            raise StructureError(f"identity of {x} is not a morphism: {m}")
    for (f, g), h in c.table.items():
        if f not in morset or g not in morset or h not in morset:
            raise StructureError(f"composition entry has dangling id: {(f, g, h)}")


def _composable_pairs(c: FinCategory):
    """Every (f, g) with target(f) = source(g), in morphism order."""
    leaving = arrows_leaving(c)
    return [(f, g) for f in c.morphism_ids() for g in leaving[c.tgt[f]]]


def oracle_check_category(c: FinCategory):
    """Exhaustive law audit keyed by the identifier tuples themselves; the
    package's position-based ``check_category`` must return the same list.
    """
    _check_ids(c)
    violations = []

    for x in c.objects:
        m = c.identity[x]
        if c.src[m] != x or c.tgt[m] != x:
            violations.append(
                Violation("identity-endpoints", (x, m), "identity is not an endomorphism")
            )

    mids = c.morphism_ids()
    composable = _composable_pairs(c)
    comp_set = set(composable)
    for pair in composable:
        if pair not in c.table:
            violations.append(
                Violation("compose-total", pair, "composable pair missing from table")
            )
    # each entry misfits at most once, so only the misfits are put in order
    misfits = [(pair, h) for pair, h in c.table.items() if pair not in comp_set
               or c.src[h] != c.src[pair[0]] or c.tgt[h] != c.tgt[pair[1]]]
    for (f, g), h in sorted(misfits, key=lambda kv: sort_key(kv[0])):
        if (f, g) not in comp_set:
            violations.append(
                Violation("compose-domain", (f, g), "table entry on non-composable pair")
            )
        else:
            violations.append(
                Violation("compose-endpoints", (f, g, h), "composite has wrong endpoints")
            )

    def comp(f, g):
        return c.table.get((f, g))

    for f in mids:
        i_src = c.identity.get(c.src[f])
        i_tgt = c.identity.get(c.tgt[f])
        if i_src is not None and comp(i_src, f) is not None and comp(i_src, f) != f:
            violations.append(Violation("identity-law", (f, i_src), "f o id != f"))
        if i_tgt is not None and comp(f, i_tgt) is not None and comp(f, i_tgt) != f:
            violations.append(Violation("identity-law", (f, i_tgt), "id o f != f"))

    leaving = arrows_leaving(c)
    for f, g in composable:
        gf = comp(f, g)
        if gf is None:
            continue
        for h in leaving[c.tgt[g]]:
            hg = comp(g, h)
            left = comp(f, hg) if hg is not None else None
            right = comp(gf, h)
            if left is not None and right is not None and left != right:
                violations.append(
                    Violation("associativity", (f, g, h), "h(gf) != (hg)f")
                )
    return violations


def oracle_check_functor(F: Functor):
    """The functor laws checked on id-keyed maps and tables; the package's
    position-based ``check_functor`` must return the same violations,
    up to the order of the composition witnesses, and the same refusals.
    """
    src, tgt = F.source, F.target
    if set(F.omap) != set(src.objects):
        raise StructureError("object map is not total")
    if set(F.mmap) != set(src.src):
        raise StructureError("morphism map is not total")
    objects = set(tgt.objects)
    for y in F.omap.values():
        if y not in objects:
            raise StructureError(f"object image {y} not in target")
    violations = []
    for m in src.morphism_ids():
        fm = F.mmap[m]
        if fm not in tgt.src:
            raise StructureError(f"morphism image {fm} not in target")
        if tgt.src[fm] != F.omap[src.src[m]] or tgt.tgt[fm] != F.omap[src.tgt[m]]:
            violations.append(Violation("functor-endpoints", (m, fm)))
    for x in src.objects:
        if F.mmap[src.identity[x]] != tgt.identity[F.omap[x]]:
            violations.append(Violation("functor-identity", (x,)))
    for (f, g), h in src.table.items():
        expected = tgt.table.get((F.mmap[f], F.mmap[g]))
        if expected != F.mmap[h]:
            violations.append(Violation("functor-composition", (f, g)))
    return violations


def oracle_partition_homotopy(t, s):
    """Deformation from raw coordinates to a locally finite partition.

    w_i = max(0, t_i - s * sum_{j<i} t_j) and v = w normalized, over
    Fractions; the package's integer ``partition_homotopy`` must give the
    same w and v as rationals.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise StructureError("s must lie in [0, 1]")
    w = []
    before = Fraction(0)
    for ti in t:
        wi = ti - s * before
        w.append(wi if wi > 0 else Fraction(0))
        before += ti
    total = sum(w)
    assert total > 0, "a valid partition point always keeps positive mass"
    v = tuple(wi / total for wi in w)
    return tuple(w), v


# ---------------------------------------------------------------------------
# The nerve of a cover, by every combination


def oracle_cover_nerve(cc, top):
    """Every increasing tuple of at most top + 1 cover indices whose
    overlap is nonempty, with that overlap, by size and then
    lexicographically: the reference for ``_cover_nerve``, which extends
    only the nonempty overlaps."""
    out = []
    for size in range(1, top + 2):
        for idx in combinations(range(len(cc.cover)), size):
            faces = {f for f in cc.cover[idx[0]] if all(f in cc.cover[i] for i in idx[1:])}
            if faces:
                out.append((idx, frozenset(faces)))
    return out


def oracle_check_cocycle(u):
    """The cocycle check over every ordered pair and triple of cover
    indices, empty overlaps included: the reference for ``check_cocycle``,
    which reads the nerve of the cover, refusal for refusal and witness for
    witness, in order."""
    base, cat = u.base, u.groupoid.base
    n = len(base.cover)
    expected_objects = {
        (alpha, comp) for alpha in range(n) for comp in base.components_of_overlap((alpha,))
    }
    if set(u.objects) != expected_objects:
        raise StructureError("object assignment does not match the cover components")
    for key, obj in u.objects.items():
        if obj not in set(cat.objects):
            raise StructureError(f"object at {key} is not in the groupoid")
    allowed = {
        (alpha, beta, comp)
        for alpha in range(n)
        for beta in range(n)
        for comp in base.components_of_overlap((alpha, beta))
    }
    required = {k for k in allowed if k[0] != k[1]}
    if not required <= set(u.transitions) <= allowed:
        raise StructureError("transitions do not match the overlap components")
    for (alpha, beta, comp), m in u.transitions.items():
        if m not in cat.src:
            raise StructureError(f"transition at {(alpha, beta, comp)} is not a morphism")
        src_obj = u.objects[(alpha, base.component_containing((alpha,), comp))]
        tgt_obj = u.objects[(beta, base.component_containing((beta,), comp))]
        if cat.src[m] != src_obj or cat.tgt[m] != tgt_obj:
            raise StructureError(
                f"transition endpoints at {(alpha, beta, comp)} do not match the objects"
            )
    violations = []
    for (alpha, beta, comp), m in sort_ids(u.transitions.items(), key=itemgetter(0)):
        if alpha == beta and not cat.is_identity(m):
            violations.append(Violation("diagonal-identity", (alpha, comp)))
    for alpha, beta, gamma in product(range(n), repeat=3):
        for comp in base.components_of_overlap((alpha, beta, gamma)):
            f_ba = u.transition(alpha, beta, comp)
            f_cb = u.transition(beta, gamma, comp)
            f_ca = u.transition(alpha, gamma, comp)
            if cat.table.get((f_ba, f_cb)) != f_ca:
                violations.append(
                    Violation("cocycle-law", (alpha, beta, gamma, comp), "f_cb o f_ba != f_ca")
                )
    return violations


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
# Comma fibers as nerves: the reference for the package's category-level check

# the nerve of the pullback category P and the nerves of its projections
# onto [m] and onto unravel(c, N)
NerveFiber = namedtuple("NerveFiber", "degree steps fiber to_simplex to_unraveled")


def _nondegenerate_factorization(c: FinCategory, k: int, cell):
    """Vertex objects and arrows of the nondegenerate core of a nerve cell."""
    if k == 0:
        return (cell,), ()
    arrows = tuple(f for f in cell if not c.is_identity(f))
    objects = [c.src[cell[0]]]
    for f in cell:
        if not c.is_identity(f):
            objects.append(c.tgt[f])
    return tuple(objects), arrows


def oracle_core_pattern(c: FinCategory, k: int, cell):
    """The core degree m and the identity pattern of a nerve cell: the
    vertex pairs a0 < a1 of its core whose composite is an identity."""
    objects, arrows = _nondegenerate_factorization(c, k, cell)
    composite = chain_composites(c, objects, arrows)
    m = len(objects) - 1
    return m, frozenset(p for p in combinations(range(m + 1), 2) if c.is_identity(composite[p]))


def nerve_map(source, target, obj, arrow) -> SimplicialMap:
    """The nerve of a functor, x -> obj(x) and m -> arrow(m), between the
    categories of two nerves.  Objects and arrows are looked up in target's
    degrees 0 and 1, through its kept indexes, so the maps into one target
    share them; above, q + m goes to s_{k-1} of q's image plus the offset
    of arrow(m) from the identity (see :func:`fatcat.simpset.nerve`)."""
    if source.D != target.D:
        raise StructureError("source and target truncation degrees differ")
    images = map(obj, source.cells[0])
    maps = [simpset._positions(target.index(0), images, "map image leaves target degree 0")]
    if source.D:
        images = ((arrow(m),) for m, in source.cells[1])
        maps.append(simpset._positions(target.index(1), images,
                                       "map image leaves target degree 1"))
        unit = _compose(target.degeneracies[0][0], _compose(maps[0], source.faces[1][1]))
        offset = [p - u for p, u in zip(maps[1], unit)]
        last = range(source.n_cells(1))
    for k in range(2, source.D + 1):
        last = _compose(last, source.faces[k][0])  # d_0 keeps the last arrow
        maps.append(_shifted(target.degeneracies[k - 1][k - 1], maps[k - 1],
                             source.faces[k][k], _compose(offset, last)))
    return SimplicialMap(source, target, maps)


def poset_category(steps) -> FinCategory:
    """The category of the poset whose up-sets are ``steps``: one arrow
    (v, w) for each w in steps[v], the identities (v, v), and one
    composite per 2-chain, with no check that these are well defined."""
    points = list(steps)
    return FinCategory(
        points,
        [((v, w), v, w) for v in points for w in steps[v]],
        {v: (v, v) for v in points},
        {((u, v), (v, w)): (u, w) for u in points for v in steps[u] for w in steps[v]},
    )


def simplex_leg(pullback, m) -> Functor:
    """The projection (a, l) -> a of a comma fiber's pullback category onto
    [m], as a functor."""
    return Functor(pullback, ordinal(m), {v: v[0] for v in pullback.objects},
                   {(v, w): (v[0], w[0], "le") for v, w in pullback.src})


def _nerve_level_shape(m, pattern, N, D, simplex):
    """The steps of P, its nerve and the ``to_simplex`` leg, all of which
    depend only on the core degree m, N, D and the identity pattern."""
    vertices = [(a, l) for a in range(m + 1) for l in range(N + 1)]
    steps = {
        (a0, l0): [
            (a1, l1) for a1 in range(a0, m + 1) for l1 in range(l0, N + 1)
            if l0 < l1 or a0 == a1 or (a0, a1) in pattern
        ]
        for a0, l0 in vertices
    }
    check_budget(sum(chain_count(steps, max(D, 2))), TruncatedSimplicialSet.__name__)
    fiber = nerve(poset_category(steps), D)
    to_simplex = nerve_map(fiber, simplex, lambda v: v[0], lambda vw: (vw[0][0], vw[1][0], "le"))
    return steps, fiber, to_simplex


def nerve_level_fiber(c, N, D, y_cell, y_degree, target, simplex, shapes) -> NerveFiber:
    """The comma fiber of a nerve simplex as the audited nerve of the
    pullback category P = [m] x_C unravel(c, N), with both legs as audited
    nerve maps, the nerves of the projections (a, l) -> a and (a, l) ->
    (y(a), l).  ``target`` is ``nerve(unravel(c, N), D)`` and ``simplex``
    is ``nerve(ordinal(m), D)``, the codomains of the legs.  ``shapes``
    maps (m, pattern) to the steps, the nerve and the ``to_simplex`` leg,
    which a core with the same identity pattern reuses."""
    objects, arrows = _nondegenerate_factorization(c, y_degree, y_cell)
    m = len(objects) - 1
    composite = chain_composites(c, objects, arrows)
    key = oracle_core_pattern(c, y_degree, y_cell)
    if key not in shapes:
        shapes[key] = _nerve_level_shape(*key, N, D, simplex)
    steps, fiber, to_simplex = shapes[key]

    def lift(step):
        (a0, l0), (a1, l1) = step
        return mid(c, composite[(a0, a1)], l0, l1)

    to_unraveled = nerve_map(fiber, target, lambda v: (objects[v[0]], v[1]), lift)
    return NerveFiber(m, steps, fiber, to_simplex, to_unraveled)


def unraveled_leg(c, target, y_cell, y_degree, pullback) -> Functor:
    """The projection (a, l) -> (y(a), l) of the pullback category P of a
    nerve simplex onto ``target``, which is unravel(c, N): the arrow (a0,
    l0) -> (a1, l1) goes to the lift of the core composite a0 -> a1 from
    stage l0 to l1.  The package does not check it, since the audits of
    nerve(c, D) and unravel(c, N) imply its functor laws; ``check_functor``
    on it is the leg check the package once ran for every core."""
    objects, arrows = _nondegenerate_factorization(c, y_degree, y_cell)
    composite = chain_composites(c, objects, arrows)
    return Functor(
        pullback, target, {v: (objects[v[0]], v[1]) for v in pullback.objects},
        {(v, w): mid(c, composite[(v[0], w[0])], v[1], w[1]) for v, w in pullback.src},
    )


# ---------------------------------------------------------------------------
# Comma fibers as step-chain simplicial sets


def oracle_quillen_fiber(c, N, D, y_cell, y_degree, target, simplex) -> NerveFiber:
    """The comma fiber of a nerve simplex built cell by cell: a degree-k
    cell is a pair (vertex tuple, stage tuple) of weakly increasing tuples
    where equal consecutive stages force the core arrow between the two
    vertices to be an identity, the cells sorted by that pair; faces delete
    an entry of both tuples and degeneracies repeat one.  ``target`` and
    ``simplex`` are the codomains of the two legs, and the steps are read
    off the same step rule."""
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

    return NerveFiber(
        degree=m,
        steps={v: [w for w in vertices if step_ok(v, w)] for v in vertices},
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


DenseSmith = namedtuple("DenseSmith", "factors rank U Uinv V Vinv")


def dense_smith(A, rows=False, cols=False):
    """Dense Smith normal form, the reference for :func:`smith`.  U and
    Uinv are built as matrices when ``rows`` is set, V and Vinv when
    ``cols`` is, and the others are None.

    Elimination picks the minimal-absolute-value pivot, clears its row and
    column with Euclidean steps, then forces the pivot to divide the whole
    trailing submatrix before moving on, which yields the divisibility chain
    directly.
    """
    nrows, ncols = A.nrows, A.ncols
    M = [list(r) for r in A.rows]
    U, Uinv = (dense_identity(nrows), dense_identity(nrows)) if rows else (None, None)
    V, Vinv = (dense_identity(ncols), dense_identity(ncols)) if cols else (None, None)

    def swap_rows(i, j):
        if i == j:
            return
        M[i], M[j] = M[j], M[i]
        if rows:
            U[i], U[j] = U[j], U[i]
            for r in Uinv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in M:
            r[i], r[j] = r[j], r[i]
        if cols:
            for r in V:
                r[i], r[j] = r[j], r[i]
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        if rows:
            U[i] = [-v for v in U[i]]
            for r in Uinv:
                r[i] = -r[i]

    def row_axpy(i, j, q):
        # row_i -= q * row_j
        if not q:
            return
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        if rows:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]
            for r in Uinv:
                r[j] += q * r[i]

    def col_axpy(i, j, q):
        # col_i -= q * col_j
        if not q:
            return
        for r in M:
            r[i] -= q * r[j]
        if cols:
            for r in V:
                r[i] -= q * r[j]
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

    factors = [M[i][i] for i in range(t)]
    row_side = (IntMatrix(U, nrows), IntMatrix(Uinv, nrows)) if rows else (None, None)
    col_side = (IntMatrix(V, ncols), IntMatrix(Vinv, ncols)) if cols else (None, None)
    return DenseSmith(factors, t, *row_side, *col_side)


class DensePresentation:
    """ker(A)/im(B) read off ``dense_smith``'s matrices, the reference for
    the package's ``HomologyPresentation``: Uinv of B splits off im(B), V
    of the rest M of A in that basis picks the free cycles, generators are
    columns of Uinv and of Uinv * V, and coordinates are U and then Vinv
    applied to a cycle."""

    def __init__(self, A, B, n):
        self._A = A
        self._B = dense_smith(B, rows=True)
        rB = self._B.rank
        rest = A.mul(self._B.Uinv).rows
        if any(any(row[:rB]) for row in rest):
            raise StructureError("B does not map into ker(A)")
        self._M = dense_smith(IntMatrix([row[rB:] for row in rest], n - rB), cols=True)
        self.betti = n - rB - self._M.rank
        self._torsion_index = [i for i, d in enumerate(self._B.factors) if d > 1]
        self.torsion = tuple(self._B.factors[i] for i in self._torsion_index)

    @property
    def generators(self):
        """Torsion generators first, then free generators."""
        uinv, rB = self._B.Uinv, self._B.rank
        gens = [column(uinv, i) for i in self._torsion_index]
        for j in range(self._M.rank, self._M.V.ncols):
            free = column(self._M.V, j)
            gens.append([sum(row.get(rB + i, 0) * v for i, v in enumerate(free))
                         for row in uinv.nz])
        return gens

    def coords(self, vec):
        if any(self._A.mulvec(vec)):
            raise StructureError("vector is not a cycle")
        rB, rM = self._B.rank, self._M.rank
        y = self._B.U.mulvec(vec)
        tor = tuple(y[i] % self._B.factors[i] for i in self._torsion_index)
        z = self._M.Vinv.mulvec(y[rB:])
        if any(z[:rM]):
            raise StructureError("cycle has nonzero coordinates on killed summands")
        return tor, tuple(z[rM:])


Transforms = namedtuple("Transforms", "U Uinv V Vinv")


def transforms(form):
    """U, Uinv, V and Vinv of an elimination by the package's ``smith``,
    built by applying its record to the unit vectors; a side it did not
    record gives None."""

    def build(apply, n):
        columns = [apply(unit) for unit in dense_identity(n)]
        return IntMatrix(dense_transposed(columns, n), n)

    rows, cols = form.row_ops is not None, form.col_ops is not None
    return Transforms(
        build(form.U, form.nrows) if rows else None,
        build(form.Uinv, form.nrows) if rows else None,
        build(form.V, form.ncols) if cols else None,
        build(form.Vinv, form.ncols) if cols else None,
    )


def identity(n):
    return IntMatrix(dense_identity(n), ncols=n)


def column(mat, j):
    """Column j of an IntMatrix as a dense list."""
    return [row.get(j, 0) for row in mat.nz]


def same_chain_complex(a: IntegerChainComplex, b: IntegerChainComplex) -> bool:
    """Same degree, bases and boundary matrices."""
    return (
        a.D == b.D
        and a.basis == b.basis
        and all(a.boundary[k] == b.boundary[k] for k in range(1, a.D + 1))
    )


def is_zero(mat):
    return all(not v for row in mat.rows for v in row)


def zero_class(presentation, vec):
    """Is the cycle ``vec`` a boundary?"""
    tor, free = presentation.coords(vec)
    return not any(tor) and not any(free)


def kernel_basis(mat):
    """Columns spanning ker(mat) as a saturated sublattice (a direct summand)."""
    form = smith(mat, cols=True)
    V = transforms(form).V
    return IntMatrix([row[form.rank:] for row in V.rows], mat.ncols - form.rank)


def normalization_projection(x):
    """Projection from fat chains onto geometric chains, killing the
    degenerate generators.  A classical quasi-isomorphism."""

    marks = [degenerate_cells(x, k) for k in range(x.D + 1)]

    def terms(k, cell):
        return () if cell in marks[k] else ((cell, 1),)

    return oracle_cellular_map(fat_chains(x), geometric_chains(x), terms)


def oracle_sd_flags(n, k):
    """The k-cells of the barycentric subdivision of the n-simplex by
    filtering, for every choice of k + 1 distinct part sizes, each tuple of
    subsets of those sizes for strictly nested chains, and sorting them:
    the reference for ``sd_flags``."""
    # the parts of a strictly nested chain have strictly increasing sizes,
    # so each chain is one tuple of one choice of sizes
    by_size = [[frozenset(c) for c in combinations(range(n + 1), size)] for size in range(n + 2)]
    flags = [
        tuple(tuple(sorted(p)) for p in chain)
        for sizes in combinations(range(1, n + 2), k + 1)
        for chain in product(*(by_size[size] for size in sizes))
        if all(a < b for a, b in zip(chain, chain[1:]))
    ]
    flags.sort(key=sort_key)
    return flags


def oracle_maximal_flags(n):
    """The maximal flags of the n-simplex from the permutations of {0..n}:
    pi gives A_i = {pi(0), ..., pi(i)}, signed by the parity of its
    inversions.  The reference for ``maximal_flags``, as (chain of sorted
    tuples, sign) pairs in the permutations' order."""
    out = []
    for pi in permutations(range(n + 1)):
        chain = tuple(tuple(sorted(pi[: i + 1])) for i in range(n + 1))
        inversions = sum(
            1 for a in range(n + 1) for b in range(a + 1, n + 1) if pi[a] > pi[b]
        )
        out.append((chain, -1 if inversions % 2 else 1))
    return out


# ---------------------------------------------------------------------------
# The sorting assignment


def rho_evaluate(n: int, j: int, t):
    """Coordinate component s_{j,n} of the sorting assignment, an exact
    rational.

    (j+1) times the sum over (j+1)-subsets E of max(0, min_E t - max_{not E} t),
    with the max over an empty complement read as 0.
    """
    if not 0 <= j <= n:
        raise StructureError("need 0 <= j <= n")
    coords = t.coords if isinstance(t, BarycentricPoint) else tuple(t)
    if len(coords) != n + 1:
        raise StructureError("point has wrong dimension")
    total = Fraction(0)
    for E in combinations(range(n + 1), j + 1):
        inside = min(coords[i] for i in E)
        rest = [coords[i] for i in range(n + 1) if i not in E]
        outside = max(rest) if rest else Fraction(0)
        if inside > outside:
            total += inside - outside
    return (j + 1) * total
