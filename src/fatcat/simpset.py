"""Truncated simplicial and semi-simplicial sets.

Cells are canonical identifiers (objects, morphism chains, index tuples and
pairs of these), kept in one ordered list per degree with an index from
each cell to its position.  Face, degeneracy and map tables are per-degree
lists of positions: ``faces[k][i][p]`` is the position in degree k - 1 of
d_i of the p-th k-cell.  The simplicial identities are audited exhaustively
on construction, scoped to the degrees that exist below the truncation
cutoff D, once per pair of indices by composing whole tables; a mismatch
is mapped back to its cell, so a violation names the cell that breaks the
law.  The package builds every object with :func:`simplicial_set` and every
map with :func:`simplicial_map`, which lay out the tables from per-cell
rules, so the table layout is decided in one place.  ``face``,
``degeneracy`` and ``apply`` still take and return cells.

Conventions used throughout:

* a k-cell of a nerve is a composable chain (f_1, ..., f_k), a 0-cell is an
  object; d_0 drops the first arrow, d_k the last, the inner d_i composes
  f_{i+1} after f_i, and s_i inserts an identity at vertex i;
* the stage complex S has k-cells the strictly increasing (k+1)-tuples of
  stage labels, d_i deleting entry i;
* an unraveled cell is a pair (weakly increasing stage tuple, nerve cell of
  degree l-1) where l counts the distinct stages.  Deleting a stage that
  shares its value with a neighbour leaves the nerve cell alone; deleting a
  stage alone in its value group applies the face at that group's index.
  The group is read before deletion, which is the unique reading that
  satisfies the simplicial identities (see the audit).
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import StructureError, Violation, check_budget
from .fincat import FinCategory, mid, unravel
from .ids import sort_key


class SemiSimplicialSet:
    """Degree-indexed cell lists with face maps d_i only.

    ``faces[k][i][p]`` is the position in ``cells[k - 1]`` of d_i of the
    p-th k-cell, and ``index[k]`` maps each k-cell to its position.  The
    constructor checks each table's length and range, then audits the face
    identities once per (i, j) pair by composing whole tables.
    """

    has_degeneracies = False

    def __init__(self, D, cells, face):
        self.D = D
        self.cells = [tuple(cs) for cs in cells]
        if len(self.cells) != D + 1:
            raise StructureError("cell lists must cover degrees 0..D")
        check_budget(sum(len(cs) for cs in self.cells), type(self).__name__)
        self.index = [{cell: p for p, cell in enumerate(cs)} for cs in self.cells]
        self.faces = face
        seen_violations = self.audit()
        if seen_violations:
            raise StructureError(
                f"face identities fail, e.g. {seen_violations[0]}"
            )

    def n_cells(self, k):
        return len(self.cells[k])

    def face(self, k, i, cell):
        return self.cells[k - 1][self.faces[k][i][self.index[k][cell]]]

    def audit(self):
        F = self.faces
        for k in range(1, self.D + 1):
            if len(F[k]) != k + 1:
                raise StructureError(f"degree {k} needs faces d_0..d_{k}")
            for i, table in enumerate(F[k]):
                _check_table(table, self.n_cells(k), self.n_cells(k - 1),
                             f"face d_{i} undefined on a {k}-cell",
                             f"face d_{i} leaves degree {k - 1}")
        # d_i d_j = d_{j-1} d_i for i < j
        pairs = (
            (k, (i, j), _compose(F[k - 1][i], F[k][j]), _compose(F[k - 1][j - 1], F[k][i]))
            for k in range(2, self.D + 1) for j in range(k + 1) for i in range(j)
        )
        return _violations("face-face", pairs, self.cells)

    def is_degenerate(self, k, cell):
        return False

    def nondegenerate(self, k):
        return self.cells[k]


class TruncatedSimplicialSet(SemiSimplicialSet):
    """Semi-simplicial set plus degeneracy maps s_i for degrees below D.

    ``degeneracies[k][i][p]`` is the position in ``cells[k + 1]`` of s_i of
    the p-th k-cell; it is checked and audited like the face tables.
    """

    has_degeneracies = True

    def __init__(self, D, cells, face, degeneracy):
        self.degeneracies = degeneracy
        self._degenerate = None
        super().__init__(D, cells, face)

    def degeneracy(self, k, i, cell):
        return self.cells[k + 1][self.degeneracies[k][i][self.index[k][cell]]]

    def audit(self):
        violations = super().audit()
        S = self.degeneracies
        for k in range(self.D):
            if len(S[k]) != k + 1:
                raise StructureError(f"degree {k} needs degeneracies s_0..s_{k}")
            for i, table in enumerate(S[k]):
                _check_table(table, self.n_cells(k), self.n_cells(k + 1),
                             f"degeneracy s_{i} undefined on a {k}-cell",
                             f"degeneracy s_{i} leaves degree {k + 1}")
        # s_i s_j = s_{j+1} s_i for i <= j
        pairs = (
            (k, (i, j), _compose(S[k + 1][i], S[k][j]), _compose(S[k + 1][j + 1], S[k][i]))
            for k in range(self.D - 1) for j in range(k + 1) for i in range(j + 1)
        )
        violations += _violations("degeneracy-degeneracy", pairs, self.cells)
        violations += _violations("face-degeneracy", self._face_degeneracy_pairs(), self.cells)
        return violations

    def _face_degeneracy_pairs(self):
        """d_i s_j is the identity for i in {j, j + 1}, s_{j-1} d_i for
        i < j and s_j d_{i-1} for i > j + 1."""
        F, S = self.faces, self.degeneracies
        for k in range(self.D):
            identity = list(range(self.n_cells(k)))
            for j in range(k + 1):
                for i in range(k + 2):
                    if i == j or i == j + 1:
                        want = identity
                    elif i < j:
                        want = _compose(S[k - 1][j - 1], F[k][i])
                    else:
                        want = _compose(S[k - 1][j], F[k][i - 1])
                    yield k, (i, j), _compose(F[k + 1][i], S[k][j]), want

    def _degenerate_positions(self, k):
        if self._degenerate is None:
            self._degenerate = [set()] + [
                set().union(*self.degeneracies[deg]) for deg in range(self.D)
            ]
        return self._degenerate[k]

    def is_degenerate(self, k, cell):
        return self.index[k].get(cell) in self._degenerate_positions(k)

    def nondegenerate(self, k):
        marks = self._degenerate_positions(k)
        return tuple(c for p, c in enumerate(self.cells[k]) if p not in marks)


class SimplicialMap:
    """Per-degree cell map commuting with faces, and with degeneracies when
    both sides have them.  ``maps[k][p]`` is the position in
    ``target.cells[k]`` of the image of the p-th k-cell of ``source``.
    Audited on construction, once per (k, i) by composing whole tables."""

    def __init__(self, source, target, maps):
        _same_truncation(source, target)
        self.source = source
        self.target = target
        self.maps = maps
        bad = self.audit()
        if bad:
            raise StructureError(f"structure maps do not commute, e.g. {bad[0]}")

    def apply(self, k, cell):
        return self.target.cells[k][self.maps[k][self.source.index[k][cell]]]

    def audit(self):
        src, tgt, M = self.source, self.target, self.maps
        for k in range(src.D + 1):
            _check_table(M[k], src.n_cells(k), tgt.n_cells(k),
                         f"map undefined on a {k}-cell",
                         f"map image leaves target degree {k}")
        pairs = (
            (k, (i,), _compose(M[k - 1], src.faces[k][i]), _compose(tgt.faces[k][i], M[k]))
            for k in range(1, src.D + 1) for i in range(k + 1)
        )
        violations = _violations("map-face", pairs, src.cells)
        if src.has_degeneracies and tgt.has_degeneracies:
            pairs = (
                (k, (i,), _compose(M[k + 1], src.degeneracies[k][i]),
                 _compose(tgt.degeneracies[k][i], M[k]))
                for k in range(src.D) for i in range(k + 1)
            )
            violations += _violations("map-degeneracy", pairs, src.cells)
        return violations


def _same_truncation(source, target):
    if source.D != target.D:
        raise StructureError("source and target truncation degrees differ")


def _check_table(table, n, size, undefined, leaves):
    """A position table over n cells holds n positions in range(size)."""
    if table and (min(table) < 0 or max(table) >= size):
        raise StructureError(leaves)
    if len(table) != n:
        raise StructureError(undefined)


def _compose(outer, inner):
    """The position table of ``outer`` after ``inner``."""
    return list(map(outer.__getitem__, inner))


def _violations(law, pairs, cells):
    """Violations of one law.  ``pairs`` yields (k, indices, left, right),
    where left and right are position tables over the k-cells that the law
    says agree.  Each mismatching position p gives ``Violation(law, (k,
    *indices, cells[k][p]))``, in cell-major order: by degree, then cell,
    then the indices from last to first."""
    found = []
    for k, indices, left, right in pairs:
        if left != right:
            found.extend(
                (k, p, indices[::-1]) for p, (a, b) in enumerate(zip(left, right)) if a != b
            )
    found.sort()
    return [Violation(law, (k,) + rev[::-1] + (cells[k][p],)) for k, p, rev in found]


def _positions(index, images, leaves):
    """Positions of ``images`` in a degree's ``index``; a miss raises."""
    positions = list(map(index.get, images))
    if None in positions:
        raise StructureError(leaves)
    return positions


def simplicial_set(D, cells, face, degeneracy=None):
    """The one place where face and degeneracy tables are laid out.

    ``cells[k]`` lists the k-cells in order; ``face(k, i, cell)`` is d_i of
    a k-cell (1 <= k <= D) and ``degeneracy(k, i, cell)`` is s_i of a
    k-cell (k < D).  Each result is looked up in the index of its degree,
    and one that is not a cell there raises :class:`StructureError`.
    Without ``degeneracy`` the result is semi-simplicial.
    """
    index = [{cell: p for p, cell in enumerate(cs)} for cs in cells]
    faces = [None] + [
        [_positions(index[k - 1], (face(k, i, cell) for cell in cells[k]),
                    f"face d_{i} leaves degree {k - 1}") for i in range(k + 1)]
        for k in range(1, D + 1)
    ]
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    if degeneracy is None:
        return SemiSimplicialSet(D, cells, faces)
    degeneracies = [
        [_positions(index[k + 1], (degeneracy(k, i, cell) for cell in cells[k]),
                    f"degeneracy s_{i} leaves degree {k + 1}") for i in range(k + 1)]
        for k in range(D)
    ]
    return TruncatedSimplicialSet(D, cells, faces, degeneracies)


def simplicial_map(source, target, image) -> SimplicialMap:
    """The one place where a simplicial map's tables are laid out:
    ``image(k, cell)`` is the image of a k-cell of ``source``, looked up in
    the index of ``target``."""
    _same_truncation(source, target)
    maps = [
        _positions(target.index[k], (image(k, cell) for cell in source.cells[k]),
                   f"map image leaves target degree {k}")
        for k in range(source.D + 1)
    ]
    return SimplicialMap(source, target, maps)


def chain_objects(c: FinCategory, k: int, chain) -> tuple:
    """Objects at the vertices 0..k of a degree-k nerve cell (a 0-cell is
    its object)."""
    if k == 0:
        return (chain,)
    return (c.src[chain[0]],) + tuple(c.tgt[f] for f in chain)


def chain_composites(c: FinCategory, objects, arrows) -> dict:
    """Composites along a chain of arrows through ``objects``: entry
    (a, b), a <= b, is the arrow from vertex a to vertex b, the identity
    when a == b."""
    out = {}
    for a, x in enumerate(objects):
        out[(a, a)] = c.identity[x]
        for b in range(a + 1, len(objects)):
            f = arrows[b - 1]
            out[(a, b)] = f if b == a + 1 else c.table[(out[(a, b - 1)], f)]
    return out


def nerve(c: FinCategory, D: int) -> TruncatedSimplicialSet:
    """Nerve of a finite category, truncated at degree D.

    k-cells are composable chains; the 0-cells are the objects themselves.
    The cells are counted and budgeted before any of them is built.
    """
    if D < 0:
        raise StructureError("truncation degree must be >= 0")
    from_obj = {x: [] for x in c.objects}
    for m, s, _ in c.morphisms:
        from_obj[s].append(m)
    # chains[x]: composable k-chains starting at x, by recurrence on k
    chains = {x: 1 for x in c.objects}
    total = len(chains)
    for _ in range(D):
        chains = {x: sum(chains[c.tgt[m]] for m in from_obj[x]) for x in c.objects}
        total += sum(chains.values())
    check_budget(total, TruncatedSimplicialSet.__name__)
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

    return simplicial_set(D, cells, face, degeneracy)


def s_semisimplicial(N: int, D: int) -> SemiSimplicialSet:
    """Stage complex: k-cells are strictly increasing (k+1)-tuples in {0..N}."""
    if N < 0 or D < 0:
        raise StructureError("N and D must be >= 0")
    cells = [list(combinations(range(N + 1), k + 1)) for k in range(D + 1)]
    return simplicial_set(D, cells, lambda k, i, seq: seq[:i] + seq[i + 1:])


def product_with_S(x, s: SemiSimplicialSet) -> SemiSimplicialSet:
    """Degreewise product with diagonal faces.

    Every cell of x appears, degenerate or not; the product forgets x's
    degeneracies and is only semi-simplicial.  The cells are counted and
    budgeted before any of them is built.
    """
    if x.D != s.D:
        raise StructureError("truncation degrees differ")
    total = sum(x.n_cells(k) * s.n_cells(k) for k in range(x.D + 1))
    check_budget(total, SemiSimplicialSet.__name__)
    cells = [
        [(a, b) for a in x.cells[k] for b in s.cells[k]] for k in range(x.D + 1)
    ]
    return simplicial_set(
        x.D, cells, lambda k, i, cell: (x.face(k, i, cell[0]), s.face(k, i, cell[1]))
    )


def _group_index(seq, pos):
    return len(set(seq[: pos + 1])) - 1


def _in_multi_group(seq, pos):
    before = pos > 0 and seq[pos - 1] == seq[pos]
    after = pos + 1 < len(seq) and seq[pos] == seq[pos + 1]
    return before or after


def unravel_simplicial(y: TruncatedSimplicialSet, N: int) -> TruncatedSimplicialSet:
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

    def face(n, i, cell):
        seq, z = cell
        rest = seq[:i] + seq[i + 1:]
        if _in_multi_group(seq, i):
            return rest, z
        return rest, y.face(len(set(seq)) - 1, _group_index(seq, i), z)

    def degeneracy(n, i, cell):
        seq, z = cell
        return seq[: i + 1] + seq[i:], z

    return simplicial_set(D, cells, face, degeneracy)


def interleave_cell(c: FinCategory, k, chain, seq):
    """Cell of nerve(unravel(c, N)) obtained by pairing a nerve chain of c
    with a strictly increasing stage tuple of the same degree."""
    if k == 0:
        return (chain, seq[0])
    return tuple(mid(c, f, a, b) for f, a, b in zip(chain, seq, seq[1:]))


@dataclass
class BijectionReport:
    violations: list
    product_counts: tuple
    nondegenerate_counts: tuple

    @property
    def ok(self):
        return not self.violations and self.product_counts == self.nondegenerate_counts


def lemma42_bijection(c: FinCategory, N: int, D: int) -> BijectionReport:
    """Check that pairing nerve chains with strict stage tuples is a
    face-respecting bijection onto the nondegenerate cells of the nerve of
    the unraveled category."""
    ner = nerve(c, D)
    s = s_semisimplicial(N, D)
    prod = product_with_S(ner, s)
    cN = unravel(c, N)
    target = nerve(cN, D)

    violations = []
    positions = []
    for k in range(D + 1):
        images = [interleave_cell(c, k, *cell) for cell in prod.cells[k]]
        positions.append(list(map(target.index[k].get, images)))
        image_set = set(images)
        if len(image_set) != len(images):
            violations.append(Violation("bijection-injective", (k,)))
        nondeg = set(target.nondegenerate(k))
        extra = image_set - nondeg
        missing = nondeg - image_set
        for cell in sorted(extra, key=sort_key):
            violations.append(Violation("bijection-image", (k, cell)))
        for cell in sorted(missing, key=sort_key):
            violations.append(Violation("bijection-surjective", (k, cell)))
    # an image outside the target is already a bijection-image violation
    if not any(None in pos for pos in positions):
        violations += _violations(
            "bijection-face",
            (
                (
                    k,
                    (i,),
                    _compose(positions[k - 1], prod.faces[k][i]),
                    _compose(target.faces[k][i], positions[k]),
                )
                for k in range(1, D + 1)
                for i in range(k + 1)
            ),
            prod.cells,
        )
    return BijectionReport(
        violations,
        tuple(prod.n_cells(k) for k in range(D + 1)),
        tuple(len(target.nondegenerate(k)) for k in range(D + 1)),
    )


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

    iso = simplicial_map(left, right, image)
    for n in range(D + 1):
        if len(set(iso.maps[n])) != left.n_cells(n) or left.n_cells(
            n
        ) != right.n_cells(n):
            raise StructureError(f"cell counts differ in degree {n}")
    return iso


@dataclass(frozen=True)
class BarycentricFlag:
    """Strictly nested chain of nonempty subsets of {0..n}, a cell of the
    barycentric subdivision of the n-simplex."""

    n: int
    chain: tuple

    def __post_init__(self):
        full = set(range(self.n + 1))
        prev = None
        for part in self.chain:
            if not isinstance(part, frozenset) or not part or not part <= full:
                raise StructureError("flag parts must be nonempty subsets of {0..n}")
            if prev is not None and not (prev < part):
                raise StructureError("flag inclusions must be strict")
            prev = part

    @property
    def degree(self):
        return len(self.chain) - 1


def sd_flags(n: int, k: int):
    """All k-cells of the barycentric subdivision of the n-simplex."""
    if n < 0 or k < 0:
        raise StructureError("n and k must be >= 0")
    subsets = []
    universe = list(range(n + 1))
    for size in range(1, n + 2):
        subsets.extend(frozenset(c) for c in combinations(universe, size))

    flags = []

    def grow(chain):
        if len(chain) == k + 1:
            flags.append(BarycentricFlag(n, tuple(chain)))
            return
        for cand in subsets:
            if chain[-1] < cand:
                chain.append(cand)
                grow(chain)
                chain.pop()

    for first in subsets:
        grow([first])
    flags.sort(key=lambda fl: sort_key(tuple(tuple(sorted(p)) for p in fl.chain)))
    return flags


def maximal_flags(n: int):
    """Top cells of the subdivided n-simplex with their orientation signs.

    A maximal flag corresponds to a permutation pi with A_i = {pi(0..i)};
    the sign is the permutation's parity.
    """
    from itertools import permutations

    out = []
    for pi in permutations(range(n + 1)):
        chain = tuple(frozenset(pi[: i + 1]) for i in range(n + 1))
        inversions = sum(
            1 for a in range(n + 1) for b in range(a + 1, n + 1) if pi[a] > pi[b]
        )
        out.append((BarycentricFlag(n, chain), -1 if inversions % 2 else 1))
    return out

