"""Truncated simplicial and semi-simplicial sets.

Cells are canonical identifiers (objects, morphism chains, index tuples and
pairs of these), kept in one ordered list per degree; they label bases and
witnesses.  Face, degeneracy and map tables are per-degree lists of
positions: ``faces[k][i][p]`` is the position in degree k - 1 of d_i of the
p-th k-cell, and everything downstream reads these tables.  The simplicial
identities are audited exhaustively on construction, in the degrees below
the truncation cutoff D that hold cells, once per pair of indices by
composing whole tables; a mismatch is mapped back to its cell, so a
violation names the cell that breaks the law.  Only the sets whose faces
delete an entry of a tuple cell are laid out from a per-cell rule, by
:func:`simplicial_set`; every other object composes its tables.

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
  satisfies the simplicial identities (see the audit);
* a cell of the barycentric subdivision of the n-simplex is a flag, a
  strictly nested chain of nonempty subsets of {0..n}, written as a tuple
  of sorted tuples; :func:`sd_flags` is its one enumeration.
"""

from collections import namedtuple
from itertools import accumulate, combinations, combinations_with_replacement, pairwise
from math import comb, factorial

from .errors import StructureError, Violation, check_budget, check_units
from .fincat import FinCategory, mid, unravel
from .ids import sort_ids


class SemiSimplicialSet:
    """Degree-indexed cell lists with face maps d_i only.

    ``faces[k][i][p]`` is the position in ``cells[k - 1]`` of d_i of the
    p-th k-cell, and ``index(k)``, built on the first call for degree k
    and kept, maps each k-cell to its position.  The constructor budgets
    the object (see :func:`check_size`), checks each table's length and
    range, then audits the face identities once per (i, j) pair by
    composing whole tables.
    """

    has_degeneracies = False

    def __init__(self, D, cells, face):
        self.D = D
        self.cells = [tuple(cs) for cs in cells]
        if len(self.cells) != D + 1:
            raise StructureError("cell lists must cover degrees 0..D")
        check_size(type(self), D, list(map(len, self.cells)))
        self.faces = face
        self._index = {}
        seen_violations = self.audit()
        if seen_violations:
            raise StructureError(
                f"face identities fail, e.g. {seen_violations[0]}"
            )

    def index(self, k):
        index = self._index.get(k)
        if index is None:
            index = self._index[k] = {cell: p for p, cell in enumerate(self.cells[k])}
        return index

    def n_cells(self, k):
        return len(self.cells[k])

    def _occupied(self, start, stop):
        """The degrees in range(start, stop) that hold cells: a law over no
        cells holds, so the audits skip the rest."""
        return [k for k in range(start, stop) if self.cells[k]]

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
            for k in self._occupied(2, self.D + 1) for j in range(k + 1) for i in range(j)
        )
        return _violations("face-face", pairs, self.cells)


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
            for k in self._occupied(0, self.D - 1) for j in range(k + 1) for i in range(j + 1)
        )
        violations += _violations("degeneracy-degeneracy", pairs, self.cells)
        violations += _violations("face-degeneracy", self._face_degeneracy_pairs(), self.cells)
        return violations

    def _face_degeneracy_pairs(self):
        """d_i s_j is the identity for i in {j, j + 1}, s_{j-1} d_i for
        i < j and s_j d_{i-1} for i > j + 1."""
        F, S = self.faces, self.degeneracies
        for k in self._occupied(0, self.D):
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

    def nondegenerate_positions(self, k):
        """Ascending positions of the k-cells outside the images of the s_i."""
        if self._degenerate is None:
            self._degenerate = [set()] + [
                set().union(*self.degeneracies[deg]) for deg in range(self.D)
            ]
        marks = self._degenerate[k]
        return [p for p in range(self.n_cells(k)) if p not in marks]

    def nondegenerate(self, k):
        cells = self.cells[k]
        return tuple(cells[p] for p in self.nondegenerate_positions(k))


class SimplicialMap:
    """Per-degree cell map commuting with faces, and with degeneracies when
    both sides have them.  ``maps[k][p]`` is the position in
    ``target.cells[k]`` of the image of the p-th k-cell of ``source``.
    Audited on construction, once per (k, i) by composing whole tables."""

    def __init__(self, source, target, maps):
        if source.D != target.D:
            raise StructureError("source and target truncation degrees differ")
        self.source = source
        self.target = target
        self.maps = maps
        bad = self.audit()
        if bad:
            raise StructureError(f"structure maps do not commute, e.g. {bad[0]}")

    def audit(self):
        src, tgt, M = self.source, self.target, self.maps
        for k in range(src.D + 1):
            _check_table(M[k], src.n_cells(k), tgt.n_cells(k),
                         f"map undefined on a {k}-cell",
                         f"map image leaves target degree {k}")
        violations = _violations("map-face", _map_face_pairs(M, src, tgt), src.cells)
        if src.has_degeneracies and tgt.has_degeneracies:
            pairs = (
                (k, (i,), _compose(M[k + 1], src.degeneracies[k][i]),
                 _compose(tgt.degeneracies[k][i], M[k]))
                for k in src._occupied(0, src.D) for i in range(k + 1)
            )
            violations += _violations("map-degeneracy", pairs, src.cells)
        return violations


def _map_face_pairs(maps, source, target):
    """The law that a cell map commutes with faces, M d_i = d_i M, as
    :func:`_violations` pairs."""
    return (
        (k, (i,), _compose(maps[k - 1], source.faces[k][i]), _compose(target.faces[k][i], maps[k]))
        for k in source._occupied(1, source.D + 1) for i in range(k + 1)
    )


def check_size(cls, D, counts):
    """Budget a ``cls`` truncated at D, whose k-cells number ``counts[k]``
    (none past the list), before it is built: its cells, its position
    tables (k + 1 faces in each degree k >= 1, k + 1 degeneracies in each
    k < D if it has them) and the face identities its audit composes
    (C(k + 1, 2) in each degree k >= 2 with cells) each count."""
    what = cls.__name__
    check_budget(sum(counts), what)
    tables = D * (D + 3) // 2 + (D * (D + 1) // 2 if cls.has_degeneracies else 0)
    check_units(tables, what, "position tables")
    identities = sum(comb(k + 1, 2) for k, n in enumerate(counts) if n and k >= 2)
    check_units(identities, what, "face identities")


def _check_table(table, n, size, undefined, leaves):
    """A position table over n cells holds n positions in range(size)."""
    if table and (min(table) < 0 or max(table) >= size):
        raise StructureError(leaves)
    if len(table) != n:
        raise StructureError(undefined)


def _compose(outer, inner):
    """The position table of ``outer`` after ``inner``."""
    return list(map(outer.__getitem__, inner))


def _shifted(base, table, inner, shifts):
    """``base`` after ``table`` after ``inner``, each entry plus its shift."""
    return [base[table[p]] + shift for p, shift in zip(inner, shifts)]


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


def simplicial_set(D, cells, face) -> SemiSimplicialSet:
    """Face tables laid out from a per-cell rule: ``face(k, i, cell)`` is
    d_i of a k-cell of ``cells[k]``, looked up in the index of degree k - 1;
    one that is not a cell there raises :class:`StructureError`."""
    index = [{cell: p for p, cell in enumerate(cs)} for cs in cells]
    faces = [None] + [
        [_positions(index[k - 1], (face(k, i, cell) for cell in cells[k]),
                    f"face d_{i} leaves degree {k - 1}") for i in range(k + 1)]
        for k in range(1, D + 1)
    ]
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    return SemiSimplicialSet(D, cells, faces)


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


def chain_count(ends, D: int) -> list:
    """Composable chains of k arrows, for k = 0..D, in a category whose
    arrows leaving each object x end at the objects ``ends[x]``, one entry
    per arrow; the 0-chains are the objects.  The list stops after the
    first degree without chains."""
    # chains[x]: the k-chains starting at x, by recurrence on k; past a
    # degree without chains there are none, and the list stops there
    chains = dict.fromkeys(ends, 1)
    counts = [len(chains)]
    for _ in range(D):
        if not counts[-1]:
            break
        chains = {x: sum(map(chains.__getitem__, ys)) for x, ys in ends.items()}
        counts.append(sum(chains.values()))
    return counts


def nerve(c: FinCategory, D: int) -> TruncatedSimplicialSet:
    """Nerve of a finite category, truncated at degree D.

    k-cells are composable chains, 0-cells the objects, all counted and
    budgeted before any is built.  The (k+1)-cell q + m sits at s_k(q) plus
    the offset of m from the identity among the arrows leaving its source,
    so each table is composed from the degree below: d_{k+1} drops m, d_k
    extends d_k(q) by q's last arrow composed with m, and every other d_i
    and s_i extends its image of q by m.
    """
    if D < 0:
        raise StructureError("truncation degree must be >= 0")
    # every object's identity chains alone give it a cell in each degree,
    # so a D that this bound refuses is refused before any counting
    check_budget(len(c.objects) * (D + 1), TruncatedSimplicialSet.__name__)
    n = c.numbering
    ends = {x: [n.tgt[f] for f in fs] for x, fs in enumerate(n.leaving)}
    check_size(TruncatedSimplicialSet, D, chain_count(ends, D))
    cells = [list(c.objects)]
    if D == 0:
        return TruncatedSimplicialSet(D, cells, [None], [])
    if any(n.src[u] != x for x, u in enumerate(n.unit)):
        raise StructureError("an identity does not leave its object")
    # the 1-cells are the arrows by source, arrows[e] the e-th of them and
    # number[f] the 1-cell of arrow f, the inverse permutation; the 1-cells
    # leaving object y are leaving[y]
    arrows = [f for fs in n.leaving for f in fs]
    number = sorted(range(len(arrows)), key=arrows.__getitem__)
    leaving = [range(*ab) for ab in pairwise(accumulate(map(len, n.leaving), initial=0))]
    unit = _compose(number, n.unit)
    source, target = (_compose(end, arrows) for end in (n.src, n.tgt))
    offset = [e - unit[y] for e, y in enumerate(source)]
    labels = _compose(n.mids, arrows)
    cells.append([(m,) for m in labels])
    faces, degeneracies = [None, [target, source]], [[unit]]
    # the p-th k-cell extends the parent[p]-th by arrow last[p], shift[p] its offset
    parent, last, shift, s_below = source, range(len(arrows)), offset, unit
    for k in range(1, D):
        ends_at = _compose(target, last)
        start = accumulate((len(leaving[y]) for y in ends_at), initial=0)
        s_k = [p + unit[y] - leaving[y].start for p, y in zip(start, ends_at)]
        degeneracies.append([_shifted(s_k, s, parent, shift) for s in degeneracies[-1]] + [s_k])
        before = last
        parent = [p for p, y in enumerate(ends_at) for _ in leaving[y]]
        last = [e for y in ends_at for e in leaving[y]]
        shift = _compose(offset, last)
        cells.append([cells[k][p] + (labels[e],) for p, e in zip(parent, last)])
        if k == 1:
            # the composite of each 2-cell (f, m), as an offset from s_0 of f's source
            composite = [number[n.after[arrows[f]][arrows[e]]] - unit[source[f]]
                         for f, e in zip(parent, last)]
        # the composite of each cell's last two arrows, read at their 2-cell
        joint = _compose(composite, _shifted(degeneracies[1][1], before, parent, shift))
        faces.append([_shifted(s_below, d, parent, shift) for d in faces[k][:-1]]
                     + [_shifted(s_below, faces[k][-1], parent, joint), parent])
        s_below = s_k
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    return TruncatedSimplicialSet(D, cells, faces, degeneracies)


def truncation(x: TruncatedSimplicialSet, D: int) -> TruncatedSimplicialSet:
    """x cut at degree D <= x.D: its cells and tables through D, audited as
    an object of its own; x itself when D = x.D."""
    if not 0 <= D <= x.D:
        raise StructureError(f"cannot truncate a set truncated at {x.D} at {D}")
    if D == x.D:
        return x
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    return TruncatedSimplicialSet(D, x.cells[:D + 1], x.faces[:D + 1], x.degeneracies[:D])


def delete_entry(k, i, seq):
    """The face rule of tuple cells: d_i deletes entry i."""
    return seq[:i] + seq[i + 1:]


def stage_counts(N: int, D: int) -> list:
    """Cells of the stage complex on N + 1 stages truncated at D, by degree:
    C(N + 1, k + 1) in degree k.  No degree above N has a cell, and the
    list stops at min(N, D)."""
    if N < 0 or D < 0:
        raise StructureError("N and D must be >= 0")
    return [comb(N + 1, k + 1) for k in range(min(N, D) + 1)]


def s_semisimplicial(N: int, D: int) -> SemiSimplicialSet:
    """Stage complex: k-cells are strictly increasing (k+1)-tuples in {0..N},
    counted and budgeted before any of them is built."""
    check_size(SemiSimplicialSet, D, stage_counts(N, D))
    cells = [list(combinations(range(N + 1), k + 1)) for k in range(D + 1)]
    return simplicial_set(D, cells, delete_entry)


def product_with_S(x, s: SemiSimplicialSet) -> SemiSimplicialSet:
    """Degreewise product with diagonal faces.

    Every cell of x appears, degenerate or not; the product forgets x's
    degeneracies and is only semi-simplicial.  The cells are counted and
    budgeted before any of them is built.  The k-cell (a, b), a and b at
    positions p and q, sits at p * |s_k| + q, so its faces are read off the
    face tables of both factors.
    """
    if x.D != s.D:
        raise StructureError("truncation degrees differ")
    check_size(SemiSimplicialSet, x.D, [x.n_cells(k) * s.n_cells(k) for k in range(x.D + 1)])
    cells = [
        [(a, b) for a in x.cells[k] for b in s.cells[k]] for k in range(x.D + 1)
    ]
    faces = [None] + [
        [[p * s.n_cells(k - 1) + q for p in xf for q in sf]
         for xf, sf in zip(x.faces[k], s.faces[k])]
        for k in range(1, x.D + 1)
    ]
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    return SemiSimplicialSet(x.D, cells, faces)


def unraveled_face(seq, i):
    """The face that d_i of an unraveled cell with stage tuple ``seq``
    applies to its nerve cell: None (the cell is kept) when ``seq[i]``
    shares its value with a neighbour, else the index of its value group."""
    neighbours = seq[max(i - 1, 0): i] + seq[i + 1: i + 2]
    return None if seq[i] in neighbours else len(set(seq[: i + 1])) - 1


def unraveled_counts(y: TruncatedSimplicialSet, N: int) -> list:
    """Cell counts of :func:`unravel_simplicial` of y at N, by degree."""
    if N < 0:
        raise StructureError("N must be >= 0")
    # weakly increasing (n+1)-tuples over N+1 stages with l distinct values:
    # choose the values, then cut the tuple into l nonempty runs
    return [
        sum(comb(N + 1, l) * comb(n, l - 1) * y.n_cells(l - 1) for l in range(1, n + 2))
        for n in range(y.D + 1)
    ]


def unravel_simplicial(y: TruncatedSimplicialSet, N: int) -> TruncatedSimplicialSet:
    """Stagewise unraveling of a simplicial set.

    n-cells are pairs (k_0 <= ... <= k_n, z) with z a cell of y in degree
    l - 1, l the number of distinct stages.  For y a nerve this reproduces
    the nerve of the unraveled category cell for cell.  The cells are
    counted and budgeted before any of them is built.

    The cells come in one block per stage tuple, holding its pairs with
    y's cells in y's order, so the tables are composed from y's: d_i and
    s_i send a block onto a block, position for position, except that a
    d_i deleting a lone stage applies y's face table to the positions.
    """
    D = y.D
    check_size(TruncatedSimplicialSet, D, unraveled_counts(y, N))
    seqs = [list(combinations_with_replacement(range(N + 1), n + 1)) for n in range(D + 1)]
    cells, start = [], []
    for n in range(D + 1):
        level, first = [], {}
        for seq in seqs[n]:
            first[seq] = len(level)
            level.extend((seq, z) for z in y.cells[len(set(seq)) - 1])
        cells.append(level)
        start.append(first)

    def block(n, seq):
        p = start[n][seq]
        return range(p, p + y.n_cells(len(set(seq)) - 1))

    faces = [None]
    for n in range(1, D + 1):
        tables = [[] for _ in range(n + 1)]
        for seq in seqs[n]:
            m = len(set(seq)) - 1
            for i, table in enumerate(tables):
                rest = seq[:i] + seq[i + 1:]
                g = unraveled_face(seq, i)
                if g is None:
                    table.extend(block(n - 1, rest))
                else:
                    p = start[n - 1][rest]
                    table.extend([p + q for q in y.faces[m][g]])
        faces.append(tables)
    degeneracies = [
        [[p for seq in seqs[n] for p in block(n + 1, seq[: i + 1] + seq[i:])]
         for i in range(n + 1)]
        for n in range(D)
    ]
    # cells stays positional: bench/tracer.py reads it as the constructor's args[2]
    return TruncatedSimplicialSet(D, cells, faces, degeneracies)


def interleave_cell(c: FinCategory, k, chain, seq):
    """Cell of nerve(unravel(c, N)) obtained by pairing a nerve chain of c
    with a strictly increasing stage tuple of the same degree."""
    if k == 0:
        return (chain, seq[0])
    return tuple(mid(c, f, a, b) for f, a, b in zip(chain, seq, seq[1:]))


class BijectionReport(namedtuple(
        "BijectionReport", "violations product_counts nondegenerate_counts")):
    __slots__ = ()

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
        positions.append(list(map(target.index(k).get, images)))
        image_set = set(images)
        if len(image_set) != len(images):
            violations.append(Violation("bijection-injective", (k,)))
        nondeg = set(target.nondegenerate(k))
        extra = image_set - nondeg
        missing = nondeg - image_set
        for cell in sort_ids(extra):
            violations.append(Violation("bijection-image", (k, cell)))
        for cell in sort_ids(missing):
            violations.append(Violation("bijection-surjective", (k, cell)))
    # an image outside the target is already a bijection-image violation
    if not any(None in pos for pos in positions):
        violations += _violations("bijection-face", _map_face_pairs(positions, prod, target),
                                  prod.cells)
    return BijectionReport(
        violations,
        tuple(prod.n_cells(k) for k in range(D + 1)),
        tuple(len(target.nondegenerate(k)) for k in range(D + 1)),
    )


def sd_flags(n: int, k: int):
    """All k-cells of the barycentric subdivision of the n-simplex, each a
    strictly nested chain of k + 1 nonempty subsets of {0..n} written as
    sorted tuples, in the order of these chains.

    The subsets are taken in tuple order, and a depth-first walk extends
    each chain by every strict superset of its last part in that order, so
    the chains come out already sorted.  A part must leave room for the
    parts still to come, one vertex each, so the walk enters no chain it
    cannot finish."""
    if n < 0 or k < 0:
        raise StructureError("n and k must be >= 0")
    parts = sorted(c for size in range(1, n + 2) for c in combinations(range(n + 1), size))
    sets = {part: set(part) for part in parts}
    above = {(): parts}
    for part in parts:
        above[part] = [q for q in parts if sets[part] < sets[q]]
    flags = []

    def walk(chain, last):
        if len(chain) == k + 1:
            flags.append(chain)
            return
        room = n + 1 - (k - len(chain))
        for part in above[last]:
            if len(part) <= room:
                walk(chain + (part,), part)

    walk((), ())
    return flags


def maximal_flags(n: int):
    """Top cells of the subdivided n-simplex with their orientation signs,
    in the order of :func:`sd_flags`.

    A maximal flag A_0 < ... < A_n adds one vertex pi(i) at step i; its sign
    is the parity of the permutation pi.  The (n+1)! flags are budgeted
    before any of them is built.
    """
    check_budget(factorial(n + 1), "maximal flag set")
    out = []
    for chain in sd_flags(n, n):
        added = [b - a for a, b in pairwise([0] + [sum(part) for part in chain])]
        inversions = sum(a > b for a, b in combinations(added, 2))
        out.append((chain, -1 if inversions % 2 else 1))
    return out

