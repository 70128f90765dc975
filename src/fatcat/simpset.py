"""Truncated simplicial and semi-simplicial sets.

Cells are canonical identifiers (objects, morphism chains, index tuples and
pairs of these), face and degeneracy maps are explicit tables, and the
simplicial identities are audited exhaustively on construction, scoped to
the degrees that exist below the truncation cutoff D.

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
from .fincat import FinCategory, unravel
from .ids import decode_id, encode_id, sort_key


class SemiSimplicialSet:
    """Degree-indexed cell lists with face maps d_i only."""

    has_degeneracies = False

    def __init__(self, D, cells, face):
        self.D = D
        self.cells = [tuple(cs) for cs in cells]
        if len(self.cells) != D + 1:
            raise StructureError("cell lists must cover degrees 0..D")
        check_budget(sum(len(cs) for cs in self.cells), type(self).__name__)
        self._face = face
        seen_violations = self.audit()
        if seen_violations:
            raise StructureError(
                f"face identities fail, e.g. {seen_violations[0]}"
            )

    def n_cells(self, k):
        return len(self.cells[k])

    def face(self, k, i, cell):
        return self._face[k][i][cell]

    def audit(self):
        violations = []
        for k in range(1, self.D + 1):
            if len(self._face[k]) != k + 1:
                raise StructureError(f"degree {k} needs faces d_0..d_{k}")
            lower = set(self.cells[k - 1])
            for i in range(k + 1):
                table = self._face[k][i]
                for cell in self.cells[k]:
                    if cell not in table:
                        raise StructureError(f"face d_{i} undefined on a {k}-cell")
                    if table[cell] not in lower:
                        raise StructureError(f"face d_{i} leaves degree {k - 1}")
        for k in range(2, self.D + 1):
            for cell in self.cells[k]:
                for j in range(k + 1):
                    for i in range(j):
                        left = self.face(k - 1, i, self.face(k, j, cell))
                        right = self.face(k - 1, j - 1, self.face(k, i, cell))
                        if left != right:
                            violations.append(
                                Violation("face-face", (k, i, j, cell))
                            )
        return violations

    def is_degenerate(self, k, cell):
        return False

    def nondegenerate(self, k):
        return self.cells[k]


class TruncatedSimplicialSet(SemiSimplicialSet):
    """Semi-simplicial set plus degeneracy maps s_i for degrees below D."""

    has_degeneracies = True

    def __init__(self, D, cells, face, degeneracy):
        self._degeneracy = degeneracy
        self._degenerate_cells = None
        super().__init__(D, cells, face)

    def degeneracy(self, k, i, cell):
        return self._degeneracy[k][i][cell]

    def audit(self):
        violations = super().audit()
        for k in range(self.D):
            if len(self._degeneracy[k]) != k + 1:
                raise StructureError(f"degree {k} needs degeneracies s_0..s_{k}")
            upper = set(self.cells[k + 1])
            for i in range(k + 1):
                table = self._degeneracy[k][i]
                for cell in self.cells[k]:
                    if cell not in table:
                        raise StructureError(f"degeneracy s_{i} undefined on a {k}-cell")
                    if table[cell] not in upper:
                        raise StructureError(f"degeneracy s_{i} leaves degree {k + 1}")
        # s_i s_j = s_{j+1} s_i for i <= j
        for k in range(self.D - 1):
            for cell in self.cells[k]:
                for j in range(k + 1):
                    for i in range(j + 1):
                        left = self.degeneracy(k + 1, i, self.degeneracy(k, j, cell))
                        right = self.degeneracy(k + 1, j + 1, self.degeneracy(k, i, cell))
                        if left != right:
                            violations.append(
                                Violation("degeneracy-degeneracy", (k, i, j, cell))
                            )
        # d_i s_j interchange
        for k in range(self.D):
            for cell in self.cells[k]:
                for j in range(k + 1):
                    sj = self.degeneracy(k, j, cell)
                    for i in range(k + 2):
                        got = self.face(k + 1, i, sj)
                        if i == j or i == j + 1:
                            want = cell
                        elif i < j:
                            if k == 0:
                                continue
                            want = self.degeneracy(k - 1, j - 1, self.face(k, i, cell))
                        else:
                            if k == 0:
                                continue
                            want = self.degeneracy(k - 1, j, self.face(k, i - 1, cell))
                        if got != want:
                            violations.append(
                                Violation("face-degeneracy", (k, i, j, cell))
                            )
        return violations

    def is_degenerate(self, k, cell):
        if self._degenerate_cells is None:
            marks = [set() for _ in range(self.D + 1)]
            for deg in range(self.D):
                for i in range(deg + 1):
                    marks[deg + 1].update(self._degeneracy[deg][i].values())
            self._degenerate_cells = marks
        return cell in self._degenerate_cells[k]

    def nondegenerate(self, k):
        return tuple(c for c in self.cells[k] if not self.is_degenerate(k, c))


class SimplicialMap:
    """Per-degree cell map commuting with faces, and with degeneracies when
    both sides have them.  Audited on construction."""

    def __init__(self, source, target, maps):
        if source.D != target.D:
            raise StructureError("source and target truncation degrees differ")
        self.source = source
        self.target = target
        self.maps = maps
        bad = self.audit()
        if bad:
            raise StructureError(f"structure maps do not commute, e.g. {bad[0]}")

    def apply(self, k, cell):
        return self.maps[k][cell]

    def audit(self):
        violations = []
        src, tgt = self.source, self.target
        for k in range(src.D + 1):
            table = self.maps[k]
            allowed = set(tgt.cells[k])
            for cell in src.cells[k]:
                if cell not in table:
                    raise StructureError(f"map undefined on a {k}-cell")
                if table[cell] not in allowed:
                    raise StructureError(f"map image leaves target degree {k}")
        for k in range(1, src.D + 1):
            for cell in src.cells[k]:
                img = self.maps[k][cell]
                for i in range(k + 1):
                    if self.maps[k - 1][src.face(k, i, cell)] != tgt.face(k, i, img):
                        violations.append(Violation("map-face", (k, i, cell)))
        if src.has_degeneracies and tgt.has_degeneracies:
            for k in range(src.D):
                for cell in src.cells[k]:
                    img = self.maps[k][cell]
                    for i in range(k + 1):
                        if self.maps[k + 1][
                            src.degeneracy(k, i, cell)
                        ] != tgt.degeneracy(k, i, img):
                            violations.append(Violation("map-degeneracy", (k, i, cell)))
        return violations


def chain_objects(c: FinCategory, k: int, chain) -> tuple:
    """Objects at the vertices 0..k of a degree-k nerve cell (a 0-cell is
    its object)."""
    if k == 0:
        return (chain,)
    return (c.src[chain[0]],) + tuple(c.tgt[f] for f in chain)


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
    for k in range(1, D + 1):
        nxt = []
        for chain in cells[k - 1]:
            if k == 1:
                start = chain
                for m in from_obj[start]:
                    nxt.append((m,))
            else:
                last = chain[-1]
                for m in from_obj[c.tgt[last]]:
                    nxt.append(chain + (m,))
        cells.append(nxt)

    face = [None]
    for k in range(1, D + 1):
        tables = []
        for i in range(k + 1):
            table = {}
            for chain in cells[k]:
                if k == 1:
                    table[chain] = c.tgt[chain[0]] if i == 0 else c.src[chain[0]]
                elif i == 0:
                    table[chain] = chain[1:]
                elif i == k:
                    table[chain] = chain[:-1]
                else:
                    merged = c.table[(chain[i - 1], chain[i])]
                    table[chain] = chain[: i - 1] + (merged,) + chain[i + 1:]
            tables.append(table)
        face.append(tables)

    degeneracy = []
    for k in range(D):
        tables = [{} for _ in range(k + 1)]
        for chain in cells[k]:
            for i, obj in enumerate(chain_objects(c, k, chain)):
                ident = c.identity[obj]
                tables[i][chain] = (ident,) if k == 0 else chain[:i] + (ident,) + chain[i:]
        degeneracy.append(tables)
    return TruncatedSimplicialSet(D, cells, face, degeneracy)


def s_semisimplicial(N: int, D: int) -> SemiSimplicialSet:
    """Stage complex: k-cells are strictly increasing (k+1)-tuples in {0..N}."""
    if N < 0 or D < 0:
        raise StructureError("N and D must be >= 0")
    cells = [list(combinations(range(N + 1), k + 1)) for k in range(D + 1)]
    face = [None]
    for k in range(1, D + 1):
        tables = []
        for i in range(k + 1):
            tables.append({c: c[:i] + c[i + 1:] for c in cells[k]})
        face.append(tables)
    return SemiSimplicialSet(D, cells, face)


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
    face = [None]
    for k in range(1, x.D + 1):
        tables = []
        for i in range(k + 1):
            tables.append(
                {
                    (a, b): (x.face(k, i, a), s.face(k, i, b))
                    for a, b in cells[k]
                }
            )
        face.append(tables)
    return SemiSimplicialSet(x.D, cells, face)


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

    face = [None]
    for n in range(1, D + 1):
        tables = []
        for i in range(n + 1):
            table = {}
            for seq, z in cells[n]:
                rest = seq[:i] + seq[i + 1:]
                if _in_multi_group(seq, i):
                    table[(seq, z)] = (rest, z)
                else:
                    l = len(set(seq))
                    j = _group_index(seq, i)
                    table[(seq, z)] = (rest, y.face(l - 1, j, z))
            tables.append(table)
        face.append(tables)

    degeneracy = []
    for n in range(D):
        tables = []
        for i in range(n + 1):
            table = {}
            for seq, z in cells[n]:
                table[(seq, z)] = (seq[: i + 1] + seq[i:], z)
            tables.append(table)
        degeneracy.append(tables)
    return TruncatedSimplicialSet(D, cells, face, degeneracy)


def interleave_cell(c: FinCategory, k, chain, seq):
    """Cell of nerve(unravel(c, N)) obtained by pairing a nerve chain of c
    with a strictly increasing stage tuple of the same degree."""
    if k == 0:
        return (chain, seq[0])
    objects = chain_objects(c, k, chain)
    return tuple(
        ((objects[i - 1], seq[i - 1]), (objects[i], seq[i]), chain[i - 1])
        for i in range(1, k + 1)
    )


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
    maps = []
    for k in range(D + 1):
        table = {}
        for chain, seq in prod.cells[k]:
            table[(chain, seq)] = interleave_cell(c, k, chain, seq)
        maps.append(table)
        images = list(table.values())
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
    for k in range(1, D + 1):
        for cell in prod.cells[k]:
            img = maps[k][cell]
            for i in range(k + 1):
                if maps[k - 1][prod.face(k, i, cell)] != target.face(k, i, img):
                    violations.append(Violation("bijection-face", (k, i, cell)))
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

    maps = []
    for n in range(D + 1):
        table = {}
        for seq, z in left.cells[n]:
            if n == 0:
                table[(seq, z)] = (z, seq[0])
                continue
            objects = chain_objects(c, len(set(seq)) - 1, z)
            arrows = []
            for i in range(1, n + 1):
                gi_prev = _group_index(seq, i - 1)
                gi = _group_index(seq, i)
                if seq[i - 1] == seq[i]:
                    obj = objects[gi]
                    arrows.append(
                        ((obj, seq[i]), (obj, seq[i]), c.identity[obj])
                    )
                else:
                    arrows.append(
                        (
                            (objects[gi_prev], seq[i - 1]),
                            (objects[gi], seq[i]),
                            z[gi_prev],
                        )
                    )
            table[(seq, z)] = tuple(arrows)
        maps.append(table)
    iso = SimplicialMap(left, right, maps)
    for n in range(D + 1):
        if len(set(maps[n].values())) != left.n_cells(n) or left.n_cells(
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


def simplicial_set_to_json(x) -> dict:
    index = [
        {cell: i for i, cell in enumerate(x.cells[k])} for k in range(x.D + 1)
    ]
    doc = {
        "D": x.D,
        "cells": [[encode_id(c) for c in x.cells[k]] for k in range(x.D + 1)],
        "face": [
            [
                [index[k - 1][x.face(k, i, c)] for c in x.cells[k]]
                for i in range(k + 1)
            ]
            for k in range(1, x.D + 1)
        ],
    }
    if x.has_degeneracies:
        doc["degeneracy"] = [
            [
                [index[k + 1][x.degeneracy(k, i, c)] for c in x.cells[k]]
                for i in range(k + 1)
            ]
            for k in range(x.D)
        ]
    return doc


def simplicial_set_from_json(doc: dict):
    try:
        D = doc["D"]
        cells = [[decode_id(c) for c in level] for level in doc["cells"]]
        face = [None]
        for k in range(1, D + 1):
            tables = []
            for i in range(k + 1):
                raw = doc["face"][k - 1][i]
                tables.append(
                    {cells[k][j]: cells[k - 1][raw[j]] for j in range(len(raw))}
                )
            face.append(tables)
        if "degeneracy" not in doc:
            return SemiSimplicialSet(D, cells, face)
        degeneracy = []
        for k in range(D):
            tables = []
            for i in range(k + 1):
                raw = doc["degeneracy"][k][i]
                tables.append(
                    {cells[k][j]: cells[k + 1][raw[j]] for j in range(len(raw))}
                )
            degeneracy.append(tables)
        return TruncatedSimplicialSet(D, cells, face, degeneracy)
    except (KeyError, IndexError, TypeError) as exc:
        raise StructureError(f"malformed simplicial set document: {exc}")
