"""Finite categories, groupoids, functors and natural transformations.

Composition tables are total on composable pairs.  Morphism identifiers are
canonical ``(source, target, label)`` tuples so that validation reports can
name offending pairs and triples deterministically.  A category numbers
itself once, on first use, and keeps it; the law audit, the functor check
and the nerve read that numbering and name ids only in witnesses.  Law
checkers return exhaustive violation lists; structural defects (dangling
identifiers, partial tables) raise :class:`StructureError` instead.
"""

from collections import namedtuple
from functools import cached_property
from math import comb
from operator import itemgetter

from .errors import StructureError, Violation, check_budget
from .ids import decode_id, encode_id, id_key, sort_ids


Numbering = namedtuple("Numbering", "mids place number src tgt unit leaving after")


class FinCategory:
    """Finite category: objects, morphisms with endpoints, identity and
    composition tables.

    ``compose[(f, g)] = h`` records h = g after f, defined exactly when
    target(f) = source(g).  Instances are immutable after construction,
    so each keeps its :attr:`numbering` once it is built.
    """

    def __init__(self, objects, morphisms, identity, compose):
        self.objects = tuple(sort_ids(objects))
        if len(set(self.objects)) != len(self.objects):
            raise StructureError("duplicate object identifiers")
        morphs = sort_ids(morphisms, key=itemgetter(0))
        self.morphisms = tuple((m, s, t) for m, s, t in morphs)
        self.src = {m: s for m, s, t in self.morphisms}
        self.tgt = {m: t for m, s, t in self.morphisms}
        if len(self.src) != len(self.morphisms):
            raise StructureError("duplicate morphism identifiers")
        self.identity = dict(identity)
        self.table = dict(compose)

    def morphism_ids(self):
        return tuple(m for m, _, _ in self.morphisms)

    @cached_property
    def numbering(self) -> Numbering:
        """The category on the positions of its objects and morphisms, in
        their order, built on first use and kept: ``mids`` lists the
        morphisms, ``place`` and ``number`` map ids to positions, ``src``,
        ``tgt`` and ``unit`` hold endpoints and identities, ``leaving[x]``
        lists the morphisms leaving x and ``after[f][g] = h`` records h = g
        after f.  Dangling ids and missing identity entries raise
        StructureError."""
        mids = self.morphism_ids()
        place = {x: p for p, x in enumerate(self.objects)}
        number = {m: e for e, m in enumerate(mids)}
        src = [place.get(s) for _, s, _ in self.morphisms]
        tgt = [place.get(t) for _, _, t in self.morphisms]
        if None in src or None in tgt:
            m = next(m for (m, _, _), s, t in zip(self.morphisms, src, tgt)
                     if s is None or t is None)
            raise StructureError(f"morphism {m} has dangling endpoint")
        if len(self.identity) != len(place) or not all(map(place.__contains__, self.identity)):
            raise StructureError("identity table is not total on objects")
        unit = [None] * len(place)
        for x, m in self.identity.items():
            if m not in number:
                raise StructureError(f"identity of {x} is not a morphism: {m}")
            unit[place[x]] = number[m]
        leaving = [[] for _ in self.objects]
        for f, x in enumerate(src):
            leaving[x].append(f)
        after = [{} for _ in mids]
        for (f, g), h in self.table.items():
            nf, ng, nh = number.get(f), number.get(g), number.get(h)
            if nf is None or ng is None or nh is None:
                raise StructureError(f"composition entry has dangling id: {(f, g, h)}")
            after[nf][ng] = nh
        return Numbering(mids, place, number, src, tgt, unit, leaving, after)

    def is_identity(self, m):
        return self.identity.get(self.src.get(m)) == m

    def __eq__(self, other):
        return (
            isinstance(other, FinCategory)
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.table == other.table
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


class UnraveledCategory(FinCategory):
    """Category produced by :func:`unravel`, remembering its base so the
    forgetful functor can be reconstructed."""

    def __init__(self, objects, morphisms, identity, compose, base):
        super().__init__(objects, morphisms, identity, compose)
        self.base = base


class FinGroupoid(namedtuple("FinGroupoid", "base inverse")):
    """Finite groupoid: a category plus a total inverse map on morphisms."""

    __slots__ = ()

    @property
    def objects(self):
        return self.base.objects


def _missing_pairs(n: Numbering):
    """The composable pairs missing from the composition table, in order."""
    return ((f, g) for f, row in enumerate(n.after) for g in n.leaving[n.tgt[f]] if g not in row)


def check_category(c: FinCategory):
    """Exhaustive law audit.  Empty report means c is a category.

    Raises StructureError on dangling identifiers or missing identity
    entries; equational failures are reported, not raised.  The audit runs
    on the category's numbering and names ids only in the violations it
    records.
    """
    violations = []
    mids, _, _, src, tgt, unit, leaving, after = c.numbering
    for x, m in enumerate(unit):
        if src[m] != x or tgt[m] != x:
            witness = (c.objects[x], mids[m])
            violations.append(
                Violation("identity-endpoints", witness, "identity is not an endomorphism")
            )

    for f, g in _missing_pairs(c.numbering):
        violations.append(
            Violation("compose-total", (mids[f], mids[g]), "composable pair missing from table")
        )
    # each entry misfits at most once, so only the misfits are put in order
    misfits = sorted((f, g, h) for f, row in enumerate(after) for g, h in row.items()
                     if src[g] != tgt[f] or src[h] != src[f] or tgt[h] != tgt[g])
    for f, g, h in misfits:
        pair = (mids[f], mids[g])
        if src[g] != tgt[f]:
            violations.append(
                Violation("compose-domain", pair, "table entry on non-composable pair")
            )
        else:
            violations.append(
                Violation("compose-endpoints", (*pair, mids[h]), "composite has wrong endpoints")
            )

    for f, row in enumerate(after):
        i_src, i_tgt = unit[src[f]], unit[tgt[f]]
        if after[i_src].get(f, f) != f:
            violations.append(Violation("identity-law", (mids[f], mids[i_src]), "f o id != f"))
        if row.get(i_tgt, f) != f:
            violations.append(Violation("identity-law", (mids[f], mids[i_tgt]), "id o f != f"))

    for f, row in enumerate(after):
        for g in leaving[tgt[f]]:
            gf = row.get(g)
            if gf is None:
                continue
            g_row, gf_row = after[g], after[gf]
            for h in leaving[tgt[g]]:
                left = row.get(g_row.get(h))
                right = gf_row.get(h)
                if left != right and left is not None and right is not None:
                    violations.append(
                        Violation("associativity", (mids[f], mids[g], mids[h]), "h(gf) != (hg)f")
                    )
    return violations


def require_category(c: FinCategory):
    """Raise :class:`StructureError` naming the first law c breaks, if
    any: the suites that read a category run this audit after its nerve's,
    which refuses most broken tables first and names the broken cell."""
    violations = check_category(c)
    if violations:
        raise StructureError(f"C breaks a law, e.g. {violations[0]}")


def _check_inverse_ids(g: FinGroupoid):
    """Raise StructureError unless the inverse map is a total map from
    morphisms to morphisms."""
    morset = set(g.base.src)
    if set(g.inverse) != morset:
        raise StructureError("inverse map is not total on morphisms")
    for m, inv in g.inverse.items():
        if inv not in morset:
            raise StructureError(f"inverse of {m} is not a morphism: {inv}")


def check_groupoid(g: FinGroupoid):
    """Category audit plus endpoint-swap and two-sided inverse laws."""
    violations = check_category(g.base)
    c = g.base
    _check_inverse_ids(g)
    for m in c.morphism_ids():
        inv = g.inverse[m]
        if c.src[inv] != c.tgt[m] or c.tgt[inv] != c.src[m]:
            violations.append(
                Violation("inverse-endpoints", (m, inv), "s(i(f)) != t(f) or t(i(f)) != s(f)")
            )
            continue
        left = c.table.get((m, inv))
        if left != c.identity.get(c.src[m]):
            violations.append(Violation("left-inverse", (m, inv), "i(f) o f != id at source"))
        right = c.table.get((inv, m))
        if right != c.identity.get(c.tgt[m]):
            violations.append(Violation("right-inverse", (m, inv), "f o i(f) != id at target"))
    return violations


def ordinal(n: int) -> FinCategory:
    """The poset {0 <= 1 <= ... <= n} as a category, one arrow per k <= l."""
    if n < 0:
        raise StructureError("ordinal requires n >= 0")
    objects = range(n + 1)
    morphisms = [((k, l, "le"), k, l) for k in objects for l in range(k, n + 1)]
    identity = {k: (k, k, "le") for k in objects}
    compose = {}
    for k in objects:
        for l in range(k, n + 1):
            for m in range(l, n + 1):
                compose[((k, l, "le"), (l, m, "le"))] = (k, m, "le")
    return FinCategory(objects, morphisms, identity, compose)


def mid(c: FinCategory, f, i: int, j: int):
    """Identifier of the unraveled arrow that lifts f from stage i to stage j."""
    return ((c.src[f], i), (c.tgt[f], j), f)


def unravel(c: FinCategory, N: int) -> UnraveledCategory:
    """Unraveled category over stages {0..N}.

    Objects are pairs (x, i); a morphism (f, i <= j) survives exactly when
    i < j or f is an identity, and composition is inherited stagewise.  The
    morphisms and their composable pairs are counted and budgeted before
    any of them is built.
    """
    if N < 0:
        raise StructureError("unravel requires N >= 0")
    stages = range(N + 1)
    into = dict.fromkeys(c.objects, 0)
    out = dict.fromkeys(c.objects, 0)
    for _, s, t in c.morphisms:
        out[s] += 1
        into[t] += 1
    # (x, i) is entered by its identity and by every f into x from a stage
    # below i, and left by its identity and every f out of x to a stage above
    pairs = sum(
        (1 + i * into[x]) * (1 + (N - i) * out[x]) for x in c.objects for i in stages
    )
    total = len(c.objects) * (N + 1) + len(c.morphisms) * comb(N + 1, 2) + pairs
    check_budget(total, UnraveledCategory.__name__)
    objects = [(x, i) for x in c.objects for i in stages]

    morphisms = []
    for x in c.objects:
        for i in stages:
            morphisms.append((mid(c, c.identity[x], i, i), (x, i), (x, i)))
    for f in c.morphism_ids():
        for i in stages:
            for j in range(i + 1, N + 1):
                morphisms.append((mid(c, f, i, j), (c.src[f], i), (c.tgt[f], j)))

    identity = {(x, i): mid(c, c.identity[x], i, i) for x in c.objects for i in stages}
    leaving = {x: [] for x in objects}
    for m, s, t in morphisms:
        leaving[s].append((m, t))
    compose = {}
    for m1, s1, t1 in morphisms:
        for m2, t2 in leaving[t1]:
            compose[(m1, m2)] = mid(c, c.table[(m1[2], m2[2])], s1[1], t2[1])
    return UnraveledCategory(objects, morphisms, identity, compose, base=c)


Functor = namedtuple("Functor", "source target omap mmap")


def check_functor(F: Functor):
    """Functor laws on the numberings of source and target: the maps are
    put on positions once, and ids are named only in the violations, the
    composites in (f, g) position order.  Maps that are not total or leave
    the target raise StructureError."""
    src, s, t = F.source, F.source.numbering, F.target.numbering
    omap, mmap = list(map(F.omap.get, src.objects)), list(map(F.mmap.get, s.mids))
    if len(F.omap) != len(omap) or None in omap:
        raise StructureError("object map is not total")
    if len(F.mmap) != len(mmap) or None in mmap:
        raise StructureError("morphism map is not total")
    ob = list(map(t.place.get, omap))
    if None in ob:
        y = next(y for y in F.omap.values() if y not in t.place)
        raise StructureError(f"object image {y} not in target")
    ar = list(map(t.number.get, mmap))
    if None in ar:
        raise StructureError(f"morphism image {mmap[ar.index(None)]} not in target")
    violations = [Violation("functor-endpoints", (m, fm))
                  for m, fm, e, x, y in zip(s.mids, mmap, ar, s.src, s.tgt)
                  if t.src[e] != ob[x] or t.tgt[e] != ob[y]]
    violations += [Violation("functor-identity", (x,))
                   for x, u, y in zip(src.objects, s.unit, ob) if ar[u] != t.unit[y]]
    broken = []
    for f, row in enumerate(s.after):
        image_row = t.after[ar[f]]
        for g, h in row.items():
            if image_row.get(ar[g]) != ar[h]:
                broken.append((f, g))
    return violations + [Violation("functor-composition", (s.mids[f], s.mids[g]))
                         for f, g in sorted(broken)]


def identity_functor(c: FinCategory) -> Functor:
    return Functor(c, c, {x: x for x in c.objects}, {m: m for m in c.morphism_ids()})


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G after F."""
    if F.target != G.source:
        raise StructureError("functors are not composable")
    return Functor(
        F.source,
        G.target,
        {x: G.omap[F.omap[x]] for x in F.omap},
        {m: G.mmap[F.mmap[m]] for m in F.mmap},
    )


# a natural transformation between parallel functors, one component
# morphism of the target category per source object
NatTransformation = namedtuple("NatTransformation", "source target component")


def check_natural(t: NatTransformation):
    F, G = t.source, t.target
    if F.source != G.source or F.target != G.target:
        raise StructureError("functors are not parallel")
    cat, tgt = F.source, F.target
    if set(t.component) != set(cat.objects):
        raise StructureError("component map is not total")
    violations = []
    for x in cat.objects:
        m = t.component[x]
        if m not in tgt.src:
            raise StructureError(f"component at {x} is not a target morphism")
        if tgt.src[m] != F.omap[x] or tgt.tgt[m] != G.omap[x]:
            violations.append(Violation("component-endpoints", (x, m)))
    for m in cat.morphism_ids():
        x, y = cat.src[m], cat.tgt[m]
        left = tgt.table.get((F.mmap[m], t.component[y]))
        right = tgt.table.get((t.component[x], G.mmap[m]))
        if left is None or right is None or left != right:
            violations.append(Violation("naturality", (m,)))
    return violations


def forgetful(cN: FinCategory) -> Functor:
    """The stage-forgetting functor of an unraveled category,
    (x, k) -> x on objects and (f, i <= j) -> f on morphisms."""
    if not isinstance(cN, UnraveledCategory):
        raise StructureError("input is not of unraveled shape")
    omap = {o: o[0] for o in cN.objects}
    mmap = {m: m[2] for m in cN.morphism_ids()}
    return Functor(cN, cN.base, omap, mmap)


def full_subcategory(c: FinCategory, keep) -> FinCategory:
    keep = set(keep)
    morphisms = [(m, s, t) for m, s, t in c.morphisms if s in keep and t in keep]
    mids = {m for m, _, _ in morphisms}
    identity = {x: m for x, m in c.identity.items() if x in keep}
    compose = {
        (f, g): h for (f, g), h in c.table.items() if f in mids and g in mids
    }
    return FinCategory(keep, morphisms, identity, compose)


class OrdinalEquivalenceBundle(namedtuple(
        "OrdinalEquivalenceBundle", "pi0 pi1 pi2 iota1 iota2 phi1 phi2 report")):
    """The retraction data comparing an unraveled ordinal with its base.

    pi0 forgets the stage, pi1 retracts onto the full subcategory of objects
    (k, l) with k <= l, pi2 projects that subcategory onto the ordinal, and
    phi1, phi2 are the connecting natural transformations.
    """

    __slots__ = ()


def ordinal_unravel_equivalences(n: int, N: int) -> OrdinalEquivalenceBundle:
    if N < n:
        raise StructureError("need N >= n so every (k, k) exists")
    base = ordinal(n)
    cN = unravel(base, N)
    prime_objects = [(k, l) for (k, l) in cN.objects if k <= l]
    prime = full_subcategory(cN, prime_objects)

    def arrow(cat, src, dst):
        # unique morphism src -> dst in cN or prime (both are preorders)
        if src == dst:
            return cat.identity[src]
        return (src, dst, (src[0], dst[0], "le"))

    pi0 = forgetful(cN)

    def retract(o):
        k, l = o
        return (k, max(k, l))

    pi1_m = {}
    for m in cN.morphism_ids():
        s, t = cN.src[m], cN.tgt[m]
        pi1_m[m] = arrow(prime, retract(s), retract(t))
    pi1 = Functor(cN, prime, {o: retract(o) for o in cN.objects}, pi1_m)

    iota1 = Functor(
        prime, cN, {o: o for o in prime.objects}, {m: m for m in prime.morphism_ids()}
    )

    pi2 = Functor(
        prime,
        base,
        {o: o[0] for o in prime.objects},
        {m: m[2] for m in prime.morphism_ids()},
    )
    iota2 = Functor(
        base,
        prime,
        {k: (k, k) for k in base.objects},
        {m: arrow(prime, (m[0], m[0]), (m[1], m[1])) for m in base.morphism_ids()},
    )

    phi1 = NatTransformation(
        identity_functor(cN),
        compose_functors(iota1, pi1),
        {o: arrow(cN, o, retract(o)) for o in cN.objects},
    )
    phi2 = NatTransformation(
        compose_functors(iota2, pi2),
        identity_functor(prime),
        {o: arrow(prime, (o[0], o[0]), o) for o in prime.objects},
    )

    report = []
    for name, fun in (
        ("pi0", pi0),
        ("pi1", pi1),
        ("pi2", pi2),
        ("iota1", iota1),
        ("iota2", iota2),
    ):
        for v in check_functor(fun):
            report.append(Violation(f"{name}-{v.law}", v.witness, v.detail))
    if compose_functors(pi1, iota1) != identity_functor(prime):
        report.append(Violation("pi1-iota1-identity", ()))
    if compose_functors(pi2, iota2) != identity_functor(base):
        report.append(Violation("pi2-iota2-identity", ()))
    for name, nat in (("phi1", phi1), ("phi2", phi2)):
        for v in check_natural(nat):
            report.append(Violation(f"{name}-{v.law}", v.witness, v.detail))
    if compose_functors(pi2, pi1) != pi0:
        report.append(Violation("pi0-factorization", ()))
    return OrdinalEquivalenceBundle(pi0, pi1, pi2, iota1, iota2, phi1, phi2, report)


def category_to_json(c: FinCategory) -> dict:
    doc = {
        "objects": [encode_id(x) for x in c.objects],
        "morphisms": [
            {"id": encode_id(m), "src": encode_id(s), "tgt": encode_id(t)}
            for m, s, t in c.morphisms
        ],
        "identity": {
            id_key(x): encode_id(m) for x, m in sort_ids(c.identity.items(), key=itemgetter(0))
        },
        "compose": [
            [encode_id(f), encode_id(g), encode_id(h)]
            for (f, g), h in sort_ids(c.table.items(), key=itemgetter(0))
        ],
    }
    return doc


def category_from_json(doc: dict) -> FinCategory:
    try:
        objects = [decode_id(x) for x in doc["objects"]]
        morphisms = [
            (decode_id(m["id"]), decode_id(m["src"]), decode_id(m["tgt"]))
            for m in doc["morphisms"]
        ]
        identity = {}
        obj_by_key = {id_key(x): x for x in objects}
        for key, m in doc["identity"].items():
            identity[obj_by_key[key]] = decode_id(m)
        compose = {
            (decode_id(f), decode_id(g)): decode_id(h) for f, g, h in doc["compose"]
        }
    # a missing field, or one of the wrong type or length
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed category document: {exc}")
    c = FinCategory(objects, morphisms, identity, compose)
    for f, g in _missing_pairs(c.numbering):
        pair = (c.numbering.mids[f], c.numbering.mids[g])
        raise StructureError(f"composable pair missing from the composition table: {pair}")
    return c


def groupoid_to_json(g: FinGroupoid) -> dict:
    doc = category_to_json(g.base)
    doc["inverse"] = {
        id_key(m): encode_id(i)
        for m, i in sort_ids(g.inverse.items(), key=itemgetter(0))
    }
    return doc


def groupoid_from_json(doc: dict) -> FinGroupoid:
    base = category_from_json(doc)
    if "inverse" not in doc:
        raise StructureError("groupoid document lacks an inverse table")
    mor_by_key = {id_key(m): m for m in base.morphism_ids()}
    if not isinstance(doc["inverse"], dict):
        raise StructureError("inverse table is not a JSON object")
    try:
        inverse = {mor_by_key[k]: decode_id(v) for k, v in doc["inverse"].items()}
    except KeyError as exc:
        raise StructureError(f"inverse table names unknown morphism: {exc}")
    g = FinGroupoid(base, inverse)
    _check_inverse_ids(g)
    return g
