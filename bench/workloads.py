"""Seeded inputs and case lists for the fatcat benchmark.

Run as ``python bench/workloads.py --workload NAME --seed N --out DIR`` from
the repository root.  It writes every input document of the workload into
DIR with fatcat's own ``*_to_json`` writers and a ``cases.json`` that lists,
per case, the command line and the expectation its output is checked
against.  Expectations are computed here, independently of the code under
test: closed-form homology of Z/n, nerve cell counts as entry sums of powers
of the hom-count matrix, stage-product counts 2^k * C(N+1, k+1), connected
components by union-find, and the recorded ``report all`` digest.
"""

import argparse
import json
import os
import random
import sys
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fatcat import fixtures  # noqa: E402
from fatcat.cocycle import covered_complex_to_json  # noqa: E402
from fatcat.errors import StructureError  # noqa: E402
from fatcat.fincat import (  # noqa: E402
    FinCategory,
    FinGroupoid,
    category_to_json,
    check_category,
    check_groupoid,
    groupoid_to_json,
    ordinal,
)

# sha256 of the stdout of `fatcat report all`; a change here is a change of
# the canonical payload and fails the report-all case.
REPORT_ALL_SHA256 = "e03d7fc3ac5c4d98e1f3c62fdc9f2be91bcb0e21184597469bea3ade6728bea3"

def cyclic_group(n, labels):
    """Z/n as a one-object groupoid; element k carries the label labels[k]."""
    obj = "*"
    mor = [(obj, obj, labels[k]) for k in range(n)]
    compose = {
        (mor[a], mor[b]): mor[(a + b) % n] for a in range(n) for b in range(n)
    }
    base = FinCategory([obj], [(m, obj, obj) for m in mor], {obj: mor[0]}, compose)
    return FinGroupoid(base, {mor[a]: mor[-a % n] for a in range(n)})


def seeded_cyclic_group(rng, n):
    return cyclic_group(n, rng.sample(range(1000), n))


def random_poset(rng, n):
    """Transitive closure of a seeded DAG on 0..n-1: each upward edge is
    present with probability 1/2."""
    above = {x: {x} for x in range(n)}
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.5:
                above[x].add(y)
    for y in reversed(range(n)):
        for x in range(y):
            if y in above[x]:
                above[x] |= above[y]
    mor = {(x, y): (x, y, "le") for x in range(n) for y in above[x]}
    compose = {
        (mor[(x, y)], mor[(y, z)]): mor[(x, z)] for (x, y) in mor for z in above[y]
    }
    return FinCategory(
        range(n),
        [(m, x, y) for (x, y), m in mor.items()],
        {x: mor[(x, x)] for x in range(n)},
        compose,
    )


def sized_random_poset(rng, elements, D, cells):
    """A random poset on ``elements`` elements whose nerve, truncated at D,
    has exactly ``cells`` cells.  Fixing the size keeps the fiber count, and
    so the cost of the case, from swinging with the seed."""
    while True:
        poset = random_poset(rng, elements)
        if nerve_cell_count(poset, D) == cells:
            return poset


def random_star_cover(rng):
    """Vertex-star cover of a seeded ``random_two_complex``."""
    while True:
        try:
            faces = fixtures.random_two_complex(seed=rng.randrange(2**31))
        except StructureError:  # more than 50 faces after closure: draw again
            continue
        return fixtures.vertex_star_cover(faces)


def nerve_cell_count(cat, D):
    """Cells of the nerve truncated at D: the objects plus, for 1 <= k <= D,
    the entry sum of A^k, with A[x][y] the number of morphisms x -> y."""
    index = {x: i for i, x in enumerate(cat.objects)}
    size = len(index)
    A = [[0] * size for _ in range(size)]
    for _, s, t in cat.morphisms:
        A[index[s]][index[t]] += 1
    total = size
    power = A
    for _ in range(D):
        total += sum(map(sum, power))
        power = [
            [sum(row[j] * A[j][col] for j in range(size)) for col in range(size)]
            for row in power
        ]
    return total


def components(faces):
    """Connected components of a simplicial complex, by union-find."""
    parent = {v: v for f in faces for v in f}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in faces:
        for v in f[1:]:
            parent[find(v)] = find(f[0])
    return len({find(v) for v in parent})


class CaseWriter:
    """Writes input documents into one directory and collects the cases."""

    def __init__(self, out):
        self.out = out
        self.cases = []

    def category(self, name, cat):
        if check_category(cat):
            raise SystemExit(f"generated category {name} breaks the category laws")
        return self._write(name, category_to_json(cat))

    def groupoid(self, name, g):
        if check_category(g.base) or check_groupoid(g):
            raise SystemExit(f"generated groupoid {name} breaks the groupoid laws")
        return self._write(name, groupoid_to_json(g))

    def cover(self, name, cc):
        return self._write(name, covered_complex_to_json(cc))

    def _write(self, name, doc):
        path = os.path.join(self.out, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    def case(self, name, argv, expect, timeout):
        self.cases.append(
            {"name": name, "argv": argv, "expect": expect, "timeout": timeout}
        )


def homology_case(w, name, path, n, N, D, d, timeout):
    argv = ["verify", "tom-dieck", "--input", path, "--N", str(N), "--D", str(D),
            "--d", str(d)]
    w.case(name, argv, {"kind": "cyclic-homology", "n": n, "d": d}, timeout)


def stage_ladder(w, rng):
    """``verify tom-dieck`` on Z/2 at (N, D, d) = (6,4,2), (7,4,2), (8,4,2)
    and on a seeded Z/3 at N=4 or Z/4 at N=3, with D=3, d=2.

    Dense ``smith`` with transforms takes most of the time here and the
    dd = 0 check most of the rest, so sparse elimination and a cheaper chain
    build show on this workload.  Non-2 torsion keeps non-unit pivots in the
    mix.  The N=10 frontier rungs take most of a minute each today, so they
    stay out until elimination is fast."""
    z2 = w.groupoid("z2", fixtures.z2_groupoid())
    for N in (6, 7, 8):
        homology_case(w, f"tom-dieck-z2-N{N}", z2, 2, N, 4, 2, 60)
    # Z/4 runs at N=3 and Z/3 at N=4, which cost about the same, so the
    # seed's choice of n does not move the pass time.
    n = rng.choice((3, 4))
    zn = w.groupoid(f"z{n}", seeded_cyclic_group(rng, n))
    homology_case(w, f"tom-dieck-z{n}-N{7 - n}", zn, n, 7 - n, 3, 2, 30)
    return z2


def fiber_sweep(w, rng):
    """``verify quillen-a`` on ordinal(2) and the idempotent monoid at N=4,
    D=3, and on two seeded random posets (4 elements, 44 nerve cells at D=3)
    at N=3, D=3.

    Comma fibers and their constructor audits dominate, with hundreds of
    tiny rank-only ``smith`` calls, so fiber reuse per core and single
    audits show here.  A new eliminator with a high cost per call shows here
    as a regression even when it wins on stage-ladder."""
    inputs = [
        ("ordinal-2", ordinal(2), 4),
        ("idempotent-monoid", fixtures.idempotent_monoid_category(), 4),
        ("poset-a", sized_random_poset(rng, 4, 3, 44), 3),
        ("poset-b", sized_random_poset(rng, 4, 3, 44), 3),
    ]
    paths = []
    for name, cat, N in inputs:
        path = w.category(name, cat)
        paths.append(path)
        w.case(
            f"quillen-a-{name}-N{N}",
            ["verify", "quillen-a", "--input", path, "--N", str(N), "--D", "3"],
            {"kind": "fibers", "count": nerve_cell_count(cat, 3)},
            30,
        )
    return paths[0]


def classify_sweep(w, rng):
    """``verify universal-cocycle`` on a seeded Z/3 and the pair groupoid at
    N=5, D=4; ``verify blowup --d 1`` on two seeded vertex-star covers;
    ``verify lemma42`` on Z/2 at N=6, D=4; and ``nerve --D 4`` on the pair
    groupoid with 10 objects, which must be refused.

    Enumeration, audits and cocycle-law loops do the work; elimination only
    runs on the small blowup matrices, so an elimination change should move
    nothing here outside the blowup cases.  The refused nerve builds 111,110
    cells (about 95 MB) before it is refused, so count-before-allocate shows
    in ``peak_rss_mb``."""
    # n is fixed and only the labels are seeded: a seeded n would make the
    # cost of this case, and so the pass, depend on the seed.
    zn = w.groupoid("z3", seeded_cyclic_group(rng, 3))
    pair = w.groupoid("pair", fixtures.pair_groupoid())
    for name, path in (("z3", zn), ("pair", pair)):
        w.case(
            f"universal-cocycle-{name}",
            ["verify", "universal-cocycle", "--input", path, "--N", "5", "--D", "4"],
            {"kind": "ok"},
            30,
        )
    for name in ("complex-a", "complex-b"):
        cc = random_star_cover(rng)
        path = w.cover(name, cc)
        w.case(
            f"blowup-{name}",
            ["verify", "blowup", "--input", path, "--d", "1"],
            {"kind": "blowup", "d": 1, "components": components(cc.faces)},
            30,
        )
    z2 = w.groupoid("z2", fixtures.z2_groupoid())
    N, D = 6, 4
    w.case(
        "lemma42-z2",
        ["verify", "lemma42", "--input", z2, "--N", str(N), "--D", str(D)],
        {"kind": "lemma42", "counts": [2**k * comb(N + 1, k + 1) for k in range(D + 1)]},
        30,
    )
    big = w.groupoid("pair-10", fixtures.pair_groupoid([f"o{i}" for i in range(10)]))
    w.case(
        "nerve-pair-10-refused",
        ["nerve", "--input", big, "--D", "4"],
        {"kind": "refused"},
        30,
    )
    return zn


def report_all(w, rng):
    """``report all``, checked against the recorded digest of its stdout.

    The everyday command, and its canonical output is the byte-identity
    gate.  About a third of its time is process start and import, so it
    guards fixed cost, and it is the only workload that reaches the fincat
    law checkers and the exact-rational partition grid."""
    w.case("report-all", ["report", "all"], {"kind": "digest", "sha256": REPORT_ALL_SHA256}, 60)
    return w.groupoid("z2", fixtures.z2_groupoid())


CASE_WRITERS = {
    "stage-ladder": stage_ladder,
    "fiber-sweep": fiber_sweep,
    "classify-sweep": classify_sweep,
    "report-all": report_all,
}
WORKLOADS = tuple(CASE_WRITERS)


def write_workload(workload, seed, out):
    """Write the inputs and ``cases.json`` of one workload; return the plan."""
    w = CaseWriter(out)
    setup_input = CASE_WRITERS[workload](w, random.Random(f"{workload}:{seed}"))
    with open(setup_input, encoding="utf-8") as fh:
        objects = len(json.load(fh)["objects"])
    plan = {
        "workload": workload,
        "seed": seed,
        "setup": {
            "name": "setup",
            "argv": ["nerve", "--input", setup_input, "--D", "0"],
            "expect": {"kind": "nerve-objects", "objects": objects},
            "timeout": 30,
        },
        "cases": w.cases,
    }
    with open(os.path.join(out, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
    return plan


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
