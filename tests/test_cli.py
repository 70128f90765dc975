import argparse
import hashlib
import importlib.util
import json
import re
import shlex
from functools import partial
from pathlib import Path

import pytest

from fatcat import cli, cocycle, comparison, homology, intlinalg, simpset
from fatcat.cli import build_parser, main
from fatcat.cocycle import CoveredComplex, closure, cocycle_to_json, covered_complex_to_json
from fatcat.errors import EnumerationLimitError, StructureError
from fatcat.fincat import (
    FinCategory,
    FinGroupoid,
    category_to_json,
    groupoid_from_json,
    groupoid_to_json,
    ordinal,
)
from fatcat.fixtures import (
    broken_circle_cocycle,
    broken_groupoid_bad_inverse,
    bundled_cocycles,
    circle_star_cover,
    cyclic_groupoid,
    hemisphere_cover,
    mobius_cocycle,
    pair_groupoid,
    standard_categories,
    z2_groupoid,
)
from fatcat.intlinalg import IntMatrix
from fatcat.simpset import BijectionReport


def self_inverse_loop():
    """One object, five morphisms, every one its own inverse, composed by
    the table of an order-5 loop that is not associative."""
    rows = ["01234", "10342", "24013", "32401", "43120"]
    mor = [("*", "*", k) for k in range(5)]
    compose = {(mor[i], mor[j]): mor[int(rows[i][j])] for i in range(5) for j in range(5)}
    base = FinCategory(["*"], [(m, "*", "*") for m in mor], {"*": mor[0]}, compose)
    return FinGroupoid(base, {m: m for m in mor})


def mixed_id_category():
    """The ordinal [1] on the objects 0 and "a".  An int and a string do
    not compare, so ordering these identifiers takes the ``sort_key``
    fallback of ``ids.sort_ids``."""
    up, ids = (0, "a", "le"), {x: (x, x, "le") for x in (0, "a")}
    compose = {(ids[0], ids[0]): ids[0], (ids[0], up): up, (up, ids["a"]): up,
               (ids["a"], ids["a"]): ids["a"]}
    return FinCategory([0, "a"], [(m, m[0], m[1]) for m in (*ids.values(), up)], ids, compose)


def simplex_and_points(points):
    """A 5-simplex and ``points`` isolated vertices, the simplex one cover
    set and each vertex another.  No two cover sets meet, so the blowup
    has one cell per face, though C(points + 1, 6) tuples of six cover
    indices exist."""
    simplex = closure([tuple(range(6))])
    isolated = [(6 + i,) for i in range(points)]
    return CoveredComplex([*simplex, *isolated], [simplex, *([v] for v in isolated)])


def write_inputs(directory):
    """Write the input documents of the command tests into ``directory``;
    returns their paths by file name."""
    paths = {}

    def write(name, doc):
        p = directory / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    write("bz2.json", groupoid_to_json(z2_groupoid()))
    write("ord1.json", category_to_json(standard_categories()["ordinal-1"]))
    write("ord2.json", category_to_json(standard_categories()["ordinal-2"]))
    write("idem.json", category_to_json(standard_categories()["idempotent-monoid"]))
    write("mixed.json", category_to_json(mixed_id_category()))
    write("pair.json", groupoid_to_json(pair_groupoid()))
    write("z3.json", groupoid_to_json(cyclic_groupoid(3)))
    write("bad-inverse.json", groupoid_to_json(broken_groupoid_bad_inverse()))
    write("loop5.json", groupoid_to_json(self_inverse_loop()))
    write("circle.json", covered_complex_to_json(circle_star_cover()))
    write("hemisphere.json", covered_complex_to_json(hemisphere_cover()))
    write("sparse21.json", covered_complex_to_json(simplex_and_points(20)))
    write("mobius.json", cocycle_to_json(mobius_cocycle()))
    write("broken.json", cocycle_to_json(broken_circle_cocycle()))
    return paths


@pytest.fixture
def inputs(tmp_path):
    return write_inputs(tmp_path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def test_nerve_command(capsys, inputs):
    code, payload = run(capsys, ["nerve", "--input", inputs["bz2.json"], "--D", "3"])
    assert code == 0
    assert payload["cells"] == [1, 2, 4, 8]


def test_homology_command(capsys, inputs):
    code, payload = run(
        capsys,
        ["homology", "--input", inputs["bz2.json"], "--fat", "--D", "5", "--k", "1"],
    )
    assert code == 0
    assert payload["betti"] == 0 and payload["torsion"] == [2]


def test_verify_lemma42(capsys, inputs):
    code, payload = run(
        capsys,
        ["verify", "lemma42", "--category", inputs["ord1.json"], "--N", "2", "--D", "2"],
    )
    assert code == 0
    assert payload["ok"] and payload["product_counts"][1] == 9


def test_verify_tom_dieck(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "verify",
            "tom-dieck",
            "--input",
            inputs["bz2.json"],
            "--N",
            "5",
            "--D",
            "3",
            "--d",
            "1",
        ],
    )
    assert code == 0
    assert payload["degrees"][1]["source"]["torsion"] == [2]


def test_verify_quillen_a(capsys, inputs):
    code, payload = run(
        capsys,
        ["verify", "quillen-a", "--input", inputs["ord1.json"], "--N", "3", "--D", "3"],
    )
    assert code == 0
    assert payload["fibers_checked"] == 14


def test_verify_tau(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "verify",
            "tau",
            "--input",
            inputs["bz2.json"],
            "--N",
            "4",
            "--D",
            "3",
            "--d",
            "1",
        ],
    )
    assert code == 0 and payload["ok"]


def test_counterexample_rho_succeeds_with_witness(capsys):
    code, payload = run(capsys, ["counterexample", "rho", "--n", "1"])
    assert code == 0
    assert payload["witnesses"]["zero-based"][0]["kind"] == "face-mismatch"
    assert payload["witnesses"]["literal"]


def test_verify_cocycle_pass_and_fail(capsys, inputs):
    code, payload = run(capsys, ["verify", "cocycle", "--input", inputs["mobius.json"]])
    assert code == 0 and payload["ok"]
    code, payload = run(capsys, ["verify", "cocycle", "--input", inputs["broken.json"]])
    assert code == 1
    assert payload["witnesses"]


def test_verify_blowup(capsys, inputs):
    code, payload = run(
        capsys, ["verify", "blowup", "--input", inputs["circle.json"], "--d", "1"]
    )
    assert code == 0
    assert payload["degrees"][1]["target"]["betti"] == 1


def test_verify_universal(capsys, inputs):
    code, payload = run(
        capsys,
        ["verify", "universal-cocycle", "--input", inputs["bz2.json"], "--N", "3", "--D", "2"],
    )
    assert code == 0 and payload["ok"]


def test_verify_universal_fails_on_a_bad_inverse(capsys, inputs):
    code, payload = run(
        capsys,
        ["verify", "universal-cocycle", "--input", inputs["bad-inverse.json"],
         "--N", "2", "--D", "2"],
    )
    assert code == 1 and not payload["ok"]
    assert {w["law"] for w in payload["witnesses"]} == {"universal-cocycle-law"}


def test_non_associative_loop(capsys, inputs):
    """The loader takes the loop's tables as they are.  Through D=2 the
    transitions break the law; at D=3 the nerve's face-face audit sees
    (fg)h != f(gh) and refuses the input before any transition is checked.
    A face's transitions differ from its cell's only where composition
    does not associate, so this audit is why the suite needs no face
    check."""
    with open(inputs["loop5.json"]) as fh:
        assert groupoid_from_json(json.load(fh)) == self_inverse_loop()
    argv = ["verify", "universal-cocycle", "--input", inputs["loop5.json"], "--N", "2", "--D"]
    code, payload = run(capsys, argv + ["2"])
    assert code == 1 and not payload["ok"]
    assert {w["law"] for w in payload["witnesses"]} == {"universal-cocycle-law"}
    code = main(argv + ["3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "face identities fail" in json.loads(captured.err)["error"]


def test_verify_universal_builds_no_classifying_complex(capsys, monkeypatch, inputs):
    """The suite checks the law on the nerve alone and only counts the
    classifying complex, passing or failing: neither it nor the
    unraveling it is made of is built."""
    called = []
    for module, name in ((cocycle, "bg_complex"), (cocycle, "unravel_simplicial"),
                         (simpset, "unravel_simplicial")):
        monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    for name, code in (("bz2.json", 0), ("bad-inverse.json", 1)):
        argv = ["verify", "universal-cocycle", "--input", inputs[name], "--N", "3", "--D", "2"]
        assert run(capsys, argv)[0] == code
    assert called == []


def test_verify_partition(capsys):
    code, payload = run(capsys, ["verify", "partition"])
    assert code == 0 and payload["pairs"] >= 100


def _doctored(fault):
    """A partition homotopy with ``fault``, and the law that catches it."""
    exact = cocycle.partition_homotopy

    def sum_off(a, b, q):
        w, total = exact(a, b, q)
        return w, total + 1 if 0 < b < q else total

    return {
        "partition-sum": ("partition-sum", sum_off),
        # time zero run as time 1/q, and time one as time zero
        "partition-start": ("partition-start", lambda a, b, q: exact(a, b or 1, q)),
        "partition-truncation": ("partition-truncation",
                                 lambda a, b, q: exact(a, 0 if b == q else b, q)),
        # every entry and the sum zero: v still sums to T
        "zero-mass": ("partition-sum", lambda a, b, q: ((0,) * len(a), 0)),
    }[fault]


@pytest.mark.parametrize("fault, first", [
    ("partition-sum", [["0", "0", "0", "0", "1"], "1/4"]),
    ("partition-start", [["0", "0", "0", "1/4", "3/4"]]),
    ("partition-truncation", [["0", "0", "0", "1/2", "1/2"], 4]),
    ("zero-mass", [["0", "0", "0", "0", "1"], "0"]),
])
def test_partition_witnesses_reach_stdout(capsys, monkeypatch, fault, first):
    law, homotopy = _doctored(fault)
    monkeypatch.setattr(cocycle, "partition_homotopy", homotopy)
    code, payload = run(capsys, ["verify", "partition"])
    assert code == 1 and payload["pairs"] == 350
    assert {w["law"] for w in payload["witnesses"]} == {law}
    # t, and s where it matters, as exact-rational strings
    assert payload["witnesses"][0]["witness"] == first
    assert main(["report", "all"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["claims"] if c["result"] != "pass"]
    assert [c["id"] for c in failed] == ["partition-homotopy"]


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"objects\": [1]}")
    code = main(["nerve", "--input", str(bad), "--D", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_cell_budget_respected(capsys, inputs, monkeypatch):
    monkeypatch.setenv("FATCAT_MAX_CELLS", "5")
    code = main(["nerve", "--input", inputs["bz2.json"], "--D", "3"])
    capsys.readouterr()
    assert code == 2


def test_maximal_flags_are_budgeted(capsys, tmp_path, monkeypatch):
    # on the terminal category the nerve has 6 cells, the stage complex and
    # the product 126 each, and the section's top degree 6! = 720 flags
    terminal = tmp_path / "terminal.json"
    terminal.write_text(json.dumps(category_to_json(standard_categories()["terminal"])))
    monkeypatch.setenv("FATCAT_MAX_CELLS", "200")
    argv = ["verify", "tau", "--input", str(terminal), "--N", "6", "--D", "5", "--d", "1"]
    assert main(argv) == 2
    assert "maximal flag set needs 720 cells" in capsys.readouterr().err


def test_truncation_degree_is_budgeted(capsys, inputs, tmp_path, monkeypatch):
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    terminal = tmp_path / "terminal.json"
    terminal.write_text(json.dumps(category_to_json(standard_categories()["terminal"])))
    assert main(["nerve", "--input", str(terminal), "--D", "400"]) == 2
    assert "needs 160800 position tables" in capsys.readouterr().err
    circle = inputs["circle.json"]
    assert main(["verify", "blowup", "--input", circle, "--d", "1000000000"]) == 2
    assert "position tables" in capsys.readouterr().err
    # the base complex is padded with 100 empty degrees, which its audit skips
    assert main(["verify", "blowup", "--input", circle, "--d", "100"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "47f179cee314122c2ea35ee8b488192167e47801e5e9b4ae2cfd19bb7bdcd028"


def test_rho_payload_is_budgeted(capsys, monkeypatch):
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    # every witness repeats the n + 1 coordinates of the barycenter, and
    # each reading finds n witnesses
    code, payload = run(capsys, ["counterexample", "rho", "--n", "99"])
    assert code == 0
    points = [w["point"] for found in payload["witnesses"].values() for w in found]
    assert sum(map(len, points)) == 2 * 99 * 100
    assert main(["counterexample", "rho", "--n", "100"]) == 2
    assert "the rho payload needs 20200 coordinate strings" in capsys.readouterr().err
    assert main(["counterexample", "rho", "--n", "141", "--convention", "literal"]) == 2
    assert "needs 20022 coordinate strings" in capsys.readouterr().err


def test_tom_dieck_frontier_rung(capsys, inputs, monkeypatch):
    # Z/2 at N=10, D=4, d=2: the stage product has 10,813 cells, of which
    # the 3,421 through d + 1 = 3 are built; their boundaries hold 12,760
    # nonzeros in 1.8 million entries, so this stays fast only while
    # matrices store nothing but their nonzeros
    monkeypatch.setenv("FATCAT_MAX_CELLS", "300000")
    argv = ["verify", "tom-dieck", "--input", inputs["bz2.json"],
            "--N", "10", "--D", "4", "--d", "2"]
    code, payload = run(capsys, argv)
    assert code == 0 and payload["ok"]
    for side in ("source", "target"):
        groups = [(d[side]["betti"], d[side]["torsion"]) for d in payload["degrees"]]
        assert groups == [(1, []), (0, [2]), (0, [])]


def test_quillen_a_budgets_the_pullback_category_not_its_nerve(capsys, inputs, monkeypatch):
    # Z/2 at N=10, D=3: the nerve of the largest fiber's pullback category
    # would need 31,658 cells, over the default budget, but a fiber that
    # dismantles builds no nerve, and that poset counts 44 points, 616
    # arrows and 4,818 composable pairs
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    argv = ["verify", "quillen-a", "--input", inputs["bz2.json"], "--N", "10", "--D", "3"]
    code, payload = run(capsys, argv)
    assert code == 0 and payload["ok"]
    assert payload["fibers_checked"] == 15


def test_report_all_is_deterministic(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["report", "all", "--out", str(out)])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["report", "all"])
    second = capsys.readouterr().out
    assert first == second
    full = json.loads(out.read_text())
    assert "timing_ms" in full
    canonical = json.loads(first)
    assert "timing_ms" not in canonical
    ids = [c["id"] for c in canonical["claims"]]
    assert len(ids) == len(set(ids))
    assert all(c["result"] == "pass" for c in canonical["claims"])


REPORT_ALL_SHA256 = "e03d7fc3ac5c4d98e1f3c62fdc9f2be91bcb0e21184597469bea3ade6728bea3"


def test_report_all_stdout_is_pinned(capsys):
    assert main(["report", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_ALL_SHA256


def test_a_claim_that_refuses_fails_alone(capsys, monkeypatch):
    """``report all`` reads no input, so a claim that raises StructureError
    fails with the message as its witness, and the other claims still run."""

    def refuse(*args):
        raise StructureError("refused")

    monkeypatch.setattr(cli, "tau_chain_map", refuse)
    assert main(["report", "all"]) == 1
    claims = {c["id"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    assert len(claims) == len(cli.CLAIMS)
    assert claims["subdivision-boundary"]["result"] == "fail"
    assert claims["subdivision-boundary"]["witnesses"] == [{"error": "refused"}]
    assert all(c["result"] == "pass" for i, c in claims.items() if i != "subdivision-boundary")


def test_a_claim_over_budget_stops_report_all(capsys, monkeypatch):
    def refuse(*args):
        raise EnumerationLimitError("over budget")

    monkeypatch.setattr(cli, "tau_chain_map", refuse)
    assert main(["report", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "over budget"}


def expect_bad_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error" in json.loads(captured.err)
    assert "Traceback" not in captured.err
    return json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve", "--D", "2"],
        ["homology", "--D", "3", "--k", "1"],
        ["verify", "tom-dieck", "--N", "4", "--D", "3", "--d", "1"],
        ["verify", "universal-cocycle", "--N", "3", "--D", "2"],
    ],
)
def test_missing_composite_exits_2(capsys, tmp_path, argv):
    doc = groupoid_to_json(z2_groupoid())
    s = ["*", "*", "s"]
    doc["compose"] = [e for e in doc["compose"] if e[:2] != [s, s]]
    bad = tmp_path / "partial.json"
    bad.write_text(json.dumps(doc))
    expect_bad_input(capsys, argv + ["--input", str(bad)])


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve", "--D", "2"],
        ["verify", "lemma42", "--N", "2", "--D", "2"],
        ["verify", "quillen-a", "--N", "2", "--D", "2"],
    ],
)
def test_dangling_endpoint_exits_2(capsys, tmp_path, argv):
    doc = category_to_json(standard_categories()["ordinal-1"])
    for m in doc["morphisms"]:
        if m["src"] != m["tgt"]:
            m["src"] = "zz"
    bad = tmp_path / "dangling.json"
    bad.write_text(json.dumps(doc))
    expect_bad_input(capsys, argv + ["--input", str(bad)])


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve", "--D", "1"],
        ["nerve", "--D", "2"],
        ["homology", "--D", "3", "--k", "1"],
        ["verify", "tom-dieck", "--N", "4", "--D", "3", "--d", "1"],
        ["verify", "quillen-a", "--N", "2", "--D", "2"],
    ],
)
def test_identity_leaving_another_object_exits_2(capsys, tmp_path, argv):
    """The identity of object 0 is the identity arrow of object 1."""
    doc = category_to_json(standard_categories()["ordinal-1"])
    doc["identity"]["0"] = doc["identity"]["1"]
    bad = tmp_path / "stray-identity.json"
    bad.write_text(json.dumps(doc))
    expect_bad_input(capsys, argv + ["--input", str(bad)])


def lawless_category(arrows, compose):
    """Objects, arrows and a total composition table with the identity laws
    filled in, then ``compose`` written over it, so it may break a law."""
    objects = sorted({x for _, s, t in arrows for x in (s, t)})
    identity = {x: ("id", x) for x in objects}
    morphisms = [(m, x, x) for x, m in identity.items()] + arrows
    table = {}
    for m, s, t in morphisms:
        table[(identity[s], m)] = table[(m, identity[t])] = m
    return FinCategory(objects, morphisms, identity, {**table, **compose})


def lawless_categories():
    """A composable triple f, g, h whose two composites h(gf) and (hg)f are
    the distinct arrows x and y; the composite of 0 <= 1 <= 2 read as 0 <= 1,
    with the wrong target; and f followed by the identity of its target
    read as g, parallel to f."""
    triple = lawless_category(
        [("f", 0, 1), ("g", 1, 2), ("h", 2, 3), ("gf", 0, 2), ("hg", 1, 3),
         ("x", 0, 3), ("y", 0, 3)],
        {("f", "g"): "gf", ("g", "h"): "hg", ("gf", "h"): "x", ("f", "hg"): "y"})
    chain = ordinal(2)
    endpoint = FinCategory(chain.objects, chain.morphisms, chain.identity,
                           {**chain.table, ((0, 1, "le"), (1, 2, "le")): (0, 1, "le")})
    unit = lawless_category([("f", 0, 1), ("g", 0, 1)], {("f", ("id", 1)): "g"})
    return {"associativity": triple, "endpoint": endpoint, "identity": unit}


NERVE_AUDIT, CATEGORY_AUDIT = "^face identities fail", "^C breaks a law"


@pytest.mark.parametrize("name, D, message", [
    # the nerve holds the triple itself from D = 3 up, and C's law audit,
    # which comes after it, refuses every doctoring below that
    ("associativity", 1, CATEGORY_AUDIT), ("associativity", 2, CATEGORY_AUDIT),
    ("associativity", 3, NERVE_AUDIT),
    ("endpoint", 1, CATEGORY_AUDIT), ("endpoint", 2, NERVE_AUDIT), ("endpoint", 3, NERVE_AUDIT),
    ("identity", 1, CATEGORY_AUDIT), ("identity", 2, NERVE_AUDIT), ("identity", 3, NERVE_AUDIT),
])
def test_quillen_a_refuses_a_broken_law_before_any_fiber(capsys, tmp_path, monkeypatch,
                                                          name, D, message):
    """The projection of a fiber onto unravel(C, N) is not checked, since
    the audits of nerve(C, D) and of C's laws that come first check every
    law it could break: each doctoring is refused by one of them, and no
    fiber is built."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(category_to_json(lawless_categories()[name])))
    fibers = []
    monkeypatch.setattr(comparison, "quillen_fiber", lambda *args: fibers.append(args))
    error = expect_bad_input(
        capsys, ["verify", "quillen-a", "--input", str(path), "--N", "3", "--D", str(D)])
    assert re.match(message, error), error
    assert fibers == []


def non_associative_monoid():
    """One object and the arrows e, a, b, e the identity, composed by aa = b,
    ab = a, ba = b and bb = a, so (aa)a = ba = b but a(aa) = ab = a."""
    arrows = "eab"
    compose = {("e", f): f for f in arrows} | {(f, "e"): f for f in arrows}
    compose |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "a"}
    return FinCategory(["*"], [(f, "*", "*") for f in arrows], {"*": "e"}, compose)


@pytest.mark.parametrize("N, D", [(1, 1), (2, 2)])
def test_quillen_a_refuses_a_non_associative_table(capsys, tmp_path, N, D):
    """Below D = 3 the nerve holds no composable triple, and below N = 3 no
    lift of one to unravel(C, N) meets another, yet C's law audit refuses
    the table."""
    path = tmp_path / "non-associative.json"
    path.write_text(json.dumps(category_to_json(non_associative_monoid())))
    error = expect_bad_input(
        capsys, ["verify", "quillen-a", "--input", str(path), "--N", str(N), "--D", str(D)])
    assert re.match(CATEGORY_AUDIT + ", e.g. Violation\\(law='associativity'", error), error


@pytest.mark.parametrize("D, message", [(2, CATEGORY_AUDIT), (3, NERVE_AUDIT)])
def test_tom_dieck_refuses_a_non_associative_table(capsys, tmp_path, D, message):
    """At D = 2 and d = 0 the nerve, built through max(D, d + 2) = 2, holds
    no composable triple, yet C's law audit after it refuses the table;
    from D = 3 the nerve's own audit does."""
    path = tmp_path / "non-associative.json"
    path.write_text(json.dumps(category_to_json(non_associative_monoid())))
    error = expect_bad_input(capsys, ["verify", "tom-dieck", "--input", str(path),
                                      "--N", "2", "--D", str(D), "--d", "0"])
    assert re.match(message, error), error


@pytest.mark.parametrize("argv, message", [
    ("lemma42 --N 2 --D 2", CATEGORY_AUDIT), ("lemma42 --N 2 --D 3", NERVE_AUDIT),
    ("tau --N 3 --D 2 --d 1", CATEGORY_AUDIT), ("tau --N 4 --D 3 --d 1", NERVE_AUDIT),
])
def test_lemma42_and_tau_refuse_a_non_associative_table(capsys, tmp_path, argv, message):
    """Below D = 3 the nerve holds no composable triple, yet C's law audit
    after it refuses the table; from D = 3 the nerve's own audit does."""
    path = tmp_path / "non-associative.json"
    path.write_text(json.dumps(category_to_json(non_associative_monoid())))
    suite, *options = argv.split()
    error = expect_bad_input(capsys, ["verify", suite, "--input", str(path), *options])
    assert re.match(message, error), error


def test_tom_dieck_budgets_the_stage_product_at_D(capsys, inputs, monkeypatch):
    """Z/2 at N = 8, D = 4, d = 2: only the 1,425 cells of the stage
    product through d + 1 = 3 are built, yet its 3,441 cells through D are
    budgeted, and refused with the message building them would give."""
    argv = ["verify", "tom-dieck", "--input", inputs["bz2.json"], "--N", "8", "--D", "4", "--d", "2"]
    monkeypatch.setenv("FATCAT_MAX_CELLS", "3440")
    assert expect_bad_input(capsys, argv) == (
        "SemiSimplicialSet needs 3441 cells, exceeding FATCAT_MAX_CELLS=3440")
    monkeypatch.setenv("FATCAT_MAX_CELLS", "3441")
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["ok"]


def test_tom_dieck_decides_on_homology_when_the_cone_is_over_budget(capsys, tmp_path,
                                                                   monkeypatch):
    """Z/5 at N = 3, D = 3, d = 2: the cone needs the nerve through
    d + 2 = 4, 781 cells, over a budget of 500 that the nerve through D
    (156 cells) and the stage product (259) fit.  The presentations then
    decide, and the command prints what the cone's run prints."""
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(groupoid_to_json(cyclic_groupoid(5))))
    argv = ["verify", "tom-dieck", "--input", str(path), "--N", "3", "--D", "3", "--d", "2"]
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    assert main(argv) == 0
    certified = capsys.readouterr().out
    tried = []
    monkeypatch.setattr(comparison, "cone_certifies", lambda *args: tried.append(args))
    monkeypatch.setenv("FATCAT_MAX_CELLS", "500")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == certified and tried == []
    digest = "da966d6a33de81596c5ea3c631eaaa0ee91da91fd70fc9bc3f111ccbb3a66b09"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tom_dieck_refuses_a_doctored_projection(capsys, inputs, monkeypatch):
    """A projection that sends one product edge over the wrong nerve edge
    is refused by its map audit, as malformed input."""
    original = comparison.SimplicialMap

    def doctored(source, target, maps):
        maps[1][0] = 1 - maps[1][0]
        return original(source, target, maps)

    monkeypatch.setattr(comparison, "SimplicialMap", doctored)
    error = expect_bad_input(capsys, ["verify", "tom-dieck", "--input", inputs["bz2.json"],
                                      "--N", "5", "--D", "3", "--d", "1"])
    assert error.startswith("structure maps do not commute, e.g. Violation(law='map-face'")


def test_quillen_a_builds_no_category_but_c(capsys, inputs, monkeypatch):
    """The loaded category is the one ``FinCategory`` that ``verify
    quillen-a`` builds: neither unravel(C, N) nor any comma fiber's poset
    is built as a category."""
    built = []
    original = FinCategory.__init__
    monkeypatch.setattr(FinCategory, "__init__",
                        lambda self, *args: built.append(self) or original(self, *args))
    code, payload = run(capsys, ["verify", "quillen-a", "--input", inputs["z3.json"],
                                 "--N", "6", "--D", "4"])
    assert code == 0 and payload["ok"]
    assert len(built) == 1 and len(built[0].morphisms) == 3


def _drop_vertices(doc):
    del doc["vertices"]


def _drop_a_vertex(doc):
    doc["vertices"] = doc["vertices"][1:]


def _add_a_vertex(doc):
    doc["vertices"].append(99)


def _repeat_a_vertex(doc):
    doc["vertices"].append(doc["vertices"][0])


@pytest.mark.parametrize(
    "doctor", [_drop_vertices, _drop_a_vertex, _add_a_vertex, _repeat_a_vertex]
)
@pytest.mark.parametrize(
    "argv, document",
    [
        (["verify", "blowup", "--d", "1"], lambda: covered_complex_to_json(circle_star_cover())),
        (["verify", "cocycle"], lambda: cocycle_to_json(mobius_cocycle())),
    ],
    ids=["blowup", "cocycle"],
)
def test_vertices_that_miss_the_faces_exit_2(capsys, tmp_path, argv, document, doctor):
    doc = document()
    doctor(doc)
    bad = tmp_path / "vertices.json"
    bad.write_text(json.dumps(doc))
    expect_bad_input(capsys, argv + ["--input", str(bad)])


def _category():
    return category_to_json(standard_categories()["ordinal-1"])


def _groupoid():
    return groupoid_to_json(z2_groupoid())


def _complex():
    return covered_complex_to_json(circle_star_cover())


def _cocycle():
    return cocycle_to_json(mobius_cocycle())


def _repeat_first(field):
    return lambda doc: doc[field].append(doc[field][0])


def _unknown_inverse(doc):
    doc["inverse"]['"zz"'] = "zz"


def _empty_face(doc):
    # in a cover set too, so that no other check refuses it
    doc["faces"].append([])
    doc["cover"][0].append([])


def _unclosed_cover(doc):
    doc["cover"][0].remove([1])


def _stray_object(doc):
    doc["objects"][0]["object"] = "zz"


def _stray_transition(doc):
    doc["transitions"][0]["morphism"] = "zz"


def _pair_cocycle():
    return cocycle_to_json(bundled_cocycles()["trivial-pair"])


def _diagonal_at_the_wrong_object(doc):
    # the identity of b, over a component of U_0 whose object is a
    doc["transitions"].append({"a": 0, "b": 0, "component": [0, 1], "morphism": ["b", "b", "p"]})


def _diagonal_off_the_cover(doc):
    # an identity, over a component that U_0 does not have
    doc["transitions"].append({"a": 0, "b": 0, "component": [9], "morphism": ["*", "*", "e"]})


NERVE = ["nerve", "--D", "1"]
UNIVERSAL = ["verify", "universal-cocycle", "--N", "3", "--D", "2"]
BLOWUP = ["verify", "blowup", "--d", "1"]
COCYCLE = ["verify", "cocycle"]


@pytest.mark.parametrize(
    "argv, document, doctor, message",
    [
        (NERVE, _category, _repeat_first("objects"), "duplicate object identifiers"),
        (NERVE, _category, _repeat_first("morphisms"), "duplicate morphism identifiers"),
        (UNIVERSAL, _groupoid, lambda doc: doc.pop("inverse"),
         "groupoid document lacks an inverse table"),
        (UNIVERSAL, _groupoid, _unknown_inverse,
         "inverse table names unknown morphism: '\"zz\"'"),
        (BLOWUP, _complex, _empty_face, "faces must be nonempty"),
        (BLOWUP, _complex, lambda doc: doc["faces"].append([0, 0]),
         "face with repeated vertex: (0, 0)"),
        (BLOWUP, _complex, lambda doc: doc.update(cover=[]), "cover must be nonempty"),
        (BLOWUP, _complex, _unclosed_cover, "cover set 0 is not downward closed"),
        (COCYCLE, _cocycle, _stray_object, "object at (0, (0, 1)) is not in the groupoid"),
        (COCYCLE, _cocycle, _stray_transition, "transition at (0, 1, (1,)) is not a morphism"),
        (COCYCLE, _pair_cocycle, _diagonal_at_the_wrong_object,
         "transition endpoints at (0, 0, (0, 1)) do not match the objects"),
        (COCYCLE, _cocycle, _diagonal_off_the_cover,
         "transitions do not match the overlap components"),
    ],
    ids=[
        "duplicate-object", "duplicate-morphism", "no-inverse", "unknown-inverse",
        "empty-face", "repeated-vertex", "empty-cover", "unclosed-cover", "stray-object", "stray-transition",
        "diagonal-wrong-object", "diagonal-off-cover",
    ],
)
def test_loader_refusals_exit_2_with_their_message(
    capsys, tmp_path, argv, document, doctor, message
):
    doc = document()
    doctor(doc)
    bad = tmp_path / "refused.json"
    bad.write_text(json.dumps(doc))
    assert expect_bad_input(capsys, argv + ["--input", str(bad)]) == message


def _drop_identities(doc):
    doc["identity"] = {}


def _dangle_a_source(doc):
    doc["morphisms"][1]["src"] = "zz"


@pytest.mark.parametrize(
    "break_doc",
    [None, _drop_identities, _dangle_a_source],
    ids=["not-json", "no-identities", "dangling-source"],
)
def test_verify_tom_dieck_malformed_input_exits_2(capsys, tmp_path, break_doc):
    doc = groupoid_to_json(z2_groupoid())
    bad = tmp_path / "bad.json"
    if break_doc is None:
        bad.write_text(json.dumps(doc)[:-1])
    else:
        break_doc(doc)
        bad.write_text(json.dumps(doc))
    argv = ["verify", "tom-dieck", "--input", str(bad), "--N", "4", "--D", "3", "--d", "1"]
    expect_bad_input(capsys, argv)


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe")


def _deep_json(path):
    path.write_text("[" * 100000)


def _deep_object_id(path):
    # json parses 700 levels, but decoding the identifier recurses past the limit
    nested = "[" * 700 + "0" + "]" * 700
    path.write_text(f'{{"objects": [{nested}], "morphisms": [], "identity": {{}}, "compose": []}}')


@pytest.mark.parametrize("write", [_not_utf8, _deep_json, _deep_object_id])
def test_unreadable_input_exits_2(capsys, tmp_path, write):
    bad = tmp_path / "bad.json"
    write(bad)
    expect_bad_input(capsys, ["nerve", "--input", str(bad), "--D", "1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "3", "--D", "3", "--d", "-1"],
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "2", "--D", "2", "--d", "2"],
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "2", "--D", "0"],
        ["verify", "tom-dieck", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "-1"],
        ["verify", "tau", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "-1"],
        ["verify", "tau", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "3"],
        ["verify", "blowup", "--input", "circle.json", "--d", "-1"],
        ["verify", "quillen-a", "--input", "bz2.json", "--N", "2", "--D", "3"],
        ["verify", "tom-dieck", "--input", "bz2.json", "--N", "1", "--D", "3", "--d", "1"],
        ["verify", "tom-dieck", "--input", "z3.json", "--N", "1", "--D", "3", "--d", "1"],
        ["verify", "tom-dieck", "--input", "bz2.json", "--N", "2", "--D", "3", "--d", "2"],
    ],
)
def test_degree_out_of_range_exits_2(capsys, inputs, argv):
    # d < 0 checks nothing, H_D of a complex truncated at D is ker d_D, and
    # with fewer than d + 1 stages there are no cells above degree N, so a
    # comma fiber is cut short and the stage product's H_d lacks d_{d+1}
    expect_bad_input(capsys, [inputs.get(a, a) for a in argv])


@pytest.mark.parametrize("N,D", [(9, 9), (7, 7)])
def test_tau_refuses_too_few_stages_before_the_projection(capsys, inputs, monkeypatch, N, D):
    # the flag section labels stages 1..D+1, so N = D is one stage short;
    # that is said before the projection, or any complex, is built
    def refuse(*args):
        raise AssertionError("nerve built before the stage check")

    monkeypatch.setattr(comparison, "nerve", refuse)
    argv = ["verify", "tau", "--input", inputs["bz2.json"], "--N", str(N), "--D", str(D), "--d", "1"]
    assert expect_bad_input(capsys, argv) == "need N >= D + 1 so stage labels 1..D+1 exist"


# sha256 of stdout and the exit code of every suite, pinned so that a
# refactor of the command line cannot change a byte of what it prints
GOLDEN = [
    ("verify lemma42 --category ord1.json --N 2 --D 2", 0,
     "b895bb16ab52fd9bcb11134cf10c7bf1cb3d88dfe0806856e277a943357a1e3e"),
    ("verify lemma42 --input bz2.json --N 3 --D 3", 0,
     "cefded666986012ca3fe621655e48674c6fc0296c22e58f1be35490cf3715880"),
    # identifiers that native comparison cannot order
    ("verify lemma42 --input mixed.json --N 2 --D 2", 0,
     "b895bb16ab52fd9bcb11134cf10c7bf1cb3d88dfe0806856e277a943357a1e3e"),
    ("verify tom-dieck --input bz2.json --N 5 --D 3 --d 1", 0,
     "067f5b0308d38561f55e27ab7a7a4a68788f40e48ce4c45331620ee4ce943474"),
    ("verify tom-dieck --input ord2.json --N 4 --D 3 --d 2", 0,
     "e3d2d37db86d69f4121a3b51acb33ead1303d1c229f9f9f15d66636bf3bbcfd2"),
    ("verify quillen-a --input ord1.json --N 3 --D 3", 0,
     "17aa98ed13886b724fa3afdf89f6fd4237aeaca30374eb4c933e08e108f69861"),
    ("verify quillen-a --input bz2.json --N 3 --D 3 --d 1", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
    # N < D: the core s o s o s at N = 2 does not dismantle, so its fiber's
    # homology is computed from its order complex
    ("verify quillen-a --input bz2.json --N 2 --D 3 --d 1", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
    # s o s = s: cores whose composites are idempotents but not identities
    ("verify quillen-a --input idem.json --N 3 --D 3", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
    # two of the fiber-sweep benchmark's categories at its N, and Z/3
    ("verify quillen-a --input ord2.json --N 4 --D 3", 0,
     "8cbfaa7bf0ae6683bee83176db553f954b7d5a67853ddc2bdda83536685a61f4"),
    ("verify quillen-a --input idem.json --N 4 --D 3", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
    ("verify quillen-a --input z3.json --N 4 --D 3", 0,
     "7e738c29e2b398af2a678e43b75af620288528bdcad796f0df9ca380bcd4d04c"),
    ("verify tau --input bz2.json --N 4 --D 3 --d 1", 0,
     "3a1322fc1b9a0621558fa0da4037ddc9d129472718ffe9054c58f0da4eaad852"),
    ("verify cocycle --input mobius.json", 0,
     "33772fdee1771a3f5d18612b9230e599e2931d560d6864c16b85503c76b1652e"),
    ("verify cocycle --input broken.json", 1,
     "530863ce22f3e3d6799416557ade571771d384e056cee54ad2310194cfc3969d"),
    ("verify blowup --input circle.json --d 1", 0,
     "009a79ef01d6c5b361d60dd0d0d70fb75f7cad98153043e0afeb8a42a6b5c536"),
    ("verify blowup --input hemisphere.json --d 2", 0,
     "38be4f7619b8faf1391be4e654ee545cd39083cd397ef0e89e64afe455289d35"),
    # 21 cover sets that never meet: the blowup walks only nonempty overlaps
    ("verify blowup --input sparse21.json --d 1", 0,
     "772e8c48d9c4c596713ce9b9000812edbae17804c6eed9eb7756d343b884efc6"),
    ("verify universal-cocycle --input bz2.json --N 3 --D 2", 0,
     "33772fdee1771a3f5d18612b9230e599e2931d560d6864c16b85503c76b1652e"),
    ("verify universal-cocycle --input pair.json --N 2 --D 2", 0,
     "33772fdee1771a3f5d18612b9230e599e2931d560d6864c16b85503c76b1652e"),
    ("verify universal-cocycle --input bad-inverse.json --N 2 --D 2", 1,
     "65038e169725c8a21d42fbaccc2feba01826db54ebf538f84ebad852944a8d60"),
    ("verify partition", 0,
     "7b0971023ffc0e1b62b9f6712cb734ce362978dc77c6cf8fe2b771086ea4d3ce"),
    ("counterexample rho --n 1", 0,
     "458a1881ee7785b655b9d794e52166319cb6feb7a37f544daa3b78b368b43a16"),
    ("counterexample rho --n 2 --convention literal", 0,
     "f265784007dee2f2bed9665a21ff836eaf15a9f3b7d621f2ccbcacaf38c39e18"),
    ("counterexample rho --n 2 --convention zero-based", 0,
     "d701c2d47a245b285b367b159349ff212e7899c975b16660a3f0c7acfa2d414d"),
]


@pytest.mark.parametrize("line,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_suite_stdout_is_pinned(capsys, inputs, line, code, digest):
    argv = [inputs.get(a, a) for a in line.split()]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the stdout of each fiber-sweep benchmark case at seed 1; the
# two seeded posets have 44 nerve cells each, so they print the same bytes
FIBER_SWEEP_DIGESTS = {
    "quillen-a-ordinal-2-N4": "8cbfaa7bf0ae6683bee83176db553f954b7d5a67853ddc2bdda83536685a61f4",
    "quillen-a-idempotent-monoid-N4":
        "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2",
    "quillen-a-poset-a-N3": "8ac0ee86fa542409015e1f3f079f0bd123b99b8d31d79b53e01caba77dadd3c8",
    "quillen-a-poset-b-N3": "8ac0ee86fa542409015e1f3f079f0bd123b99b8d31d79b53e01caba77dadd3c8",
}


def fiber_sweep_cases(directory):
    """The fiber-sweep benchmark's cases at seed 1, inputs written into
    ``directory`` by ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fatcat_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.write_workload("fiber-sweep", 1, str(directory))["cases"]


def test_quillen_a_certifies_fibers_without_smith(capsys, inputs, monkeypatch, tmp_path):
    """Every comma fiber of the fiber-sweep benchmark's four categories and
    of Z/3 dismantles to a point, so ``verify quillen-a`` computes no Smith
    form, and prints the pinned bytes."""
    calls = []
    original = intlinalg.smith
    for module in (intlinalg, homology):
        monkeypatch.setattr(module, "smith", lambda *a, **k: calls.append(a) or original(*a, **k))
    runs = [(case["argv"], 0, FIBER_SWEEP_DIGESTS[case["name"]])
            for case in fiber_sweep_cases(tmp_path)]
    line = "verify quillen-a --input z3.json --N 4 --D 3"
    runs.append(([inputs.get(a, a) for a in line.split()],
                 *next(g[1:] for g in GOLDEN if g[0] == line)))
    assert len(runs) == 5
    for argv, code, digest in runs:
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert calls == []
    # the counter counts: a homology run does eliminate
    assert main(["homology", "--input", inputs["z3.json"], "--D", "3", "--k", "1"]) == 0
    assert calls


def test_package_never_reads_the_dense_view(capsys, inputs, monkeypatch):
    """IntMatrix.rows exists for the tests and the benchmark tracer; the
    package itself works on the sparse rows only."""

    def refuse(self):
        raise AssertionError("IntMatrix.rows read inside the package")

    monkeypatch.setattr(IntMatrix, "rows", property(refuse))
    assert main(["report", "all"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_ALL_SHA256
    line = "verify tom-dieck --input bz2.json --N 5 --D 3 --d 1"
    code, digest = next(g[1:] for g in GOLDEN if g[0] == line)
    assert main([inputs.get(a, a) for a in line.split()]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_failed_suite_without_witnesses_fails_its_claim(capsys, monkeypatch):
    # a cell-count mismatch is a failure even when no cell is named
    monkeypatch.setattr(
        cli, "lemma42_bijection", lambda c, N, D: BijectionReport([], (1, 2), (1, 3))
    )
    assert main(["report", "all"]) == 1
    claims = {c["id"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    claim = claims["cell-bijection"]
    assert claim["result"] == "fail"
    assert [w["missing"] for w in claim["witnesses"]] == ["ok", "ok"]
    assert claim["witnesses"][0]["nondegenerate_counts"] == [1, 3]
    assert all(c["result"] == "pass" for i, c in claims.items() if i != "cell-bijection")


def readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("fatcat ")]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert len(lines) >= 12
    for line in lines:
        # "[--out report.json]" marks an optional flag
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        assert build_parser(argv).parse_args(argv).func, line


def parser_corpus():
    """Command lines for the parser differential: every README line (with
    and without its optional flag, and with an unrecognized trailing
    argument), help at every level, unknown names, missing and malformed
    options, and arguments placed before the command."""
    lines = [shlex.split(line.replace("[", "").replace("]", ""))[1:]
             for line in readme_command_lines()]
    lines += [shlex.split(line.split(" [")[0])[1:] for line in readme_command_lines()
              if "[" in line]
    corpus = [argv + [extra] for argv in lines for extra in ("--bogus", "extra")] + lines
    corpus += [[], ["-h"], ["--help"], ["--he"], ["verify", "-h"], ["counterexample", "-h"],
               ["counterexample", "rho", "-h"], ["-h", "nerve"], ["--", "nerve"]]
    corpus += [[command, "-h"] for command in cli.COMMANDS]
    corpus += [["verify", suite, "-h"] for suite in cli.SUITES]
    corpus += [
        ["bogus"], ["Nerve"], ["verify", "bogus"], ["verify", "--bogus", "tau"],
        ["counterexample", "sigma"], ["report", "some"], ["--bogus", "report", "all"],
        ["nerve"], ["verify"], ["counterexample"], ["report"], ["counterexample", "rho"],
        ["nerve", "--input", "x"], ["verify", "tom-dieck", "--input", "x", "--N", "5"],
        ["nerve", "--input", "x", "--D", "two"],
        ["verify", "quillen-a", "--input", "x", "--N", "3", "--D", "3", "--d", "1.5"],
        ["counterexample", "rho", "--n", "one"],
        ["homology", "--input", "x", "--D", "3", "--k", "1", "--fat", "--geometric"],
        ["homology", "--input", "x", "--D", "3", "--k", "1", "--geometric"],
        ["counterexample", "rho", "--n", "1", "--convention", "sideways"],
        ["nerve", "--inp", "x", "--D", "1"], ["nerve", "--input", "x", "--D", "1", "-h"],
        ["verify", "partition", "--input", "x"],
    ]
    return corpus


def parse_outcome(parser, argv, capsys):
    """Exit code (None when it parses), stdout, stderr and namespace of one
    parse; the command function is named by what it runs."""
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    fields = None
    if args is not None:
        fields = dict(vars(args))
        func = fields.pop("func")
        fields["runs"] = (func.func, func.args) if isinstance(func, partial) else func.__code__
    return code, out, err, fields


def branches(parser):
    """The command (or suite) parsers that a parser has built, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_pruned_parser_matches_the_full_tree(capsys):
    corpus = parser_corpus()
    assert len(corpus) >= 60
    for argv in corpus:
        pruned = parse_outcome(build_parser(argv), argv, capsys)
        assert pruned == parse_outcome(build_parser([]), argv, capsys), argv
    # the ones that name a command do build only its branch
    assert list(branches(build_parser(["report", "all"]))) == ["report"]
    assert list(branches(branches(build_parser(["verify", "tau"]))["verify"])) == ["tau"]
    assert list(branches(build_parser(["-h"]))) == list(cli.COMMANDS)
