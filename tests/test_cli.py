import hashlib
import json
import shlex
from pathlib import Path

import pytest

from fatcat import cli
from fatcat.cli import build_parser, main
from fatcat.cocycle import cocycle_to_json, covered_complex_to_json
from fatcat.fincat import (
    FinCategory,
    FinGroupoid,
    category_to_json,
    groupoid_from_json,
    groupoid_to_json,
)
from fatcat.fixtures import (
    broken_circle_cocycle,
    broken_groupoid_bad_inverse,
    circle_star_cover,
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


@pytest.fixture
def inputs(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    write("bz2.json", groupoid_to_json(z2_groupoid()))
    write("ord1.json", category_to_json(standard_categories()["ordinal-1"]))
    write("ord2.json", category_to_json(standard_categories()["ordinal-2"]))
    write("idem.json", category_to_json(standard_categories()["idempotent-monoid"]))
    write("pair.json", groupoid_to_json(pair_groupoid()))
    write("bad-inverse.json", groupoid_to_json(broken_groupoid_bad_inverse()))
    write("loop5.json", groupoid_to_json(self_inverse_loop()))
    write("circle.json", covered_complex_to_json(circle_star_cover()))
    write("hemisphere.json", covered_complex_to_json(hemisphere_cover()))
    write("mobius.json", cocycle_to_json(mobius_cocycle()))
    write("broken.json", cocycle_to_json(broken_circle_cocycle()))
    return paths


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
    (fg)h != f(gh) and refuses the input before any transition is checked,
    so universal-face-compat, whose tables differ only where composition
    does not associate, has no input left to fire on."""
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


def test_verify_partition(capsys):
    code, payload = run(capsys, ["verify", "partition"])
    assert code == 0 and payload["pairs"] >= 100


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


def test_tom_dieck_frontier_rung(capsys, inputs, monkeypatch):
    # Z/2 at N=10, D=4: the stage product has 10,813 cells and its
    # boundaries hold 49,720 nonzeros in 21 million entries, so this stays
    # fast only while matrices store nothing but their nonzeros
    monkeypatch.setenv("FATCAT_MAX_CELLS", "300000")
    argv = ["verify", "tom-dieck", "--input", inputs["bz2.json"],
            "--N", "10", "--D", "4", "--d", "2"]
    code, payload = run(capsys, argv)
    assert code == 0 and payload["ok"]
    for side in ("source", "target"):
        groups = [(d[side]["betti"], d[side]["torsion"]) for d in payload["degrees"]]
        assert groups == [(1, []), (0, [2]), (0, [])]


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


def expect_bad_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error" in json.loads(captured.err)
    assert "Traceback" not in captured.err


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
    ],
)
def test_degree_out_of_range_exits_2(capsys, inputs, argv):
    # d < 0 checks nothing, H_D of a complex truncated at D is ker d_D, and
    # fewer than d + 1 stages cut a comma fiber short
    expect_bad_input(capsys, [inputs.get(a, a) for a in argv])


# sha256 of stdout and the exit code of every suite, pinned so that a
# refactor of the command line cannot change a byte of what it prints
GOLDEN = [
    ("verify lemma42 --category ord1.json --N 2 --D 2", 0,
     "b895bb16ab52fd9bcb11134cf10c7bf1cb3d88dfe0806856e277a943357a1e3e"),
    ("verify lemma42 --input bz2.json --N 3 --D 3", 0,
     "cefded666986012ca3fe621655e48674c6fc0296c22e58f1be35490cf3715880"),
    ("verify tom-dieck --input bz2.json --N 5 --D 3 --d 1", 0,
     "067f5b0308d38561f55e27ab7a7a4a68788f40e48ce4c45331620ee4ce943474"),
    ("verify tom-dieck --input ord2.json --N 4 --D 3 --d 2", 0,
     "e3d2d37db86d69f4121a3b51acb33ead1303d1c229f9f9f15d66636bf3bbcfd2"),
    ("verify quillen-a --input ord1.json --N 3 --D 3", 0,
     "17aa98ed13886b724fa3afdf89f6fd4237aeaca30374eb4c933e08e108f69861"),
    ("verify quillen-a --input bz2.json --N 3 --D 3 --d 1", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
    # s o s = s: cores whose composites are idempotents but not identities
    ("verify quillen-a --input idem.json --N 3 --D 3", 0,
     "6d483553856d75d9a3e0319b4db4f6af51a423cadf0637a1730d5b105f3450b2"),
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
    parser = build_parser()
    for line in lines:
        # "[--out report.json]" marks an optional flag
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        assert parser.parse_args(argv).func, line
