import hashlib
import json

import pytest

from fatcat.cli import main
from fatcat.cocycle import cocycle_to_json, covered_complex_to_json
from fatcat.fincat import category_to_json, groupoid_to_json
from fatcat.fixtures import (
    broken_circle_cocycle,
    circle_star_cover,
    mobius_cocycle,
    standard_categories,
    z2_groupoid,
)


@pytest.fixture
def inputs(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    write("bz2.json", groupoid_to_json(z2_groupoid()))
    write("ord1.json", category_to_json(standard_categories()["ordinal-1"]))
    write("circle.json", covered_complex_to_json(circle_star_cover()))
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


def test_report_all_stdout_is_pinned(capsys):
    assert main(["report", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "e03d7fc3ac5c4d98e1f3c62fdc9f2be91bcb0e21184597469bea3ade6728bea3"


def expect_bad_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
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
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "3", "--D", "3", "--d", "-1"],
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "2", "--D", "2", "--d", "2"],
        ["verify", "quillen-a", "--input", "ord1.json", "--N", "2", "--D", "0"],
        ["verify", "tom-dieck", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "-1"],
        ["verify", "tau", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "-1"],
        ["verify", "tau", "--input", "bz2.json", "--N", "4", "--D", "3", "--d", "3"],
        ["verify", "blowup", "--input", "circle.json", "--d", "-1"],
    ],
)
def test_degree_out_of_range_exits_2(capsys, inputs, argv):
    # d < 0 checks nothing, and H_D of a complex truncated at D is ker d_D
    expect_bad_input(capsys, [inputs.get(a, a) for a in argv])
