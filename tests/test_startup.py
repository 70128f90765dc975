"""Every CLI process imports the whole package, so what that import pulls in
is paid on every command.  ``dataclasses`` (with ``inspect``, which only it
loads) cost about 20 ms of each process and stay out of it, and so do
``fractions`` (with ``decimal``), which only the partition witnesses import
where they build a rational, so ``report all`` runs without them, and
``random``, which only the seeded fixture imports.

The two process entry points end the process right after flushing their
output, without the interpreter's teardown, so they are run here as real
processes with stdout and stderr redirected to files, where a missing flush
would lose the block-buffered tail.

``python -O`` strips assert statements, so the package holds none: every
check it makes runs under -O too.
"""

import ast
import hashlib
import json
import os
import resource
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from fatcat.cocycle import closure, cocycle_to_json, covered_complex_to_json
from fatcat.fincat import groupoid_to_json
from fatcat.fixtures import cyclic_groupoid, trivial_cocycle, vertex_star_cover, z2_groupoid

from test_cli import GOLDEN, REPORT_ALL_SHA256, simplex_and_points, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# without PYTHONUNBUFFERED, so a process writes its files block-buffered
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(SRC)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site-packages .pth files from importing modules of their own
    left_out = ("dataclasses", "inspect", "fractions", "decimal", "random")
    code = (
        "import fatcat.cli, sys; "
        f"print(' '.join(m for m in {left_out!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_report_all_leaves_out_fractions_and_decimal():
    # the rho witnesses print the barycenter from ints, and no claim of
    # report all fails, so none builds a rational
    code = (
        "import sys; from fatcat.cli import main; code = main(['report', 'all']); "
        "print(code, *(m for m in ('fractions', 'decimal') if m in sys.modules), "
        "file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.stderr.split() == ["0"]


def console_script():
    """The ``fatcat`` console script as pip would generate it, run from the
    source tree: it calls the ``[project.scripts]`` function and exits."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fatcat"]
    module, function = target.split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", code]


ENTRIES = {
    "module": [sys.executable, "-m", "fatcat.cli"],
    "console-script": console_script(),
}


def run_process(entry, argv, directory):
    """Exit code, stdout and stderr of one CLI process whose output goes to
    files."""
    out, err = directory / "stdout", directory / "stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        done = subprocess.run(ENTRIES[entry] + argv, env=ENV, stdout=fo, stderr=fe,
                              timeout=120)
    return done.returncode, out.read_text(), err.read_text()


@pytest.fixture(params=sorted(ENTRIES))
def cli_process(request, tmp_path):
    write_inputs(tmp_path)

    def run(line):
        # input and output files live in the test's directory
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in line.split()]
        return run_process(request.param, argv, tmp_path)

    return run


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_all_prints_its_pinned_bytes(cli_process):
    code, out, err = cli_process("report all")
    assert (code, err) == (0, "")
    assert sha256(out) == REPORT_ALL_SHA256


def assert_statements(package):
    """``module:line`` of every assert statement in the modules of
    ``package``, at any depth."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                yield f"{path.stem}:{node.lineno}"


def test_the_package_holds_no_assert_statement():
    # a check that python -O strips is a check the package may not make;
    # raise StructureError or report a violation instead
    assert list(assert_statements(SRC / "fatcat")) == []


def test_failing_suite_prints_its_whole_payload(cli_process):
    line = "verify cocycle --input broken.json"
    code, out, err = cli_process(line)
    assert (code, err) == (1, "")
    assert sha256(out) == next(digest for g, _, digest in GOLDEN if g == line)
    assert json.loads(out)["witnesses"]


def test_malformed_input_prints_its_error(cli_process, tmp_path):
    (tmp_path / "bad.json").write_text("{ not json")
    code, out, err = cli_process("nerve --input bad.json --D 1")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "bad.json" in json.loads(err)["error"]


def test_out_file_is_complete(cli_process, tmp_path):
    code, out, err = cli_process("report all --out report.json")
    assert (code, err) == (0, "")
    full = json.loads((tmp_path / "report.json").read_text())
    assert full.pop("timing_ms").keys() == {c["id"] for c in full["claims"]}
    assert full == json.loads(out)


def test_usage_error_exits_through_argparse(cli_process):
    code, out, err = cli_process("nerve --input x --D two")
    assert (code, out) == (2, "")
    assert err.startswith("usage: fatcat nerve ")
    assert err.endswith("fatcat nerve: error: argument --D: invalid int value: 'two'\n")


# stdout of ``verify blowup --d 1`` on the 5-simplex and 40 isolated points
SPARSE41_SHA256 = "6aca818de01d56727c9dff49f023a51dd0860b49c2d338b883543b08565dd9bb"


def test_sparse_cover_blowup_runs_in_512_mb(tmp_path):
    """41 cover sets that never meet give a 103-cell blowup, so the command
    fits in 512 MB of address space; a walk over all 4.5 M tuples of up to
    six cover indices, with their overlaps kept, needs about 1.9 GB."""
    path = tmp_path / "sparse41.json"
    path.write_text(json.dumps(covered_complex_to_json(simplex_and_points(40))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = ["verify", "blowup", "--input", str(path), "--d", "1"]
    done = subprocess.run(ENTRIES["module"] + argv, env=ENV, capture_output=True, text=True,
                          preexec_fn=limit, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert sha256(done.stdout) == SPARSE41_SHA256


# stdout of ``verify cocycle`` on the trivial Z/2 cocycle over the 5-simplex
# and 240 isolated points
SPARSE241_COCYCLE_SHA256 = "33772fdee1771a3f5d18612b9230e599e2931d560d6864c16b85503c76b1652e"


def test_sparse_cover_cocycle_check_runs_in_10_s(tmp_path):
    """241 cover sets that never meet have 241 nonempty overlaps, so the
    check follows those; a walk over all 14 M ordered triples of cover
    indices, with their overlaps kept, takes about 20 s and 240 MB."""
    path = tmp_path / "sparse241.json"
    path.write_text(json.dumps(cocycle_to_json(trivial_cocycle(simplex_and_points(240)))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = ["verify", "cocycle", "--input", str(path)]
    done = subprocess.run(ENTRIES["module"] + argv, env=ENV, capture_output=True, text=True,
                          preexec_fn=limit, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert sha256(done.stdout) == SPARSE241_COCYCLE_SHA256


def test_quillen_a_on_z3_at_n30_runs_in_3_s(tmp_path):
    """Z/3 at N = 30, D = 4 has 16 identity patterns, whose posets hold 155
    points and 1.9 M composable pairs between them.  Held as up-sets and
    audited as an order, they take a fraction of a second; built as
    categories with one composite per composable pair and audited by the
    category laws, next to unravel(C, N) and its audit, they took about
    6.6 s and 98 MB."""
    paths = write_inputs(tmp_path)
    argv = ["verify", "quillen-a", "--input", paths["z3.json"], "--N", "30", "--D", "4"]
    env = {**ENV, "FATCAT_MAX_CELLS": "5000000"}
    done = subprocess.run(ENTRIES["module"] + argv, env=env, capture_output=True, text=True,
                          timeout=3)
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert (payload["ok"], payload["fibers_checked"]) == (True, 121)


def limit_256_mb():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def test_universal_cocycle_on_z5_at_n8_runs_in_256_mb(tmp_path):
    """Z/5 at N = 8, D = 5 has a 1,016,004-cell classifying complex.  The
    law is checked on the 3,906 cells of the nerve, and the classifying
    complex is only counted, so the command fits in 256 MB and 3 s; built
    and audited, the complex took about 390 MB."""
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(groupoid_to_json(cyclic_groupoid(5))))
    argv = ["verify", "universal-cocycle", "--input", str(path), "--N", "8", "--D", "5"]
    env = {**ENV, "FATCAT_MAX_CELLS": "5000000"}
    done = subprocess.run(ENTRIES["module"] + argv, env=env, capture_output=True, text=True,
                          preexec_fn=limit_256_mb, timeout=3)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"ok": True, "witnesses": []}


def test_tom_dieck_on_z7_at_n6_runs_in_256_mb(tmp_path):
    """Z/7 at N = 6, D = 4, d = 3 has a 64,295-cell stage product.  The
    cone of π certifies, so no presentation of the product's homology is
    built and the command fits in 256 MB; building those presentations ran
    out of memory there after about 5 s."""
    path = tmp_path / "z7.json"
    path.write_text(json.dumps(groupoid_to_json(cyclic_groupoid(7))))
    argv = ["verify", "tom-dieck", "--input", str(path), "--N", "6", "--D", "4", "--d", "3"]
    env = {**ENV, "FATCAT_MAX_CELLS": "5000000"}
    done = subprocess.run(ENTRIES["module"] + argv, env=env, capture_output=True, text=True,
                          preexec_fn=limit_256_mb, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    # closed form H_k(BZ/7): Z, then Z/7 in odd degrees and 0 in even ones
    groups = [(c["source"]["betti"], c["source"]["torsion"]) for c in payload["degrees"]]
    assert payload["ok"] and groups == [(1, []), (0, [7]), (0, []), (0, [7])]


# stdout of ``verify lemma42`` on Z/2 at N = 10, D = 6
LEMMA42_Z2_SHA256 = "89db9c619144b8e49328d9425e45124b5ac42247678c14e1cc96004ccf55488e"


def test_lemma42_on_z2_at_n10_runs_in_256_mb(tmp_path):
    """Z/2 at N = 10, D = 6 pairs 46,717 product cells with the
    nondegenerate cells of a 397,727-cell nerve of unravel(C, N).  Each
    image is a position in that nerve, so the command fits in 256 MB;
    built as nested ids and hashed into an index of the nerve's cells, the
    images ran out of memory there."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(groupoid_to_json(z2_groupoid())))
    argv = ["verify", "lemma42", "--input", str(path), "--N", "10", "--D", "6"]
    env = {**ENV, "FATCAT_MAX_CELLS": "5000000"}
    done = subprocess.run(ENTRIES["module"] + argv, env=env, capture_output=True, text=True,
                          preexec_fn=limit_256_mb, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert sha256(done.stdout) == LEMMA42_Z2_SHA256


def test_blowup_is_refused_before_its_basis_is_listed(tmp_path):
    """The vertex stars of the 10-simplex give a 3,092,419-cell blowup.
    Its generators are counted over the cover's nerve and refused before
    any is listed, within 256 MB; listed and sorted first, they ran out of
    memory there."""
    path = tmp_path / "star11.json"
    cover = vertex_star_cover(closure([tuple(range(11))]))
    path.write_text(json.dumps(covered_complex_to_json(cover)))
    argv = ["verify", "blowup", "--input", str(path), "--d", "1"]
    env = {k: v for k, v in ENV.items() if k != "FATCAT_MAX_CELLS"}
    done = subprocess.run(ENTRIES["module"] + argv, env=env, capture_output=True, text=True,
                          preexec_fn=limit_256_mb, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert json.loads(done.stderr) == {
        "error": "blowup total complex needs 3092419 cells, exceeding FATCAT_MAX_CELLS=20000"
    }
