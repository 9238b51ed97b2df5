import json
import subprocess
import sys

import pytest

from quadop.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_dims_qd_aos(capsys):
    code, out, _ = run_cli(
        ["dims", "--qd", "AOS", "--n", "3", "--wmax", "4", "--format", "tsv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "S\t1\t3\t2\t0\t0"


def test_dims_of_a_family_member_without_generators(capsys):
    # DK at n = 1 has no generators: its realisations are the unit alone
    code, out, _ = run_cli(["dims", "--qd", "DK", "--n", "1", "--format", "tsv"],
                           capsys)
    assert code == 0
    assert out.splitlines() == ["A\t1\t0\t0\t0\t0\t0", "L\t0\t0\t0\t0\t0\t0"]


def test_dims_rejects_a_non_homogeneous_relation(tmp_path, capsys):
    # x even, y odd: x(x)y - y(x)x has degree 1 and y(x)y degree 2, so the
    # Lie side has no degree to book the relation under
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "flavor": "skew",
        "generators": [{"label": "x", "degree": 0}, {"label": "y", "degree": 1}],
        "relations": [[0, 1, -1, 1]],
    }))
    code, out, err = run_cli(["dims", "--qd", str(path)], capsys)
    assert code == 2
    assert "non-homogeneous" in err


def test_dims_family_relations(capsys):
    code, out, _ = run_cli(
        ["dims", "--family", "DK", "--relations", "--nmax", "4", "--format", "tsv"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "0\t0\t2\t11"


def test_dims_bkw2_relations(capsys):
    code, out, _ = run_cli(
        ["dims", "--qd", "BKW", "--n", "2", "--relations", "--format", "tsv"], capsys
    )
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("argv", [
    ["verify", "koszul-duals"],
    ["build", "--qd", "AOS", "--n", "3"],
])
def test_tsv_outside_dims_is_a_usage_error(capsys, argv):
    # only dims has a TSV form; elsewhere --format tsv would print JSON
    code, out, err = run_cli(argv + ["--format", "tsv"], capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "TSV" in err


def test_build_shriek_dk4(capsys):
    code, out, _ = run_cli(["build", "--functor", "shriek", "--qd", "DK", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "symmetric"
    assert len(doc["generators"]) == 6
    assert len(doc["relations"]) == 4  # C(4,3) relation rows


def test_build_family_descriptor(capsys):
    code, out, _ = run_cli(["build", "--family", "LHG", "--k", "3", "--nmax", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetric"] is False
    assert doc["generator_dims"][8] == 6


def test_build_product_from_files(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    code, out, _ = run_cli(
        ["build", "--functor", "lambda", "--qd", "DK", "--n", "3",
         "--out", str(a_path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["build", "--product", "black", "--qd", str(a_path), "--qd", str(a_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 9


def test_build_prints_rows_with_unit_pivots(tmp_path, capsys):
    # relation rows whose pivots are not 1 print divided by the pivot, so
    # entries with a denominator print as "p/q"
    path = tmp_path / "halves.json"
    path.write_text(json.dumps({
        "flavor": "plain",
        "generators": [{"label": "x", "degree": 0}, {"label": "y", "degree": 0}],
        "relations": [["2", "3", "0", "0"], ["0", "0", "4", "6"]],
    }))
    code, out, _ = run_cli(["build", "--qd", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["relations"] == [
        ["1", "3/2", "0", "0"], ["0", "0", "1", "3/2"]]
    code, out, _ = run_cli(["build", "--functor", "shriek", "--qd", str(path)],
                           capsys)
    assert code == 0
    assert json.loads(out)["relations"] == [
        ["1", "-2/3", "0", "0"], ["0", "0", "1", "-2/3"]]


def test_usage_errors(capsys):
    code, _, err = run_cli(["verify", "nosuch"], capsys)
    assert code == 2
    code, _, err = run_cli(["dims"], capsys)
    assert code == 2


def test_verify_exit_codes_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "diagram-faces", "--seed", "7", "--trials", "16"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["runtime_ms"] == 0  # timing excluded by default
    assert doc["cases"] == sorted(doc["cases"], key=lambda c: c["name"])


def test_json_files_are_written_and_read_as_utf8(tmp_path):
    # the labels hold "s·", "⊗" and "τ": with the locale's encoding they
    # would not survive a non-UTF-8 locale, so --out and a --qd file are
    # UTF-8, and the warning for an implicit encoding is an error here
    path = tmp_path / "f.json"
    base = [sys.executable, "-X", "warn_default_encoding",
            "-W", "error::EncodingWarning", "-m", "quadop", "build"]
    for argv in (["--functor", "shriek", "--qd", "DK", "--n", "3", "--out", str(path)],
                 ["--functor", "star", "--qd", str(path)]):
        proc = subprocess.run(base + argv, capture_output=True, text=True,
                              encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
    text = path.read_bytes().decode("utf-8")
    assert any(ord(c) > 127 for c in text)
    assert json.loads(text)


def test_verify_minimality_subprocess():
    # end to end through the entry point, exercising exit code 0
    proc = subprocess.run(
        [sys.executable, "-m", "quadop.cli", "verify", "minimality",
         "--shell", "BKW", "--nmax", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(c["status"] != "FAIL" for c in doc["cases"])


def test_minimality_rejects_unknown_shell(capsys):
    # a shell/k pair without a case is a usage error, not the default report
    for extra in (["--shell", "DK"], ["--shell", "HG", "--k", "5"]):
        code, out, err = run_cli(["verify", "minimality"] + extra, capsys)
        assert code == 2
        assert out == ""
        assert "BKW, HG with k 3 or 4, LG" in err


def test_arguments_below_one_are_usage_errors(capsys):
    # counts below their bound must not fall back to the defaults or
    # resolve to an empty datum
    for argv, low in (
        (["verify", "qd-coherence", "--trials", "0"], 1),
        (["verify", "qd-coherence", "--trials", "-3"], 1),
        (["verify", "koszul-duals", "--nmax", "0"], 1),
        (["dims", "--family", "DK", "--nmax", "0"], 1),
        (["build", "--family", "DK", "--nmax", "0"], 1),
        (["dims", "--qd", "DK", "--n", "3", "--wmax", "-1"], 0),
        (["dims", "--qd", "DK", "--n", "-2"], 0),
        (["build", "--qd", "DK", "--n", "-2"], 0),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "must be at least %d" % low in err


@pytest.mark.parametrize("argv, named", [
    # gra-iso runs no random trials
    (["verify", "gra-iso", "--trials", "3"], "--trials"),
    # without --family the suite runs its own table of families and bounds
    (["verify", "operad-axioms", "--nmax", "2"], "--nmax"),
    (["verify", "minimality", "--k", "3"], "--k"),
    # a named component has no arity bound
    (["dims", "--qd", "DK", "--n", "4", "--nmax", "1"], "--nmax"),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv, named):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err and named in err


def _qd_file(tmp_path, capsys, name):
    path = tmp_path / ("%s3.json" % name)
    code, _, _ = run_cli(["build", "--qd", name, "--n", "3", "--out", str(path)],
                         capsys)
    assert code == 0
    return str(path)


@pytest.mark.parametrize("argv, named", [
    # a family that fixes k reads no other k
    (["dims", "--qd", "DK", "--n", "3", "--k", "7", "--wmax", "2"], "k = 2"),
    (["dims", "--family", "DK", "--k", "9"], "k = 2"),
    # AOS and a JSON file read no --k, and a JSON file no --n
    (["dims", "--qd", "AOS", "--n", "3", "--k", "5", "--wmax", "2"], "--k"),
    (["dims", "--qd", "FILE", "--k", "4", "--wmax", "2"], "--k"),
    (["dims", "--qd", "FILE", "--n", "9", "--wmax", "2"], "--n"),
    (["build", "--product", "vee", "--qd", "FILE", "--qd", "AOS", "--n", "3",
      "--k", "3"], "--k"),
])
def test_a_k_or_n_that_no_datum_reads_is_an_error(tmp_path, capsys, argv, named):
    path = _qd_file(tmp_path, capsys, "AOS")
    code, out, err = run_cli([path if a == "FILE" else a for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert named in err


def test_a_k_or_n_that_one_datum_reads_is_accepted(tmp_path, capsys):
    path = _qd_file(tmp_path, capsys, "DK")
    for argv in (["build", "--product", "oplus", "--qd", path, "--qd", "HG",
                  "--n", "3", "--k", "3"],
                 ["dims", "--qd", path, "--wmax", "2"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err


def test_every_command_accepts_a_seed(capsys):
    # the benchmark passes --seed to every command, dims included
    for argv in (["dims", "--qd", "DK", "--n", "3", "--wmax", "2"],
                 ["dims", "--family", "DK", "--nmax", "3"],
                 ["build", "--qd", "AOS", "--n", "3"]):
        code, _, err = run_cli(argv + ["--seed", "7"], capsys)
        assert code == 0, err


def test_build_rejects_a_fractional_degree(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"flavor": "plain", "relations": [],
                                "generators": [{"label": "x", "degree": 1.5}]}))
    code, _, err = run_cli(["build", "--functor", "star", "--qd", str(path)], capsys)
    assert code == 2
    assert "degree" in err


_ONE_GEN = [{"label": "x", "degree": 0}]


@pytest.mark.parametrize("doc, named", [
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [[0, 1]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [[0, 1, 2, 3, 4]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": [1], "relations": []}, "generator 1"),
    ([1], "[1]"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [["1/0"]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [[None]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [["abc"]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [[0.5]]},
     "relation row 0"),
    ({"flavor": "plain", "generators": _ONE_GEN, "relations": [[True]]},
     "relation row 0"),
    ({"generators": _ONE_GEN, "relations": []},
     "quadratic data has no 'flavor' entry"),
    ({"flavor": "plain", "relations": []},
     "quadratic data has no 'generators' entry"),
    ({"flavor": "plain", "generators": _ONE_GEN},
     "quadratic data has no 'relations' entry"),
])
def test_build_rejects_malformed_json(tmp_path, capsys, doc, named):
    # a malformed document is a usage error that names the bad entry, not a
    # traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["build", "--functor", "star", "--qd", str(path)],
                             capsys)
    assert code == 2
    assert out == ""
    assert named in err


def test_a_missing_qd_value_is_a_usage_error(capsys):
    code, out, err = run_cli(["dims", "--qd"], capsys)
    assert code == 2
    assert out == ""
    assert "--qd: expected one argument" in err


def test_both_qd_spellings_count_toward_build_product(tmp_path, capsys):
    path = _qd_file(tmp_path, capsys, "DK")
    tail = ["--n", "3", "--k", "3"]
    code, spaced, err = run_cli(
        ["build", "--product", "oplus", "--qd", path, "--qd", "HG"] + tail, capsys)
    assert code == 0, err
    for qds in (["--qd=" + path, "--qd=HG"], ["--qd=" + path, "--qd", "HG"]):
        code, out, err = run_cli(["build", "--product", "oplus"] + qds + tail,
                                 capsys)
        assert code == 0, err
        assert out == spaced


@pytest.mark.parametrize("argv", [
    ["dims", "--qd", "DK", "--qd", "AOS", "--n", "3", "--wmax", "2"],
    ["dims", "--qd=DK", "--qd=AOS", "--n", "3", "--relations"],
    ["build", "--functor", "star", "--qd", "DK", "--qd", "AOS", "--n", "3"],
    ["build", "--qd", "AOS", "--qd", "DK", "--n", "3"],
])
def test_a_second_qd_outside_build_product_is_a_usage_error(capsys, argv):
    # no datum is dropped silently: only build --product reads two
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--qd" in err
