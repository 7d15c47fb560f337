import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from oracles import is_tree
from qbip import exactla, qmatrices, treecore, verify
from qbip.cli import main
from qbip.polyalg import Q, Q_ONE_PLUS_Q, NotDivisible


@pytest.fixture
def p4_file(tmp_path, p4_attach):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(p4_attach.to_json()))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"edges": [[0, 1], [0, 2], [0, 3]]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- show ---------------------------------------------------------------------


def test_show_qL_json_encoding(capsys, p4_file):
    code, out, _ = run_cli(capsys, "show", "--tree", p4_file, "--matrix", "qL")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [
        [["1"], ["-1"]],
        [["0", "0", "-1"], ["1"]],
    ]
    assert (data["row_kind"], data["col_kind"]) == ("R", "L")


def test_show_E_at_one_csv(capsys, p4_file):
    code, out, _ = run_cli(
        capsys, "show", "--tree", p4_file, "--matrix", "E",
        "--at", "1", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["1,1", "1,1"]


def test_show_csv_needs_at(capsys, p4_file):
    code, _, err = run_cli(
        capsys, "show", "--tree", p4_file, "--matrix", "qB", "--format", "csv"
    )
    assert code == 2 and "csv" in err


@pytest.mark.parametrize("argv, tripwire, message", [
    (("invert", "--matrix", "qB", "--oracle", "--at", "2"), (exactla, "inverse_gauss"),
     "csv output applies to matrices and vectors"),
    (("invert", "--matrix", "E", "--oracle"), (exactla, "inverse_gauss"),
     "csv output needs --at (cells are exact rationals)"),
    (("show", "--matrix", "tau", "--at", "2"), (qmatrices, "qtau"),
     "csv output applies to matrices and vectors"),
    (("show", "--matrix", "tau"), (qmatrices, "qtau"),
     "csv output needs --at (cells are exact rationals)"),
])
def test_csv_usage_errors_exit_before_any_work(capsys, monkeypatch, p4_file, argv,
                                               tripwire, message):
    # the csv rules are decided before the oracle runs or tau is built
    monkeypatch.setattr(*tripwire, lambda *args: pytest.fail(f"{tripwire[1]} ran"))
    code, out, err = run_cli(capsys, *argv, "--tree", p4_file, "--format", "csv")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_show_on_star_fails(capsys, star_file):
    code, _, err = run_cli(capsys, "show", "--tree", star_file, "--matrix", "qB")
    assert code == 2
    assert "unmatched" in err or "matching" in err


def test_show_full_matrices_accept_unmatched(capsys, star_file):
    code, out, _ = run_cli(capsys, "show", "--tree", star_file, "--matrix", "qD")
    assert code == 0
    assert json.loads(out)["rows"] == 4


def test_show_tau_and_mu(capsys, p4_file):
    code, out, _ = run_cli(capsys, "show", "--tree", p4_file, "--matrix", "tau")
    assert code == 0
    data = json.loads(out)
    assert data["tau_r"]["entries"] == [[], ["1"]]
    code, out, _ = run_cli(capsys, "show", "--tree", p4_file, "--matrix", "mu:0")
    assert code == 0
    assert json.loads(out)["kind"] == "R"


def test_show_pretty(capsys, p4_file):
    code, out, _ = run_cli(
        capsys, "show", "--tree", p4_file, "--matrix", "qB", "--format", "pretty"
    )
    assert code == 0
    assert "1 + q + q^2" in out


@pytest.mark.parametrize("at", [[], ["--at", "2"]])
def test_show_tau_pretty_lays_out_each_vector(capsys, p4_file, p4_attach, at):
    # each value of the dict is laid out as a lone vector, not as its repr
    code, out, _ = run_cli(
        capsys, "show", "--tree", p4_file, "--matrix", "tau", "--format", "pretty", *at
    )
    assert code == 0
    tau = qmatrices.qtau(p4_attach)
    if at:
        tau = [qmatrices.eval_vector(t, 2) for t in tau]
    assert out == "".join(
        f"{name}: ( " + "  ".join(map(str, t)) + " )\n"
        for name, t in zip(("tau_l", "tau_r"), tau)
    )


# -- invert -------------------------------------------------------------------


def test_invert_E_p2(capsys, tmp_path, p2):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(p2.to_json()))
    code, out, _ = run_cli(capsys, "invert", "--tree", str(path), "--matrix", "E")
    assert code == 0
    assert json.loads(out)["entries"] == [[{"num": ["1"], "den": ["0", "1"]}]]


def test_invert_excluded_points(capsys, p4_file):
    code, _, err = run_cli(
        capsys, "invert", "--tree", p4_file, "--matrix", "qB", "--at", "-1"
    )
    assert code == 2 and "excluded" in err
    code, _, err = run_cli(
        capsys, "invert", "--tree", p4_file, "--matrix", "E", "--at", "1"
    )
    assert code == 2 and "excluded" in err


def test_invert_bdq_root_excluded(capsys, tmp_path, p6_attach):
    path = tmp_path / "p6.json"
    path.write_text(json.dumps(p6_attach.to_json()))
    code, _, err = run_cli(
        capsys, "invert", "--tree", str(path), "--matrix", "qB", "--at", "-2"
    )
    assert code == 2 and "index" in err


def test_invert_with_oracle(capsys, p4_file):
    code, out, _ = run_cli(
        capsys, "invert", "--tree", p4_file, "--matrix", "qB", "--oracle"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_invert_with_failing_oracle(capsys, monkeypatch, p4_file):
    # a closed form that disagrees with the elimination oracle in one entry
    real = qmatrices.inverse_qB_formula

    def perturbed(td):
        m = real(td)
        rows = [list(row) for row in m.entries]
        rows[1][0] = rows[1][0] + 1
        return exactla.Matrix(rows, m.row_kind, m.col_kind)

    monkeypatch.setattr(qmatrices, "inverse_qB_formula", perturbed)
    code, out, _ = run_cli(
        capsys, "invert", "--tree", p4_file, "--matrix", "qB", "--oracle"
    )
    assert code == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert data["inverse"] != data["oracle"]


@pytest.mark.parametrize("at", [[], ["--at", "2"]])
def test_invert_oracle_pretty_lays_out_each_matrix(capsys, p4_file, at):
    # the inverse and the oracle each print as the lone inverse does
    argv = ("invert", "--tree", p4_file, "--matrix", "qB", "--format", "pretty", *at)
    code, lone, _ = run_cli(capsys, *argv)
    assert code == 0 and lone.count("\n") == 2 and "Matrix(" not in lone
    code, out, _ = run_cli(capsys, *argv, "--oracle")
    assert code == 0
    assert out == f"inverse:\n{lone}oracle:\n{lone}equal: True\n"


def test_invert_evaluated(capsys, p4_file):
    code, out, _ = run_cli(
        capsys, "invert", "--tree", p4_file, "--matrix", "qB",
        "--at", "2", "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0].split(",")[0] == "-1/6"


# -- verify -------------------------------------------------------------------


def test_verify_single_tree(capsys, p4_file):
    code, out, _ = run_cli(capsys, "verify", "--tree", p4_file)
    assert code == 0
    assert out.startswith("TREES 1 CHECKS 13 FAIL 0")


def _compact(line: str) -> dict:
    """The JSON object on line, which must be in the CLI's compact encoding."""
    data = json.loads(line)
    assert line == json.dumps(data, sort_keys=True, separators=(",", ":"))
    return data


def test_verify_failing_check_exits_1_with_its_witness(
    capsys, monkeypatch, p4_file, p4_attach
):
    # the determinant route off by q: bdq is the one check that takes it
    det_route = qmatrices.bdq_det
    monkeypatch.setattr(qmatrices, "bdq_det", lambda mt: det_route(mt) + Q)
    code, out, _ = run_cli(capsys, "verify", "--tree", p4_file)
    summary, line = out.splitlines()
    assert code == 1 and summary == "TREES 1 CHECKS 13 FAIL 1"
    data = _compact(line)
    assert data["tree"] == treecore.canonical_code(p4_attach.tree).hex()
    assert data["check"] == "bdq"
    want = qmatrices.bdq_recursive(p4_attach)
    assert data["witness"] == {
        "identity": "bd_q determinant route equals recursion",
        "got": (det_route(p4_attach) + Q).to_json(), "want": want.to_json(),
        "residual": ["0", "1"],
    }


def test_verify_star_is_usage_error(capsys, star_file):
    code, _, err = run_cli(capsys, "verify", "--tree", star_file)
    assert code == 2


def test_verify_enumerated(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate-upto", "8")
    assert code == 0
    assert out.startswith("TREES 9 ")


def test_verify_enumerated_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--enumerate-upto", "6", "--out", str(out_path)
    )
    assert code == 0
    reports = json.loads(out_path.read_text())
    assert len(reports) == 4
    assert all(c["pass"] for r in reports for c in r["checks"])


def test_verify_random(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--random", "8,2", "--seed", "5", "--at", "2", "--at", "5/3"
    )
    assert code == 0
    assert out.startswith("TREES 2 CHECKS 20 FAIL 0")


# sha256 of stdout and of --out of two random runs, which the benchmark checks
# only for their summary, and of one enumerated run, which it checks only
# through a projection of a larger one; a change that alters the output on
# purpose updates these and names them in CHANGES.md
RANDOM_DIGESTS = {
    ("12,2", "--seed", "3"): (
        "54041d1159572df6a87344841521613c8c415c05f24b9316842ff9b34f7af909",
        "b36fa8ec131337f81a7b512daa6ba13d9c029d450579f28c0ee1233067f7c11d"),
    ("9,1", "--seed", "2", "--at", "2", "--at", "-1/2"): (
        "60ab3b75cbe0b77b8192daaf043b321255c1686f12e01a219308289f430481f1",
        "6a35e3d32f5748b8217fc8e4c38a452ad9432ca18cf724358eca4d94456b3430"),
}


ENUM_DIGESTS = {
    "10": (
        "9089db2f86bc3cdffa0518900bea3b9558e5d2c4ded142085220eebb64c3ff88",
        "30b9dde4e8fdd30d2c760a693ffe70ae1e4671ee7b95e2815f894f275695e581"),
}


def _verify_digests(capsys, tmp_path, *argv) -> tuple:
    """sha256 of stdout and of --out of a passing verify run."""
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "verify", *argv, "--out", str(out_path))
    assert code == 0
    return (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(out_path.read_bytes()).hexdigest())


@pytest.mark.parametrize("spec", sorted(RANDOM_DIGESTS))
def test_verify_random_output_is_pinned(capsys, tmp_path, spec):
    assert _verify_digests(capsys, tmp_path, "--random", *spec) == RANDOM_DIGESTS[spec]


@pytest.mark.parametrize("upto", sorted(ENUM_DIGESTS))
def test_verify_enumerated_output_is_pinned(capsys, tmp_path, upto):
    assert _verify_digests(capsys, tmp_path, "--enumerate-upto", upto) == ENUM_DIGESTS[upto]


# sha256 of stdout of show on bare edges, whose matrices follow the derived
# labeling: the pair order that perfect_matching and standard_labeling fix,
# which a passing verify run, carrying no witness, does not show
LABEL_DIGESTS = {
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (0, 8), (8, 9)): {
        "qL": "56946c20ed1d8f8efe838c14727ddcb42d2e3f53c4e01476b94195706bdf7bbf",
        "tau": "7d30ad30f3cfb2e13dfecd4339a2130f169b6e58b8bca58bbe6494b84a9c5ef9"},
    ((0, 1), (0, 3), (0, 6), (0, 7), (1, 8), (2, 3), (4, 10), (4, 13), (5, 9), (7, 11),
     (7, 13), (9, 12), (12, 13)): {
        "qL": "d852a48fefb05467f863f0bf892499e5bafbf42b631c032ea45723ad8fa0d6f8",
        "tau": "7fc1f94a6e5be05ef1ecbf98d7246ed4b505d196af1c3d8d20985defa7a6eac6"},
}


@pytest.mark.parametrize("edges", sorted(LABEL_DIGESTS))
@pytest.mark.parametrize("matrix", ["qL", "tau"])
def test_derived_labeling_output_is_pinned(capsys, tmp_path, edges, matrix):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"edges": [list(e) for e in edges]}))
    code, out, _ = run_cli(capsys, "show", "--tree", str(path), "--matrix", matrix)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LABEL_DIGESTS[edges][matrix]


def test_verify_random_rejects_excluded(capsys):
    code, _, err = run_cli(capsys, "verify", "--random", "4,1", "--at", "1")
    assert code == 2


@pytest.mark.parametrize("second", ["1/2", "2/4"])
def test_verify_random_rejects_a_repeated_point(capsys, second):
    # a repeated point would run twice, under duplicate check names
    code, out, err = run_cli(
        capsys, "verify", "--random", "2,1", "--at", "1/2", "--at", second
    )
    assert code == 2 and out == ""
    assert "q = 1/2 is given more than once" in err


def test_verify_needs_exactly_one_source(capsys, p4_file):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, _, err = run_cli(
        capsys, "verify", "--tree", p4_file, "--enumerate-upto", "4"
    )
    assert code == 2


def test_verify_bound(capsys):
    code, _, err = run_cli(capsys, "verify", "--enumerate-upto", "18")
    assert code == 2 and "capped" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_threads_below_one_is_usage_error(capsys, threads):
    code, out, err = run_cli(
        capsys, "verify", "--enumerate-upto", "4", "--threads", threads
    )
    assert code == 2 and "--threads" in err
    assert "TREES" not in out


def test_verify_random_without_trials_is_usage_error(capsys):
    # a run that checks nothing is not a pass
    code, out, err = run_cli(capsys, "verify", "--random", "5,0")
    assert code == 2 and "trial" in err
    assert "TREES" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "--random", "3,1", "--at", "2"),
    ("verify", "--enumerate-upto", "6"),
    ("conjecture", "--upto", "6"),
])
def test_unwritable_out_fails_before_the_run(capsys, monkeypatch, tmp_path, argv):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("run_random", "run_enumerated"):
        monkeypatch.setattr(verify, name, never)
    monkeypatch.setattr(treecore, "enumerate_upto", never)
    for out in (tmp_path / "missing" / "x", tmp_path):  # no parent; a directory
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert f"cannot write --out {out}" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_odd_enumeration_bound_is_usage_error(capsys, tmp_path):
    # 7 used to run the 2p <= 6 suite silently
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--enumerate-upto", "7", "--out", str(out_path)
    )
    assert code == 2 and "even" in err
    assert "TREES" not in out and not out_path.exists()


# -- enum / gen ------------------------------------------------------------------


def test_enum_p1(capsys):
    code, out, _ = run_cli(capsys, "enum", "--p", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["edges"] == [[0, 1]]


def test_enum_p2(capsys):
    code, out, _ = run_cli(capsys, "enum", "--p", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_enum_counts(capsys):
    code, out, _ = run_cli(capsys, "enum", "--p", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_enum_bound_violation(capsys):
    assert run_cli(capsys, "enum", "--p", "0")[0] == 2
    assert run_cli(capsys, "enum", "--p", "9")[0] == 2


def test_gen_deterministic_bytes():
    cmd = [sys.executable, "-m", "qbip.cli", "gen", "--p", "5", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    tree = json.loads(a.stdout)
    mt = treecore.MatchedTree.from_json(tree)
    assert mt.p == 5


def test_python_dash_m_qbip_runs_the_cli():
    argv = ["gen", "--p", "3", "--seed", "1"]
    pkg = subprocess.run([sys.executable, "-m", "qbip", *argv],
                         capture_output=True, check=True)
    cli = subprocess.run([sys.executable, "-m", "qbip.cli", *argv],
                         capture_output=True, check=True)
    assert pkg.stdout == cli.stdout and pkg.stdout.startswith(b"{")


def test_gen_needs_valid_p(capsys):
    assert run_cli(capsys, "gen", "--p", "0")[0] == 2


# -- conjecture ----------------------------------------------------------------------


def test_conjecture_upto_4(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert all(r["diagonalizable"] and r["all_eigen_nonneg"] for r in rows)


def test_conjecture_single_pair(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 1
    assert rows[0]["real_root_count"] == 1


def test_conjecture_pretty(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "4", "--format", "pretty")
    assert code == 0
    assert "diag=True" in out


def test_conjecture_bound(capsys):
    assert run_cli(capsys, "conjecture", "--upto", "99")[0] == 2
    assert run_cli(capsys, "conjecture")[0] == 2


def test_conjecture_counterexample_exits_1_with_its_tree(capsys, monkeypatch):
    # evidence forced negative on the p = 2 tree only
    evidence = exactla.conjecture_evidence
    monkeypatch.setattr(exactla, "conjecture_evidence",
                        lambda lap: dict(evidence(lap), all_eigen_nonneg=lap.rows != 2))
    code, out, err = run_cli(capsys, "conjecture", "--upto", "4")
    assert code == 1 and len(out.strip().splitlines()) == 2
    data = _compact(err.strip())
    (p2_tree,) = treecore.enumerate_nonsingular(2)
    assert data["p"] == 2 and not data["all_eigen_nonneg"]
    assert data["witness_tree"] == json.loads(json.dumps(p2_tree.to_json()))


def test_conjecture_computes_one_charpoly_per_tree(capsys, monkeypatch):
    calls = []

    def counted(m, _fn=exactla.charpoly_exact):
        calls.append(m)
        return _fn(m)

    monkeypatch.setattr(exactla, "charpoly_exact", counted)
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == len(calls) == 9


def test_conjecture_tests_annihilation_only_for_repeated_roots(capsys, monkeypatch):
    # a squarefree charpoly annihilates its matrix by Cayley-Hamilton; of
    # the 9 trees with 2p <= 8 one has a repeated eigenvalue
    calls = []

    def counted(m, p, _fn=exactla.annihilates):
        calls.append(p)
        return _fn(m, p)

    monkeypatch.setattr(exactla, "annihilates", counted)
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert len(calls) == 1


def test_conjecture_builds_one_sturm_chain_per_tree(capsys, monkeypatch):
    # both root counts of a tree (all real roots, then those <= 0) read one chain
    calls = []

    def counted(p, _fn=exactla.sturm_chain):
        calls.append(p)
        return _fn(p)

    monkeypatch.setattr(exactla, "sturm_chain", counted)
    code, out, _ = run_cli(capsys, "conjecture", "--upto", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == len(calls) == 9


# -- general -----------------------------------------------------------------------


@pytest.mark.parametrize("command, argv", [
    ("verify", ["--random", "3,1"]),
    ("show", ["--matrix", "qB"]),
    ("invert", ["--matrix", "qB"]),
])
def test_negative_fraction_after_at(capsys, p4_file, command, argv):
    # argparse takes "-1/2" for an option string unless it is glued to --at
    if command != "verify":
        argv = ["--tree", p4_file, *argv]
    glued = run_cli(capsys, command, *argv, "--at=-1/2")
    assert glued[0] == 0 and glued[1]
    assert run_cli(capsys, command, *argv, "--at", "-1/2") == glued
    assert run_cli(capsys, command, *argv, "--a", "-1/2") == glued
    assert run_cli(capsys, command, *argv, "--at", "-1/0")[0] == 2


@pytest.mark.parametrize("command", ["show", "invert"])
def test_second_at_is_usage_error(capsys, p4_file, command):
    # a second point used to be dropped without a word
    code, out, err = run_cli(
        capsys, command, "--tree", p4_file, "--matrix", "qB", "--at", "2", "--at", "3"
    )
    assert code == 2 and "--at" in err and out == ""


_P4 = [[0, 1], [1, 2], [2, 3]]


@pytest.mark.parametrize("data, field", [
    ({"edges": _P4, "labels": {"L": [0, 2]}, "matching": [[0, 1], [2, 3]]}, '"R"'),
    ({"edges": _P4, "labels": {"L": [0, 2], "R": [1, 3]}}, '"matching"'),
    ({"edges": _P4, "matching": [[0, 3]]}, '"matching"'),
    ({"edges": [[0, 1]], "matching": "x"}, '"matching"'),
    ({"edges": _P4, "labels": {"L": [0, 5], "R": [1, 3]}, "matching": [[0, 1], [2, 3]]},
     "(5, 3)"),
])
def test_malformed_tree_field_is_named(capsys, tmp_path, data, field):
    # show --matrix qD|eD reads any tree, but labels and matching as verify does
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(data))
    for command in (["verify"], ["show", "--matrix", "qD"], ["show", "--matrix", "eD"]):
        code, out, err = run_cli(capsys, *command, "--tree", str(path))
        assert code == 2 and err.startswith("error:") and field in err and out == "", command


def test_key_error_inside_a_command_is_not_an_input_error(monkeypatch, p4_file):
    # a KeyError from a bug must surface, not read as "bad input"
    def broken(mt):
        raise KeyError("bug")

    monkeypatch.setattr(verify, "run_suite", broken)
    with pytest.raises(KeyError):
        main(["verify", "--tree", p4_file])


def test_det_qB_without_its_factor_is_a_failed_check(capsys, monkeypatch, tmp_path):
    # det qB short of q^(p-1) (1+q)^(p-1) fails the exact division in
    # bdq_det: bdq fails with det qB against the peel times the factor, and
    # the run exits 1, not 2 as for bad input
    mt = treecore.random_nonsingular(4, 1)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(mt.to_json()))
    build_qB = qmatrices.build_qB

    def bumped(mt):
        rows = [list(row) for row in build_qB(mt).entries]
        rows[0][1] += Q
        return exactla.Matrix(rows, exactla.KIND_L, exactla.KIND_R)

    monkeypatch.setattr(qmatrices, "build_qB", bumped)
    with pytest.raises(NotDivisible):
        qmatrices.bdq_det(mt)
    # the failed division and the witness read one det qB
    det_bareiss, calls = exactla.det_bareiss, []
    monkeypatch.setattr(exactla, "det_bareiss", lambda m: calls.append(m) or det_bareiss(m))
    assert not verify.check_bdq(mt).passed and len(calls) == 1
    monkeypatch.setattr(exactla, "det_bareiss", det_bareiss)
    code, out, _ = run_cli(capsys, "verify", "--tree", str(path))
    summary, line = out.splitlines()
    assert code == 1 and summary == "TREES 1 CHECKS 13 FAIL 2"
    data = _compact(line)
    assert data["check"] == "bdq"
    det = exactla.det_bareiss(bumped(mt))
    want = -(Q_ONE_PLUS_Q ** (mt.p - 1)) * qmatrices.bdq_recursive(mt)  # p - 1 = 3 is odd
    assert data["witness"] == {
        "identity": "det qB = (-1)^(p-1) q^(p-1) (1+q)^(p-1) bd_q",
        "got": det.to_json(), "want": want.to_json(), "residual": (det - want).to_json(),
    }


def test_value_error_inside_a_random_run_is_not_an_input_error(monkeypatch):
    # --random's p, trials and points are checked before the run; a
    # ValueError from the run itself is a bug and must surface
    def broken(mt, *points):
        raise ValueError("bug")

    monkeypatch.setattr(verify, "evaluate_identities_at", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["verify", "--random", "4,1"])


@pytest.mark.parametrize("argv,option", [
    (["--tree", "P4", "--at", "2", "--seed", "5"], "--at"),
    (["--tree", "P4", "--seed", "5"], "--seed"),
    (["--tree", "P4", "--threads", "1"], "--threads"),
    (["--random", "4,1", "--threads", "3"], "--threads"),
    (["--enumerate-upto", "4", "--at", "2"], "--at"),
    (["--enumerate-upto", "4", "--seed", "1"], "--seed"),
])
def test_verify_option_of_another_mode_is_usage_error(capsys, p4_file, argv, option):
    argv = [p4_file if a == "P4" else a for a in argv]
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and err.startswith(f"error: {option} applies to")
    assert out == ""


@pytest.mark.parametrize("spec,message", [
    ("0,1", "p must be >= 1"), ("4,0", "trial"), ("x,1", "p,trials"),
])
def test_verify_random_spec_is_checked_before_the_run(capsys, monkeypatch, spec, message):
    monkeypatch.setattr(verify, "run_random", None)
    code, out, err = run_cli(capsys, "verify", "--random", spec)
    assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("upto, read_first", [("4", 0), ("16", 10)])
def test_closed_stdout_keeps_the_verdict(upto, read_first):
    # the reader going away is neither bad input nor a failed check
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbip.cli", "conjecture", "--upto", upto],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(read_first)) == read_first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0 and err == b""



def test_bad_rational(capsys, p4_file):
    code, _, err = run_cli(
        capsys, "show", "--tree", p4_file, "--matrix", "qB", "--at", "x/y"
    )
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "show", "--tree", "/no/such.json", "--matrix", "qB")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--tree", "DIR"],
    ["show", "--matrix", "qB", "--tree", "BYTES"],
    ["verify", "--tree", "TREE", "--out", "DIR"],
    ["show", "--matrix", "qB", "--tree", "TREE", "--out", "DIR"],
    ["gen", "--p", "3", "--out", "DIR"],
])
def test_unreadable_or_unwritable_file_is_usage_error(capsys, tmp_path, p4_file, argv):
    # a directory or undecodable bytes where a file belongs is bad input, not a failed check
    raw = tmp_path / "raw.json"
    raw.write_bytes(b'\xff{"edges": [[0, 1]]}')
    paths = {"DIR": str(tmp_path), "BYTES": str(raw), "TREE": p4_file}
    code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2 and err.startswith("error:") and out == ""


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("text, argv", [
    ('{"edges": [["a", 1]]}', ["verify"]),
    ("[]", ["verify"]),
    ("[]", ["show", "--matrix", "qD"]),
    ('{"edges": [[true, 0]]}', ["verify"]),
    ('{"edges": [[0, 1], [1, 2], [2, 3]]}', ["show", "--matrix", "mu:x"]),
    pytest.param("[" * 200000 + "]" * 200000, ["show", "--matrix", "qB"], id="too-deep"),
    pytest.param('{"edges": [[0, 1' + "1" * 5000 + "]]}", ["show", "--matrix", "qD"],
                 id="past-the-integer-digit-limit"),
])
def test_malformed_input_is_usage_error(capsys, tmp_path, text, argv):
    # exit 1 means "a check failed"; bad input must never read that way
    path = tmp_path / "tree.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, argv[0], "--tree", str(path), *argv[1:])
    assert code == 2 and err.startswith("error:") and out == ""
    if argv == ["verify"]:
        with pytest.raises(treecore.NotATree):
            treecore.MatchedTree.from_json(json.loads(text))


@pytest.mark.parametrize("edges, pair", [
    ([[0, 1], [1, 3]], "(1, 3)"),          # an id past n - 1
    ([[0, 1], [-1, 1]], "(-1, 1)"),        # a negative id
    ([[0, 1], [1, 1], [1, 2]], "(1, 1)"),  # a self-loop
    ([[0, 1], [1, 2], [2, 1]], "(1, 2)"),  # a repeated edge
])
def test_bad_edge_message_names_the_pair(capsys, tmp_path, edges, pair):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"edges": edges}))
    code, out, err = run_cli(capsys, "verify", "--tree", str(path))
    assert code == 2 and err.startswith("error:") and pair in err and out == ""


def test_huge_vertex_id_is_usage_error(tmp_path):
    # the ids are counted, never enumerated; under the address-space cap any
    # allocation that grows with the largest id fails instead of exhausting memory
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"edges": [[0, 10**12]]}))
    cap = 1 << 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "qbip.cli", "verify", "--tree", str(path)],
        capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stdout == ""


# -- random malformed tree JSON ------------------------------------------------------

_BAD_IDS = st.sampled_from([-1, 10**12, True, False, 0.0, 1.5, "0", None, [0]])
_IDS = st.integers(0, 7) | _BAD_IDS
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**12) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["edges", "labels", "matching", "L", "R"]),
                      kids, max_size=3),
    max_leaves=10,
)


@st.composite
def _near_miss_trees(draw):
    """A random tree on 2..7 vertices, often with one edge or the labels spoilt."""
    n = draw(st.sampled_from([2, 3, 4, 4, 5, 6, 6, 7]))
    perm = draw(st.permutations(range(n)))
    edges = [[perm[draw(st.integers(0, i - 1))], perm[i]] for i in range(1, n)]
    spoil = draw(st.sampled_from(["none", "none", "pair", "drop", "extra"]))
    i = draw(st.integers(0, n - 2))
    if spoil == "pair":
        edges[i] = draw(st.lists(_IDS, max_size=3))  # ragged or bad ids
    elif spoil == "drop":
        del edges[i]
    elif spoil == "extra":
        edges.append(draw(st.lists(_IDS, min_size=2, max_size=2)))
    data = {"edges": edges}
    if draw(st.integers(0, 2)) == 0:
        data["labels"] = draw(_JSON | st.fixed_dictionaries(
            {"L": st.lists(_IDS, max_size=4), "R": st.lists(_IDS, max_size=4)}))
        data["matching"] = draw(_JSON | st.lists(st.lists(_IDS, max_size=3), max_size=4))
    return data


@settings(max_examples=300, deadline=None)
@given(_JSON | _near_miss_trees())
def test_random_tree_json_exits_2_unless_it_is_a_tree(data):
    # 0 and 1 are verdicts about a tree's mathematics; anything else is input
    # error.  show only prints, so it never exits 1
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/tree.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        for command, verdicts in ((["verify"], (0, 1)), (["show", "--matrix", "qD"], (0,))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--tree", path])
            if code == 2:
                assert err.getvalue().startswith("error:") and out.getvalue() == "", command
            else:
                assert code in verdicts and is_tree(data), (command, code, data)
