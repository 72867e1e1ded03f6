import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import endoscope
from endoscope.cli import _config, build_parser, main
from endoscope.endosocle import EndostructureError, family_endosocle, relative_endosocle_series
from endoscope.harness import (
    FamilySpec,
    HarnessError,
    suite_names,
    sweep,
    transversal,
    verify,
)
from endoscope.linalg import Mat
from endoscope.quiver import kronecker
from endoscope.radical import RadicalError, radical_profile, right_witness
from endoscope.reps import Representation, kronecker_preinjective, kronecker_regular
from endoscope.serialize import presentation_to_json, representation_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- family specs ---------------------------------------------------------------


def test_family_spec_parsing():
    spec = FamilySpec.parse("preinj", "1..8")
    assert spec.kind == "kronecker-preinjective" and (spec.lo, spec.hi) == (1, 8)
    fam = spec.build()
    assert fam.labels == tuple(range(1, 9))
    assert fam.boundary == (8,)
    regular = FamilySpec.parse("regular", "0..4").build()
    assert regular.boundary == ()
    assert regular.members[0] == kronecker_regular(1, 0)


def test_family_spec_errors():
    with pytest.raises(HarnessError):
        FamilySpec.parse("nope", "1..3")
    with pytest.raises(HarnessError):
        FamilySpec.parse("preinj", "5..3")
    with pytest.raises(HarnessError):
        FamilySpec.parse("preinj", None)
    with pytest.raises(HarnessError):
        FamilySpec.parse("file")


def test_a_range_with_no_end_is_refused(capsys):
    # "4.." once read as 4..4; a lone index still means itself, as matsub eval builds
    for range_arg in ("4..", "..4", ".."):
        with pytest.raises(HarnessError, match="bad range"):
            FamilySpec.parse("preinj", range_arg)
    assert (FamilySpec.parse("preinj", "3").lo, FamilySpec.parse("preinj", "3").hi) == (3, 3)
    assert main(["endosoc", "--family", "preinj", "--range", "4.."]) == 2
    assert capsys.readouterr() == ("", "error: bad range '4..'\n")


# -- transversal ------------------------------------------------------------------


def test_transversal_with_duplicates():
    i1, i2 = kronecker_preinjective(1), kronecker_preinjective(2)
    report = transversal([i2, i2, i1], labels=["a", "b", "c"])
    assert report.labels == ("a", "c")
    assert report.multiplicities == {"a": 2, "c": 1}


def test_transversal_singleton_and_orthogonal():
    single = transversal([kronecker_preinjective(2)])
    assert single.multiplicities == {0: 1}
    pair = transversal([kronecker_regular(1, 0), kronecker_regular(1, 1)])
    assert len(pair.representatives) == 2


# -- sweeps ----------------------------------------------------------------------


def test_sweep_preinjective_support_constant():
    spec = FamilySpec.parse("preinj", "1..10")
    rows = sweep(spec, "endosoc-support", range(3, 8))
    assert [r["value"] for r in rows] == [2] * 5
    assert all(not r["boundary_flag"] for r in rows)


def test_sweep_regular_support_grows():
    spec = FamilySpec.parse("regular", "0..9")
    rows = sweep(spec, "endosoc-support", range(3, 7))
    assert [r["value"] for r in rows] == [3, 4, 5, 6]


def test_sweep_preprojective_dim_zero_with_flag():
    spec = FamilySpec.parse("preproj", "1..10")
    rows = sweep(spec, "endosoc-dim", range(3, 7))
    assert [r["value"] for r in rows] == [0, 0, 0, 0]
    assert all(r["boundary_flag"] for r in rows)


def test_sweep_relative_length():
    spec = FamilySpec.parse("preinj", "1..10")
    rows = sweep(spec, "relative-length", range(4, 7))
    assert [r["value"] for r in rows] == [3, 4, 5]


def test_sweep_radical_depth():
    spec = FamilySpec.parse("preinj", "1..3")
    rows = sweep(spec, "radical-depth", range(2, 4))
    assert [r["value"] for r in rows] == [2, 3]


def test_sweep_unknown_invariant():
    with pytest.raises(HarnessError):
        sweep(FamilySpec.parse("preinj", "1..4"), "nope", range(3, 4))


def test_sweep_file_family_truncates_by_prefix(tmp_path):
    from endoscope.serialize import presentation_to_json, representation_to_json

    reps = [kronecker_regular(1, lam) for lam in range(5)]
    payload = {
        "algebra": presentation_to_json(reps[0].presentation),
        "members": [representation_to_json(r, include_algebra=False) for r in reps],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    spec = FamilySpec.parse("file", path=str(path))
    rows = sweep(spec, "endosoc-support", range(2, 5))
    assert [r["value"] for r in rows] == [2, 3, 4]


def test_sweep_reads_a_family_file_once(monkeypatch, tmp_path):
    # each truncation is a prefix of the members loaded once; loading the file
    # again at every truncation gave these rows too
    from endoscope.harness import SWEEP_INVARIANTS, load_family_file

    members = [kronecker_preinjective(1), kronecker_regular(1, 0), kronecker_preinjective(2), kronecker_preinjective(3)]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "algebra": presentation_to_json(kronecker()),
        "members": [representation_to_json(m, include_algebra=False) for m in members],
    }))
    loads = []

    def counted(*args):
        loads.append(args)
        return load_family_file(*args)

    monkeypatch.setattr("endoscope.harness.load_family_file", counted)
    spec = FamilySpec.parse("file", path=str(path))
    rows = {}
    for invariant in SWEEP_INVARIANTS:
        rows[invariant] = [(r["truncation"], r["value"], r["boundary_flag"]) for r in sweep(spec, invariant, range(1, 5))]
    assert len(loads) == len(SWEEP_INVARIANTS)
    assert rows == {
        "endosoc-support": [(1, 1, False), (2, 2, False), (3, 2, False), (4, 2, False)],
        "endosoc-dim": [(1, 1, False), (2, 2, False), (3, 2, False), (4, 2, False)],
        "relative-length": [(1, 1, False), (2, 1, False), (3, 2, False), (4, 3, False)],
        "radical-depth": [(1, 1, False), (2, 2, False), (3, 3, False), (4, 4, False)],
    }


# -- verify suites ----------------------------------------------------------------


def test_every_suite_passes_independently():
    for name in suite_names():
        report = verify(name)
        assert report["passed"], report
        for check in report["checks"]:
            assert check["paper_anchor"]


def test_verify_all_aggregates():
    report = verify("all")
    assert report["passed"]
    assert len(report["checks"]) >= 7


def test_verify_unknown_suite():
    with pytest.raises(HarnessError):
        verify("not-a-suite")


# -- CLI -------------------------------------------------------------------------


def test_cli_endosoc_json(capsys):
    code, out = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "1..6")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["support"] == ["1", "2"]
    assert payload["results"]["boundary"] == ["6"]


def test_cli_endosoc_relative(capsys):
    code, out = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "1..5", "--relative")
    payload = json.loads(out)
    series = payload["results"]["relative_series"]
    assert series["relative_length"] == 4
    assert series["supports"][0] == ["1", "2"]


def test_cli_reports_are_deterministic(capsys):
    code1, out1 = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "1..5", "--seed", "3")
    code2, out2 = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "1..5", "--seed", "3")
    strip = lambda s: "\n".join(l for l in s.splitlines() if "timing_ms" not in l)
    assert code1 == code2 == 0
    assert strip(out1) == strip(out2)


def test_cli_help_is_a_short_user_facing_description(capsys):
    # not the module docstring, whose reST markup and internals are for readers of the code
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "``" not in out and "COMMANDS" not in out
    for word in ("endosoc", "sweep", "verify", "radical-profile", "transversal", "matsub eval", "Exit codes", "inconclusive"):
        assert word in " ".join(out.split())


def test_cli_calls_in_one_process_share_the_parser_and_no_arguments(capsys, monkeypatch, tmp_path):
    # every call parses with the parser the first call built; each must read its
    # argv as a tree built afresh does, with no option left over from an earlier call
    parser, fresh = build_parser(), build_parser.__wrapped__
    parsed = []

    def recording(argv=None, namespace=None):
        args = argparse.ArgumentParser.parse_args(parser, argv, namespace)
        parsed.append((argv, args))
        return args

    def exits(code, *argv):
        with pytest.raises(SystemExit) as shared:
            main(list(argv))
        shared_output = capsys.readouterr()
        with pytest.raises(SystemExit) as afresh:
            fresh().parse_args(list(argv))
        assert shared.value.code == afresh.value.code == code
        assert capsys.readouterr() == shared_output
        return shared_output

    monkeypatch.setattr(parser, "parse_args", recording)
    report = tmp_path / "report.json"
    first = ("endosoc", "--family", "preinj", "--range", "1..5", "--relative", "--seed", "3", "--out", str(report))
    strip = lambda text: re.sub(r'"timing_ms": [-0-9.e]+', "", text)

    assert run_cli(capsys, *first) == (0, "")
    written = report.read_text()
    payload = json.loads(written)
    assert "relative_series" in payload["results"] and payload["config"]["seed"] == 3

    code, out = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "1..5")
    payload = json.loads(out)
    assert code == 0 and "relative_series" not in payload["results"] and payload["config"]["seed"] == 0
    assert report.read_text() == written

    code, out = run_cli(capsys, "sweep", "--family", "preinj", "--invariant", "endosoc-support", "--max", "4",
                        "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "truncation,invariant,value,boundary_flag"
    code, out = run_cli(capsys, "transversal", "--family", "regular", "--range", "0..3")
    assert code == 0 and json.loads(out)["command"] == "transversal"

    captured = exits(2, "sweep", "--family", "preinj", "--invariant", "bogus", "--max", "3")
    assert captured.out == "" and "invalid choice" in captured.err
    captured = exits(0, "--help")
    assert "{endosoc,sweep,verify,radical-profile,transversal,matsub}" in captured.out

    assert run_cli(capsys, *first) == (0, "")
    assert strip(report.read_text()) == strip(written)

    assert len(parsed) == 5  # the two usage errors exit inside parse_args
    for argv, args in parsed:
        again = fresh().parse_args(argv)
        assert (_config(args), vars(args)) == (_config(again), vars(again))


def test_cli_builds_its_parser_tree_once_per_process(capsys, monkeypatch):
    # the tree has 8 parsers: the top level, six subcommands and matsub eval;
    # rebuilt on every call, these three calls made 24
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    for argv in (("verify", "lemma-b1"), ("endosoc", "--family", "preinj", "--range", "1..3"),
                 ("transversal", "--family", "regular", "--range", "0..3")):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 8


def test_cli_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _ = run_cli(
        capsys,
        "sweep", "--family", "regular", "--invariant", "endosoc-support",
        "--min", "3", "--max", "5", "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "truncation,invariant,value,boundary_flag"
    assert lines[1] == "3,endosoc-support,3,false"
    assert lines[-1] == "5,endosoc-support,5,false"


def test_cli_verify_pass_and_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "lemma-b1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["passed"] is True
    anchors = {c["paper_anchor"] for c in payload["results"]["checks"]}
    assert anchors == {"Lemma B(1)"}


def test_cli_usage_errors(capsys):
    code, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "all", "--field", "fp:abc")
    assert code == 2
    # the suites build their modules over Q, so a prime field is refused, not reported
    code, _ = run_cli(capsys, "verify", "examples-o", "--field", "fp:101")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "examples-o", "--field", "q")
    assert code == 0
    code, _ = run_cli(capsys, "endosoc", "--family", "preinj", "--range", "9..3")
    assert code == 2
    # a non-brick's radical over a prime field is refused; bricks are answered (test_prime_fields.py)
    code, _ = run_cli(capsys, "endosoc", "--family", "regular", "--size", "2", "--range", "0..0", "--field", "fp:5")
    assert code == 2
    # a regular family of size < 1 is refused for its size, not for its (valid) range
    for size in ("0", "-1"):
        for command in ("endosoc", "transversal", "radical-profile", "sweep"):
            argv = [command, "--family", "regular", "--range", "0..2", "--size", size]
            if command == "sweep":
                argv += ["--invariant", "endosoc-support", "--min", "1", "--max", "2"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: size must be >= 1, not {size}\n")


def _matsub_eval(matrix):
    return ["matsub", "eval", "--family", "preinj", "--index", "2", "--matrix", matrix]


# family files written into the working directory of each case below
BAD_FAMILY_FILES = {
    "top-level-5.json": "5",
    "member-5.json": '{"members": [5]}',
    # the Kronecker quiver has vertices "1" and "2" only
    "dims-3.json": json.dumps({"algebra": presentation_to_json(kronecker()), "members": [{"dims": {"1": 1, "3": 4}}]}),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["radical-profile", "--family", "preinj", "--range", "1..4", "--depth", "0"],
        ["endosoc", "--family", "preinj", "--range", "0..3"],
        _matsub_eval('{"pointer": 0}'),
        ["sweep", "--family", "regular", "--size", "3", "--invariant", "endosoc-support", "--max", "2"],
        _matsub_eval("5"),
        _matsub_eval('{"entries": 5, "pointer": 0}'),
        _matsub_eval('{"entries": [[5]], "pointer": 0}'),
        _matsub_eval('{"entries": [[[{"path": ["alpha"]}]]], "pointer": 0}'),
        ["endosoc", "--family", "file", "--file", "top-level-5.json"],
        ["transversal", "--family", "file", "--file", "member-5.json"],
        ["endosoc", "--family", "preinj", "--range", "1..3", "--out", "."],
        ["endosoc", "--family", "file", "--file", "."],
        ["sweep", "--family", "preinj", "--invariant", "radical-depth", "--min", "0", "--max", "2"],
        ["sweep", "--family", "preinj", "--invariant", "endosoc-dim", "--min", "-2", "--max", "2"],
        ["endosoc", "--family", "file", "--file", "dims-3.json"],
    ],
    ids=[
        "radical-profile-depth-0", "endosoc-index-0", "matsub-no-entries", "sweep-max-below-min",
        "matsub-matrix-5", "matsub-entries-5", "matsub-term-list-5", "matsub-term-without-coeff",
        "family-file-top-level-5", "family-file-member-5", "out-directory", "family-file-directory",
        "sweep-radical-depth-empty-truncation", "sweep-endosoc-dim-negative-truncation", "family-file-dims-key-3",
    ],
)
def test_cli_bad_input_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    for name, text in BAD_FAMILY_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_radical_depth_sweep_of_zero_members_meets_the_profile_refusal(capsys, tmp_path):
    # every member has length 0, so 2^0 - 1 = 0 would be a depth bound the user
    # never gave; floored at 1, the sweep refuses as radical-profile does on the file
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"algebra": presentation_to_json(kronecker()), "members": [{"dims": {"1": 0, "2": 0}}]}))
    errors = []
    for argv in (["sweep", "--invariant", "radical-depth", "--min", "1", "--max", "1"], ["radical-profile"]):
        assert main(argv + ["--family", "file", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and "depth bound" not in errors[0]
    # refused as a zero member, not as a decomposable one
    assert "zero" in errors[0] and "decomposable" not in errors[0]


def test_cli_endosocle_of_a_family_with_a_zero_member_refuses_it(capsys, tmp_path):
    # the zero module has no indecomposable summand, so it would get no label and
    # no component: it is refused as radical-profile refuses it
    path = tmp_path / "zero-member.json"
    members = [{"dims": {"1": 1, "2": 0}}, {"dims": {"1": 0, "2": 0}}, {"dims": {"1": 0, "2": 1}}]
    path.write_text(json.dumps({"algebra": presentation_to_json(kronecker()), "members": members}))
    for argv in (
        ["endosoc"],
        ["endosoc", "--relative"],
        ["sweep", "--invariant", "endosoc-support", "--min", "1", "--max", "3"],
    ):
        assert main(argv + ["--family", "file", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: member Representation(dims (0, 0)) is the zero module; members must be nonzero\n"


@pytest.mark.parametrize("command", ["endosoc", "radical-profile", "transversal"])
def test_cli_family_file_of_mixed_algebras_is_a_usage_error(capsys, tmp_path, command):
    # no top-level algebra: each member carries its own, and I2 and its dual differ
    from endoscope.reps import dual
    from endoscope.serialize import representation_to_json

    i2 = kronecker_preinjective(2)
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps({"members": [representation_to_json(i2), representation_to_json(dual(i2))]}))
    code = main([command, "--family", "file", "--file", str(family_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_radical_profile(capsys):
    code, out = run_cli(capsys, "radical-profile", "--family", "preinj", "--range", "1..3", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["vanishing_depth"] == 3
    assert payload["results"]["pairs"]["3->1"] == [3, 3, 0]


def test_cli_transversal(capsys):
    code, out = run_cli(capsys, "transversal", "--family", "regular", "--range", "0..3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["multiplicities"] == {"0": 1, "1": 1, "2": 1, "3": 1}


class ClosedPipe:
    """A stdout whose reader has gone away; ``fileno`` is a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_cli_closed_stdout_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["transversal", "--family", "regular", "--range", "0..3"])
        # the descriptor behind stdout now writes to the null device
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""


def test_cli_pipe_closed_by_reader_exits_1_without_traceback():
    src = os.path.dirname(os.path.dirname(endoscope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["transversal", "--family", "regular", "--range", "0..3"]
    script = "import sys; from endoscope.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_cli_matsub_eval(capsys):
    matrix = json.dumps({"entries": [[[{"coeff": "1", "path": ["alpha"]}]]], "pointer": 0})
    code, out = run_cli(
        capsys, "matsub", "eval", "--matrix", matrix, "--family", "preinj", "--index", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["dim"] == 2
    assert payload["results"]["endo_invariant"] is True


def test_cli_matsub_eval_over_a_prime_field(capsys):
    matrix = json.dumps({"entries": [[[{"coeff": "1/2", "path": ["alpha"]}]]], "pointer": 0})
    code, out = run_cli(
        capsys, "matsub", "eval", "--matrix", matrix, "--family", "preinj", "--index", "3", "--field", "fp:101"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["dim"] == 3
    assert payload["results"]["endo_invariant"] is True
    assert all(0 <= int(x) < 101 for col in payload["results"]["basis"] for x in col)


def test_cli_denominator_divisible_by_p_is_a_usage_error(capsys, tmp_path):
    from endoscope.serialize import representation_to_json

    data = representation_to_json(kronecker_preinjective(2))
    assert data["matrices"]["alpha"] == [["0", "1"]]
    data["matrices"]["alpha"] = [["0", "1/7"]]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data))
    matrix = json.dumps({"entries": [[[{"coeff": "1", "path": ["alpha"]}]]], "pointer": 0})
    code = main(["matsub", "eval", "--rep", str(rep_path), "--field", "fp:7", "--matrix", matrix])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "divisible by 7" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field", ["q", "fp:7"])
def test_cli_float_matrix_entry_is_a_usage_error(capsys, tmp_path, field):
    from endoscope.serialize import representation_to_json

    data = representation_to_json(kronecker_preinjective(2))
    data["matrices"]["alpha"] = [[0.1, 1]]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data))
    matrix = json.dumps({"entries": [[[{"coeff": "1", "path": ["alpha"]}]]], "pointer": 0})
    code = main(["matsub", "eval", "--rep", str(rep_path), "--field", field, "--matrix", matrix])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field", ["fp:abc", "fp:561", "fp:3317044064679887385961981"])
def test_cli_bad_field_is_a_usage_error(capsys, field):
    code = main(["endosoc", "--family", "preinj", "--range", "1..3", "--field", field])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_cli_matsub_eval_file_carrier(capsys, tmp_path):
    from endoscope.serialize import representation_to_json

    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(representation_to_json(kronecker_preinjective(2))))
    matrix = json.dumps({"entries": [[[{"coeff": "1", "path": [], "vertex": "1"}]]], "pointer": 0})
    code, out = run_cli(capsys, "matsub", "eval", "--matrix", matrix, "--rep", str(rep_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["dim"] == 1


def test_cli_inconclusive_exit_code(capsys, tmp_path):
    # End = Q(i): locality cannot be certified either way -> exit 3, also
    # when it comes last, after preinjectives whose kernels close early
    from fractions import Fraction as F

    from endoscope.linalg import Mat
    from endoscope.quiver import kronecker
    from endoscope.reps import Representation
    from endoscope.serialize import presentation_to_json, representation_to_json

    gauss = Representation(
        kronecker(),
        {"1": 2, "2": 2},
        {"alpha": Mat.identity(2), "beta": Mat([[F(0), F(-1)], [F(1), F(0)]])},
    )
    family_path = tmp_path / "family.json"
    for members in ([gauss], [kronecker_preinjective(n) for n in range(1, 9)] + [gauss]):
        family_path.write_text(
            json.dumps(
                {
                    "algebra": presentation_to_json(gauss.presentation),
                    "members": [representation_to_json(m, include_algebra=False) for m in members],
                }
            )
        )
        code, out = run_cli(capsys, "endosoc", "--family", "file", "--file", str(family_path))
        assert code == 3 and out == ""


def test_cli_decomposable_file_member_is_split(capsys, tmp_path):
    from endoscope.reps import direct_sum
    from endoscope.serialize import presentation_to_json, representation_to_json

    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    family_path = tmp_path / "family.json"
    family_path.write_text(
        json.dumps(
            {
                "algebra": presentation_to_json(total.presentation),
                "members": [representation_to_json(total, include_algebra=False)],
            }
        )
    )
    code, out = run_cli(capsys, "endosoc", "--family", "file", "--file", str(family_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["total_dim"] == 2


def test_cli_radical_commands_split_a_decomposable_member(capsys, tmp_path):
    # the family file of CI (I1+I2, I3, I4 and I2+I2): the profile and the
    # radical-depth sweep read the summands "<label>.<k>" that endosoc reads
    from test_endosocle import SUM_FAMILY

    path = tmp_path / "sum-family.json"
    members = [representation_to_json(m, include_algebra=False) for m in SUM_FAMILY]
    path.write_text(json.dumps({"algebra": presentation_to_json(kronecker()), "members": members}))
    code, out = run_cli(capsys, "radical-profile", "--family", "file", "--file", str(path), "--depth", "63")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["vanishing_depth"] == results["depth_computed"] == 4
    assert results["pairs"]["2->0.1"] == [4, 4, 4, 0] and results["pairs"]["0.0->0.1"] == [2, 0, 0, 0]
    assert {label for pair in results["pairs"] for label in pair.split("->")} == {"0.0", "0.1", "1", "2", "3.0", "3.1"}
    argv = ["sweep", "--family", "file", "--file", str(path), "--invariant", "radical-depth", "--min", "1", "--max", "4"]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["2", "3", "4", "4"]


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    import endoscope.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "verify", lambda suite, seed=0: {"suite": suite, "checks": [], "passed": False}
    )
    code, _ = run_cli(capsys, "verify", "all")
    assert code == 1


@pytest.mark.parametrize("value", [2.9, "x", True, -1], ids=["float", "string", "bool", "negative"])
def test_cli_family_file_dimension_not_a_count_is_a_usage_error(capsys, tmp_path, value):
    from endoscope.serialize import presentation_to_json, representation_to_json

    i2 = kronecker_preinjective(2)
    member = representation_to_json(i2, include_algebra=False)
    member["dims"]["1"] = value
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps({"algebra": presentation_to_json(i2.presentation), "members": [member]}))
    code = main(["radical-profile", "--family", "file", "--file", str(family_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [0.7, "0", True, -1], ids=["float", "string", "bool", "negative"])
def test_cli_pointer_not_a_count_is_a_usage_error(capsys, value):
    matrix = json.dumps({"entries": [[[{"coeff": "1", "path": ["alpha"]}]]], "pointer": value})
    code = main(["matsub", "eval", "--matrix", matrix, "--family", "preinj", "--index", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


I1, I2, I3 = (kronecker_preinjective(n) for n in (1, 2, 3))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: family_endosocle([I1, I2, I3], labels=["a", "a", "b"]), EndostructureError),
        (lambda: family_endosocle([I1, I2], labels=["a"]), EndostructureError),
        (lambda: relative_endosocle_series([I1, I2, I3], labels=["a", "b"]), EndostructureError),
        (lambda: radical_profile([I1, I2], 3, labels=["x", "x"]), RadicalError),
        (lambda: right_witness([I1, I2], "zz", (1, 0), 1, labels=["a", "b"]), RadicalError),
        (lambda: transversal([I1, I2, I3], labels=[7, 7, 8]), HarnessError),
        (lambda: transversal([I1, I2, I3], labels=[7, 8]), HarnessError),
    ],
    ids=[
        "family_endosocle-repeated", "family_endosocle-short", "relative_series-short",
        "radical_profile-repeated", "right_witness-unknown-start", "transversal-repeated", "transversal-short",
    ],
)
def test_family_labels_are_one_per_member_and_distinct(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("command", ["endosoc", "radical-profile"])
def test_cli_inconclusive_refusal_names_the_member(capsys, tmp_path, command):
    # End = Q(i): one line on stderr naming the member's dimension vector and dim End/J
    gauss = Representation(kronecker(), {"1": 2, "2": 2}, {"alpha": Mat.identity(2), "beta": Mat([[0, -1], [1, 0]])})
    family_path = tmp_path / "family.json"
    family_path.write_text(
        json.dumps({"algebra": presentation_to_json(kronecker()), "members": [representation_to_json(gauss, False)]})
    )
    code = main([command, "--family", "file", "--file", str(family_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("inconclusive: ") and captured.err.count("\n") == 1
    assert "(2, 2)" in captured.err and "dim End/J = 2" in captured.err


def test_sweep_flags_the_summands_of_a_decomposable_boundary_member(monkeypatch):
    # member n is I_n + I_1, so the boundary member n splits into "n.0" and "n.1"
    from endoscope import harness
    from endoscope.reps import direct_sum

    monkeypatch.setitem(
        harness._BUILDERS,
        "kronecker-preinjective",
        lambda n, field: direct_sum([kronecker_preinjective(n, field), kronecker_preinjective(1, field)])[0],
    )
    spec = FamilySpec.parse("preinj", "2..4")
    for invariant in ("relative-length", "endosoc-support"):
        assert [r["boundary_flag"] for r in sweep(spec, invariant, [3, 4])] == [True, True]
