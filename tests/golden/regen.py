"""Golden reports of the ``endoscope`` command line, and the script that rewrites them.

Each case runs ``endoscope.cli.main`` in process, in a working directory
that holds the family files it reads, and is kept as a canonical record:
the argv, the exit code, stdout and stderr.  A JSON report is kept with
``timing_ms`` removed and its keys sorted; CSV is kept as text.  An
argparse usage error keeps only the first word of its stderr, "usage:",
as argparse words its messages differently from one Python version to
the next.

``SMALL`` cases are kept whole, one file ``<case>.json`` each in this
folder.  They cover every subcommand and the exit codes 0, 2 and 3.
``large_cases()`` (the five corpus commands on each of the 150 corpus
families, ``verify all``, the preinjective endosocles 1..16, the profile
and transversal of the benchmark's conjugated families, and the sweeps
as CSV) are kept as sha256 digests of their records in ``digests.json``.

Rewrite both from the repository root with::

    PYTHONPATH=src python tests/golden/regen.py

A rewritten golden is a changed answer: name each changed case, and why
it changed, in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))

import endoscope  # noqa: E402
from corpus import corpus_family  # noqa: E402
from endoscope.cli import main  # noqa: E402
from endoscope.serialize import presentation_to_json, representation_to_json  # noqa: E402

CORPUS_SEEDS = range(150)
CONJUGATED_SEED = 1

_KRONECKER = {
    "vertices": ["1", "2"],
    "arrows": [{"name": "alpha", "source": "1", "target": "2"}, {"name": "beta", "source": "1", "target": "2"}],
}


def _family(*members) -> str:
    return json.dumps({"algebra": _KRONECKER, "members": list(members)})


def _matrices(alpha, beta):
    return {"alpha": [[str(x) for x in row] for row in alpha], "beta": [[str(x) for x in row] for row in beta]}


# family files written into the working directory of every case
FILES = {
    # I1 + I2, I3, I4 and I2 + I2: two decomposable members
    "sum-family.json": _family(
        {"dims": {"1": 3, "2": 1}, "matrices": _matrices([[0, 0, 1]], [[0, 1, 0]])},
        {"dims": {"1": 3, "2": 2}, "matrices": _matrices([[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]])},
        {"dims": {"1": 4, "2": 3}, "matrices": _matrices(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])},
        {"dims": {"1": 4, "2": 2}, "matrices": _matrices([[0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 0, 1, 0]])},
    ),
    # End = Q(i): not certified local, exit 3
    "gauss.json": _family({"dims": {"1": 2, "2": 2}, "matrices": _matrices([[1, 0], [0, 1]], [[0, -1], [1, 0]])}),
    "float-dims.json": _family({"dims": {"1": 2.9, "2": 1.2}}),
    "dims-3.json": _family({"dims": {"1": 1, "3": 4}}),
    "top-level-5.json": "5",
    "member-5.json": '{"members": [5]}',
}

_ALPHA_HALF = '{"entries": [[[{"coeff": "1/2", "path": ["alpha"]}]]], "pointer": 0}'
_ALPHA_MINUS_BETA = '{"entries": [[[{"coeff": "1", "path": ["alpha"]}, {"coeff": "-1", "path": ["beta"]}]]], "pointer": 0}'


def _args(text: str) -> list[str]:
    return text.split()


# case name -> argv; whole reports, each file under 5 KB
SMALL = {
    "endosoc-preinj-1..4": _args("endosoc --family preinj --range 1..4"),
    "endosoc-preinj-1..4-relative": _args("endosoc --family preinj --range 1..4 --relative"),
    "endosoc-preproj-1..5": _args("endosoc --family preproj --range 1..5"),
    "endosoc-regular-size-2": _args("endosoc --family regular --size 2 --range 0..2"),
    "endosoc-regular-size-1-relative": _args("endosoc --family regular --range 0..3 --relative"),
    "endosoc-sum-family": _args("endosoc --family file --file sum-family.json"),
    "endosoc-sum-family-relative": _args("endosoc --family file --file sum-family.json --relative"),
    "endosoc-gauss": _args("endosoc --family file --file gauss.json"),
    "endosoc-preinj-fp5": _args("endosoc --family preinj --range 1..4 --field fp:5"),
    "endosoc-regular-size-2-fp5": _args("endosoc --family regular --size 2 --range 0..0 --field fp:5"),
    "endosoc-open-range": _args("endosoc --family preinj --range 4.."),
    "endosoc-one-index": _args("endosoc --family preinj --range 3"),
    "endosoc-reversed-range": _args("endosoc --family preinj --range 9..3"),
    "endosoc-index-0": _args("endosoc --family preinj --range 0..3"),
    "endosoc-csv": _args("endosoc --family preinj --range 1..3 --format csv"),
    "endosoc-bad-field": _args("endosoc --family preinj --range 1..3 --field fp:abc"),
    "endosoc-out-directory": _args("endosoc --family preinj --range 1..3 --out ."),
    "endosoc-dims-3": _args("endosoc --family file --file dims-3.json"),
    "endosoc-top-level-5": _args("endosoc --family file --file top-level-5.json"),
    "endosoc-no-range": _args("endosoc --family preinj"),
    "sweep-preinj-support": _args("sweep --family preinj --invariant endosoc-support --max 5"),
    "sweep-preinj-dim-csv": _args("sweep --family preinj --invariant endosoc-dim --min 1 --max 4 --format csv"),
    "sweep-preinj-relative-length-csv": _args("sweep --family preinj --invariant relative-length --max 5 --format csv"),
    "sweep-preinj-depth-csv": _args("sweep --family preinj --invariant radical-depth --min 1 --max 4 --format csv"),
    "sweep-max-below-min": _args("sweep --family regular --size 3 --invariant endosoc-support --max 2"),
    "sweep-bogus-invariant": _args("sweep --family preinj --invariant bogus --max 3"),
    "verify-examples-o": _args("verify examples-o"),
    "verify-harada-sai": _args("verify harada-sai"),
    "verify-matrix-subgroups-seed-3": _args("verify matrix-subgroups --seed 3"),
    "verify-nonsense": _args("verify nonsense"),
    "verify-fp101": _args("verify examples-o --field fp:101"),
    "radical-profile-preinj-1..4": _args("radical-profile --family preinj --range 1..4 --depth 63"),
    "radical-profile-preproj-1..4": _args("radical-profile --family preproj --range 1..4"),
    "radical-profile-sum-family": _args("radical-profile --family file --file sum-family.json --depth 63"),
    "radical-profile-preinj-fp101": _args("radical-profile --family preinj --range 1..4 --field fp:101"),
    "radical-profile-gauss": _args("radical-profile --family file --file gauss.json"),
    "radical-profile-depth-0": _args("radical-profile --family preinj --range 1..4 --depth 0"),
    "radical-profile-float-dims": _args("radical-profile --family file --file float-dims.json"),
    "transversal-regular-0..3": _args("transversal --family regular --range 0..3"),
    "transversal-sum-family": _args("transversal --family file --file sum-family.json"),
    "transversal-member-5": _args("transversal --family file --file member-5.json"),
    "matsub-eval-fp101": _args("matsub eval --family preinj --index 3 --field fp:101") + ["--matrix", _ALPHA_HALF],
    "matsub-eval-q": _args("matsub eval --family preinj --index 4") + ["--matrix", _ALPHA_MINUS_BETA],
    "matsub-eval-matrix-5": _args("matsub eval --matrix 5 --family preinj --index 2"),
    "matsub-eval-no-entries": _args("matsub eval --family preinj --index 2") + ["--matrix", '{"pointer": 0}'],
    "matsub-eval-no-carrier": ["matsub", "eval", "--matrix", _ALPHA_HALF],
    "no-subcommand": [],
}

# the five commands run on every corpus family file
CORPUS_COMMANDS = {
    "endosoc": ["endosoc"],
    "endosoc-relative": ["endosoc", "--relative"],
    "radical-profile": ["radical-profile", "--depth", "7"],
    "transversal": ["transversal"],
    "sweep-endosoc-support": _args("sweep --invariant endosoc-support --min 1 --max 4"),
}


def large_cases() -> dict[str, list[str]]:
    """Case name -> argv of the cases kept as digests."""
    cases = {
        "verify-all": _args("verify all"),
        "endosoc-preinj-1..16": _args("endosoc --family preinj --range 1..16"),
        "endosoc-preinj-1..16-relative": _args("endosoc --family preinj --range 1..16 --relative"),
        "sweep-sum-family-relative-length-csv": _args(
            "sweep --family file --file sum-family.json --invariant relative-length --min 1 --max 4 --format csv"),
        "sweep-sum-family-support-csv": _args(
            "sweep --family file --file sum-family.json --invariant endosoc-support --min 1 --max 4 --format csv"),
        "sweep-sum-family-depth-csv": _args(
            "sweep --family file --file sum-family.json --invariant radical-depth --min 1 --max 4 --format csv"),
    }
    for bound in (4, 6):
        path = f"profile-conj-{bound}.json"
        cases[f"radical-profile-conj-{bound}"] = _args(f"radical-profile --family file --file {path} --depth 63")
        cases[f"transversal-conj-{bound}"] = _args(f"transversal --family file --file {path}")
    for name, argv in CORPUS_COMMANDS.items():
        for seed in CORPUS_SEEDS:
            cases[f"corpus-{name}-{seed}"] = argv + ["--family", "file", "--file", f"family-{seed}.json"]
    return cases


def _workloads():
    """The benchmark's workload module, loaded read-only from ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def write_inputs(folder: Path):
    """Every family file the cases read: ``FILES``, the corpus families and
    the benchmark's conjugated families (``profile-conj-4.json``, ``-6.json``)."""
    for name, text in FILES.items():
        (folder / name).write_text(text)
    for seed in CORPUS_SEEDS:
        members = corpus_family(seed)
        family = {
            "algebra": presentation_to_json(members[0].presentation),
            "members": [representation_to_json(m, False) for m in members],
        }
        (folder / f"family-{seed}.json").write_text(json.dumps(family))
    _workloads().setup_profile(endoscope, CONJUGATED_SEED, str(folder))


@contextlib.contextmanager
def inputs_folder():
    """A working directory holding ``write_inputs``, restored on exit."""
    before = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(Path(folder))
        os.chdir(folder)
        try:
            yield
        finally:
            os.chdir(before)


def record(argv: list[str]) -> dict:
    """The canonical record of ``main(argv)``, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, usage = exc.code, True
    stdout, stderr = out.getvalue(), err.getvalue()
    if stdout.startswith("{"):
        stdout = json.loads(stdout)
        stdout.pop("timing_ms", None)
    return {"argv": list(argv), "exit": code, "stdout": stdout, "stderr": stderr.split(" ", 1)[0] if usage else stderr}


def dumps(rec: dict) -> str:
    return json.dumps(rec, indent=1, sort_keys=True) + "\n"


def digest(rec: dict) -> str:
    return hashlib.sha256(dumps(rec).encode()).hexdigest()


def regenerate():
    for old in HERE.glob("*.json"):
        old.unlink()
    with inputs_folder():
        for name, argv in SMALL.items():
            (HERE / f"{name}.json").write_text(dumps(record(argv)))
        digests = {name: digest(record(argv)) for name, argv in large_cases().items()}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
