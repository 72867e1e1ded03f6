"""Bricks over prime fields: every Kronecker preinjective and preprojective
has End = K, so J = 0 in every characteristic, and the radical-dependent
commands answer over GF(p) exactly as over the rationals."""

import contextlib
import io
import json

import pytest

from endoscope.cli import main

COMMANDS = {
    "endosoc": "endosoc --range 1..8",
    "endosoc-relative": "endosoc --range 1..8 --relative",
    "transversal": "transversal --range 1..8",
    "sweep-endosoc-support": "sweep --invariant endosoc-support --max 6",
    "radical-profile": "radical-profile --range 1..6 --depth 63",
}


def _results(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return json.loads(out.getvalue())["results"]


@pytest.mark.parametrize("command", list(COMMANDS.values()), ids=list(COMMANDS))
@pytest.mark.parametrize("family", ["preinj", "preproj"])
@pytest.mark.parametrize("p", [2, 3, 101])
def test_bricks_give_the_rational_answers_over_prime_fields(p, family, command):
    argv = command.split() + ["--family", family]
    assert _results(argv + ["--field", f"fp:{p}"]) == _results(argv)
