"""The seeded random-quiver corpus (``corpus.corpus_family``): the family
endosocle and the radical profile prepare members alike, so they answer the
same families with the same summand labels and refuse the rest alike, and
every CLI command on a corpus family file gives a report or a documented
exit code."""

import contextlib
import io
import json
from collections import Counter

import pytest

from corpus import corpus_family
from endoscope.cli import main
from endoscope.endosocle import EndostructureError, family_endosocle
from endoscope.homs import LocalityUnverified
from endoscope.radical import RadicalError, radical_profile
from endoscope.serialize import presentation_to_json, representation_to_json
from test_radical_oracle import oracle_levels

SEEDS = range(150)


def outcome(call):
    """("answered", labels), or the kind of refusal and its message:
    "inconclusive" (CLI exit 3) or "refused" (CLI exit 2)."""
    try:
        return "answered", call().labels
    except LocalityUnverified as err:
        return "inconclusive", str(err)
    except (EndostructureError, RadicalError) as err:
        return "refused", str(err)


def test_endosocle_and_profile_agree_on_every_corpus_family():
    kinds = Counter()
    for seed in SEEDS:
        members = corpus_family(seed)
        endosocle = outcome(lambda: family_endosocle(members))
        profile = outcome(lambda: radical_profile(members, 7))
        assert profile == endosocle, f"family {seed}"
        kinds[endosocle[0]] += 1
        if endosocle[0] == "refused":
            assert "is the zero module" in endosocle[1]
    # refusing every decomposable member, as it once did, the profile answered
    # 36 of these, was inconclusive on 12 and refused 102
    assert kinds == {"answered": 88, "inconclusive": 34, "refused": 28}


def test_profile_of_every_answered_corpus_family_matches_the_oracle():
    # on the summands, every depth of every pair, loops and parallel arrows included
    answered = 0
    for seed in SEEDS:
        members = corpus_family(seed)
        try:
            prof = radical_profile(members, 7)
        except (LocalityUnverified, RadicalError):
            continue
        answered += 1
        levels = oracle_levels(list(prof._members), 7)
        assert prof.depth_reached() == len(levels), f"family {seed}"
        labels = prof.labels
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert prof.pair_dims(a, b) == [level[(i, j)].dim for level in levels], f"family {seed}"
    assert answered == 88


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """Family ``seed`` of the corpus written as a family file, for every seed."""
    folder = tmp_path_factory.mktemp("corpus")
    paths = []
    for seed in SEEDS:
        members = corpus_family(seed)
        family = {
            "algebra": presentation_to_json(members[0].presentation),
            "members": [representation_to_json(m, False) for m in members],
        }
        path = folder / f"family-{seed}.json"
        path.write_text(json.dumps(family))
        paths.append(str(path))
    return paths


# exits 2 are the zero members; exits 3 the members neither certified local nor
# split, such as a local module whose End/J is a number field; transversal needs
# no member to be local
@pytest.mark.parametrize(
    "argv, histogram",
    [
        (["endosoc"], {0: 88, 2: 28, 3: 34}),
        (["endosoc", "--relative"], {0: 88, 2: 28, 3: 34}),
        (["radical-profile", "--depth", "7"], {0: 88, 2: 28, 3: 34}),
        (["transversal"], {0: 148, 3: 2}),
        (["sweep", "--invariant", "endosoc-support", "--min", "1", "--max", "4"], {0: 88, 2: 28, 3: 34}),
    ],
    ids=["endosoc", "endosoc-relative", "radical-profile", "transversal", "sweep-endosoc-support"],
)
def test_cli_exit_codes_on_every_corpus_family(corpus_files, argv, histogram):
    codes = Counter()
    for seed, path in zip(SEEDS, corpus_files):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--family", "file", "--file", path])
        assert code in (0, 1, 2, 3), f"family {seed}"
        if code in (2, 3):
            assert out.getvalue() == "", f"family {seed}"
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), f"family {seed}"
        codes[code] += 1
    assert codes == histogram
