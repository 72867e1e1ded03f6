"""The seeded random-quiver corpus (``corpus.corpus_family``): the family
endosocle and the radical profile prepare members alike, so they answer the
same families with the same summand labels and refuse the rest alike, and
every CLI command on a corpus family file gives a report or a documented
exit code.  Differential checks: a family permuted (labels carried along)
or with every nonzero member replaced by a rational conjugate (the
benchmark's ``conjugate``) has the same endosocle, radical profile and
transversal, read by label or, since a conjugate may split in another
order, by member, and is refused where the family is."""

import contextlib
import io
import json
import random
from collections import Counter

import pytest

import endoscope
from corpus import corpus_family
from endoscope.cli import main
from endoscope.endosocle import EndostructureError, family_endosocle
from endoscope.harness import transversal
from endoscope.homs import LocalityUnverified
from endoscope.radical import RadicalError, radical_profile
from endoscope.serialize import presentation_to_json, representation_to_json
from test_fitting_oracle import _workloads
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


def _answer(call, *args):
    """The report of ``call(*args)``, or None where the CLI would exit 2 or 3."""
    try:
        return call(*args)
    except (LocalityUnverified, EndostructureError, RadicalError):
        return None


def _reports(members, labels=None):
    """The endosocle, the radical profile to depth 7 and the transversal of a family."""
    return (
        _answer(family_endosocle, members, labels),
        _answer(radical_profile, members, 7, labels),
        _answer(transversal, members, labels),
    )


def _by_label(reports):
    """The component dims and the pair dims by label, the vanishing depth and
    the sorted multiplicities; None for each refused report."""
    endosocle, profile, classes = reports
    labels = profile and profile.labels
    return (
        endosocle and endosocle.component_dims(),
        profile and ({(a, b): profile.pair_dims(a, b) for a in labels for b in labels}, profile.vanishing_depth),
        classes and sorted(classes.multiplicities.values()),
    )


def _by_member(reports):
    """As ``_by_label``, but per member the sorted component dims of its
    summands ("<label>.<k>", or the member's own label), and the pair dims sorted."""
    endosocle, profile, classes = reports
    dims = {}
    for label, dim in (endosocle.component_dims() if endosocle else {}).items():
        dims.setdefault(str(label).split(".")[0], []).append(dim)
    labels = profile and profile.labels
    return (
        endosocle and {member: sorted(d) for member, d in dims.items()},
        profile and (sorted(profile.pair_dims(a, b) for a in labels for b in labels), profile.vanishing_depth),
        classes and sorted(classes.multiplicities.values()),
    )


def _answered(reports):
    return tuple(report is not None for report in reports)


def test_permuted_corpus_families_give_the_same_answers_by_label():
    # a refusal may change kind: the first failing member by position is refused,
    # so families 2 and 78 swap a zero member and an inconclusive one
    answered = Counter()
    for seed in SEEDS:
        members = corpus_family(seed)
        order = list(range(len(members)))
        random.Random(seed).shuffle(order)
        reports = _reports(members)
        assert _by_label(_reports([members[k] for k in order], order)) == _by_label(reports), f"family {seed}"
        answered[_answered(reports)] += 1
    assert answered == {(True, True, True): 88, (False, False, True): 60, (False, False, False): 2}


def test_conjugated_corpus_members_give_the_same_answers_by_member():
    conjugate = _workloads().conjugate
    answered = Counter()
    for seed in SEEDS:
        members = corpus_family(seed)
        rng = random.Random(seed)
        conjugates = [m if m.is_zero() else conjugate(endoscope, m, rng) for m in members]
        reports = _reports(members)
        assert _by_member(_reports(conjugates)) == _by_member(reports), f"family {seed}"
        answered[_answered(reports)] += 1
    assert answered == {(True, True, True): 88, (False, False, True): 60, (False, False, False): 2}
