"""The seeded random-quiver corpus (``corpus.corpus_family``): the family
endosocle and the radical profile prepare members alike, so they answer the
same families with the same summand labels and refuse the rest alike."""

from collections import Counter

from corpus import corpus_family
from endoscope.endosocle import EndostructureError, family_endosocle
from endoscope.homs import LocalityUnverified
from endoscope.radical import RadicalError, radical_profile
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
