import importlib
import json
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from endoscope.endosocle import (
    endosocle,
    endosocle_series,
    family_endosocle,
    power_endosocle,
    relative_endosocle_series,
)
from endoscope.harness import FamilySpec
from endoscope.homs import LocalityUnverified, clear_caches, hom_basis
from endoscope.quiver import kronecker
from endoscope.reps import (
    INFINITY,
    SubspaceFamily,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
    socle,
)
from endoscope.serialize import representation_from_json
from oracles import annihilated_by_stacking, embedded, preimage, relative_series_by_embedding
from test_properties import kronecker_reps


def preinjectives(lo, hi):
    return [kronecker_preinjective(n) for n in range(lo, hi + 1)], list(range(lo, hi + 1))


def test_endosocle_of_modules_with_trivial_radical():
    s1 = kronecker_preinjective(1)
    assert endosocle(s1) == SubspaceFamily.full_for(s1)
    i2 = kronecker_preinjective(2)
    assert endosocle(i2) == SubspaceFamily.full_for(i2)


def test_endosocle_of_small_sum_matches_socle_formula():
    s1 = kronecker_preinjective(1)
    i2 = kronecker_preinjective(2)
    total, embs, _ = direct_sum([s1, i2])
    es = endosocle(total)
    assert es.total_dim == 2
    # equals the first summand plus the socle of the second, embedded
    expected = {}
    for v in total.presentation.quiver.vertices:
        acc = SubspaceFamily.full_for(s1).space(v).image(embs[0].block(v))
        acc = acc.add(socle(i2).space(v).image(embs[1].block(v)))
        expected[v] = acc
    assert es == SubspaceFamily(expected)


def test_endosocle_of_dual_numbers_module():
    r2 = kronecker_regular(2, 0)
    es = endosocle(r2)
    assert es.dims() == {"1": 1, "2": 1}


def test_family_endosocle_preinjectives():
    members, labels = preinjectives(1, 8)
    report = family_endosocle(members, labels=labels, boundary=(8,))
    assert report.support == (1, 2)
    dims = report.component_dims()
    assert dims[1] == 1 and dims[2] == 1
    assert all(dims[i] == 0 for i in range(3, 9))
    # B_2 is the socle of the second member
    assert report.components[2] == socle(members[1])


def test_family_endosocle_trimmed_preinjectives():
    for m in (2, 3, 4):
        members, labels = preinjectives(m, m + 5)
        report = family_endosocle(members, labels=labels, boundary=(m + 5,))
        assert report.support == (m,)
        assert report.component_dims()[m] == 2 * m - 1
        assert report.components[m] == SubspaceFamily.full_for(members[0])


def test_family_endosocle_preprojectives_vanish_off_boundary():
    for hi in (4, 6):
        members = [kronecker_preprojective(n) for n in range(1, hi + 1)]
        labels = list(range(1, hi + 1))
        report = family_endosocle(members, labels=labels, boundary=(hi,))
        assert report.support_excluding_boundary() == ()
        assert report.dim_excluding_boundary() == 0
        # the flagged boundary member keeps its full component
        assert report.component_dims()[hi] == 2 * hi - 1


def test_family_endosocle_orthogonal_regulars():
    members = [kronecker_regular(1, lam) for lam in (0, 1, 2, 3, INFINITY)]
    report = family_endosocle(members, labels=[0, 1, 2, 3, "inf"])
    assert len(report.support) == 5
    assert report.total_dim == sum(m.total_dim for m in members)


def test_family_endosocle_with_duplicates_is_homogeneous():
    i2 = kronecker_preinjective(2)
    report = family_endosocle([i2, i2], labels=["a", "b"])
    assert report.support == ("a", "b")
    assert report.components["a"].total_dim == report.components["b"].total_dim == endosocle(i2).total_dim


def test_family_endosocle_splits_decomposable_members():
    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    report = family_endosocle([total])
    assert report.labels == ("0.0", "0.1")
    assert report.total_dim == 2


def test_family_endosocle_refuses_uncertified_locality():
    # End is the field Q(i): two-dimensional over the radical, no
    # rational eigenvalues to split along, so locality is inconclusive
    from fractions import Fraction as F

    from endoscope.linalg import Mat
    from endoscope.quiver import kronecker
    from endoscope.reps import Representation

    gauss = Representation(
        kronecker(),
        {"1": 2, "2": 2},
        {
            "alpha": Mat.identity(2),
            "beta": Mat([[F(0), F(-1)], [F(1), F(0)]]),
        },
    )
    with pytest.raises(LocalityUnverified):
        family_endosocle([gauss])
    # last after preinjectives whose kernels are zero before the family's end:
    # every member is certified before any pair is solved
    members, _ = preinjectives(1, 8)
    for compute in (family_endosocle, relative_endosocle_series):
        with pytest.raises(LocalityUnverified):  # DecompositionInconclusive too
            compute(members + [gauss])


def test_trim_monotonicity():
    # removing members can only enlarge the surviving components
    members, labels = preinjectives(1, 6)
    full = family_endosocle(members, labels=labels)
    for drop in range(1, 4):
        trimmed = family_endosocle(members[drop:], labels=labels[drop:])
        for lab in labels[drop:]:
            assert trimmed.components[lab].contains(full.components[lab])


def test_power_endosocle_duplicates_components():
    i2 = kronecker_preinjective(2)
    assert power_endosocle(i2, 1) == endosocle(i2)
    pe = power_endosocle(i2, 3)
    assert pe.total_dim == 3 * endosocle(i2).total_dim == 9
    r2 = kronecker_regular(2, 0)
    for k in (2, 3):
        pe = power_endosocle(r2, k)
        assert pe.total_dim == k * endosocle(r2).total_dim


def test_power_endosocle_requires_indecomposable():
    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    with pytest.raises(LocalityUnverified):
        power_endosocle(total, 2)


def test_endosocle_series_simple():
    report = endosocle_series(kronecker_preinjective(1))
    assert report.stabilization_index == 1
    assert report.terms[0].dim == 1


def test_endosocle_series_of_radical_free_module_has_length_one():
    report = endosocle_series(kronecker_preinjective(3))
    assert report.stabilization_index == 1
    assert report.terms[0].dim == kronecker_preinjective(3).total_dim


def test_endosocle_series_two_steps():
    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    report = endosocle_series(total)
    assert [t.dim for t in report.terms] == [2, 4]
    assert report.stabilization_index == 2
    # ascending and exhaustive
    assert report.terms[1].family.contains(report.terms[0].family)
    assert report.terms[-1].family == SubspaceFamily.full_for(total)


def test_endosocle_series_matches_radical_nilpotency():
    r2 = kronecker_regular(2, 0)
    report = endosocle_series(r2)
    assert [t.dim for t in report.terms] == [2, 4]


def test_relative_series_preinjectives():
    members, labels = preinjectives(1, 5)
    report = relative_endosocle_series(members, labels=labels)
    assert [t.support for t in report.terms] == [(1, 2), (3,), (4,), (5,)]
    assert report.stabilization_index == 4


def test_relative_series_singleton():
    report = relative_endosocle_series([kronecker_preinjective(2)], labels=["only"])
    assert report.stabilization_index == 1
    assert report.terms[0].support == ("only",)


def test_relative_series_preprojectives_peel_from_boundary():
    members = [kronecker_preprojective(n) for n in range(1, 5)]
    report = relative_endosocle_series(members, labels=[1, 2, 3, 4], boundary=(4,))
    assert [t.support for t in report.terms] == [(4,), (3,), (2,), (1,)]


def test_relative_series_terms_are_direct():
    members, labels = preinjectives(1, 5)
    report = relative_endosocle_series(members, labels=labels)
    total_dim = sum(t.dim for t in report.terms)
    # each term holds its per-member components; embed them into the sum
    embedding = dict(zip(labels, direct_sum(members)[1]))
    summed = None
    for t in report.terms:
        family = embedded(t.family, embedding)
        summed = family if summed is None else summed.add(family)
    assert summed.total_dim == total_dim


def _file_members(*members):
    return [representation_from_json(json.loads(m), kronecker()) for m in members]


# the members of the family files the CI workflow feeds to the installed script
SUM_FAMILY = _file_members(  # I1+I2, I3, I4 and I2+I2
    '{"dims": {"1": 3, "2": 1}, "matrices": {"alpha": [["0", "0", "1"]], "beta": [["0", "1", "0"]]}}',
    '{"dims": {"1": 3, "2": 2}, "matrices": {"alpha": [["0", "1", "0"], ["0", "0", "1"]],'
    ' "beta": [["1", "0", "0"], ["0", "1", "0"]]}}',
    '{"dims": {"1": 4, "2": 3}, "matrices": {"alpha": [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],'
    ' "beta": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]}}',
    '{"dims": {"1": 4, "2": 2}, "matrices": {"alpha": [["0", "1", "0", "0"], ["0", "0", "0", "1"]],'
    ' "beta": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}}',
)
CONJ_FAMILY = _file_members(  # I2 and R2(0), each with a rational conjugate
    '{"dims": {"1": 2, "2": 1}, "matrices": {"alpha": [["-1/2", "1"]], "beta": [["1/2", "-1/2"]]}}',
    '{"dims": {"1": 2, "2": 1}, "matrices": {"alpha": [["0", "1"]], "beta": [["1", "0"]]}}',
    '{"dims": {"1": 2, "2": 2}, "matrices": {"alpha": [["1", "0"], ["0", "1"]], "beta": [["0", "1"], ["0", "0"]]}}',
    '{"dims": {"1": 2, "2": 2}, "matrices": {"alpha": [["2", "-1"], ["1", "0"]], "beta": [["0", "1"], ["0", "1/2"]]}}',
)


def _spec_family(family, range_arg, size=1):
    fam = FamilySpec.parse(family, range_arg, size=size).build()
    return fam.members, fam.labels, fam.boundary


@pytest.mark.parametrize(
    "members, labels, boundary",
    [
        _spec_family("preinj", "1..8"),
        _spec_family("preproj", "1..6"),
        _spec_family("regular", "0..4", size=2),
        (SUM_FAMILY, None, ()),
        (CONJ_FAMILY, None, ()),
    ],
    ids=["preinj-1..8", "preproj-1..6", "regular-0..4-size-2", "sum-family", "conj-family"],
)
def test_relative_series_matches_embedding_oracle(members, labels, boundary):
    clear_caches()
    series = relative_endosocle_series(members, labels=labels, boundary=boundary)
    clear_caches()
    terms, embedding = relative_series_by_embedding(members, labels=labels, boundary=boundary)
    assert [(t.support, t.dim) for t in series.terms] == [(support, dim) for support, dim, _ in terms]
    for t, (_, _, family) in zip(series.terms, terms):
        assert embedded(t.family, embedding) == family


def _lazy_and_stacked(monkeypatch, compute):
    """compute() with each kernel stopped at zero, then with every map drawn
    and stacked (``oracles.annihilated_by_stacking``), each from cold caches."""
    clear_caches()
    lazy = compute()
    clear_caches()
    monkeypatch.setattr(importlib.import_module("endoscope.endosocle"), "_annihilated", annihilated_by_stacking)
    return lazy, compute()


@pytest.mark.parametrize(
    "members, labels, boundary",
    [
        _spec_family("preinj", "1..12"),
        _spec_family("preproj", "1..10"),
        _spec_family("regular", "0..4", size=2),
        (SUM_FAMILY, None, ()),
        (CONJ_FAMILY, None, ()),
    ],
    ids=["preinj-1..12", "preproj-1..10", "regular-0..4-size-2", "sum-family", "conj-family"],
)
@pytest.mark.parametrize("compute", [family_endosocle, relative_endosocle_series])
def test_kernels_stopped_at_zero_match_the_stacked_oracle(monkeypatch, compute, members, labels, boundary):
    lazy, stacked = _lazy_and_stacked(monkeypatch, lambda: compute(members, labels=labels, boundary=boundary))
    assert lazy == stacked


@pytest.mark.parametrize(
    "parts",
    [
        [kronecker_preinjective(n) for n in range(1, 6)],
        [kronecker_regular(4, 0), kronecker_preinjective(3), kronecker_preprojective(3)],
        CONJ_FAMILY,
    ],
    ids=["I1..I5", "R4(0)+I3+P3", "conj-family"],
)
def test_endosocle_series_matches_the_stacked_oracle(monkeypatch, parts):
    # the ascending series draws the radical maps into the previous term
    total = direct_sum(parts)[0]
    lazy, stacked = _lazy_and_stacked(monkeypatch, lambda: endosocle_series(total))
    assert lazy == stacked


@pytest.mark.parametrize(
    "family, range_arg, solved",
    [("preinj", "1..16", 74), ("preinj", "1..32", 154), ("preproj", "1..10", 64)],
)
def test_family_endosocle_solves_a_pair_only_while_its_kernel_is_nonzero(family, range_arg, solved):
    # drawing every pair solves N^2 hom systems (256, 1024 and 100); on the
    # preinjectives each B_i with i >= 3 is zero after two or three targets
    members, labels, boundary = _spec_family(family, range_arg)
    clear_caches()
    family_endosocle(members, labels=labels, boundary=boundary)
    assert hom_basis.cache_info().misses == solved


def test_relative_series_splits_each_pair_once(monkeypatch):
    # one noniso_subspace per ordered pair of distinct members, and one
    # flat_blocks split per row of those spaces, for all steps together
    from endoscope.homs import noniso_subspace

    module = importlib.import_module("endoscope.endosocle")  # the package exports a function of that name
    homs = importlib.import_module("endoscope.homs")

    clear_caches()
    calls = Counter()
    for name in ("noniso_subspace", "flat_blocks"):
        def counted(*args, _name=name, _original=getattr(homs, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(homs, name, counted)

    def refuse(*args):
        raise AssertionError("the relative series embeds its terms into the direct sum")

    # no step recomputes a family endosocle, and no term is embedded
    for name in ("family_endosocle", "direct_sum"):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SubspaceFamily, "add", refuse)
    members, labels = preinjectives(1, 8)
    relative_endosocle_series(members, labels=labels)
    rows = sum(noniso_subspace(m, n).dim for m in members for n in members if m is not n)
    assert calls == {"noniso_subspace": 56, "flat_blocks": 112}
    assert rows == 112


def _split_counts(monkeypatch, compute):
    """The ``noniso_subspace`` and ``flat_blocks`` calls of compute() from cold
    caches, and the hom systems it solves."""
    homs = importlib.import_module("endoscope.homs")
    calls = Counter()
    for name in ("noniso_subspace", "flat_blocks"):
        def counted(*args, _name=name, _original=getattr(homs, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(homs, name, counted)
    clear_caches()
    compute()
    return calls["noniso_subspace"], calls["flat_blocks"], hom_basis.cache_info().misses


@pytest.mark.parametrize(
    "invariant, counts",
    # splitting again at every truncation made 166 / 292 and 96 / 187 calls
    [("relative-length", (56, 112, 64)), ("endosoc-support", (26, 62, 34))],
)
def test_sweep_splits_each_pair_once_across_truncations(monkeypatch, invariant, counts):
    from endoscope.harness import sweep

    spec = FamilySpec.parse("preinj", "1..8")
    assert _split_counts(monkeypatch, lambda: sweep(spec, invariant, range(3, 9))) == counts


def test_cli_endosocle_and_relative_series_share_the_splits(monkeypatch, capsys):
    # the family endosocle and the relative series each split the pairs: 82 / 174
    from endoscope.cli import main

    argv = ["endosoc", "--family", "preinj", "--range", "1..8", "--relative"]
    assert _split_counts(monkeypatch, lambda: main(argv)) == (56, 112, 64)
    assert json.loads(capsys.readouterr().out)["results"]["support"] == ["1", "2"]


def test_two_route_consistency_small():
    from endoscope.harness import two_route_endosocle_agree

    members = [kronecker_preinjective(1), kronecker_preinjective(2), kronecker_regular(1, 0)]
    assert two_route_endosocle_agree(members)


def test_components_are_annihilated_by_every_noniso():
    from endoscope.homs import end_ring, noniso_subspace

    members, labels = preinjectives(1, 5)
    report = family_endosocle(members, labels=labels)
    for i, m in enumerate(members):
        comp = report.components[labels[i]]
        annihilators = list(end_ring(m).radical_space().basis)
        for n in members:
            if n is not m:
                annihilators.extend(noniso_subspace(m, n).basis)
        for f in annihilators:
            for v in m.presentation.quiver.vertices:
                assert comp.space(v).image(f.block(v)).dim == 0


def test_family_endosocle_builds_no_map_between_distinct_members(monkeypatch):
    # each B_i is read from the canonical rows of the hom spaces, so no hom
    # basis between two members is turned into Morphisms
    from endoscope.homs import clear_caches
    from endoscope.reps import Morphism

    clear_caches()
    original = Morphism.unflatten.__func__
    between = []

    def recorded(cls, source, target, flat):
        between.append(source != target)
        return original(cls, source, target, flat)

    monkeypatch.setattr(Morphism, "unflatten", classmethod(recorded))
    members, labels = preinjectives(1, 8)
    assert family_endosocle(members, labels=labels).support == (1, 2)
    assert between.count(True) == 0


def test_embedding_chain_kills_interior_components():
    # the preprojectives embed consecutively; every non-final component vanishes
    from endoscope.homs import hom_basis

    members = [kronecker_preprojective(n) for n in range(1, 6)]
    for a, b in zip(members, members[1:]):
        hom = hom_basis(a, b)
        found_mono = any(
            all(f.block(v).rank() == a.dim(v) for v in ("1", "2")) for f in hom.basis
        )
        assert found_mono
    report = family_endosocle(members, labels=[1, 2, 3, 4, 5])
    assert all(report.component_dims()[i] == 0 for i in range(1, 5))


def test_two_route_consistency_five_preinjectives_shuffled():
    from endoscope.harness import two_route_endosocle_agree
    from endoscope.homs import end_ring

    members = [kronecker_preinjective(n) for n in (3, 5, 1, 4, 2)]
    total, _, _ = direct_sum(members)
    ring = end_ring(total)
    assert (ring.dim, ring.radical.dim, ring.dim_over_radical) == (35, 30, 5)
    assert two_route_endosocle_agree(members)


def series_by_preimages(m):
    """The ascending series as it was first computed, kept as an oracle:
    term k + 1 is, vertex by vertex, the intersection over the radical
    maps r of the preimages r_v^-1(term k)."""
    from endoscope.homs import end_ring
    from endoscope.linalg import intersect

    rad = end_ring(m).radical_space().basis
    current = SubspaceFamily.zero_for(m)
    terms = []
    while True:
        if not rad:
            nxt = SubspaceFamily.full_for(m)
        else:
            spaces = {}
            for v in m.presentation.quiver.vertices:
                pres = [preimage(current.space(v), r.block(v)) for r in rad]
                spaces[v] = reduce(intersect, pres)
            nxt = SubspaceFamily(spaces)
        if nxt == current:
            return terms
        terms.append(nxt)
        current = nxt


def assert_series_matches_oracle(m):
    terms = [t.family for t in endosocle_series(m).terms]
    assert terms == series_by_preimages(m)


@given(st.lists(kronecker_reps(max_dim=2), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_endosocle_series_matches_preimage_oracle(parts):
    assert_series_matches_oracle(direct_sum(parts)[0])


@pytest.mark.parametrize(
    "parts",
    [
        [kronecker_preinjective(n) for n in range(1, 6)],
        [kronecker_regular(4, 0), kronecker_preinjective(3), kronecker_preprojective(3)],
    ],
    ids=["I1..I5", "R4(0)+I3+P3"],
)
def test_endosocle_series_of_sums_matches_preimage_oracle(parts):
    assert_series_matches_oracle(direct_sum(parts)[0])


def test_boundary_flag_passes_to_the_summands_of_a_decomposable_member():
    split = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])[0]
    members, labels = [split, kronecker_preinjective(3)], ["a", "b"]
    report = family_endosocle(members, labels=labels, boundary=["a"])
    assert report.support == ("a.0", "a.1")
    assert report.boundary == ("a.0", "a.1")
    assert report.support_excluding_boundary() == ()
    assert report.dim_excluding_boundary() == 0
    series = relative_endosocle_series(members, labels=labels, boundary=["a"])
    assert [t.support for t in series.terms] == [("a.0", "a.1"), ("b",)]
    assert series.boundary == ("a.0", "a.1")
    # a boundary label of no member is still dropped, an indecomposable one kept
    assert family_endosocle(members, labels=labels, boundary=["b", "z"]).boundary == ("b",)
