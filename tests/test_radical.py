from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from endoscope import radical
from endoscope.homs import HomalgError, HomSpace, LocalityUnverified, hom_basis, is_isomorphism
from endoscope.radical import (
    RadicalError,
    harada_sai_check,
    radical_profile,
    right_witness,
)
from endoscope.linalg import LinalgError, Mat
from endoscope.quiver import kronecker
from endoscope.reps import (
    Morphism,
    Representation,
    decode_flats,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
)
from oracles import left_profile_by_duals
from test_iso_certificate import fixed_conjugate, gaussian


def preinj_family(hi):
    return [kronecker_preinjective(n) for n in range(1, hi + 1)], list(range(1, hi + 1))


def test_profile_of_three_preinjectives():
    members, labels = preinj_family(3)
    prof = radical_profile(members, d_max=10, labels=labels)
    level1 = prof.dims[0]
    assert level1[(2, 1)] == 2 and level1[(3, 2)] == 2 and level1[(3, 1)] == 3
    assert all(level1[(i, i)] == 0 for i in labels)
    assert prof.vanishing_depth == 3
    # depth-2 composites fill all of Hom(3, 1)
    assert prof.dims[1][(3, 1)] == 3


def test_profile_monotone_and_nested():
    members, labels = preinj_family(4)
    prof = radical_profile(members, d_max=12, labels=labels)
    for i in labels:
        for j in labels:
            dims = prof.pair_dims(i, j)
            assert all(a >= b for a, b in zip(dims, dims[1:]))
    for d in range(2, prof.depth_reached() + 1):
        for i in labels:
            for j in labels:
                deeper = prof.subspace(d, i, j)
                assert prof.subspace(d - 1, i, j).contains_subspace(deeper)


def test_profile_composites_span_membership():
    members, labels = preinj_family(3)
    prof = radical_profile(members, d_max=6, labels=labels)
    # every composite of d+1 basis maps lies in the recorded depth-(d+1) span
    for d in (1, 2):
        for i in labels:
            for k in labels:
                for j in labels:
                    for f in prof.basis_morphisms(d, i, k):
                        for g in prof.basis_morphisms(1, k, j):
                            comp = g.compose(f)
                            hom = hom_basis(members[i - 1], members[j - 1])
                            coords = hom.coordinates(comp)
                            assert prof.subspace(d + 1, i, j).contains(coords)


def test_profile_refuses_depths_outside_the_profile_and_unknown_labels():
    members, labels = preinj_family(3)
    prof = radical_profile(members, d_max=10, labels=labels)
    assert prof.depth_reached() == 3 and prof.subspace(1, 3, 1).dim == 3
    # depth -1 once read the second-to-last level through negative indexing
    for depth in (0, -1, -3, 4, 9):
        with pytest.raises(RadicalError, match="outside 1..3"):
            prof.subspace(depth, 3, 1)
        with pytest.raises(RadicalError, match="outside 1..3"):
            prof.basis_morphisms(depth, 3, 1)
    for i, j in ((4, 1), (1, "1"), (0, 0)):
        with pytest.raises(RadicalError, match="not a member label"):
            prof.subspace(1, i, j)
        with pytest.raises(RadicalError, match="not a member label"):
            prof.basis_morphisms(1, i, j)
        with pytest.raises(RadicalError, match="not a member label"):
            prof.pair_dims(i, j)
    for label in (4, "1", 0):
        with pytest.raises(RadicalError, match="not a member label"):
            prof.row_depth(label)
        with pytest.raises(RadicalError, match="not a member label"):
            prof.column_depth(label)


def test_singleton_profiles():
    prof = radical_profile([kronecker_preinjective(2)], d_max=4, labels=["i2"])
    assert prof.vanishing_depth == 1
    prof2 = radical_profile([kronecker_regular(2, 0)], d_max=4, labels=["r"])
    assert prof2.pair_dims("r", "r") == [1, 0]
    assert prof2.vanishing_depth == 2


def test_profile_requires_indecomposable_members():
    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    with pytest.raises(RadicalError):
        radical_profile([total], d_max=3)


def test_profile_calls_a_split_member_decomposable_even_with_an_undecided_summand():
    # End of the first summand is Q(i), which is not certified local; the
    # sum still splits, so it is refused as decomposable, not as undecided
    gauss = Representation(kronecker(), {"1": 2, "2": 2}, {"alpha": Mat.identity(2), "beta": Mat([[0, -1], [1, 0]])})
    total, _, _ = direct_sum([gauss, kronecker_regular(1, 0)])
    with pytest.raises(RadicalError):
        radical_profile([total], d_max=3)


@pytest.mark.parametrize(
    "parts",
    [(gaussian(), kronecker_regular(1, 0)), (kronecker_preinjective(1), kronecker_preinjective(2))],
    ids=["gauss+R1(0)", "I1+I2"],
)
def test_profile_calls_a_split_member_with_a_copy_decomposable(parts):
    # neither the member nor its copy is certified local, so comparing them
    # would decompose both; the member is refused before it meets its copy
    total, _, _ = direct_sum(list(parts))
    with pytest.raises(RadicalError, match="is decomposable"):
        radical_profile([total, fixed_conjugate(total)], d_max=3)


@pytest.mark.parametrize(
    "order, refusal",
    [((0, 1, 2, 3), LocalityUnverified), ((0, 3, 2, 1), RadicalError), ((2, 1, 3, 0), LocalityUnverified)],
)
def test_profile_refuses_the_first_failing_member_by_position(order, refusal):
    # the integer I1+I2 is met first by height, the rational copy of Gauss
    # (End = Q(i)) only after it; the refusal is the first by position
    i3 = kronecker_preinjective(3)
    split, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    pool = [i3, fixed_conjugate(gaussian()), fixed_conjugate(i3), split]
    with pytest.raises(refusal) as caught:
        radical_profile([pool[k] for k in order], d_max=3)
    assert type(caught.value) is refusal


def test_a_vanished_pair_is_not_composed_again(monkeypatch):
    members, labels = preinj_family(6)
    calls = []
    original = radical._composite_rows

    def counted(hom, above, factors):
        calls.append((labels[members.index(hom.source)], labels[members.index(hom.target)]))
        return original(hom, above, factors)

    monkeypatch.setattr(radical, "_composite_rows", counted)
    prof = radical_profile(members, d_max=63, labels=labels)
    assert prof.vanishing_depth == 6
    # level d + 1 of a pair is composed only when its level d is nonzero
    composed = [pair for level in prof.dims[:-1] for pair, dim in level.items() if dim]
    assert Counter(calls) == Counter(composed)
    assert len(calls) < len(members) ** 2 * (prof.vanishing_depth - 1)


def test_checked_rows_refuse_a_row_that_is_not_a_homomorphism():
    i3, i2 = kronecker_preinjective(3), kronecker_preinjective(2)
    hom = hom_basis(i3, i2)
    assert radical._checked_rows(hom, hom) == list(hom.rows.values())
    # flat index 0 is entry (0, 0) of the block at vertex 1, which no map in Hom(I3, I2) has alone
    with pytest.raises(HomalgError, match="not a homomorphism"):
        radical._checked_rows(hom, HomSpace(i3, i2, {0: {0: 1}}))


def test_composite_rows_refuse_a_composite_outside_the_level_above():
    i3, i2, i1 = (kronecker_preinjective(n) for n in (3, 2, 1))
    hom = hom_basis(i3, i1)
    factors = [(decode_flats(i2, i1, [g.flatten() for g in hom_basis(i2, i1).basis]), decode_flats(i3, i2, [f.flatten() for f in hom_basis(i3, i2).basis]))]
    rows = list(hom.rows.values())
    # the composites through I2 fill Hom(I3, I1) = R_1(I3, I1); the first is the row {0: 1}
    assert rows == [{0: 1}, {1: 1}, {2: 1}]
    assert radical._composite_rows(hom, rows, factors) == rows
    # a level above that misses that first composite is refused
    for above in ([rows[1]], [rows[2]], rows[1:], [rows[0], rows[2]]):
        with pytest.raises(HomalgError, match="leaves the radical power"):
            radical._composite_rows(hom, above, factors)
    # the span of the first two composites is the whole level above, so no
    # composite past them is drawn, and the drawn ones lie in it
    assert radical._composite_rows(hom, rows[:1], factors) == rows[:1]
    assert radical._composite_rows(hom, rows[:2], factors) == rows[:2]


def test_a_copy_carried_short_of_its_representatives_rows_is_refused():
    # phi^-1 patched to a singular block at vertex 1 carries one of the two rows
    # of R_1(I2, I1) to the copy of I2; dims says two, so the rows are refused
    i2, i1 = kronecker_preinjective(2), kronecker_preinjective(1)
    prof = radical_profile([fixed_conjugate(i2), i2, i1], d_max=63, labels=["c", "i2", "i1"])
    assert prof.pair_dims("c", "i1") == prof.pair_dims("i2", "i1") == [2, 0]
    a, cert = prof._classes[0]
    block = cert.inverse.blocks["1"]
    singular = Mat([[0] * block.cols] + [[block.row(r).get(c, 0) for c in range(block.cols)] for r in range(1, block.rows)])
    inverse = Morphism(cert.inverse.source, cert.inverse.target, {**cert.inverse.blocks, "1": singular}, _validate=False)
    prof._classes = ((a, replace(cert, inverse=inverse)),) + prof._classes[1:]
    with pytest.raises(HomalgError, match="carried 1 of the 2 rows"):
        prof.basis_morphisms(1, "c", "i1")
    with pytest.raises(HomalgError, match="carried 1 of the 2 rows"):
        prof.subspace(1, "c", "i1")


def test_harada_sai_small_family():
    from endoscope.harness import length_bounded_kronecker_family

    members, labels = length_bounded_kronecker_family(3)
    report = harada_sai_check(members, 3, labels=labels)
    assert report.passed
    assert report.bound == 7
    assert report.depth is not None and report.depth <= 7


def test_harada_sai_singleton_simple():
    report = harada_sai_check([kronecker_preinjective(1)], 1, labels=["s"])
    assert report.passed and report.depth == 1 and report.bound == 1


def test_harada_sai_preinjectives():
    members, labels = preinj_family(3)
    report = harada_sai_check(members, 5, labels=labels)
    assert report.passed and report.depth == 3 and report.bound == 31


@pytest.mark.parametrize("bound", [4.0, 3.5, True])
def test_harada_sai_refuses_a_length_bound_that_is_not_an_int(bound):
    members, labels = preinj_family(2)
    with pytest.raises(RadicalError, match="length bound must be an int"):
        harada_sai_check(members, bound, labels=labels)


def test_harada_sai_rejects_overlong_members():
    with pytest.raises(RadicalError):
        harada_sai_check([kronecker_preinjective(4)], 5)


def test_right_witness_chain():
    members, labels = preinj_family(3)
    x = [Fraction(0)] * members[2].total_dim
    x[0] = Fraction(1)
    chain = right_witness(members, start=3, x=x, depth=2, labels=labels)
    assert chain is not None
    assert chain.labels[0] == 3 and len(chain.morphisms) == 2
    # demo 05's chain, as the search found it before states were deduplicated
    assert chain.labels == (3, 2, 1)
    assert chain.trail == ((1, 0, 0, 0, 0), (1, 0, 0), (1,))
    assert all(not is_isomorphism(f) for f in chain.morphisms)
    assert all(any(v) for v in chain.trail)
    # depth beyond the vanishing depth has no witness
    assert right_witness(members, start=3, x=x, depth=3, labels=labels) is None


def test_right_witness_keeps_one_state_per_member_and_element(monkeypatch):
    members, labels = preinj_family(10)
    x = [Fraction(1)] * members[-1].total_dim
    steps = []
    step = radical._witness_step

    def recorded(*args):
        states = step(*args)
        steps.append(states)
        return states

    monkeypatch.setattr(radical, "_witness_step", recorded)
    chain = right_witness(members, start=10, x=x, depth=7, labels=labels)
    # the chain the search found before states were deduplicated
    assert chain.labels == (10, 7, 6, 5, 4, 3, 2, 1)
    assert chain.trail == tuple((1,) * members[label - 1].total_dim for label in chain.labels)
    assert len(steps) == 7
    for states in steps:
        assert len(states) == len({(pos, vec) for _, _, vec, pos, _ in states})


@pytest.mark.parametrize("entry", [0.5, True, "one", None])
def test_right_witness_reads_x_through_the_field(entry):
    members, labels = preinj_family(3)
    x = [entry] + [0] * (members[2].total_dim - 1)
    with pytest.raises(LinalgError):
        right_witness(members, start=3, x=x, depth=2, labels=labels)


@pytest.mark.parametrize("depth", [-1, -5, 1.0, True])
def test_right_witness_refuses_a_depth_that_is_not_an_int_at_least_0(depth):
    members, labels = preinj_family(3)
    x = [1] + [0] * (members[2].total_dim - 1)
    with pytest.raises(RadicalError, match="chain depth"):
        right_witness(members, start=3, x=x, depth=depth, labels=labels)


@pytest.mark.parametrize("d_max", [2.5, 3.0, True, "3", 0, -2])
def test_profile_refuses_a_depth_bound_that_is_not_an_int_at_least_1(d_max):
    members, labels = preinj_family(3)
    with pytest.raises(RadicalError, match="depth bound"):
        radical_profile(members, d_max=d_max, labels=labels)


def test_right_witness_killed_socle_element():
    members, labels = preinj_family(2)
    i2 = members[1]
    # the vertex-2 socle vector of member 2 is killed by every map to member 1
    x = [Fraction(0)] * i2.total_dim
    x[i2.offset("2")] = Fraction(1)
    assert right_witness(members, start=2, x=x, depth=1, labels=labels) is None


def test_right_witness_distinct_flag():
    members = [kronecker_regular(2, 0)]
    x = [Fraction(0)] * 4
    x[1] = Fraction(1)
    assert right_witness(members, start=0, x=x, depth=1) is not None
    assert right_witness(members, start=0, x=x, depth=1, distinct=True) is None


def test_left_profile_duality():
    members, labels = preinj_family(3)
    right = radical_profile(members, d_max=8, labels=labels)
    left = left_profile_by_duals(members, d_max=8, labels=labels)
    assert left.vanishing_depth == right.vanishing_depth == 3
    for d in range(1, 4):
        for i in labels:
            for j in labels:
                assert right.dims[d - 1][(i, j)] == left.dims[d - 1][(j, i)]


def test_left_profile_of_preprojectives_matches_preinjective_depth():
    members = [kronecker_preprojective(n) for n in (1, 2, 3)]
    left = left_profile_by_duals(members, d_max=8, labels=[1, 2, 3])
    assert left.vanishing_depth == 3


def test_depth_symmetry_for_orthogonal_family():
    fam = [kronecker_regular(1, 0), kronecker_regular(1, 1)]
    assert radical_profile(fam, 3).vanishing_depth == 1
    assert left_profile_by_duals(fam, 3).vanishing_depth == 1


def preproj_family(hi):
    return [kronecker_preprojective(n) for n in range(1, hi + 1)], list(range(1, hi + 1))


@pytest.mark.parametrize(
    "family, rows, columns",
    [
        (preinj_family(8), list(range(1, 9)), list(range(8, 0, -1))),
        (preproj_family(8), list(range(8, 0, -1)), list(range(1, 9))),
    ]
    + [(([kronecker_regular(s, lam) for lam in range(4)], list(range(4))), [s] * 4, [s] * 4) for s in (1, 2, 3)],
    ids=["preinj-1..8", "preproj-1..8", "regular-size-1", "regular-size-2", "regular-size-3"],
)
def test_row_and_column_depths_read_the_dims_only(family, rows, columns):
    # chains out of I_i stop at depth i, composites into I_j at n + 1 - j
    members, labels = family
    prof = radical_profile(members, d_max=63, labels=labels)
    solved = hom_basis.cache_info()
    assert [prof.row_depth(i) for i in labels] == rows
    assert [prof.column_depth(j) for j in labels] == columns
    assert hom_basis.cache_info() == solved


def test_a_depth_not_reached_is_none():
    members, labels = preinj_family(8)
    prof = radical_profile(members, d_max=4, labels=labels)
    assert prof.vanishing_depth is None
    assert [prof.row_depth(i) for i in labels] == [1, 2, 3, 4, None, None, None, None]
    assert [prof.column_depth(j) for j in labels] == [None, None, None, None, 4, 3, 2, 1]
