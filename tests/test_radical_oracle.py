"""Differential test of ``radical_profile`` against the triple-loop oracle.

The oracle is the direct definition: level d + 1 of the pair (i, j) is
spanned by the coordinates in Hom(i, j) of every composite g f with g a
basis map of rad(k, j) and f a basis map of rad^d(i, k), over every k,
with the maps as the hom bases give them.  ``radical_profile`` scales
every map to coprime ints, forms the composites in block layout, threads
them through one member per isomorphism class and, from depth 3 on, uses
only the irreducible maps as left factors; both must give the same
canonical subspaces at every depth.  The families with isomorphic copies
are the ones where the class shortcut drops middle members.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from endoscope import homs, radical, reps
from endoscope.harness import length_bounded_kronecker_family
from endoscope.homs import (
    HomSpace,
    are_isomorphic,
    clear_caches,
    end_ring,
    hom_basis,
    is_isomorphism,
    is_local,
    iso_classes,
    noniso_subspace,
)
from endoscope.linalg import Mat, Subspace, _eliminate, invert
from endoscope.quiver import kronecker
from endoscope.radical import harada_sai_check, radical_profile, right_witness
from endoscope.reps import (
    Morphism,
    composite_flats,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
    simple,
)
from oracles import left_profile_by_duals
from test_iso_certificate import conjugate
from test_properties import kronecker_reps


def oracle_levels(members, d_max):
    """The radical powers, level by level, as ``{(i, j): Subspace}`` in hom coordinates."""
    idx = range(len(members))
    hom = {(i, j): hom_basis(members[i], members[j]) for i in idx for j in idx}
    rad1 = {}
    for i in idx:
        for j in idx:
            sub = noniso_subspace(members[i], members[j])
            rad1[(i, j)] = Subspace.span(hom[(i, j)].dim, [hom[(i, j)].coordinates(f) for f in sub.basis])
    levels = [rad1]
    while len(levels) < d_max and any(s.dim for s in levels[-1].values()):
        prev = levels[-1]
        nxt = {}
        for i in idx:
            for j in idx:
                vecs = []
                for k in idx:
                    gs = [hom[(k, j)].from_coordinates(v) for v in rad1[(k, j)].vectors()]
                    fs = [hom[(i, k)].from_coordinates(v) for v in prev[(i, k)].vectors()]
                    vecs += [hom[(i, j)].coordinates(g.compose(f)) for g in gs for f in fs]
                nxt[(i, j)] = Subspace.span(hom[(i, j)].dim, vecs)
        levels.append(nxt)
    return levels


def assert_agrees_with_oracle(members, d_max):
    prof = radical_profile(members, d_max=d_max)
    levels = oracle_levels(members, d_max)
    assert prof.depth_reached() == len(levels)
    vanishing = next((d for d, lvl in enumerate(levels, start=1) if not any(s.dim for s in lvl.values())), None)
    assert prof.vanishing_depth == vanishing
    for d, level in enumerate(levels, start=1):
        assert prof.dims[d - 1] == {pair: s.dim for pair, s in level.items()}
        for (i, j), space in level.items():
            assert prof.subspace(d, i, j) == space
    return prof


def random_invertible(size, rng, max_den=3):
    while True:
        g = Mat(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, max_den)) for _ in range(size)] for _ in range(size)],
            size,
            size,
        )
        if invert(g) is not None:
            return g


def random_conjugate(m, rng, max_den=3):
    return conjugate(m, {v: random_invertible(m.dim(v), rng, max_den) for v in m.presentation.quiver.vertices})


def conjugated_family(bound, seed, max_den=3):
    """The length-bounded Kronecker family plus one seeded rational base
    change of each member of total dimension > 1, shuffled."""
    rng = random.Random(seed)
    originals, _ = length_bounded_kronecker_family(bound)
    pool = originals + [random_conjugate(m, rng, max_den) for m in originals if m.total_dim > 1]
    rng.shuffle(pool)
    return pool


def classes(members):
    """The number of isomorphism classes among local members."""
    reps = []
    for m in members:
        if not any(hom_basis(r, m).dim > noniso_subspace(r, m).dim for r in reps):
            reps.append(m)
    return len(reps)


def repeated_class_family():
    # three copies of I3 and of R2(0), and copies of the one-dimensional S1 = I1 and P1
    rng = random.Random(5)
    i3, r2, s1, p1 = kronecker_preinjective(3), kronecker_regular(2, 0), kronecker_preinjective(1), kronecker_preprojective(1)
    return [
        i3, random_conjugate(i3, rng), s1, r2, random_conjugate(i3, rng, 7), p1, s1,
        random_conjugate(r2, rng), kronecker_preprojective(2), p1, random_conjugate(r2, rng, 7), s1,
    ]


def test_family_with_repeated_classes_agrees_with_oracle():
    members = repeated_class_family()
    assert classes(members) == 5
    for order in (members, members[::-1]):
        assert_agrees_with_oracle(order, d_max=15)


def test_conjugated_family_with_denominators_up_to_7_agrees_with_oracle():
    # base changes with denominators up to 7 give hom bases and radical maps
    # full of such denominators, which the profile clears before composing
    members = conjugated_family(4, seed=3, max_den=7)
    denominators = {
        x.denominator
        for m in members
        for n in members
        for f in noniso_subspace(m, n).basis
        for x in f.flatten().values()
        if type(x) is Fraction
    }
    assert {5, 7, 35} <= denominators
    assert classes(members) == 10
    prof = assert_agrees_with_oracle(members, d_max=63)
    assert prof.vanishing_depth == 6


def test_conjugated_length_4_family_agrees_with_oracle():
    prof = assert_agrees_with_oracle(conjugated_family(4, seed=1), d_max=63)
    assert prof.vanishing_depth == 6


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_kronecker_family_without_copies_agrees_with_oracle(order):
    # without isomorphic copies each member is the only route through it
    members, _ = length_bounded_kronecker_family(5)
    if order == "reversed":
        members = members[::-1]
    assert assert_agrees_with_oracle(members, d_max=31).vanishing_depth == 8


def test_profile_cut_before_vanishing_agrees_with_oracle():
    # depth 3 is the first level whose left factors are the irreducible maps
    prof = assert_agrees_with_oracle(conjugated_family(4, seed=2), d_max=4)
    assert prof.vanishing_depth is None
    assert prof.depth_reached() == 4


local_reps = kronecker_reps(max_dim=2).filter(lambda m: is_local(end_ring(m)) is True)


@given(st.lists(local_reps, min_size=1, max_size=4), st.integers(min_value=1, max_value=8))
# without R1(0) in the family, the nilpotent endomorphism of R2(0) composed
# after S2 -> R2(0) is a depth-2 map reached only through k = j
@example([simple(kronecker(), "2"), kronecker_regular(2, 0)], 3)
@settings(max_examples=40, deadline=None)
def test_hypothesis_families_agree_with_oracle(members, d_max):
    assert_agrees_with_oracle(members, d_max)


@given(st.lists(local_reps, min_size=1, max_size=3), st.integers(min_value=1, max_value=8), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_hypothesis_families_with_conjugated_copies_agree_with_oracle(members, d_max, seed):
    # every class appears at least twice, and a copy may come before its original
    rng = random.Random(seed)
    pool = members + [random_conjugate(m, rng, 7) for m in members]
    rng.shuffle(pool)
    assert_agrees_with_oracle(pool, d_max)


# -- class representatives -------------------------------------------------------


def height(m):
    """Nonzero arrow-matrix entries plus the bit lengths of their numerators and denominators."""
    return sum(
        1 + x.numerator.bit_length() + x.denominator.bit_length()
        for mat in m.matrices.values()
        for r in range(mat.rows)
        for x in mat.row(r).values()
    )


def solvable_pairs(members):
    """The representatives, and the hom systems ``radical_profile`` may solve.

    The members are taken by height, ties by position, and the least-height
    member of each class represents it.  The systems are the representatives'
    pairs, their Ends among them, and what ``are_isomorphic`` solves when it
    compares a member with the earlier representatives of its dimension
    vector: Hom(c, k), then Hom(k, c) only if Hom(c, k) != 0 and no basis
    element of it is an isomorphism (nothing when the two are equal).  None
    of them joins two distinct non-representatives, and no copy's End is
    among them.
    """
    reps, pairs = [], set()
    for m in sorted(members, key=height):
        for r in (r for r in reps if r.dim_vector == m.dim_vector):
            if r == m:
                break
            pairs.add((r, m))
            if any(map(is_isomorphism, hom_basis(r, m).basis)):
                break
            if hom_basis(r, m).dim:
                pairs.add((m, r))
        else:
            reps.append(m)
    return reps, pairs | {(a, b) for a in reps for b in reps}


@pytest.mark.parametrize(
    "family, n_classes, n_solved",
    [(repeated_class_family, 5, 29), (lambda: conjugated_family(4, seed=1), 10, 114)],
    ids=["repeated-classes", "conjugated-4"],
)
def test_profile_solves_no_hom_system_between_two_copies(family, n_classes, n_solved):
    members = family()
    clear_caches()
    prof = radical_profile(members, d_max=63)
    solved = hom_basis.cache_info().currsize
    reps, pairs = solvable_pairs(members)
    assert len(reps) == n_classes
    assert solved == len(pairs) == n_solved
    # every allowed pair is already cached, so the cache holds exactly them
    for m, n in pairs:
        hom_basis(m, n)
    assert hom_basis.cache_info().currsize == solved
    # the dimensions of every pair are filled from its representatives' pair
    assert all(len(level) == len(members) ** 2 for level in prof.dims)


def copied_family(bound, seed):
    """The length-bounded Kronecker family plus a conjugate of each member of
    total dimension > 1, shuffled; returns (members, position of each original)."""
    rng = random.Random(seed)
    originals, _ = length_bounded_kronecker_family(bound)
    pool = [(m, k) for k, m in enumerate(originals)]
    pool += [(random_conjugate(m, rng), k) for k, m in enumerate(originals) if m.total_dim > 1]
    rng.shuffle(pool)
    members = [m for m, _ in pool]
    return members, [members.index(originals[k]) for _, k in pool], originals


def test_copies_get_the_pair_dims_of_their_originals_on_both_sides():
    members, original, originals = copied_family(4, seed=4)
    # some copy comes before its original, so it represents the class
    assert any(original[k] > k for k in range(len(members)))
    idx = range(len(members))
    for prof in (left_profile_by_duals(members, d_max=15), harada_sai_check(members, 4).profile):
        for i in idx:
            for j in idx:
                assert prof.pair_dims(i, j) == prof.pair_dims(original[i], original[j])
    reference = left_profile_by_duals(originals, d_max=15)
    assert left_profile_by_duals(members, d_max=15).vanishing_depth == reference.vanishing_depth
    assert harada_sai_check(members, 4).depth == harada_sai_check(originals, 4).depth == 6


def mixed_family():
    return [
        kronecker_preprojective(2), kronecker_regular(1, 0), kronecker_preinjective(3),
        kronecker_regular(2, 1), kronecker_preprojective(1),
    ]


@pytest.mark.parametrize(
    "family",
    [
        lambda: [kronecker_preinjective(n) for n in range(1, 8)],
        lambda: [kronecker_preprojective(n) for n in range(1, 8)],
        lambda: length_bounded_kronecker_family(4)[0],
        mixed_family,
        lambda: conjugated_family(5, seed=1),
    ],
    ids=["preinj-1..7", "preproj-1..7", "length-4", "mixed", "conjugated-5"],
)
def test_dual_route_gives_the_transposed_profile_and_swapped_depths(family):
    members = family()
    right = radical_profile(members, d_max=63)
    left = left_profile_by_duals(members, d_max=63)
    assert left.depth_reached() == right.depth_reached()
    for level, dual_level in zip(right.dims, left.dims):
        assert dual_level == {(j, i): d for (i, j), d in level.items()}
    assert left.vanishing_depth == right.vanishing_depth
    # a chain out of M_i dualizes to a composite into D M_i, and the other way round
    for k in right.labels:
        assert right.row_depth(k) == left.column_depth(k)
        assert right.column_depth(k) == left.row_depth(k)


@pytest.mark.parametrize(
    "family",
    [lambda: conjugated_family(6, seed=1), lambda: copied_family(4, seed=4)[0]],
    ids=["conjugated-6", "copied-4"],
)
def test_level_1_between_representatives_is_the_noniso_subspace(family):
    members = family()
    prof = radical_profile(members, d_max=1)
    reps = [k for k, (c, _) in enumerate(prof._classes) if c == k]
    for a in reps:
        for b in reps:
            assert prof.basis_morphisms(1, a, b) == list(noniso_subspace(members[a], members[b]).basis)


def least_height_reps(members, klass):
    """Per member, the position of the least-height member of its class, ties by position."""
    idx = range(len(members))
    return [min((q for q in idx if klass[q] == klass[k]), key=lambda q: (height(members[q]), q)) for k in idx]


def test_one_partition_walked_by_position_or_by_height():
    members, original, _ = copied_family(4, seed=4)
    by_position, by_height = iso_classes(members), iso_classes(members, key=height)

    def class_sets(classes):
        return {frozenset(k for k, (c, _) in enumerate(classes) if c == r) for r, _ in classes}

    assert class_sets(by_position) == class_sets(by_height) == class_sets([(c, None) for c in original])
    assert [c for c, _ in by_height] == least_height_reps(members, original)
    idx = range(len(members))
    assert [c for c, _ in by_position] == [min(q for q in idx if original[q] == original[k]) for k in idx]
    # the orders pick different representatives for some class
    assert [c for c, _ in by_position] != [c for c, _ in by_height]


def test_profile_of_a_reversed_family_is_the_same_and_on_least_height_members():
    members, original, _ = copied_family(4, seed=4)
    n = len(members)
    forward = radical_profile(members, d_max=15)
    backward = radical_profile(members[::-1], d_max=15)
    assert forward.vanishing_depth == backward.vanishing_depth == 6
    assert [{(n - 1 - i, n - 1 - j): d for (i, j), d in level.items()} for level in backward.dims] == list(forward.dims)
    reversed_class = [original[n - 1 - k] for k in range(n)]
    for prof, order, klass in ((forward, members, original), (backward, members[::-1], reversed_class)):
        assert [c for c, _ in prof._classes] == least_height_reps(order, klass)
        for k, (c, cert) in enumerate(prof._classes):
            # each certificate is a direct witness from the representative
            assert cert.witness.compose(cert.inverse) == Morphism.identity(order[k])
            assert cert.inverse.compose(cert.witness) == Morphism.identity(order[c])
    # the integer originals represent their classes, whichever comes first
    assert [c for c, _ in forward._classes] == original
    assert any(original[k] > k for k in range(n)) and any(original[k] < k for k in range(n))


def test_right_witness_from_a_copy():
    rng = random.Random(7)
    i1, i2, i3 = (kronecker_preinjective(n) for n in (1, 2, 3))
    members = [i1, i2, i3, random_conjugate(i2, rng), random_conjugate(i3, rng)]
    labels = ["1", "2", "3", "2'", "3'"]
    x = [Fraction(1)] * i3.total_dim
    chain = right_witness(members, start="3'", x=x, depth=2, labels=labels)
    assert chain is not None and chain.labels[0] == "3'" and len(chain.morphisms) == 2
    for (a, b), f in zip(zip(chain.labels, chain.labels[1:]), chain.morphisms):
        source, target = members[labels.index(a)], members[labels.index(b)]
        # rebuilt with validation: a homomorphism between the chain's members
        assert Morphism(source, target, f.blocks) == f
        assert not is_isomorphism(f)
        assert hom_basis(source, target).contains(f)
    assert len(chain.trail) == 3 and all(any(v) for v in chain.trail)


def test_right_witness_solves_only_the_profiles_hom_systems():
    members = conjugated_family(4, seed=1)
    start = next(k for k, m in enumerate(members) if m.total_dim > 1)
    x = [Fraction(0)] * members[start].total_dim
    x[0] = Fraction(1)
    clear_caches()
    radical_profile(members, d_max=1)
    solved = hom_basis.cache_info().currsize
    clear_caches()
    chain = right_witness(members, start=start, x=x, depth=2)
    # a copy's maps are carried from its representatives' pair, not solved for
    assert hom_basis.cache_info().currsize == solved == 114
    assert chain.labels == (1, 2, 8)


def first_chain(maps, start, x, depth, distinct):
    """The steps (j, f) of the chain ``right_witness`` must return, or None: the
    first chain, in the order of j and then of f in ``maps[(i, j)]`` at each step,
    whose trail stays nonzero, by depth-first search over the maps of every pair."""
    n = max(j for _, j in maps) + 1

    def walk(i, vec, steps):
        if len(steps) == depth:
            return steps
        for j in range(n):
            if distinct and j in {start, *(k for k, _ in steps)}:
                continue
            for f in maps[(i, j)]:
                image = f.total_mat().apply(vec)
                if any(image) and (found := walk(j, image, steps + [(j, f)])) is not None:
                    return found
        return None

    return walk(start, x, [])


@pytest.mark.parametrize("bound, seed, distinct", [(6, 1, False), (4, 4, True)], ids=["copied-6", "copied-4-distinct"])
def test_right_witness_builds_only_the_pairs_its_search_reads(monkeypatch, bound, seed, distinct):
    # building and checking every pair's maps up front read all n^2 pairs on every call
    members, _, _ = copied_family(bound, seed)
    n = len(members)
    prof = radical_profile(members, d_max=1)
    maps = {(i, j): prof.basis_morphisms(1, i, j) for i in range(n) for j in range(n)}
    reads = []
    original = radical.RadicalProfile.basis_morphisms
    monkeypatch.setattr(radical.RadicalProfile, "basis_morphisms", lambda self, *key: reads.append(key) or original(self, *key))
    counts = {}
    for depth in (1, 2):
        for start in range(n):
            x = (Fraction(1),) * members[start].total_dim
            reads.clear()
            chain = right_witness(members, start=start, x=x, depth=depth, distinct=distinct)
            counts[(depth, start)] = len(reads)
            expected = first_chain(maps, start, x, depth, distinct)
            if expected is None:
                assert chain is None
                continue
            assert chain.labels == (start, *(j for j, _ in expected))
            assert chain.morphisms == tuple(f for _, f in expected)
    if bound == 6:
        assert [counts[(1, start)] for start in range(n)] == [n] * n == [28] * 28
        assert [counts[(2, start)] for start in (0, 13, 5)] == [112, 280, 756]


def count_morphisms(monkeypatch) -> list:
    """Clear the caches and record every ``Morphism`` built from now on, in the list returned."""
    built = []
    original = Morphism.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    clear_caches()
    monkeypatch.setattr(Morphism, "__init__", counted)
    return built


def test_profile_builds_morphisms_only_for_its_class_certificates(monkeypatch):
    # the level loop composes vertex blocks (reps.flat_blocks), the m == n
    # non-isomorphisms are J(End m) as it is, and the class certificates are
    # decided on blocks: what is left is 13 witness pairs and one shared identity
    # per representative.  Turning every composed row into a Morphism made 842;
    # building every Hom basis map, inverse, composite and identity made 117.
    members = conjugated_family(6, seed=1)
    built = count_morphisms(monkeypatch)
    assert radical_profile(members, d_max=63).vanishing_depth == 10
    assert len(built) == 41


def test_profile_asks_one_certificate_per_partition_question(monkeypatch):
    # level 1 reads the partition, so only iso_classes compares members; asking
    # noniso_subspace for every pair of representatives made 241
    members = conjugated_family(6, seed=1)
    calls = []
    original = are_isomorphic

    def counted(m, n):
        calls.append((m, n))
        return original(m, n)

    clear_caches()
    monkeypatch.setattr("endoscope.homs.are_isomorphic", counted)
    assert radical_profile(members, d_max=63).vanishing_depth == 10
    assert len(calls) == 31


R20 = kronecker_regular(2, 0)


@pytest.mark.parametrize(
    "m, n, status, n_built",
    [
        (R20, random_conjugate(R20, random.Random(2)), "iso", 2),
        (R20, kronecker_regular(2, 1), "certified_no", 0),
        (kronecker_preinjective(2), direct_sum([simple(kronecker(), "1")] * 2 + [simple(kronecker(), "2")])[0], "certified_no", 0),
    ],
    ids=["conjugate", "other-eigenvalue", "local-against-sum"],
)
def test_a_certificate_builds_morphisms_only_for_the_witness_pair(monkeypatch, m, n, status, n_built):
    built = count_morphisms(monkeypatch)
    assert are_isomorphic(m, n).status == status
    assert len(built) == n_built


def test_no_composite_is_formed_with_an_empty_side(monkeypatch):
    members = conjugated_family(6, seed=1)
    sides = []
    original = composite_flats

    def recorded(gs, fs):
        sides.append((len(gs), len(fs)))
        return original(gs, fs)

    monkeypatch.setattr("endoscope.radical.composite_flats", recorded)
    assert radical_profile(members, d_max=63).vanishing_depth == 10
    assert sides and all(g and f for g, f in sides)


def test_the_level_loop_decodes_each_pair_level_once_and_builds_no_mat(monkeypatch):
    # every pair of every level was turned into vertex blocks (reps.flat_blocks,
    # 674 Mat dicts), and each composite_flats call decoded its factors' blocks
    # again; now each level's rows are decoded once (reps.decode_flats), when a
    # composite is first drawn through them, and a pair whose power keeps its
    # rows, or whose irreducible maps are all of R_1, keeps its decoding
    members = conjugated_family(6, seed=1)
    decoded, inside, built = [], [], []
    original_decode, original_set, original_blocks = radical.decode_flats, Mat._set, reps.flat_blocks

    def decode(source, target, flats):
        flats = list(flats)
        decoded.append((source, target, tuple(frozenset(f.items()) for f in flats)))
        return original_decode(source, target, flats)

    def loop(function):
        def run(*args):
            inside.append(function)
            try:
                return function(*args)
            finally:
                inside.pop()
        return run

    def build(self, *args):
        if inside:
            built.append("Mat")
        original_set(self, *args)

    def blocks(*args):
        if inside:
            built.append("flat_blocks")
        return original_blocks(*args)

    clear_caches()
    monkeypatch.setattr(radical, "decode_flats", decode)
    monkeypatch.setattr(radical, "_composite_rows", loop(radical._composite_rows))
    monkeypatch.setattr(radical._Maps, "__missing__", loop(radical._Maps.__missing__))
    monkeypatch.setattr(Mat, "_set", build)
    for module in (reps, radical, homs):
        monkeypatch.setattr(module, "flat_blocks", blocks)
    assert radical_profile(members, d_max=63).vanishing_depth == 10
    assert built == []
    assert len({(id(source), id(target), rows) for source, target, rows in decoded}) == len(decoded) == 146
    assert sum(len(rows) for *_, rows in decoded) == 232


def test_carried_pairs_decode_each_representatives_pair_and_certificate_once(monkeypatch):
    # reading basis_morphisms(1, i, j) for every pair decoded R_1(a, b) and psi
    # R_1(a, b) again for each of the 559 pairs carried over: 1 118 decode_flats
    # and 1 118 calls decoding psi and phi^-1 from their blocks; now R_d(a, b) is
    # decoded once per pair of representatives, psi R_d(a, b) once per (a, j), and
    # psi and phi^-1 once per member, all from flats: 611 + 56 decode_flats calls
    members = conjugated_family(6, seed=1)
    clear_caches()
    profile = radical_profile(members, 63)
    calls = []
    monkeypatch.setattr(radical, "decode_flats", lambda *args, decode=radical.decode_flats: calls.append(args) or decode(*args))
    idx = range(len(members))
    got = {(i, j): profile.basis_morphisms(1, i, j) for i in idx for j in idx}
    assert len(calls) == 667
    # each carried pair spans psi R_1(a, b) phi^-1, composed here as Morphisms
    for (i, j), maps in got.items():
        (a, phi), (b, psi) = profile._classes[i], profile._classes[j]
        spanned = HomSpace.span(members[i], members[j], [psi.witness.compose(f).compose(phi.inverse).flatten() for f in got[(a, b)]])
        assert [f.flatten() for f in maps] == list(spanned.rows.values())
        assert profile.subspace(1, i, j).dim == len(maps) == profile.pair_dims(i, j)[0]


def count_composites(monkeypatch) -> list:
    """Clear the caches and record a copy of every composite ``reps.composite_flats``
    yields from now on, in the list returned."""
    drawn = []
    original = reps._products

    def counted(*args):
        for flat in original(*args):
            drawn.append(dict(flat))
            yield flat

    clear_caches()
    monkeypatch.setattr(reps, "_products", counted)
    return drawn


@pytest.mark.parametrize(
    "family, depth, n_drawn",
    [
        (lambda: conjugated_family(6, seed=1), 10, 820),
        (lambda: [kronecker_preinjective(n) for n in range(1, 9)], 8, 504),
        (lambda: [kronecker_preprojective(n) for n in range(1, 9)], 8, 504),
    ],
    ids=["conj-family", "preinj-1..8", "preproj-1..8"],
)
def test_a_profile_draws_composites_only_until_each_span_fills_its_bound(monkeypatch, family, depth, n_drawn):
    # forming every composite of every composed pair and level drew 1 953, 910 and 910
    members = family()
    drawn = count_composites(monkeypatch)
    assert radical_profile(members, d_max=63).vanishing_depth == depth
    assert len(drawn) == n_drawn


def test_a_pair_level_draws_no_composite_once_its_span_reaches_the_level_above(monkeypatch):
    members = conjugated_family(6, seed=1)
    drawn = count_composites(monkeypatch)
    calls = []
    original = radical._composite_rows

    def recorded(hom, above, factors):
        factors, start = list(factors), len(drawn)
        rows = original(hom, above, factors)
        calls.append((hom, len(above), rows, drawn[start:], sum(len(gs) * len(fs) for gs, fs in factors)))
        return rows

    monkeypatch.setattr(radical, "_composite_rows", recorded)
    assert radical_profile(members, d_max=63).vanishing_depth == 10
    reached = stopped = 0
    for hom, bound, rows, flats, total in calls:
        span = lambda fs: _eliminate([dict(f) for f in fs], hom.source.field.characteristic)
        assert span(flats) == {min(r): r for r in rows}
        if len(rows) == bound:
            # the last composite drawn is the one that reached dim R_d
            assert len(span(flats[:-1])) == bound - 1
            reached += 1
            stopped += len(flats) < total
        else:
            assert len(flats) == total
    # of 394 composed pair-levels, 238 reach dim R_d, 165 of them before their last composite
    assert (len(calls), reached, stopped) == (394, 238, 165)
