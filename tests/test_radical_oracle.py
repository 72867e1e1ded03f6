"""Differential test of ``radical_profile`` against the triple-loop oracle.

The oracle is the direct definition: level d + 1 of the pair (i, j) is
spanned by the coordinates in Hom(i, j) of every composite g f with g a
basis map of rad(k, j) and f a basis map of rad^d(i, k), over every k.
``radical_profile`` spans the composites in block layout and, from depth
3 on, uses only the irreducible maps as left factors; both must give the
same canonical subspaces at every depth.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from endoscope.harness import length_bounded_kronecker_family
from endoscope.homs import end_ring, hom_basis, is_local, noniso_subspace
from endoscope.linalg import Mat, Subspace, invert
from endoscope.quiver import kronecker
from endoscope.radical import radical_profile
from endoscope.reps import kronecker_regular, simple
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


def random_invertible(size, rng):
    while True:
        g = Mat(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)],
            size,
            size,
        )
        if invert(g) is not None:
            return g


def conjugated_family(bound, seed):
    """The length-bounded Kronecker family plus one seeded rational base
    change of each member of total dimension > 1, shuffled."""
    rng = random.Random(seed)
    originals, _ = length_bounded_kronecker_family(bound)
    pool = originals + [
        conjugate(m, {v: random_invertible(m.dim(v), rng) for v in m.presentation.quiver.vertices})
        for m in originals
        if m.total_dim > 1
    ]
    rng.shuffle(pool)
    return pool


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
