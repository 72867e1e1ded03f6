from fractions import Fraction

import pytest

from endoscope import homs
from endoscope.endosocle import family_endosocle, power_endosocle
from endoscope.homs import (
    DecompositionInconclusive,
    HomalgError,
    LocalityUnverified,
    UnsupportedFieldError,
    are_isomorphic,
    end_ring,
    hom_basis,
    hom_dim,
    indecompose,
    inverse_morphism,
    is_isomorphism,
    is_local,
    noniso_blocks,
    noniso_subspace,
)
from endoscope.linalg import QQ, Mat, PrimeField
from endoscope.matsub import PointedMatrix, evaluate
from endoscope.quiver import kronecker
from endoscope.radical import radical_profile
from endoscope.reps import (
    Morphism,
    Representation,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
    socle,
)
from oracles import multiply_coords


@pytest.fixture(scope="module")
def preinj():
    return {n: kronecker_preinjective(n) for n in range(1, 7)}


def test_hom_of_simples(preinj):
    s1 = preinj[1]
    s2 = kronecker_preprojective(1)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s1) == 0
    assert hom_dim(preinj[2], s1) == 2


def test_hom_basis_satisfies_commuting_squares(preinj):
    hom = hom_basis(preinj[3], preinj[2])
    assert hom.dim == 2
    for f in hom.basis:
        for a in ("alpha", "beta"):
            lhs = f.block("2") @ preinj[3].matrix(a)
            rhs = preinj[2].matrix(a) @ f.block("1")
            assert lhs == rhs


def test_hom_coordinates_round_trip(preinj):
    hom = hom_basis(preinj[3], preinj[2])
    coords = (Fraction(2), Fraction(-5))
    f = hom.from_coordinates(coords)
    assert hom.coordinates(f) == coords
    outside = Morphism.identity(preinj[3])
    assert hom_basis(preinj[3], preinj[3]).contains(outside)


def test_hom_coordinates_round_trip_over_gf101():
    gf = PrimeField(101)
    hom = hom_basis(kronecker_preinjective(3, gf), kronecker_preinjective(2, gf))
    for coords in [(2, 96), (0, 1), (100, 0)]:
        assert hom.coordinates(hom.from_coordinates(coords)) == coords
    # coordinates are read through the field: 1/2 is 51 and -5 is 96 mod 101
    assert hom.coordinates(hom.from_coordinates((Fraction(1, 2), -5))) == (51, 96)


def test_a_map_with_the_right_ends_outside_the_span_has_no_coordinates(preinj):
    hom = hom_basis(preinj[3], preinj[2])
    # beta_2 @ f_1 != f_2 @ beta_3: not a homomorphism, so outside Hom(I3, I2)
    blocks = {"1": Mat.sparse([{0: 1}, {}], 3), "2": Mat.zeros(1, 2)}
    stray = Morphism(preinj[3], preinj[2], blocks, _validate=False)
    assert hom.try_coordinates(stray) is None
    assert not hom.contains(stray)
    with pytest.raises(HomalgError):
        hom.coordinates(stray)
    # a sum of a basis map and the stray map is outside too
    assert hom.try_coordinates(hom.basis[0] + stray) is None


def test_compose_stays_in_hom(preinj):
    h32 = hom_basis(preinj[3], preinj[2])
    h21 = hom_basis(preinj[2], preinj[1])
    target = hom_basis(preinj[3], preinj[1])
    for f in h32.basis:
        for g in h21.basis:
            assert target.contains(g.compose(f))
    ident = Morphism.identity(preinj[2])
    for f in h32.basis:
        assert ident.compose(f) == f
    for g in h21.basis:
        assert g.compose(ident) == g


def test_end_ring_small(preinj):
    ring = end_ring(preinj[1])
    assert ring.dim == 1
    assert ring.radical.dim == 0
    ring2 = end_ring(preinj[2])
    assert ring2.dim == 1 and ring2.radical.dim == 0


def test_end_ring_of_sum(preinj):
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    ring = end_ring(total)
    assert ring.dim == 4
    assert ring.hom.contains(Morphism.identity(total))
    assert ring.radical.dim == 2
    rad = ring.radical.vectors()
    for x in rad:
        for y in rad:
            assert not any(multiply_coords(ring, x, y))


def test_end_dimension_formula(preinj):
    for m, n in [(preinj[1], preinj[2]), (preinj[2], preinj[3]), (preinj[1], kronecker_regular(1, 0))]:
        total, _, _ = direct_sum([m, n])
        expected = end_ring(m).dim + end_ring(n).dim + hom_dim(m, n) + hom_dim(n, m)
        assert end_ring(total).dim == expected


def test_structure_constants_associative(preinj):
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    ring = end_ring(total)
    k = ring.dim
    units = [tuple(Fraction(1 if t == i else 0) for t in range(k)) for i in range(k)]
    for x in units:
        for y in units:
            xy = multiply_coords(ring, x, y)
            for z in units:
                assert multiply_coords(ring, xy, z) == multiply_coords(ring, x, multiply_coords(ring, y, z))


def test_matrix_ring_has_zero_radical(preinj):
    cube, _, _ = direct_sum([preinj[1]] * 3)
    ring = end_ring(cube)
    assert ring.dim == 9
    assert ring.radical.dim == 0


def test_radical_of_dual_numbers():
    ring = end_ring(kronecker_regular(2, 0))
    assert ring.dim == 2
    assert ring.radical.dim == 1
    x = ring.radical.vectors()[0]
    assert not any(multiply_coords(ring, x, x))


def test_radical_requires_characteristic_zero():
    # a non-brick's trace form certifies J in characteristic zero only; a brick
    # has J = 0 in every characteristic
    gf = PrimeField(5)
    ring = end_ring(kronecker_regular(2, 0, field=gf))
    with pytest.raises(UnsupportedFieldError):
        ring.radical
    brick = end_ring(kronecker_preinjective(2, field=gf))
    assert (brick.dim, brick.radical.dim, brick.local) == (1, 0, True)


@pytest.mark.parametrize("p", [2, 5, 101])
def test_hom_basis_entries_stay_in_the_prime_field(p):
    gf = PrimeField(p)
    members = [kronecker_preinjective(n, field=gf) for n in (1, 2, 3)]
    members.append(kronecker_regular(2, 1, field=gf))
    for m in members:
        for n in members:
            for f in hom_basis(m, n).basis:
                for block in f.blocks.values():
                    assert block.field == gf
                    for x in (x for row in block.entries for x in row):
                        assert type(x) is int and 0 <= x < p


@pytest.mark.parametrize("p", [2, 5, 101])
def test_prime_field_results_carry_their_field(p):
    gf = PrimeField(p)
    parts = [kronecker_preinjective(n, field=gf) for n in (1, 2, 3)]
    total, embeddings, projections = direct_sum(parts)
    blocks = list(total.matrices.values())
    blocks += [b for f in embeddings + projections for b in f.blocks.values()]
    blocks += [b for f in hom_basis(total, parts[1]).basis for b in f.blocks.values()]
    subspaces = list(socle(total).spaces.values())
    pres = kronecker()
    pm = PointedMatrix.of([[pres.arrow_element("alpha"), pres.arrow_element("beta").scale(Fraction(1, 3))]], 0)
    subspaces.append(evaluate(pm, total))
    blocks += [s.basis for s in subspaces]
    assert all(s.field == gf for s in subspaces)
    for block in blocks:
        assert block.field == gf
        assert all(type(x) is int and 0 <= x < p for row in block.entries for x in row)


def test_hom_basis_entries_stay_rational(preinj):
    for f in hom_basis(preinj[1], preinj[1]).basis + hom_basis(preinj[2], preinj[3]).basis:
        for block in f.blocks.values():
            assert block.field == QQ
            # one value format: an int, or a Fraction only when not integral
            values = [x for row in block.entries for x in row]
            assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)


def test_radical_is_an_ideal(preinj):
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    ring = end_ring(total)
    k = ring.dim
    units = [tuple(Fraction(1 if t == i else 0) for t in range(k)) for i in range(k)]
    rad = ring.radical
    for x in rad.vectors():
        for u in units:
            assert rad.contains(multiply_coords(ring, x, u))
            assert rad.contains(multiply_coords(ring, u, x))


def test_is_isomorphism(preinj):
    assert is_isomorphism(Morphism.identity(preinj[2]))
    assert not is_isomorphism(Morphism.zero(preinj[2], preinj[2]))
    for f in hom_basis(preinj[2], preinj[1]).basis:
        assert not is_isomorphism(f)


def test_are_isomorphic_reflexive_and_certified(preinj):
    cert = are_isomorphic(preinj[2], preinj[2])
    assert cert.status == "iso"
    no = are_isomorphic(kronecker_regular(1, 0), kronecker_regular(1, 1))
    assert no.status == "certified_no"
    nodim = are_isomorphic(preinj[1], preinj[2])
    assert nodim.status == "certified_no"


def test_are_isomorphic_finds_base_change(preinj):
    i2 = preinj[2]
    perm = Representation(
        kronecker(),
        {"1": 2, "2": 1},
        {"alpha": Mat([[Fraction(1), Fraction(0)]]), "beta": Mat([[Fraction(0), Fraction(1)]])},
    )
    cert = are_isomorphic(i2, perm)
    assert cert.status == "iso"
    f, g = cert.witness, cert.inverse
    assert g.compose(f) == Morphism.identity(i2)
    assert f.compose(g) == Morphism.identity(perm)


def test_are_isomorphic_symmetric_transitive(preinj):
    i2 = preinj[2]
    perm = Representation(
        kronecker(),
        {"1": 2, "2": 1},
        {"alpha": Mat([[Fraction(1), Fraction(0)]]), "beta": Mat([[Fraction(0), Fraction(1)]])},
    )
    ab = are_isomorphic(i2, perm)
    ba = are_isomorphic(perm, i2)
    assert ab.status == ba.status == "iso"
    assert is_isomorphism(inverse_morphism(ab.witness))
    # transitivity by composing certificates
    third = are_isomorphic(perm, perm)
    assert is_isomorphism(third.witness.compose(ab.witness))


def test_indecompose(preinj):
    assert indecompose(preinj[1]) == [preinj[1]]
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    parts = indecompose(total)
    assert sorted(p.dim_vector for p in parts) == [(1, 0), (2, 1)]
    p2 = kronecker_preprojective(2)
    assert indecompose(p2) == [p2]


@pytest.mark.parametrize(
    "parts, dims",
    [
        ([kronecker_preinjective(1), kronecker_preinjective(2)], [(2, 1), (1, 0)]),
        ([kronecker_preinjective(2), kronecker_preinjective(1)], [(1, 0), (2, 1)]),
        ([kronecker_regular(2, 0), kronecker_preprojective(1)], [(0, 1), (2, 2)]),
        ([kronecker_preinjective(n) for n in (1, 2, 3)], [(3, 2), (2, 1), (1, 0)]),
    ],
    ids=["I1+I2", "I2+I1", "R2(0)+P1", "I1+I2+I3"],
)
def test_fitting_summand_order(parts, dims):
    # the order of End(M)'s canonical rows decides which split is found first,
    # and so which summand of a member is labelled "<label>.0" in reports
    total, _, _ = direct_sum(parts)
    assert [p.dim_vector for p in indecompose(total)] == dims


def test_decomposing_I1_to_I4_takes_one_candidate_per_split(monkeypatch):
    # each split is found by the first candidate tried, read on its vertex blocks:
    # the only maps built are the identities that find each dropped row
    built, tried = [], []
    original_init, original_split = Morphism.__init__, homs._fitting_split

    def counted_init(self, *args, **kwargs):
        built.append(type(self))
        original_init(self, *args, **kwargs)

    def counted_split(m, h):
        tried.append(m)
        return original_split(m, h)

    homs.clear_caches()
    total, _, _ = direct_sum([kronecker_preinjective(n) for n in range(1, 5)])
    monkeypatch.setattr(Morphism, "__init__", counted_init)
    monkeypatch.setattr(homs, "_fitting_split", counted_split)
    assert [p.dim_vector for p in indecompose(total)] == [(4, 3), (3, 2), (2, 1), (1, 0)]
    assert len(built) <= 3
    assert len(tried) == 3


@pytest.mark.parametrize("n", [2, 3])
def test_fitting_split_takes_a_power_where_kernel_and_image_are_stable(n):
    # h = beta on R_n(0) + R_1(1), the nilpotent shift on R_n(0) and 1 on R_1(1):
    # ker h^s grows until s = n, and a smaller power would split off ker h, which
    # meets im h, in place of R_n(0)
    total, _, _ = direct_sum([kronecker_regular(n, 0), kronecker_regular(1, 1)])
    h = Morphism(total, total, {v: total.matrix("beta") for v in ("1", "2")})  # checked to commute
    assert homs._fitting_split(total, h.blocks) == (kronecker_regular(n, 0), kronecker_regular(1, 1))


def test_indecompose_power(preinj):
    total, _, _ = direct_sum([preinj[2]] * 2)
    parts = indecompose(total)
    assert len(parts) == 2
    for p in parts:
        assert are_isomorphic(p, preinj[2]).status == "iso"


def test_indecompose_mixed_regular():
    total, _, _ = direct_sum([kronecker_regular(1, 0), kronecker_regular(1, 1)])
    parts = indecompose(total)
    assert sorted(p.dim_vector for p in parts) == [(1, 1), (1, 1)]
    assert {are_isomorphic(p, kronecker_regular(1, 0)).status for p in parts} == {"iso", "certified_no"}


def test_is_local(preinj):
    assert is_local(end_ring(preinj[2])) is True
    assert is_local(end_ring(preinj[1])) is True
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    assert is_local(end_ring(total)) is False
    assert is_local(end_ring(kronecker_regular(2, 0))) is True


def test_noniso_subspace(preinj):
    assert noniso_subspace(preinj[2], preinj[2]).dim == 0
    r2 = kronecker_regular(2, 0)
    sub = noniso_subspace(r2, r2)
    assert sub.dim == 1
    assert not is_isomorphism(sub.basis[0])
    full = noniso_subspace(preinj[3], preinj[2])
    assert full.dim == hom_dim(preinj[3], preinj[2]) == 2


def test_noniso_subspace_requires_locality(preinj):
    total, _, _ = direct_sum([preinj[1], preinj[2]])
    with pytest.raises(LocalityUnverified):
        noniso_subspace(total, total)


def test_noniso_blocks_are_cached_until_clear_caches(preinj):
    homs.clear_caches()
    blocks = noniso_blocks(preinj[3], preinj[2])
    assert len(blocks) == noniso_subspace(preinj[3], preinj[2]).dim == 2
    assert noniso_blocks(kronecker_preinjective(3), kronecker_preinjective(2)) is blocks  # by value
    homs.clear_caches()
    assert noniso_blocks.cache_info().currsize == 0


def test_noniso_blocks_keep_fields_apart():
    # End(R2(0)) = K[x]/x^2: one radical row over Q, and over GF(101) the radical
    # is refused, not read from the rational entry
    homs.clear_caches()
    rational, prime = kronecker_regular(2, 0), kronecker_regular(2, 0, PrimeField(101))
    assert len(noniso_blocks(rational, rational)) == 1
    with pytest.raises(UnsupportedFieldError):
        noniso_blocks(prime, prime)
    assert noniso_blocks.cache_info().hits == 0
    # End(I3) is the field in every characteristic: no radical rows, one entry per field
    bricks = [kronecker_preinjective(3, field) for field in (QQ, PrimeField(101))]
    assert [noniso_blocks(b, b) for b in bricks] == [(), ()]
    # zero modules have no radical to refuse: one entry per field
    zeros = [Representation(kronecker(), {}, {}, field) for field in (QQ, PrimeField(101))]
    assert [noniso_blocks(z, z) for z in zeros] == [(), ()]
    assert noniso_blocks.cache_info().hits == 0
    assert noniso_blocks.cache_info().currsize == 5


def test_hom_rejects_mixed_presentations(preinj):
    from endoscope.harness import transversal
    from endoscope.reps import dual

    # the presentation and the ground field are both part of hom and iso identity
    for other in (dual(preinj[2]), kronecker_preinjective(2, PrimeField(101))):
        for refused in (hom_basis, hom_dim, are_isomorphic, lambda m, n: transversal([m, n])):
            with pytest.raises(HomalgError):
                refused(preinj[2], other)


@pytest.fixture()
def gaussian_rep():
    # regular-type module whose endomorphism ring is the field Q(i)
    return Representation(
        kronecker(),
        {"1": 2, "2": 2},
        {"alpha": Mat.identity(2), "beta": Mat([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])},
    )


def test_division_algebra_end_ring_is_inconclusive(gaussian_rep):
    ring = end_ring(gaussian_rep)
    assert ring.dim == 2
    assert ring.radical.dim == 0
    assert is_local(ring) is None


def test_indecompose_reports_inconclusive_rather_than_guessing(gaussian_rep):
    with pytest.raises(DecompositionInconclusive):
        indecompose(gaussian_rep)


def test_noniso_subspace_refuses_uncertified_locality(gaussian_rep):
    with pytest.raises(LocalityUnverified):
        noniso_subspace(gaussian_rep, gaussian_rep)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda m: family_endosocle([m]),
        lambda m: noniso_subspace(m, m),
        indecompose,
        lambda m: power_endosocle(m, 2),
        lambda m: radical_profile([m], 3),
    ],
    ids=["family_endosocle", "noniso_subspace", "indecompose", "power_endosocle", "radical_profile"],
)
def test_locality_refusals_name_the_member(gaussian_rep, refuse):
    with pytest.raises(LocalityUnverified) as info:
        refuse(gaussian_rep)
    assert "(2, 2)" in str(info.value)
    assert "dim End/J = 2" in str(info.value)


@pytest.mark.parametrize(
    "refuse",
    [lambda m: noniso_subspace(m, m), lambda m: power_endosocle(m, 2)],
    ids=["noniso_subspace", "power_endosocle"],
)
def test_refusing_a_decomposable_module_searches_no_split(monkeypatch, refuse):
    calls = []
    original = homs._find_split

    def counted(m, ring):
        calls.append(m)
        return original(m, ring)

    monkeypatch.setattr(homs, "_find_split", counted)
    homs.clear_caches()
    m, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2), kronecker_regular(2, 0)])
    with pytest.raises(LocalityUnverified):
        refuse(m)
    assert calls == []
