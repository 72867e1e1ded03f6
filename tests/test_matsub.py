import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endoscope.homs import hom_basis
from endoscope.linalg import QQ, LinalgError, Mat, PrimeField, Subspace
from endoscope.matsub import (
    MatrixSubgroupError,
    PointedMatrix,
    check_endo_invariant,
    evaluate,
    image_subgroup,
    meet,
    random_pointed_matrix,
)
from endoscope.quiver import act, kronecker
from endoscope.reps import direct_sum, kronecker_preinjective, kronecker_preprojective, zero_representation
from oracles import endo_invariant_by_images, stable_by_products

FIELDS = (QQ, PrimeField(101))


@pytest.fixture(scope="module")
def pres():
    return kronecker()


@pytest.fixture(scope="module")
def carrier():
    total, _, _ = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    return total


def preinjective_sum(top, field):
    """I_1 + ... + I_top over the field."""
    return direct_sum([kronecker_preinjective(n, field) for n in range(1, top + 1)])[0]


@pytest.fixture(scope="module")
def small_carriers():
    return {field: preinjective_sum(3, field) for field in FIELDS}


def test_evaluate_identity_element_gives_zero(pres):
    i2 = kronecker_preinjective(2)
    pm = PointedMatrix.of([[pres.one()]], 0)
    assert evaluate(pm, i2).dim == 0


def test_evaluate_zero_element_gives_everything(pres):
    i2 = kronecker_preinjective(2)
    pm = PointedMatrix.of([[pres.zero()]], 0)
    assert evaluate(pm, i2) == Subspace.full(3)


def test_evaluate_arrow_annihilator(pres):
    i2 = kronecker_preinjective(2)
    pm = PointedMatrix.of([[pres.arrow_element("alpha")]], 0)
    sub = evaluate(pm, i2)
    assert sub.dim == 2
    # kernel of the alpha action: one dimension at each vertex block
    mat = act(pres.arrow_element("alpha"), i2)
    for v in sub.vectors():
        assert not any(mat.apply(v))


def test_image_subgroup_two_routes(pres):
    i2 = kronecker_preinjective(2)
    for el in (pres.one(), pres.zero(), pres.arrow_element("alpha"),
               pres.arrow_element("alpha") + pres.arrow_element("beta")):
        via_pm = image_subgroup(el, i2)
        column_space = Subspace(i2.total_dim, act(el, i2))
        assert via_pm == column_space
    assert image_subgroup(pres.one(), i2) == Subspace.full(3)
    assert image_subgroup(pres.zero(), i2).dim == 0
    assert image_subgroup(pres.arrow_element("alpha"), i2).dim == 1


def test_random_subgroups_are_endo_invariant(pres, carrier):
    rng = random.Random(11)
    for _ in range(100):
        pm = random_pointed_matrix(pres, rng)
        sub = evaluate(pm, carrier)
        assert check_endo_invariant(sub, carrier)


def test_non_invariant_line_detected(carrier):
    v = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    line = Subspace.span(carrier.total_dim, [v])
    assert not check_endo_invariant(line, carrier)
    assert check_endo_invariant(Subspace.full(carrier.total_dim), carrier)
    # the same line over GF(101)
    gf = PrimeField(101)
    rep = preinjective_sum(2, gf)
    line = Subspace.span(rep.total_dim, [[1, 1, 0, 0]], gf)
    assert not check_endo_invariant(line, rep)
    assert not endo_invariant_by_images(line, rep)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_and_full_subgroups_are_invariant(field):
    rep = preinjective_sum(3, field)
    assert check_endo_invariant(Subspace.zero(rep.total_dim, field), rep)
    assert check_endo_invariant(Subspace.full(rep.total_dim, field), rep)


def test_invariance_on_the_zero_representation(pres):
    zero = zero_representation(pres)
    sub = evaluate(PointedMatrix.of([[pres.arrow_element("alpha")]], 0), zero)
    assert sub.ambient_dim == 0
    assert check_endo_invariant(sub, zero)


def test_invariance_refuses_a_subspace_over_another_field_or_ambient():
    gf = PrimeField(101)
    rep = preinjective_sum(2, gf)
    for sub in (Subspace.span(4, [[1, 1, 0, 0]]), Subspace.zero(4), Subspace.full(4)):
        with pytest.raises(LinalgError):
            check_endo_invariant(sub, rep)
    with pytest.raises(MatrixSubgroupError):
        check_endo_invariant(Subspace.full(3, gf), rep)


@given(field=st.sampled_from(FIELDS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_invariance_agrees_with_image_subspaces(small_carriers, field, data):
    rep = small_carriers[field]
    n = rep.total_dim
    if data.draw(st.booleans()):
        pm = random_pointed_matrix(rep.presentation, random.Random(data.draw(st.integers(0, 2**32))))
        sub = evaluate(pm, rep)
    else:
        vec = st.lists(st.integers(min_value=-2, max_value=2).map(field.of), min_size=n, max_size=n)
        sub = Subspace.span(n, data.draw(st.lists(vec, max_size=4)), field)
    assert check_endo_invariant(sub, rep) == endo_invariant_by_images(sub, rep)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invariance_on_five_preinjectives_agrees_with_image_subspaces(pres, field):
    # the carrier of the gf-homs benchmark; random lines and planes are almost never invariant
    rep = preinjective_sum(5, field)
    n = rep.total_dim
    rng = random.Random(13)
    outcomes = set()
    for _ in range(10):
        span = [[field.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        for sub in (evaluate(random_pointed_matrix(pres, rng), rep), Subspace.span(n, span, field)):
            stable = check_endo_invariant(sub, rep)
            assert stable == endo_invariant_by_images(sub, rep)
            outcomes.add(stable)
    assert outcomes == {True, False}


def summands(parts):
    """The direct sum of ``parts`` and the subspaces its summands span in its total space."""
    total, embeddings, _ = direct_sum(parts)
    return total, [Subspace(total.total_dim, e.total_mat()) for e in embeddings]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_stability_by_columns_agrees_with_products_on_five_preinjectives(pres, field):
    # the summand I_k of I1+...+I5 is moved by the maps I_k -> I_j, j < k: only I_1 stays
    rep, parts = summands([kronecker_preinjective(n, field) for n in range(1, 6)])
    n = rep.total_dim
    maps = [f.total_mat() for f in hom_basis(rep, rep).basis]
    rng = random.Random(17)
    subs = [Subspace.zero(n, field), Subspace.full(n, field)] + parts
    subs += [evaluate(random_pointed_matrix(pres, rng), rep) for _ in range(15)]
    for _ in range(10):
        span = [[field.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        subs.append(Subspace.span(n, span, field))
    outcomes = [sub.is_stable(maps) for sub in subs]
    assert outcomes == [stable_by_products(sub, maps) for sub in subs]
    assert outcomes[:7] == [True, True, True, False, False, False, False]
    assert all(outcomes[7:22]) and set(outcomes) == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_summand_i2_of_i1_plus_i2_is_not_invariant(field):
    # Hom(I2, I1) != 0 moves the summand I2 into I1; Hom(I1, I2) = 0 keeps I1
    rep, (i1, i2) = summands([kronecker_preinjective(1, field), kronecker_preinjective(2, field)])
    maps = [f.total_mat() for f in hom_basis(rep, rep).basis]
    assert not check_endo_invariant(i2, rep) and not stable_by_products(i2, maps)
    assert check_endo_invariant(i1, rep) and stable_by_products(i1, maps)


def test_stability_refuses_a_map_over_another_field_or_not_square():
    gf = PrimeField(101)
    rep, (i1, i2) = summands([kronecker_preinjective(1, gf), kronecker_preinjective(2, gf)])
    n = rep.total_dim
    for sub in (i1, i2, Subspace.zero(n, gf), Subspace.full(n, gf)):
        for bad in (Mat.identity(n), Mat.zeros(n, n + 1, gf)):
            for stable in (sub.is_stable, lambda maps: stable_by_products(sub, maps)):
                with pytest.raises(LinalgError):
                    stable([Mat.identity(n, gf), bad])


def test_evaluate_distributes_over_direct_sums(pres):
    parts = [kronecker_preprojective(2), kronecker_preinjective(2)]
    total, embs, _ = direct_sum(parts)
    rng = random.Random(23)
    for _ in range(40):
        pm = random_pointed_matrix(pres, rng)
        expected = Subspace.zero(total.total_dim)
        for part, emb in zip(parts, embs):
            expected = expected.add(evaluate(pm, part).image(emb.total_mat()))
        assert expected == evaluate(pm, total)


def test_meet(pres):
    i2 = kronecker_preinjective(2)
    full = Subspace.full(3)
    ann_a = evaluate(PointedMatrix.of([[pres.arrow_element("alpha")]], 0), i2)
    ann_b = evaluate(PointedMatrix.of([[pres.arrow_element("beta")]], 0), i2)
    assert meet([ann_a]) == ann_a
    assert meet([full, ann_a]) == ann_a
    both = meet([ann_a, ann_b])
    # common kernel of both arrow actions: only the vertex-2 block survives
    assert both.dim == 1
    with pytest.raises(MatrixSubgroupError):
        meet([])


def test_descending_chain_by_appending_rows(pres):
    i2 = kronecker_preinjective(2)
    pm = PointedMatrix.of([[pres.arrow_element("alpha")]], 0)
    previous = evaluate(pm, i2)
    for el in (pres.arrow_element("beta"), pres.trivial("1")):
        pm = pm.append_row([el])
        current = evaluate(pm, i2)
        assert previous.contains_subspace(current)
        previous = current


def test_pointed_matrix_validation(pres):
    with pytest.raises(MatrixSubgroupError):
        PointedMatrix.of([[pres.one()]], 5)
    with pytest.raises(MatrixSubgroupError):
        PointedMatrix.of([[pres.one()], [pres.one(), pres.zero()]], 0)


def test_random_generator_is_seed_deterministic(pres):
    a = random_pointed_matrix(pres, random.Random(5))
    b = random_pointed_matrix(pres, random.Random(5))
    assert a == b
