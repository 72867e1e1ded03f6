from fractions import Fraction

import pytest

from endoscope.linalg import Mat
from endoscope.quiver import (
    AlgebraElement,
    AlgebraPresentation,
    Path,
    Quiver,
    QuiverError,
    act,
    kronecker,
    multiply,
    trivial_path,
)
from endoscope.reps import kronecker_preinjective


@pytest.fixture(scope="module")
def pres():
    return kronecker()


def test_kronecker_shape(pres):
    assert pres.quiver.vertices == ("1", "2")
    assert [(a.name, a.source, a.target) for a in pres.quiver.arrows] == [
        ("alpha", "1", "2"),
        ("beta", "1", "2"),
    ]
    assert pres.relations == ()


def test_kronecker_path_algebra_dimension(pres):
    assert pres.dimension() == 4


def test_noncomposable_path_rejected(pres):
    with pytest.raises(QuiverError):
        pres.path_element(["alpha", "beta"])


def test_idempotent_identities(pres):
    e1, e2 = pres.trivial("1"), pres.trivial("2")
    al = pres.arrow_element("alpha")
    assert multiply(e1, al).is_zero()
    assert multiply(al, e1) == al
    assert multiply(e2, al) == al
    assert multiply(al, pres.arrow_element("beta")).is_zero()
    assert multiply(al + pres.arrow_element("beta"), e1) == al + pres.arrow_element("beta")


def test_multiply_associative(pres):
    els = [pres.trivial("1"), pres.trivial("2"), pres.arrow_element("alpha"),
           pres.arrow_element("beta"), pres.one(), pres.arrow_element("alpha").scale(Fraction(2, 3))]
    for a in els:
        for b in els:
            for c in els:
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_act_is_algebra_homomorphism(pres):
    rep = kronecker_preinjective(2)
    els = [pres.trivial("1"), pres.trivial("2"), pres.arrow_element("alpha"),
           pres.arrow_element("beta"), pres.arrow_element("alpha") + pres.arrow_element("beta")]
    for a in els:
        for b in els:
            assert act(multiply(a, b), rep) == act(a, rep) @ act(b, rep)
    total = act(pres.trivial("1"), rep) + act(pres.trivial("2"), rep)
    assert total == Mat.identity(rep.total_dim)
    e1 = act(pres.trivial("1"), rep)
    assert e1 @ e1 == e1
    assert e1.rank() == 2


def test_act_arrow_block_placement(pres):
    rep = kronecker_preinjective(2)
    m = act(pres.arrow_element("alpha"), rep)
    # embedded (vertex 2, vertex 1) block equals the arrow matrix
    off1, off2 = rep.offset("1"), rep.offset("2")
    block = [[m[off2 + i, off1 + j] for j in range(2)] for i in range(1)]
    assert Mat(block) == rep.matrix("alpha")
    assert act(pres.zero(), rep).is_zero()


def test_vertex_and_arrow_validation():
    with pytest.raises(QuiverError):
        Quiver(["1", "1"], [])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "2")])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_relations_must_be_admissible(pres):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    bare = AlgebraPresentation(q)
    loop = bare.path_element(["a", "b"])
    AlgebraPresentation(q, [loop])  # length-2 monomial is fine
    with pytest.raises(QuiverError):
        AlgebraPresentation(q, [bare.arrow_element("a")])
    with pytest.raises(QuiverError):
        AlgebraPresentation(q, [bare.trivial("1").scale(2)])


def test_monomial_relation_truncates_products():
    q = Quiver(["1"], [("x", "1", "1")])
    bare = AlgebraPresentation(q)
    pres = AlgebraPresentation(q, [bare.path_element(["x", "x"])])
    x = pres.arrow_element("x")
    assert not multiply(x, pres.trivial("1")).is_zero()
    assert multiply(x, x).is_zero()
    assert pres.dimension() == 2  # e_1 and x


def test_infinite_path_space_detected():
    q = Quiver(["1"], [("x", "1", "1")])
    pres = AlgebraPresentation(q)
    with pytest.raises(QuiverError):
        pres.paths(max_length=16)


def test_opposite_round_trip(pres):
    opp = pres.opposite()
    assert opp.quiver.arrow("alpha").source == "2"
    assert opp.opposite() == pres


def test_path_repr_and_reverse():
    p = Path("1", "2", ("alpha",))
    assert p.reverse() == Path("2", "1", ("alpha",))
    assert trivial_path("1").is_trivial()


def test_algebra_coefficients_are_exact_values(pres):
    from endoscope.linalg import LinalgError

    alpha = pres.arrow_element("alpha")
    path = next(iter(alpha.terms))
    # a float is refused where a matrix entry's would be, not stored as a binary fraction
    for bad in (0.1, 0.5, True):
        with pytest.raises(LinalgError):
            alpha.scale(bad)
        with pytest.raises(LinalgError):
            AlgebraElement(pres, {path: bad})
    half = alpha.scale(Fraction(1, 2))
    assert half.terms == {path: Fraction(1, 2)}
    # integral values are ints, as in Mat; equality and hashing are unchanged
    doubled = (half + half).scale(Fraction(4, 2))
    assert [type(c) for c in doubled.terms.values()] == [int]
    assert doubled == alpha.scale(2) and hash(doubled) == hash(alpha.scale(Fraction(2)))
    assert all(type(c) is int for c in pres.one().terms.values())
