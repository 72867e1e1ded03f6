"""The isomorphism certificate of ``are_isomorphic``.

When End(m) or End(n) is local, m and n are isomorphic iff some basis
element of Hom(m, n) is an isomorphism; otherwise the indecomposable
summands are matched by that test (Krull-Schmidt).  The oracle here is
the criterion for local m: m = n iff the dimension vectors agree and
some basis pair f in Hom(m, n), g in Hom(n, m) has g f outside J(End m).
"""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from endoscope import homs
from endoscope.cli import main
from endoscope.harness import length_bounded_kronecker_family, transversal
from endoscope.homs import (
    DecompositionInconclusive,
    are_isomorphic,
    end_ring,
    hom_basis,
    is_isomorphism,
    is_local,
)
from endoscope.linalg import Mat, invert
from endoscope.quiver import kronecker
from endoscope.reps import (
    Morphism,
    Representation,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
    simple,
)
from endoscope.serialize import presentation_to_json, representation_to_json
from test_properties import kronecker_reps

K = kronecker()
S1, S2 = simple(K, "1"), simple(K, "2")
I1, I2 = kronecker_preinjective(1), kronecker_preinjective(2)
P2 = kronecker_preprojective(2)
R10, R11, R12 = (kronecker_regular(1, lam) for lam in (0, 1, 2))
R20 = kronecker_regular(2, 0)


def dsum(*parts):
    return direct_sum(list(parts))[0]


def unitriangular_change(size, below, above):
    """A fixed invertible matrix: lower times upper unitriangular."""
    lower = Mat([[Fraction(1 if i == j else below if i > j else 0) for j in range(size)] for i in range(size)], size, size)
    upper = Mat([[Fraction(1 if i == j else above if i < j else 0) for j in range(size)] for i in range(size)], size, size)
    return lower @ upper


def conjugate(rep, change):
    """The copy of rep under the base change ``change[v]`` at each vertex v."""
    return Representation(
        rep.presentation,
        rep.dims_by_vertex,
        {a.name: change[a.target] @ rep.matrix(a.name) @ invert(change[a.source]) for a in rep.presentation.quiver.arrows},
        rep.field,
    )


def fixed_conjugate(rep):
    return conjugate(rep, {"1": unitriangular_change(rep.dim("1"), 2, 1), "2": unitriangular_change(rep.dim("2"), -1, 3)})


def gaussian():
    # End = Q(i): indecomposable, but End/J has dimension 2
    return Representation(
        K, {"1": 2, "2": 2}, {"alpha": Mat.identity(2), "beta": Mat([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])}
    )


def criterion_iso(m, n) -> bool:
    """m = n for local m, by the basis-pair criterion with J tested in End(m) coordinates."""
    if m.dim_vector != n.dim_vector:
        return False
    ring = end_ring(m)
    return any(
        not ring.radical.contains(ring.hom.coordinates(g.compose(f)))
        for f in hom_basis(m, n).basis
        for g in hom_basis(n, m).basis
    )


def assert_basis_witness(cert, m, n):
    assert cert.status == "iso"
    assert cert.witness in hom_basis(m, n).basis
    assert cert.witness.compose(cert.inverse) == Morphism.identity(n)
    assert cert.inverse.compose(cert.witness) == Morphism.identity(m)


# Equal dimension vectors and nonzero homs both ways, local against decomposable:
# no basis element is an isomorphism, and nothing else is searched.
GUESSED = {
    "I2|S1+S1+S2": (I2, (S1, S1, S2)),
    "I2|I1+R1(0)": (I2, (I1, R10)),
    "P2|S1+S2+S2": (P2, (S1, S2, S2)),
    "R2(0)|R1(0)+R1(1)": (R20, (R10, R11)),
    "R2(0)|R1(0)^2": (R20, (R10, R10)),
    "R2(0)|S1+R1(0)+S2": (R20, (S1, R10, S2)),
    "R2(0)|I2+S2": (R20, (I2, S2)),
    "R2(0)|P2+S1": (R20, (P2, S1)),
}


@pytest.mark.parametrize("local, parts", GUESSED.values(), ids=GUESSED.keys())
def test_local_against_decomposable_is_certified_no(local, parts):
    other = dsum(*parts)
    assert local.dim_vector == other.dim_vector
    assert hom_basis(local, other).dim and hom_basis(other, local).dim
    for m, n in ((local, other), (other, local)):
        cert = are_isomorphic(m, n)
        assert cert.status == "certified_no"
        assert cert.witness is None


def test_iso_by_a_forward_basis_element_solves_no_reverse_system():
    # End(I3) = Q, so the one basis map of Hom(I3, I3') is the isomorphism;
    # a verified isomorphism needs no Hom(I3', I3)
    i3 = kronecker_preinjective(3)
    homs.clear_caches()
    assert_basis_witness(are_isomorphic(i3, fixed_conjugate(i3)), i3, fixed_conjugate(i3))
    assert hom_basis.cache_info().currsize == 1


def test_decomposable_base_change_is_matched_by_summands():
    m = dsum(I1, I2, R20)
    n = fixed_conjugate(m)
    assert m != n
    assert not any(is_isomorphism(f) for f in hom_basis(m, n).basis)
    cert = are_isomorphic(m, n)
    assert cert.status == "iso"
    assert cert.witness is None and cert.inverse is None


def test_split_search_runs_once_per_ring(monkeypatch):
    # is_local and indecompose both ask the same cached ring for its split
    calls = Counter()
    original = homs._find_split

    def counted(m, ring):
        calls[id(ring)] += 1
        return original(m, ring)

    monkeypatch.setattr(homs, "_find_split", counted)
    homs.clear_caches()
    m = dsum(I1, I2, R20)
    assert are_isomorphic(m, fixed_conjugate(m)).status == "iso"
    assert calls and max(calls.values()) == 1


def test_decomposables_with_one_unmatched_summand_are_certified_no():
    m, n = dsum(R10, R11), dsum(R10, R12)
    assert hom_basis(m, n).dim and hom_basis(n, m).dim
    assert are_isomorphic(m, n).status == "certified_no"
    assert are_isomorphic(n, m).status == "certified_no"


def test_transversal_of_decomposables():
    a = dsum(R10, R11)
    report = transversal([a, dsum(R10, R12), fixed_conjugate(a)])
    assert report.labels == (0, 1)
    assert report.multiplicities == {0: 2, 1: 1}


def test_summand_with_number_field_end_is_refused(capsys, tmp_path):
    m, n = dsum(gaussian(), R10), dsum(R10, gaussian())
    with pytest.raises(DecompositionInconclusive):
        are_isomorphic(m, n)
    family_path = tmp_path / "family.json"
    family_path.write_text(
        json.dumps(
            {
                "algebra": presentation_to_json(K),
                "members": [representation_to_json(r, include_algebra=False) for r in (m, n)],
            }
        )
    )
    code = main(["transversal", "--family", "file", "--file", str(family_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("inconclusive: ")
    assert captured.out == ""


nonzero = st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction)
small = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def base_change(draw, size):
    """An invertible size x size matrix: lower unitriangular, diagonal, upper unitriangular."""
    lower = [[Fraction(1) if i == j else draw(small) if i > j else Fraction(0) for j in range(size)] for i in range(size)]
    upper = [[draw(nonzero) if i == j else draw(small) if i < j else Fraction(0) for j in range(size)] for i in range(size)]
    return Mat(lower, size, size) @ Mat(upper, size, size)


@given(kronecker_reps(max_dim=2), st.data())
@settings(max_examples=60, deadline=None)
def test_base_change_is_always_iso(m, data):
    n = conjugate(m, {v: data.draw(base_change(m.dim(v))) for v in ("1", "2")})
    cert = are_isomorphic(m, n)
    assert cert.status == "iso"
    if m != n and is_local(end_ring(m)) is True:
        assert_basis_witness(cert, m, n)


@given(kronecker_reps(max_dim=2), kronecker_reps(max_dim=2), st.data())
@settings(max_examples=60, deadline=None)
def test_certificate_agrees_with_basis_pair_criterion(m, other, data):
    assume(is_local(end_ring(m)) is True)
    conj = conjugate(m, {v: data.draw(base_change(m.dim(v))) for v in ("1", "2")})
    for n in (conj, other):
        cert = are_isomorphic(m, n)
        assert (cert.status == "iso") == criterion_iso(m, n)
        if cert and m != n:
            assert_basis_witness(cert, m, n)


def test_certificate_agrees_with_criterion_on_small_indecomposables():
    members, _ = length_bounded_kronecker_family(3)
    pool = members + [fixed_conjugate(m) for m in members]
    for m in pool:
        for n in pool:
            cert = are_isomorphic(m, n)
            assert (cert.status == "iso") == criterion_iso(m, n)
            if cert and m != n:
                assert_basis_witness(cert, m, n)
