"""Hypothesis checks of the structural invariants on random small
Kronecker representations."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from endoscope.homs import end_ring, hom_basis, hom_dim
from endoscope.linalg import Mat
from endoscope.quiver import kronecker
from endoscope.reps import Representation, direct_sum, dual, socle
from oracles import multiply_coords

entries = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def kronecker_reps(draw, max_dim=3):
    d1 = draw(st.integers(min_value=0, max_value=max_dim))
    d2 = draw(st.integers(min_value=0, max_value=max_dim))
    if d1 + d2 == 0:
        d1 = 1
    def mat():
        return Mat(
            [[draw(entries) for _ in range(d1)] for _ in range(d2)], d2, d1
        )
    return Representation(kronecker(), {"1": d1, "2": d2}, {"alpha": mat(), "beta": mat()})


@given(kronecker_reps(), kronecker_reps())
@settings(max_examples=40, deadline=None)
def test_hom_basis_commutes_exactly(m, n):
    for f in hom_basis(m, n).basis:
        for a in ("alpha", "beta"):
            assert f.block("2") @ m.matrix(a) == n.matrix(a) @ f.block("1")


@given(kronecker_reps(), kronecker_reps())
@settings(max_examples=30, deadline=None)
def test_hom_dim_is_duality_invariant(m, n):
    assert hom_dim(m, n) == hom_dim(dual(n), dual(m))


@given(kronecker_reps())
@settings(max_examples=30, deadline=None)
def test_socle_kills_arrows(rep):
    s = socle(rep)
    assert s.is_arrow_closed(rep)
    for a in ("alpha", "beta"):
        assert s.space("1").image(rep.matrix(a)).dim == 0


@given(kronecker_reps(max_dim=2), kronecker_reps(max_dim=2))
@settings(max_examples=20, deadline=None)
def test_end_dim_of_sum_formula(m, n):
    total, _, _ = direct_sum([m, n])
    assert (
        end_ring(total).dim
        == end_ring(m).dim + end_ring(n).dim + hom_dim(m, n) + hom_dim(n, m)
    )


@given(kronecker_reps(max_dim=2))
@settings(max_examples=20, deadline=None)
def test_radical_of_end_is_nilpotent_ideal(rep):
    ring = end_ring(rep)
    rad = ring.radical
    k = ring.dim
    units = [tuple(Fraction(1 if t == i else 0) for t in range(k)) for i in range(k)]
    for x in rad.vectors():
        for u in units:
            assert rad.contains(multiply_coords(ring, x, u))
            assert rad.contains(multiply_coords(ring, u, x))
