"""The minimal polynomial of the Fitting split search against sympy, and the
work the split search does.

``homs._minimal_polynomial`` reads the first linear dependence among the
flats of 1, g, g^2, ... from one kept ``linalg._eliminate`` echelon.  On the
one-vertex quiver with no arrows every square matrix is an endomorphism, so
drawn matrices over QQ, GF(2), GF(3) and GF(101) are checked against an
oracle that works in sympy's ``DomainMatrix`` alone: the polynomial is monic
and annihilates the matrix, its degree is the rank of the flattened I, A,
A^2, ..., it divides the characteristic polynomial and has the same roots in
the field.  sympy is a test-only tool: skipped when not installed.

The work pins count, during ``indecompose`` of three sums and with End and J
solved first, the root searches, the degrees of the polynomials searched and
the ``Mat`` products; the summands must be those of the first search
(``oracles.split_by_basis_morphisms``), which reads the characteristic
polynomial of every vertex block.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from endoscope import homs  # noqa: E402
from endoscope.linalg import QQ, Mat, PrimeField, invert  # noqa: E402
from endoscope.quiver import AlgebraPresentation, Quiver  # noqa: E402
from endoscope.reps import Morphism, Representation  # noqa: E402
from endoscope.reps import kronecker_preinjective as I, kronecker_regular as R  # noqa: E402
from test_fitting_oracle import _by_oracle, _conjugate, _sum  # noqa: E402

_POINT = AlgebraPresentation(Quiver(["1"], []))
_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(101))


def minimal_polynomial(a: Mat) -> list:
    """``homs._minimal_polynomial`` of a square matrix, an endomorphism of the
    module it acts on at the one vertex of a quiver with no arrows."""
    m = Representation(_POINT, {"1": a.rows}, {}, a.field)
    return homs._minimal_polynomial(m, Morphism(m, m, {"1": a}).flatten(), Morphism.identity(m).flatten())


def _domain(field):
    return sympy.QQ if field == QQ else sympy.GF(field.characteristic)


def _element(dom, c):
    c = Fraction(c)
    return dom(c.numerator) / dom(c.denominator)


def _poly(coeffs, dom):
    """The sympy polynomial with coefficients [c_0, ..., c_n], lowest first, in ``dom``."""
    return sympy.Poly([_element(dom, c) for c in reversed(coeffs)], sympy.Symbol("x"), domain=dom)


def _roots(poly, field) -> set:
    roots = poly.ground_roots()
    return set(roots) if field == QQ else {int(r) % field.characteristic for r in roots}


@st.composite
def square_matrices(draw):
    """A square matrix B + C (block diagonal), C often a copy of B so that the
    minimal polynomial is a proper divisor, conjugated by a unit upper
    triangular S."""
    field = draw(st.sampled_from(_FIELDS))
    values = [0, 0, 1, -1, 2] + ([Fraction(1, 2), Fraction(-2, 3)] if field == QQ else [])

    def grid(k):
        return [[field.of(draw(st.sampled_from(values))) for _ in range(k)] for _ in range(k)]

    b = grid(draw(st.integers(1, 3)))
    c = b if draw(st.booleans()) else grid(draw(st.integers(0, 3)))
    n = len(b) + len(c)
    a = [row + [0] * len(c) for row in b] + [[0] * len(b) + row for row in c]
    s = [[1 if i == j else field.of(draw(st.sampled_from([0, 1, -1]))) if i < j else 0 for j in range(n)] for i in range(n)]
    s = Mat(s, field=field)
    return s @ Mat(a, field=field) @ invert(s)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_minimal_polynomial_matches_sympy(a):
    field, n = a.field, a.rows
    dom = _domain(field)
    coeffs = minimal_polynomial(a)
    assert coeffs[-1] == 1
    matrix = DomainMatrix([[_element(dom, x) for x in row] for row in a.entries], (n, n), dom)
    powers = [DomainMatrix.eye(n, dom)]
    for _ in range(n):
        powers.append(matrix * powers[-1])
    # monic and annihilates the matrix
    total = DomainMatrix.zeros((n, n), dom)
    for c, power in zip(coeffs, powers):
        total += power * _element(dom, c)
    assert total.is_zero_matrix
    # its degree is the rank of the flattened I, A, A^2, ... (Cayley-Hamilton: up to A^n)
    flats = DomainMatrix([[x for row in p.to_list() for x in row] for p in powers], (n + 1, n * n), dom)
    assert len(coeffs) - 1 == flats.rank()
    # it divides the characteristic polynomial and has its roots in the field
    minimal, characteristic = _poly(coeffs, dom), sympy.Poly(matrix.charpoly(), sympy.Symbol("x"), domain=dom)
    assert characteristic.rem(minimal).is_zero
    assert _roots(minimal, field) == _roots(characteristic, field)
    if field == QQ:
        # the lam the split search tries are those roots
        assert homs._rational_roots(coeffs) == sorted(Fraction(int(r.p), int(r.q)) for r in _roots(minimal, field))


def test_unipotent_jordan_block_over_gf2():
    # (x + 1)^3 = x^3 + x^2 + x + 1; Faddeev-LeVerrier (``oracles.charpoly``),
    # which divides by 2 and 3 here, gives x^3 - x^2 = [0, 0, -1, 1]
    block = Mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]], field=PrimeField(2))
    assert minimal_polynomial(block) == [1, 1, 1, 1]
    assert minimal_polynomial(Mat(block.entries)) == [-1, 3, -3, 1]  # over QQ, (x - 1)^3


@pytest.mark.parametrize(
    "parts, conjugated, degrees",
    [
        ([I(1), I(2), I(3)], False, [2, 2]),
        ([I(1), I(2), I(3)], True, [3, 2]),
        ([R(2, 0), R(2, 0), I(1)], False, [2, 2]),
    ],
    ids=["I1+I2+I3", "conjugate-I1+I2+I3", "R2(0)+R2(0)+I1"],
)
def test_split_search_work(monkeypatch, parts, conjugated, degrees):
    # the characteristic polynomial of every vertex block made 4 root searches
    # on each (degrees 6, 3, 5, 3 / 6, 3, 5, 3 / 5, 4, 3, 2) and 45 / 45 / 42 products
    m = _sum(parts)
    if conjugated:
        m = _conjugate(m)
    homs.clear_caches()
    homs.end_ring(m).radical
    searched, products = [], [0]
    roots, matmul = homs._rational_roots, Mat.__matmul__

    def counted_roots(coeffs):
        searched.append(len(coeffs) - 1)
        return roots(coeffs)

    def counted_matmul(a, b):
        products[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(homs, "_rational_roots", counted_roots)
    monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
    summands = homs.indecompose(m)
    monkeypatch.undo()
    assert searched == degrees
    assert products[0] == 28
    assert summands == _by_oracle(m)
    homs.clear_caches()
