"""Canonical form of the sparse ``Mat``, and its arithmetic against sympy.

A ``Mat`` stores no zeros, so a matrix built from a dense grid and the
same matrix reached by arithmetic must be equal and hash equal.  The
arithmetic (``@``, ``+``, ``hstack``/``vstack``, ``assemble``) and
``Subspace.contains`` are compared with sympy's ``DomainMatrix`` over
QQ and GF(p); those tests are skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endoscope.linalg import QQ, Mat, PrimeField, Subspace, assemble

try:
    import sympy
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # sympy is a test-only oracle
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is the oracle")

FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(101))
small = st.integers(-4, 4)
dims = st.integers(0, 5)


@st.composite
def grids(draw, field, rows, cols):
    """A rows x cols grid of values of ``field``, mostly zeros like the matrices in use."""
    raw = st.builds(Fraction, small, st.integers(1, 3)) if field == QQ else small
    value = st.one_of(st.just(0), st.just(0), raw).map(field.of)
    return draw(st.lists(st.lists(value, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def mats(data, field, rows, cols):
    return Mat(data.draw(grids(field, rows, cols)), rows, cols, field)


def _same(a, b):
    return a == b and hash(a) == hash(b)


@given(st.sampled_from(FIELDS), dims, dims, st.data())
@settings(max_examples=80, deadline=None)
def test_arithmetic_reaches_the_grid_built_matrix(field, rows, cols, data):
    grid = data.draw(grids(field, rows, cols))
    a, b = Mat(grid, rows, cols, field), mats(data, field, rows, cols)
    zero = Mat.zeros(rows, cols, field)
    assert a.entries == tuple(map(tuple, grid))
    assert _same(Mat(a.entries, rows, cols, field), a)
    assert _same((a + b) - b, a)
    assert _same(a - a, zero) and (a - a).is_zero()
    assert _same(a.scale(0), zero)
    assert _same(a.transpose().transpose(), a)
    scalars = [x for row in ((a + b) - b).entries for x in row]
    assert all(type(x) is int or (field == QQ and type(x) is Fraction and x.denominator != 1) for x in scalars)


@given(st.sampled_from(FIELDS), dims, dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_transpose_reverses_products(field, rows, inner, cols, data):
    a, b = mats(data, field, rows, inner), mats(data, field, inner, cols)
    assert _same((a @ b).transpose(), b.transpose() @ a.transpose())


# -- sympy as the oracle -------------------------------------------------------


def _domain(field):
    return sympy.GF(field.characteristic) if field.characteristic else sympy.QQ


def _oracle(m: Mat):
    dom = _domain(m.field)
    conv = dom if m.field.characteristic else (lambda x: dom(x.numerator, x.denominator))
    return DomainMatrix([[conv(x) for x in row] for row in m.entries], m.shape, dom)


def _back(dm, field) -> tuple:
    """The entries of a DomainMatrix in the field's value format."""
    p = field.characteristic
    values = [[dm.domain.to_sympy(x) for x in row] for row in dm.to_list()]
    return tuple(tuple(int(v) % p if p else field.of(Fraction(int(v.p), int(v.q))) for v in row) for row in values)


def _placed(block: Mat, roff: int, coff: int, rows: int, cols: int):
    """The block placed at (roff, coff) of a rows x cols zero matrix, as E_r @ B @ E_c in sympy."""
    dom = _domain(block.field)
    left = [[dom(int(r == roff + i)) for i in range(block.rows)] for r in range(rows)]
    right = [[dom(int(c == coff + j)) for c in range(cols)] for j in range(block.cols)]
    return DomainMatrix(left, (rows, block.rows), dom) * _oracle(block) * DomainMatrix(right, (block.cols, cols), dom)


positive = st.integers(1, 5)


@needs_sympy
@given(st.sampled_from(FIELDS), positive, positive, positive, st.data())
@settings(max_examples=60, deadline=None)
def test_products_sums_and_stacks_agree_with_sympy(field, r, k, c, data):
    a, a2 = mats(data, field, r, k), mats(data, field, r, k)
    b, b2 = mats(data, field, k, c), mats(data, field, r, c)
    assert (a @ b).entries == _back(_oracle(a) * _oracle(b), field)
    assert (a + a2).entries == _back(_oracle(a) + _oracle(a2), field)
    assert (a - a2).entries == _back(_oracle(a) - _oracle(a2), field)
    assert a.hstack(b2).entries == _back(_oracle(a).hstack(_oracle(b2)), field)
    at, bt = a.transpose(), b2.transpose()
    assert at.vstack(bt).entries == _back(_oracle(at).vstack(_oracle(bt)), field)


@needs_sympy
@given(st.sampled_from(FIELDS), st.integers(1, 7), st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_assemble_agrees_with_sympy(field, rows, cols, data):
    placed = []
    for _ in range(data.draw(st.integers(0, 4))):
        br, bc = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
        roff, coff = data.draw(st.integers(0, rows - br)), data.draw(st.integers(0, cols - bc))
        placed.append((roff, coff, mats(data, field, br, bc)))
    got = assemble(rows, cols, placed, field)
    want = DomainMatrix.zeros((rows, cols), _domain(field))
    for roff, coff, block in placed:
        want = want + _placed(block, roff, coff, rows, cols)
    assert got.entries == _back(want, field)
    assert _same(got, Mat(got.entries, rows, cols, field))


@needs_sympy
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_contains_agrees_with_sympy(field, n, count, data):
    vecs = data.draw(grids(field, count, n))
    sub = Subspace.span(n, vecs, field)
    coeffs = [field.of(data.draw(small)) for _ in vecs]
    combination = tuple(field.of(sum(c * v[i] for c, v in zip(coeffs, vecs))) for i in range(n))
    other = tuple(data.draw(grids(field, 1, n))[0])
    rank = _oracle(Mat(vecs, count, n, field)).rank() if vecs else 0
    for vec in (combination, other):
        with_vec = _oracle(Mat(vecs + [list(vec)], count + 1, n, field)).rank()
        assert sub.contains(vec) is (with_vec == rank)
    assert sub.contains(combination)
