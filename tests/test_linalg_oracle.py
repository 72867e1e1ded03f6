"""Differential tests of the elimination kernel against sympy.

sympy is a test-only oracle: ``sympy.Matrix.rref`` over the rationals and
``DomainMatrix(..., GF(p)).rref`` over prime fields.  The module is
skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from endoscope.linalg import (  # noqa: E402
    QQ,
    LinalgError,
    Mat,
    PrimeField,
    Subspace,
    invert,
    kernel_basis,
    rref,
    solve,
)

PRIMES = (2, 3, 7, 101)


@st.composite
def sparse_int_grids(draw, max_rows=30, max_cols=40):
    """Integer grids of density at most 0.2, plus a few dependent rows."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    grid = [[0] * cols for _ in range(rows)]
    if rows and cols:
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        values = st.integers(min_value=-9, max_value=9).filter(bool)
        for (i, j), v in draw(st.lists(st.tuples(cells, values), max_size=rows * cols // 5)):
            grid[i][j] = v
        # rows that are combinations of others make the rank deficient
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            a, b = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            grid[draw(st.integers(0, rows - 1))] = [s * x + t * y for x, y in zip(grid[a], grid[b])]
    return rows, cols, grid


def _rhs(data, rows):
    return data.draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))


def _sympy_rational(rows, cols, grid):
    return sympy.Matrix(rows, cols, [v for row in grid for v in row])


def _check_kernel_and_solve(m, sympy_rank, rank_with_rhs, b):
    ker = kernel_basis(m)
    assert ker.dim == m.cols - sympy_rank
    assert (m @ ker.basis).is_zero()
    x = solve(m, b)
    assert (x is None) == (rank_with_rhs > sympy_rank)
    if x is not None:
        assert m.apply(x) == tuple(b)
    return ker, x


@given(sparse_int_grids(), st.data())
@settings(max_examples=50, deadline=None)
def test_rationals_agree_with_sympy(shape_grid, data):
    rows, cols, grid = shape_grid
    m = Mat([[Fraction(v) for v in row] for row in grid], rows, cols)
    oracle = _sympy_rational(rows, cols, grid)
    expected, expected_pivots = oracle.rref()

    red, pivots = rref(m)
    assert pivots == list(expected_pivots)
    assert [list(r) for r in red.entries] == [
        [Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(cols)] for i in range(rows)
    ]
    assert m.rank() == len(expected_pivots)

    b = _rhs(data, rows)
    with_rhs = oracle.row_join(sympy.Matrix(rows, 1, b)).rank() if rows else 0
    ker, x = _check_kernel_and_solve(m, len(expected_pivots), with_rhs, [Fraction(v) for v in b])
    assert red.field == QQ and ker.field == QQ
    # one value format over the rationals: an int, or a Fraction only when not integral
    scalars = [a for r in red.entries + ker.basis.entries for a in r] + list(x or ())
    assert all(type(a) is int or (type(a) is Fraction and a.denominator != 1) for a in scalars)


@given(st.sampled_from(PRIMES), sparse_int_grids(), st.data())
@settings(max_examples=50, deadline=None)
def test_prime_fields_agree_with_sympy(p, shape_grid, data):
    rows, cols, grid = shape_grid
    gf = PrimeField(p)
    m = Mat([[gf.of(v) for v in row] for row in grid], rows, cols, gf)
    dom = sympy.GF(p)
    oracle = DomainMatrix([[dom(v) for v in row] for row in grid], (rows, cols), dom)
    expected, expected_pivots = oracle.rref()
    expected = expected.to_list()

    red, pivots = rref(m)
    assert pivots == list(expected_pivots)
    assert [list(r) for r in red.entries] == [[int(a) % p for a in r] for r in expected]
    assert m.rank() == len(expected_pivots)

    b = _rhs(data, rows)
    augmented = DomainMatrix([[dom(v) for v in row] + [dom(bv)] for row, bv in zip(grid, b)], (rows, cols + 1), dom)
    ker, x = _check_kernel_and_solve(m, len(expected_pivots), augmented.rank(), [gf.of(v) for v in b])
    assert red.field == gf and ker.field == gf
    scalars = [a for r in red.entries + ker.basis.entries for a in r] + list(x or ())
    assert all(type(a) is int and 0 <= a < p for a in scalars)


@given(st.sampled_from((0,) + PRIMES), sparse_int_grids(max_rows=8, max_cols=8))
@settings(max_examples=40, deadline=None)
def test_invert_agrees_with_sympy(p, shape_grid):
    _, n, grid = shape_grid
    grid = (grid + [[0] * n] * n)[:n]
    field = PrimeField(p) if p else QQ
    m = Mat([[field.of(v) for v in row] for row in grid], n, n, field)
    if p:
        dom = sympy.GF(p)
        singular = DomainMatrix([[dom(v) for v in row] for row in grid], (n, n), dom).rank() < n
    else:
        singular = sympy.Matrix(n, n, [v for row in grid for v in row]).rank() < n
    inv = invert(m)
    assert (inv is None) == singular
    if inv is not None:
        one = Mat.identity(n, field)
        assert inv.field == field
        assert m @ inv == one and inv @ m == one


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_empty_shapes(shape, p):
    rows, cols = shape
    field = PrimeField(p) if p else QQ
    m = Mat.zeros(rows, cols, field)
    red, pivots = rref(m)
    assert red == m and pivots == []
    assert m.rank() == 0
    ker = kernel_basis(m)
    assert ker.dim == cols
    assert red.field == field and ker.field == field
    x = solve(m, [0] * rows)
    assert x == (0,) * cols
    # m names its field even without entries, so every zero is the int 0
    scalars = [a for r in ker.basis.entries for a in r] + list(x)
    assert all(type(a) is int and (not p or 0 <= a < p) for a in scalars)


def test_primality_agrees_with_sympy():
    for n in range(2, 10**4 + 1):
        try:
            PrimeField(n)
            accepted = True
        except LinalgError:
            accepted = False
        assert accepted == sympy.isprime(n), n


def _sympy_rank(grid, rows, cols, p):
    if not rows or not cols:
        return 0
    if p:
        dom = sympy.GF(p)
        return DomainMatrix([[dom(v) for v in row] for row in grid], (rows, cols), dom).rank()
    return sympy.Matrix(rows, cols, [v for row in grid for v in row]).rank()


@given(st.sampled_from((0, 101)), st.data())
@settings(max_examples=40, deadline=None)
def test_is_stable_agrees_with_sympy_ranks(p, data):
    # S = span(B) is m-stable iff rank [B | mB] = rank B, for each map m
    field = PrimeField(p) if p else QQ
    n = data.draw(st.integers(min_value=0, max_value=7))
    entry = st.integers(min_value=-4, max_value=4)
    vec = st.lists(entry, min_size=n, max_size=n)
    sub = Subspace.span(n, [[field.of(v) for v in r] for r in data.draw(st.lists(vec, max_size=4))], field)
    grids = data.draw(st.lists(st.lists(vec, min_size=n, max_size=n), max_size=3))
    maps = [Mat([[field.of(v) for v in r] for r in g], n, n, field) for g in grids]
    b = sub.basis
    expected = all(
        _sympy_rank([list(x) + list(y) for x, y in zip(b.entries, (m @ b).entries)], n, 2 * sub.dim, p) == sub.dim
        for m in maps
    )
    assert sub.is_stable(maps) == expected
