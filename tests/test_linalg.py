import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endoscope import linalg
from endoscope.linalg import (
    QQ,
    LinalgError,
    Mat,
    PrimeField,
    Subspace,
    field_from_name,
    intersect,
    intersect_all,
    kernel_basis,
    primitive_row,
    rref,
    scalar_from_str,
    scalar_to_str,
    solve,
)
from oracles import preimage, reduce_by_columns, stable_by_images, stable_by_products


def F(x, y=1):
    return Fraction(x, y)


def mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


small_entries = st.integers(min_value=-5, max_value=5).map(Fraction)
small_mats = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
        ).map(Mat)
    )
)


def test_rref_identity():
    m = Mat.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1]


def test_rref_rank_one():
    red, pivots = rref(mat([[1, 2], [2, 4]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_zero():
    m = Mat.zeros(3, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == []


def test_kernel_identity_is_zero():
    assert kernel_basis(Mat.identity(2)).dim == 0


def test_kernel_rank_one():
    ker = kernel_basis(mat([[1, 2], [2, 4]]))
    assert ker.dim == 1
    assert ker == Subspace.span(2, [(F(-2), F(1))])


def test_kernel_zero_matrix_is_full():
    ker = kernel_basis(Mat.zeros(2, 3))
    assert ker == Subspace.full(3)


def test_solve_identity():
    b = (F(3), F(-7))
    assert solve(Mat.identity(2), b) == b


def test_solve_consistent_underdetermined():
    m = mat([[1, 2], [2, 4]])
    x = solve(m, (F(1), F(2)))
    assert x is not None
    assert m.apply(x) == (F(1), F(2))


def test_solve_inconsistent():
    assert solve(mat([[1, 2], [2, 4]]), (F(1), F(3))) is None


def test_intersect_self():
    x = Subspace.span(3, [(F(1), F(0), F(2)), (F(0), F(1), F(1))])
    assert intersect(x, x) == x


def test_intersect_transverse_lines():
    e1 = Subspace.span(2, [(F(1), F(0))])
    e2 = Subspace.span(2, [(F(0), F(1))])
    assert intersect(e1, e2).dim == 0


def test_intersect_planes():
    a = Subspace.span(3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    b = Subspace.span(3, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert intersect(a, b) == Subspace.span(3, [(F(0), F(1), F(0))])


def test_intersect_ambient_mismatch():
    with pytest.raises(LinalgError):
        intersect(Subspace.full(2), Subspace.full(3))


def test_intersect_all():
    full = Subspace.full(3)
    x = Subspace.span(3, [(F(1), F(1), F(0))])
    assert intersect_all([full, x]) == x
    assert intersect_all([x]) == x


@given(small_mats)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert m.rank() + kernel_basis(m).dim == m.cols


@given(small_mats)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red == red2


@given(small_mats)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilated(m):
    ker = kernel_basis(m)
    for v in ker.vectors():
        assert not any(m.apply(v))


@given(small_mats, st.lists(small_entries, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_recovers_exact_solution(m, x):
    x = (x * m.cols)[: m.cols]
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_intersection_dimension_bound(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    vecs = st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=0, max_size=4)
    a = Subspace.span(n, data.draw(vecs))
    b = Subspace.span(n, data.draw(vecs))
    meet = intersect(a, b)
    assert intersect(b, a) == meet
    assert meet.dim >= a.dim + b.dim - n
    assert a.contains_subspace(meet) and b.contains_subspace(meet)


@st.composite
def stability_cases(draw):
    """A field, up to three n x n maps and a subspace of K^n.

    Random spans are rarely stable; half the cases close the span under
    the maps first, which makes it stable by construction.
    """
    field = draw(st.sampled_from((QQ, PrimeField(101))))
    n = draw(st.integers(min_value=0, max_value=6))
    vec = st.lists(st.integers(min_value=-3, max_value=3).map(field.of), min_size=n, max_size=n)
    maps = [Mat(g, n, n, field) for g in draw(st.lists(st.lists(vec, min_size=n, max_size=n), max_size=3))]
    sub = Subspace.span(n, draw(st.lists(vec, max_size=3)), field)
    closed = draw(st.booleans())
    while closed:
        grown = sub
        for m in maps:
            grown = grown.add(grown.image(m))
        if grown == sub:
            break
        sub = grown
    return maps, sub, closed


@given(stability_cases())
@settings(max_examples=80, deadline=None)
def test_is_stable_agrees_with_image_subspaces(case):
    maps, sub, closed = case
    stable = sub.is_stable(maps)
    assert stable == stable_by_images(sub, maps) == stable_by_products(sub, maps)
    assert stable or not closed


def test_is_stable_examples_and_errors():
    gf = PrimeField(101)
    line = Subspace.span(2, [(1, 0)])
    shift = mat([[0, 0], [1, 0]])  # e0 -> e1
    assert line.is_stable([mat([[2, 1], [0, 3]])])
    assert not line.is_stable([Mat.identity(2), shift])
    assert Subspace.span(2, [(0, 1)]).is_stable([shift])
    for sub in (line, Subspace.zero(2), Subspace.full(2), Subspace.zero(0)):
        assert sub.is_stable([])
    for sub in (Subspace.zero(2), Subspace.full(2)):
        assert sub.is_stable([shift])
    # every map is checked, also when the subspace is zero or full
    for sub in (line, Subspace.zero(2), Subspace.full(2)):
        with pytest.raises(LinalgError):
            sub.is_stable([Mat.identity(2, gf)])
        with pytest.raises(LinalgError):
            sub.is_stable([Mat.zeros(2, 3)])
        with pytest.raises(LinalgError):
            sub.is_stable([Mat.identity(2), Mat.identity(3)])


def test_subspace_canonical_equality():
    a = Subspace.span(3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    b = Subspace.span(3, [(F(2), F(2), F(2)), (F(0), F(0), F(-3))])
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_sum_and_preimage():
    line = Subspace.span(2, [(F(1), F(0))])
    other = Subspace.span(2, [(F(0), F(1))])
    assert line.add(other) == Subspace.full(2)
    m = mat([[1, 0], [0, 0]])
    assert preimage(line, m) == Subspace.full(2)
    assert preimage(Subspace.zero(2), m) == Subspace.span(2, [(F(0), F(1))])


@given(small_mats, st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_add_is_the_span_of_both_bases(m, data):
    # split the columns of m in two: the two spans add up to the span of m
    k = data.draw(st.integers(min_value=0, max_value=m.cols))
    left = Mat([r[:k] for r in m.entries], m.rows, k)
    right = Mat([r[k:] for r in m.entries], m.rows, m.cols - k)
    assert Subspace(m.rows, left).add(Subspace(m.rows, right)) == Subspace(m.rows, m)


def test_scalar_round_trip():
    assert scalar_to_str(F(3)) == "3"
    assert scalar_to_str(F(-1, 2)) == "-1/2"
    assert scalar_from_str("-1/2") == F(-1, 2)


def test_prime_field_rank_and_kernel():
    gf = field_from_name("fp:5")
    m = Mat([[gf.of(1), gf.of(2)], [gf.of(2), gf.of(4)]], field=gf)
    assert m.rank() == 1
    ker = kernel_basis(m)
    assert ker.dim == 1
    v = ker.vectors()[0]
    assert not any(m.apply(v))


def test_prime_field_rejects_composite():
    with pytest.raises(LinalgError):
        field_from_name("fp:6")


def test_prime_field_values_are_residues():
    gf = PrimeField(7)
    assert gf.of(Fraction(1, 2)) == 4
    assert gf.of("-3/2") == 2 and gf.of(-8) == 6
    assert all(type(gf.of(x)) is int for x in (3, Fraction(1, 2), "5/3"))
    a = Mat([[3]], field=gf)
    b = Mat([[5]], field=gf)
    assert a + b == Mat([[1]], field=gf)
    assert a @ b == Mat([[1]], field=gf)
    assert a - b == Mat([[5]], field=gf) and -a == Mat([[4]], field=gf)
    assert a.scale(Fraction(1, 3)) == Mat([[1]], field=gf)
    assert (a @ linalg.invert(b)).entries == (((3 * pow(5, -1, 7)) % 7,),)
    assert Mat([[3, 5], [1, 6]], field=gf).trace() == 2
    assert Mat([[3, 5]], field=gf).apply((4, 1)) == (3,)


def test_prime_field_matrix_refuses_non_residues():
    gf = PrimeField(5)
    for bad in (5, -1, Fraction(1, 2), "1"):
        with pytest.raises(LinalgError):
            Mat([[1, bad]], field=gf)
    assert Mat([[gf.of(x) for x in (5, -1, Fraction(1, 2))]], field=gf).entries == ((0, 4, 3),)


def test_rational_values_are_ints_unless_fractional():
    assert QQ.of("4/2") == 2 and type(QQ.of("4/2")) is int
    assert QQ.of(Fraction(3, 6)) == Fraction(1, 2)
    half = Mat([[Fraction(1, 2)]])
    for m in (half @ Mat([[2]]), half + half, half.scale(4), half - Mat([[Fraction(-1, 2)]])):
        assert all(type(x) is int for row in m.entries for x in row)
    assert type(Mat([[Fraction(1, 2), 0], [0, Fraction(3, 2)]]).trace()) is int
    assert half.apply((Fraction(4),)) == (2,) and type(half.apply((Fraction(4),))[0]) is int


def test_prime_field_refuses_a_denominator_divisible_by_p():
    with pytest.raises(LinalgError):
        PrimeField(7).of(Fraction(1, 7))
    with pytest.raises(LinalgError):
        PrimeField(7).of("3/14")


def test_field_is_part_of_matrix_identity():
    gf = PrimeField(5)
    q, f = Mat([[1]]), Mat([[1]], field=gf)
    assert q != f
    assert len({q, f}) == 2
    assert Subspace.full(2) != Subspace.full(2, gf)
    assert len({Subspace.zero(2), Subspace.zero(2, gf)}) == 2


def test_entry_less_matrix_keeps_its_field():
    gf = PrimeField(5)
    x = solve(Mat.zeros(0, 3, gf), [])
    assert x == (0, 0, 0) and all(type(a) is int for a in x)
    ker = kernel_basis(Mat.zeros(0, 3, gf))
    assert ker == Subspace.full(3, gf) and ker.field == gf
    assert rref(Mat.zeros(2, 0, gf))[0].field == gf


def test_mixed_fields_raise():
    gf5, gf7 = PrimeField(5), PrimeField(7)
    q, f5, f7 = Mat.identity(2), Mat.identity(2, gf5), Mat.identity(2, gf7)
    for a, b in ((q, f5), (f5, f7)):
        with pytest.raises(LinalgError):
            a @ b
        with pytest.raises(LinalgError):
            a + b
        with pytest.raises(LinalgError):
            a - b
        with pytest.raises(LinalgError):
            a.hstack(b)
        with pytest.raises(LinalgError):
            a.vstack(b)
        with pytest.raises(LinalgError):
            intersect(Subspace(2, a), Subspace(2, b))
        with pytest.raises(LinalgError):
            intersect(Subspace.zero(2, a.field), Subspace(2, b))
        with pytest.raises(LinalgError):
            Subspace(2, a).add(Subspace(2, b))


def test_zero_subspace_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Subspace.zero ran the elimination kernel")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    gf = PrimeField(3)
    z = Subspace.zero(4, gf)
    assert z.dim == 0 and z.ambient_dim == 4 and z.field == gf
    assert z.basis.shape == (4, 0) and z.basis.field == gf
    assert z.vectors() == []


def test_zero_subspace_is_canonical():
    for field in (QQ, PrimeField(5)):
        z = Subspace.zero(3, field)
        assert z == Subspace.span(3, [], field) == Subspace.span(3, [(0, 0, 0)], field)
        assert hash(z) == hash(Subspace(3, Mat.zeros(3, 2, field)))


@pytest.mark.parametrize("n", [1, 561, 3215031751, 10**18 + 1, 2**61 + 1])
def test_prime_field_rejects_composites_and_pseudoprimes(n):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(LinalgError):
        PrimeField(n)


def test_prime_field_accepts_a_large_prime_quickly():
    started = time.perf_counter()
    gf = PrimeField(10**18 + 3)  # the least prime above 10**18
    assert time.perf_counter() - started < 0.1
    assert gf.of(Fraction(1, 2)) == (10**18 + 4) // 2
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_prime_field_refuses_p_beyond_the_primality_bound():
    with pytest.raises(LinalgError):
        PrimeField(3317044064679887385961981)
    with pytest.raises(LinalgError):
        field_from_name("fp:1000000000000000000000000000057")


def test_field_names():
    assert field_from_name("q") == QQ
    assert field_from_name("fp:101") == PrimeField(101)
    for bad in ("fp:abc", "fp:", "r", "fp:6"):
        with pytest.raises(LinalgError):
            field_from_name(bad)


def test_zero_shape_matrices():
    empty = Mat([[] for _ in range(3)], 3, 0)
    assert empty.shape == (3, 0)
    wide = Mat.zeros(0, 4)
    assert kernel_basis(wide) == Subspace.full(4)
    assert (wide @ Mat.zeros(4, 2)).shape == (0, 2)


def test_rational_matrix_stores_ints_and_refuses_inexact_values():
    m = Mat([[F(2), F(0)], [F(1, 2), 3]])
    assert m == Mat([[2, 0], [F(1, 2), 3]]) and hash(m) == hash(Mat([[2, 0], [F(1, 2), 3]]))
    assert type(m[0, 0]) is int and all(type(x) is int for x in m.entries[0])
    for bad in (0.5, 1.0, 0.0, True, "1", None):
        with pytest.raises(LinalgError):
            Mat([[bad, 1], [1, 2]])
    with pytest.raises(LinalgError):
        Mat([[0.5, 1.0], [1, 2]]).rank()
    with pytest.raises(LinalgError):
        Mat.sparse([{0: 0.5}], 2)
    with pytest.raises(LinalgError):
        Mat.sparse([{2: 1}], 2)
    assert Mat.sparse([{1: F(4, 2), 0: 0}], 2).entries == ((0, 2),)


def test_field_of_refuses_floats_and_bools():
    for field in (QQ, PrimeField(7)):
        for bad in (0.1, 2.0, True, False, "abc", "1/0", None):
            with pytest.raises(LinalgError):
                field.of(bad)
    assert QQ.of("0.1") == F(1, 10) and QQ.of(F(6, 3)) == 2


nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool)


@given(st.dictionaries(st.integers(min_value=0, max_value=20), nonzero_rationals, max_size=8))
@settings(max_examples=100, deadline=None)
def test_primitive_row_is_a_coprime_int_multiple(row):
    row = {j: QQ.of(x) for j, x in row.items()}
    out = primitive_row(row, QQ)
    assert out.keys() == row.keys()
    assert all(type(v) is int for v in out.values())
    if not row:
        assert out == {}
        return
    assert math.gcd(*out.values()) == 1
    # one positive factor takes the row to its image, so the span and the signs are kept
    ratios = {Fraction(out[j]) / row[j] for j in row}
    assert len(ratios) == 1 and ratios.pop() > 0


def test_primitive_row_examples():
    assert primitive_row({0: F(1, 2), 3: F(-1, 3)}, QQ) == {0: 3, 3: -2}
    assert primitive_row({1: 6, 2: -4}, QQ) == {1: 3, 2: -2}
    assert primitive_row({4: F(-7, 5)}, QQ) == {4: -1}
    assert primitive_row({}, QQ) == {}
    # a Mat row, read through its read-only view
    assert primitive_row(Mat([[F(2, 3), 0, F(4, 9)]]).row(0), QQ) == {0: 3, 2: 2}


@pytest.mark.parametrize("p", [2, 7, 101])
def test_primitive_row_over_a_prime_field_returns_the_row_as_it_is(p):
    # over GF(p) every nonzero value is already an int and a unit, so there is nothing to clear
    field = PrimeField(p)
    row = {0: p - 1, 5: 1, 9: p // 2 or 1}
    out = primitive_row(row, field)
    assert out == row and out is not row
    assert primitive_row({}, field) == {}


@st.composite
def elimination_cases(draw):
    """Sparse kernel rows over Q or GF(p), often more of them than columns, and
    some of them (or all, or none) zero."""
    p = draw(st.sampled_from([0, 2, 7]))
    ncols = draw(st.integers(min_value=0, max_value=5))
    values = st.integers(min_value=1, max_value=p - 1) if p else nonzero_rationals.map(QQ.of)
    columns = st.integers(min_value=0, max_value=max(ncols - 1, 0))
    row = st.dictionaries(columns, values, max_size=ncols) if ncols else st.just({})
    return p, ncols, draw(st.lists(row, max_size=9))


@given(elimination_cases())
@settings(max_examples=150, deadline=None)
def test_eliminate_with_width_stops_at_full_rank(case):
    p, ncols, rows = case
    drawn = []

    def counted():
        for row in rows:
            drawn.append(row)
            yield dict(row)

    def full(rows):
        return linalg._eliminate([dict(r) for r in rows], p)

    assert linalg._eliminate(counted(), p, ncols) == full(rows)
    # no row is drawn once the rank is ncols, and none at all when ncols == 0
    if ncols == 0:
        assert drawn == []
    else:
        assert len(full(drawn[:-1])) < ncols
        assert len(drawn) == len(rows) or len(full(drawn)) == ncols
    # the kernel passes its width, so a zero kernel leaves the rows unread
    first = len(drawn)
    drawn.clear()
    assert linalg._kernel_rows(counted(), ncols, p) == linalg._kernel_rows([dict(r) for r in rows], ncols, p)
    assert len(drawn) == first


@st.composite
def reductions(draw):
    """A field's characteristic, fully reduced pivot rows ``{pivot: row}`` in value
    format, and a row to reduce: a combination of the pivot rows, zero or not,
    plus entries at columns that may or may not be pivots."""
    p = draw(st.sampled_from([0, 2, 3, 101]))
    values = st.integers(1, p - 1) if p else st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool).map(QQ.of)
    ncols = draw(st.integers(min_value=1, max_value=12))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
    free = [j for j in range(ncols) if j not in pivots]
    reduced = {}
    for c in pivots:
        row = {c: 1}
        for j in draw(st.sets(st.sampled_from(free), max_size=len(free))) if free else ():
            if j > c:
                row[j] = draw(values)
        reduced[c] = row
    row = {}
    for c in draw(st.sets(st.sampled_from(pivots), max_size=len(pivots))) if pivots else ():
        linalg._subtract(row, -draw(values), reduced[c], -1, p)  # += a multiple of a pivot row
    for j, x in draw(st.dictionaries(st.integers(0, ncols - 1), values, max_size=4)).items():
        linalg._subtract(row, -x, {j: 1}, -1, p)
    return p, reduced, row


@given(reductions())
@settings(max_examples=300, deadline=None)
def test_reduce_walks_only_the_shared_columns_as_the_column_loop_did(case):
    # the pivot rows vanish on each other's pivots, so the columns a row shares
    # with them are read once, at the start, and the remainder is the same
    p, reduced, row = case
    want = reduce_by_columns(dict(row), reduced, p)
    got = linalg._reduce(dict(row), reduced, p)
    assert got == want
    assert not got.keys() & reduced.keys()
    if p:
        assert all(type(x) is int and 0 < x < p for x in got.values())
    else:
        assert all(type(x) is int or type(x) is Fraction and x.denominator != 1 for x in got.values())
        assert all(x for x in got.values())


def test_reduce_examples():
    # over Q a remainder entry that becomes integral is stored as an int
    reduced = {0: {0: 1, 2: F(1, 2)}, 1: {1: 1, 2: F(1, 3)}}
    got = linalg._reduce({0: 1, 1: 1, 2: F(5, 6)}, reduced, 0)
    assert got == {}
    got = linalg._reduce({0: 1, 1: 1, 2: F(11, 6)}, reduced, 0)
    assert got == {2: 1} and type(got[2]) is int
    # over GF(7): 3 - 2 * 4 = 2, and 1 - 2 * 4 = 0 leaves nothing
    assert linalg._reduce({0: 2, 2: 3}, {0: {0: 1, 2: 4}}, 7) == {2: 2}
    assert linalg._reduce({0: 2, 2: 1}, {0: {0: 1, 2: 4}}, 7) == {}
