"""Hom bases from spun presentations against the commuting-square oracle.

For every pair, ``hom_basis`` must have the oracle's dimension, every
basis element must commute with the arrows (a validated ``Morphism``),
and the basis must be independent.  It is also the canonical basis (the
RREF rows in the ``Morphism.flatten`` layout), which the oracle's kernel
is too, so the two bases coincide.  The dimension comes from the solve,
and the rows are spread only when first read.
"""

import json

import pytest
from hypothesis import given, settings

from endoscope import homs, linalg, spin, two_route_endosocle_agree
from endoscope.endosocle import family_endosocle
from endoscope.homs import HomalgError, hom_basis, hom_dim
from endoscope.linalg import QQ, Mat, PrimeField, invert
from endoscope.quiver import AlgebraPresentation, Path, Quiver
from endoscope.radical import radical_profile
from endoscope.reps import (
    INFINITY,
    Morphism,
    Representation,
    dual,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
)
from endoscope.serialize import load_family_file
from oracles import commuting_square_basis
from test_properties import kronecker_reps
from test_radical_oracle import conjugated_family


def assert_matches_oracle(m, n):
    got = hom_basis(m, n).basis
    want = commuting_square_basis(m, n)
    assert len(got) == len(want)
    for f in got:
        Morphism(m, n, f.blocks)  # raises unless every square commutes
    flats = [f.flatten() for f in got]
    width = sum(m.dim(v) * n.dim(v) for v in m.presentation.quiver.vertices)
    assert Mat.sparse(flats, width, m.field).rank() == len(got)
    assert flats == [f.flatten() for f in want]


def assert_family_matches_oracle(members):
    for m in members:
        for n in members:
            assert_matches_oracle(m, n)


@given(kronecker_reps(), kronecker_reps())
@settings(max_examples=60, deadline=None)
def test_kronecker_reps_match_oracle(m, n):
    assert_matches_oracle(m, n)


def kronecker_family(field):
    members = [kronecker_preinjective(i, field) for i in range(1, 6)]
    members += [kronecker_preprojective(i, field) for i in range(1, 6)]
    members += [kronecker_regular(n, lam, field) for n in (1, 2, 3) for lam in (0, 1, INFINITY)]
    return members


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)], ids=["Q", "GF2", "GF101"])
def test_builtin_families_match_oracle(field):
    assert_family_matches_oracle(kronecker_family(field))


def _mat(rows, field=QQ):
    return Mat([[field.of(x) for x in row] for row in rows], len(rows), len(rows[0]) if rows else 0, field)


def bound_family(tmp_path, field=QQ):
    """Six modules of 1 -a-> 2 -c-> 3 with a loop x at 1 and the relation
    "a then c" = 0, read from a family file over ``field``."""
    algebra = {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"name": "x", "source": "1", "target": "1"},
            {"name": "a", "source": "1", "target": "2"},
            {"name": "c", "source": "2", "target": "3"},
        ],
        "relations": [[{"coeff": "1", "path": ["a", "c"]}]],
    }
    members = [
        {"dims": {"1": 2}, "matrices": {"x": [["1", "1"], ["0", "1"]]}},
        {"dims": {"1": 2}, "matrices": {"x": [["0", "1"], ["0", "0"]]}},
        {"dims": {"1": 1, "2": 1}, "matrices": {"x": [["3"]], "a": [["1"]]}},
        {"dims": {"1": 2, "2": 1}, "matrices": {"x": [["0", "0"], ["1", "0"]], "a": [["0", "1"]]}},
        {"dims": {"2": 1, "3": 1}, "matrices": {"c": [["1"]]}},
        {"dims": {"1": 1, "2": 2, "3": 1}, "matrices": {"a": [["1"], ["0"]], "c": [["0", "1"]]}},
    ]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"algebra": algebra, "members": members}))
    return load_family_file(str(path), field)


def test_file_family_with_relations_matches_oracle(tmp_path):
    family = bound_family(tmp_path)
    assert family[0].presentation.relations
    assert_family_matches_oracle(family)


def test_duality_over_a_presentation_with_relations(tmp_path):
    # D reverses the relation "a then c" into "c then a" over the opposite quiver,
    # is an involution, and Hom(M, N) = Hom(DN, DM)
    family = bound_family(tmp_path)
    duals = [dual(m) for m in family]
    assert [dual(d) for d in duals] == family
    for d in duals:
        (relation,) = d.presentation.relations
        assert dict(relation.terms) == {Path("3", "1", ("c", "a")): 1}
    for m, dm in zip(family, duals):
        for n, dn in zip(family, duals):
            assert hom_dim(m, n) == hom_dim(dn, dm)


def cycle_modules(field):
    """Modules of the 2-cycle 1 <-> 2 and of the one-loop quiver, with
    nilpotent and with invertible actions."""
    two = AlgebraPresentation(Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")]))
    loop = AlgebraPresentation(Quiver(["1"], [("x", "1", "1")]))

    def rep(pres, dims, mats):
        return Representation(pres, dims, {k: _mat(v, field) for k, v in mats.items()}, field)

    return [
        rep(two, {"1": 1, "2": 1}, {"a": [[1]], "b": [[0]]}),
        rep(two, {"1": 1, "2": 1}, {"a": [[1]], "b": [[2]]}),
        rep(two, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[1, 1], [0, 1]]}),
        rep(two, {"1": 2, "2": 1}, {"a": [[0, 1]], "b": [[1], [0]]}),
        rep(two, {"1": 1, "2": 2}, {"a": [[1], [0]], "b": [[0, 1]]}),
        rep(loop, {"1": 1}, {"x": [[2]]}),
        rep(loop, {"1": 2}, {"x": [[1, 1], [0, 1]]}),
        rep(loop, {"1": 2}, {"x": [[0, 1], [1, 0]]}),
        rep(loop, {"1": 3}, {"x": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}),
        rep(loop, {"1": 3}, {"x": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)], ids=["Q", "GF2", "GF101"])
def test_oriented_cycles_match_oracle(field):
    members = cycle_modules(field)
    for pres in {m.presentation for m in members}:
        assert_family_matches_oracle([m for m in members if m.presentation == pres])


def spin_generators(m, dual_side):
    return sum(1 for _, parent, _ in spin.presentation(m, dual_side)[0] if parent is None)


def top_lifts(m, dual_side):
    return sum(len(cols) for cols in spin.sides(m)[dual_side][1].values())


def test_invertible_loop_completes_the_spin():
    # an invertible loop maps the module onto itself: its top is zero, and the
    # spin starts from standard vectors that no lift supplies
    for m in cycle_modules(QQ)[5:8]:
        for dual_side in (False, True):
            assert top_lifts(m, dual_side) == 0
            assert spin_generators(m, dual_side) > 0
    # a nilpotent action is spun from the lifts of its top alone
    nilpotent = cycle_modules(QQ)[8]
    assert spin_generators(nilpotent, False) == top_lifts(nilpotent, False) == 1


def was_spun(m, dual_side):
    hits = spin.presentation.cache_info().hits
    spin.presentation(m, dual_side)
    return spin.presentation.cache_info().hits > hits


def test_each_pair_spins_the_side_with_fewer_unknowns():
    # Hom(I4, I3): 12 unknowns on the top side, 6 on the socle side;
    # Hom(P3, P4): 6 on the top side, 12 on the socle side
    homs.clear_caches()
    i4, i3 = kronecker_preinjective(4), kronecker_preinjective(3)
    p3, p4 = kronecker_preprojective(3), kronecker_preprojective(4)
    hom_basis(i4, i3)
    hom_basis(p3, p4)
    assert was_spun(i3, True) and was_spun(p3, False)
    assert not was_spun(i4, False) and not was_spun(p4, True)


# -- the dimension from the solve, the rows on first read --------------------------


def count_calls(monkeypatch, module, name, calls=None):
    """Wrap ``module.name`` so that every call appends its arguments to
    ``calls`` (a new list unless given), and return that list."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hom_dim_table_spreads_no_row_until_rows_are_read(monkeypatch):
    homs.clear_caches()
    spreads = count_calls(monkeypatch, spin, "_spread")
    mods = [kronecker_preinjective(i, PrimeField(101)) for i in range(1, 9)]
    pairs = [(mods[m - 1], mods[n - 1], max(0, m - n + 1)) for m in range(1, 9) for n in range(1, 9)]
    assert all(homs.hom_dim(m, n) == dim for m, n, dim in pairs)
    assert spreads == []
    # once per nonzero space on the first read, and never again
    nonzero = sum(dim > 0 for *_, dim in pairs)
    for _ in range(2):
        assert all(len(hom_basis(m, n).rows) == dim for m, n, dim in pairs)
        assert len(spreads) == nonzero


def test_hom_dim_reads_a_kernel_basis_only_for_a_nonzero_space(monkeypatch):
    # a space with no free column is zero, and is answered with no kernel basis
    # read off the elimination (linalg._free_rows); reading one on every solve
    # made 57 calls for this table.  A nonzero space keeps its basis, not the
    # elimination: a brick's End(I_k) is one vector against unknowns - 1 rows
    homs.clear_caches()
    kernels = []
    for module in (spin, linalg):
        count_calls(monkeypatch, module, "_free_rows", kernels)
    mods = [kronecker_preinjective(i, PrimeField(101)) for i in range(1, 9)]
    pairs = [(mods[m - 1], mods[n - 1], max(0, m - n + 1)) for m in range(1, 9) for n in range(1, 9)]
    assert [hom_dim(m, n) for m, n, _ in pairs] == [dim for *_, dim in pairs]
    assert len(kernels) == sum(dim > 0 for *_, dim in pairs) == 36
    # spreading the rows reads no basis again
    assert all(len(hom_basis(m, n).rows) == dim for m, n, dim in pairs)
    assert len(kernels) == 36


@pytest.mark.parametrize("pair, dim", [((3, 2), 2), ((2, 3), 0)], ids=["nonzero", "zero"])
def test_a_hom_system_is_eliminated_once_and_spread_once(monkeypatch, pair, dim):
    homs.clear_caches()
    m, n = (kronecker_preinjective(i, PrimeField(101)) for i in pair)
    hom_basis(m, n)
    hom_basis.cache_clear()  # the spun presentations stay cached
    eliminations = []
    for module in (spin, linalg, homs):
        count_calls(monkeypatch, module, "_eliminate", eliminations)
    space = hom_basis(m, n)
    assert (space.dim, len(eliminations)) == (dim, 1)
    assert len(space.rows) == dim
    assert len(eliminations) == (2 if dim else 1)


def unitriangular_conjugate(rep):
    """The copy of rep under the base change 1 + (ones above the diagonal) at every vertex."""
    field = rep.field
    change = {
        v: Mat([[field.of(int(i <= j)) for j in range(d)] for i in range(d)], d, d, field)
        for v, d in rep.dims_by_vertex.items()
    }
    matrices = {
        a.name: change[a.target] @ rep.matrix(a.name) @ invert(change[a.source]) for a in rep.presentation.quiver.arrows
    }
    return Representation(rep.presentation, rep.dims_by_vertex, matrices, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)], ids=["Q", "GF7", "GF101"])
def test_dim_from_the_solve_is_the_number_of_rows(monkeypatch, field):
    homs.clear_caches()
    solved = set()
    original = homs.spun_homs

    def recorded(*args, transpose):
        solved.add(transpose)
        return original(*args, transpose=transpose)

    monkeypatch.setattr(homs, "spun_homs", recorded)
    members = [kronecker_preinjective(i, field) for i in range(1, 6)]
    members += [kronecker_preprojective(i, field) for i in range(1, 6)]
    members += [kronecker_regular(n, lam, field) for n in (1, 2) for lam in (0, 1, INFINITY)]
    members += [unitriangular_conjugate(kronecker_preinjective(3, field))]
    for family in (members, [dual(m) for m in members]):
        for m in family:
            for n in family:
                space = hom_basis(m, n)
                dim = space.dim
                assert dim == len(space.rows)
    assert solved == {False, True}  # both the top and the socle side


def test_a_spread_that_loses_a_row_is_refused(monkeypatch):
    homs.clear_caches()
    original = spin._spread

    def lossy(*args):
        rows = original(*args)
        del rows[max(rows)]
        return rows

    monkeypatch.setattr(spin, "_spread", lossy)
    space = hom_basis(kronecker_preinjective(3), kronecker_preinjective(2))
    assert space.dim == 2
    for _ in range(2):  # a failed read leaves nothing half built
        with pytest.raises(HomalgError, match="dimension 2 spread to 1 rows"):
            space.rows
    homs.clear_caches()


# -- bricks certified from the solve ----------------------------------------------


def preinjectives(n):
    return [kronecker_preinjective(i) for i in range(1, n + 1)]


# hom spaces spread from cold caches: a brick member's End(M) = K gives J = 0 from
# the solve's dimension, so its Hom(M, M) is never spread
@pytest.mark.parametrize(
    "run, members, spreads",
    [
        (family_endosocle, lambda: preinjectives(8), 13),
        (family_endosocle, lambda: preinjectives(16), 29),
        (family_endosocle, lambda: [kronecker_preprojective(i) for i in range(1, 9)], 7),
        (family_endosocle, lambda: conjugated_family(6, seed=1), 42),
        (lambda ms: radical_profile(ms, 63), lambda: preinjectives(8), 28),
        (lambda ms: radical_profile(ms, 63), lambda: conjugated_family(6, seed=1), 105),
        (two_route_endosocle_agree, lambda: preinjectives(4), 6),
    ],
    ids=["endosoc-I1..I8", "endosoc-I1..I16", "endosoc-P1..P8", "endosoc-conj6", "profile-I1..I8", "profile-conj6", "two-route-I1..I4"],
)
def test_bricks_spread_no_endomorphism_rows(monkeypatch, run, members, spreads):
    members = members()
    homs.clear_caches()
    calls = count_calls(monkeypatch, spin, "_spread")
    run(members)
    assert len(calls) == spreads


def test_endosocle_of_preinjectives_spreads_no_end_ring(monkeypatch):
    # every I_k is a brick: certified local, and split against the others, with
    # no row of Hom(I_k, I_k) read
    homs.clear_caches()
    calls = count_calls(monkeypatch, spin, "_spread")
    family_endosocle(preinjectives(8))
    assert calls and not any(s == t for _, _, _, s, t, _ in calls)
    assert all(hom_basis(m, m).dim == 1 for m in preinjectives(8))


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
def test_hom_systems_read_stored_rows(monkeypatch, tmp_path, field):
    # the spin, the equations and the spread read the matrices' stored rows,
    # not the read-only views of Mat.row
    members = kronecker_family(field) + cycle_modules(field) + bound_family(tmp_path, field)
    homs.clear_caches()
    calls = count_calls(monkeypatch, Mat, "row")
    for m in members:
        for n in members:
            if m.presentation == n.presentation:
                assert len(hom_basis(m, n).rows) == hom_dim(m, n)
    assert calls == []
