"""Hom bases from spun presentations against the commuting-square oracle.

For every pair, ``hom_basis`` must have the oracle's dimension, every
basis element must commute with the arrows (a validated ``Morphism``),
and the basis must be independent.  It is also the canonical basis (the
RREF rows in the ``Morphism.flatten`` layout), which the oracle's kernel
is too, so the two bases coincide.
"""

import json

import pytest
from hypothesis import given, settings

from endoscope import homs, spin
from endoscope.homs import hom_basis
from endoscope.linalg import QQ, Mat, PrimeField
from endoscope.quiver import AlgebraPresentation, Quiver
from endoscope.reps import (
    INFINITY,
    Morphism,
    Representation,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
)
from endoscope.serialize import load_family_file
from oracles import commuting_square_basis
from test_properties import kronecker_reps


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


def test_file_family_with_relations_matches_oracle(tmp_path):
    # 1 -a-> 2 -c-> 3 with a loop x at 1 and the relation "a then c" = 0
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
    family = load_family_file(str(path))
    assert family[0].presentation.relations
    assert_family_matches_oracle(family)


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
