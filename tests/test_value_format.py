"""Values are checked where they enter the package and made in format
where they are computed.

Over the rationals a value is an ``int``, or a ``Fraction`` when it is
not integral; over GF(p) it is an ``int`` in ``range(p)`` (``linalg``).
Every value the package computes must come out in that format, since
nothing inside re-checks it: ``_eliminate`` keeps a row it does not
reduce as it is, and ``flat_blocks`` stores a flat's entries as they
are.  The parsers meant for input from outside (``linalg._checked`` and
``field.of``) run only at the entry points, not inside a hom solve or a
radical profile.
"""

import sys
from fractions import Fraction

import pytest

from endoscope import homs, linalg
from endoscope.homs import end_ring, hom_basis, hom_dim, indecompose, noniso_blocks
from endoscope.linalg import PrimeField, RationalField
from endoscope.radical import radical_profile
from endoscope.reps import direct_sum, kronecker_preinjective
from test_fitting_oracle import _by_oracle
from test_hom_spin import count_calls
from test_radical_oracle import conjugated_family

GF101 = PrimeField(101)


def out_of_format(values, field):
    """The values that are not in the field's value format."""
    p = field.characteristic
    if p:
        return [x for x in values if type(x) is not int or not 0 <= x < p]
    return [x for x in values if type(x) is not int and (type(x) is not Fraction or x.denominator == 1)]


def row_values(rows):
    return [x for row in rows.values() for x in row.values()]


def block_values(blocks):
    return [x for mat in blocks.values() for r in range(mat.rows) for x in mat.row(r).values()]


def test_computed_values_are_in_value_format():
    # over Q, a sum of products of Fractions can be an integral Fraction; the
    # producers must store it as an int, since no consumer checks it again
    families = [conjugated_family(4, seed) for seed in (1, 2, 3)]
    families.append([kronecker_preinjective(n, GF101) for n in range(1, 7)])
    bad = {"hom rows": [], "hom basis": [], "noniso blocks": [], "radical rows": [], "profile blocks": []}
    for members in families:
        field = members[0].field
        homs.clear_caches()
        for m in members:
            for n in members:
                space = hom_basis(m, n)
                bad["hom rows"] += out_of_format(row_values(space.rows), field)
                for f in space.basis:
                    bad["hom basis"] += out_of_format(block_values(f.blocks), field)
        if field.characteristic:
            continue  # the radical and the non-isomorphisms need characteristic zero
        for m in members:
            bad["radical rows"] += out_of_format(row_values(end_ring(m).radical_space().rows), field)
            for n in members:
                for blocks in noniso_blocks(m, n):
                    bad["noniso blocks"] += out_of_format(block_values(blocks), field)
        profile = radical_profile(members, 63)
        for d in range(1, profile.depth_reached() + 1):
            for i in range(len(members)):
                for j in range(len(members)):
                    for f in profile.basis_morphisms(d, i, j):
                        bad["profile blocks"] += out_of_format(block_values(f.blocks), field)
    assert {k: len(v) for k, v in bad.items() if v} == {}


def count_checked(monkeypatch):
    """The calls of ``linalg._checked`` through every module binding of it."""
    calls, checked = [], linalg._checked
    for module in [m for key, m in sys.modules.items() if key == "endoscope" or key.startswith("endoscope.")]:
        if getattr(module, "_checked", None) is checked:
            count_calls(monkeypatch, module, "_checked", calls)
    return calls


def count_parses(monkeypatch):
    """The calls of ``field.of`` on both kinds of field."""
    calls = []
    for cls in (RationalField, PrimeField):
        count_calls(monkeypatch, cls, "of", calls)
    return calls


def test_hom_systems_are_not_validated(monkeypatch):
    # the equations are made in value format from matrices checked when they entered
    members = [kronecker_preinjective(n, GF101) for n in range(1, 9)]
    homs.clear_caches()
    calls = count_checked(monkeypatch)
    assert [[hom_dim(m, n) for n in members] for m in members] == [[max(0, i - j + 1) for j in range(8)] for i in range(8)]
    assert calls == []


@pytest.mark.parametrize(
    "family",
    [lambda: [kronecker_preinjective(n) for n in range(1, 7)], lambda: conjugated_family(4, 1)],
    ids=["preinjectives 1..6", "conjugated_family(4, 1)"],
)
def test_radical_profile_parses_no_value(monkeypatch, family):
    # composites are normalised as the kernel normalises its products, not parsed by field.of
    members = family()
    homs.clear_caches()
    calls = count_parses(monkeypatch)
    assert radical_profile(members, 63).depth_reached() > 1
    assert calls == []


def test_profile_subspaces_are_not_validated(monkeypatch):
    # a power's coordinates in its hom space are read off rows the package made;
    # passing them to Subspace.span checked every one again: 1 944 _checked calls
    members = conjugated_family(4, 1)
    homs.clear_caches()
    profile = radical_profile(members, 63)
    calls = count_checked(monkeypatch)
    idx = range(len(members))
    spaces = {(d, i, j): profile.subspace(d, i, j) for d in range(1, profile.depth_reached() + 1) for i in idx for j in idx}
    assert calls == []
    assert all(s.dim == profile.pair_dims(i, j)[d - 1] for (d, i, j), s in spaces.items())
    assert sum(s.dim for s in spaces.values()) > 0


def test_fitting_splits_parse_no_value(monkeypatch):
    # g - lam 1 and the characteristic polynomial's c 1 were formed with
    # Mat.identity(...).scale, which parses its scalar: 49 field.of calls on
    # I1+I2+I3+I4; the diagonal is now shifted in value format
    total, _, _ = direct_sum([kronecker_preinjective(n) for n in range(1, 5)])
    homs.clear_caches()
    want = _by_oracle(total)
    homs.clear_caches()
    calls = count_parses(monkeypatch)
    parts = indecompose(total)
    assert calls == []
    assert parts == want and [m.dim_vector for m in parts] == [(4, 3), (3, 2), (2, 1), (1, 0)]
