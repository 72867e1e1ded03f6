"""The radical of End(M) against the regular-representation trace form.

``EndoRing.radical`` is the kernel of the trace form of End(M) acting on
M.  The oracle here is the older route: the trace form of the left
regular representation, built from the products of basis elements,
G[i][j] = tr(L_i L_j) with L_x[l][j] = coordinate l of e_x e_j.  Both are
the Jacobson radical in characteristic zero, so the subspaces must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from endoscope.homs import HomalgError, _check_nilpotent, clear_caches, end_ring
from endoscope.linalg import Mat, Subspace, kernel_basis
from endoscope.reps import Morphism, direct_sum, kronecker_preinjective, kronecker_regular
from oracles import multiply_coords
from test_properties import kronecker_reps


def regular_trace_form_radical(ring):
    k = ring.dim
    units = [tuple(Fraction(int(t == i)) for t in range(k)) for i in range(k)]
    left = []
    for ex in units:
        products = [multiply_coords(ring, ex, ej) for ej in units]
        left.append(Mat([[products[j][l] for j in range(k)] for l in range(k)], k, k))
    gram = Mat([[(li @ lj).trace() for lj in left] for li in left], k, k)
    return kernel_basis(gram)


def _sum(reps):
    total, _, _ = direct_sum(reps)
    return total


@pytest.mark.parametrize(
    "module",
    [
        _sum([kronecker_preinjective(n) for n in (1, 2, 3)]),
        kronecker_regular(2, 0),
        _sum([kronecker_preinjective(1)] * 3),
    ],
    ids=["I1+I2+I3", "R2(0)", "I1^3"],
)
def test_radical_matches_regular_trace_form(module):
    ring = end_ring(module)
    assert ring.radical == regular_trace_form_radical(ring)


@given(kronecker_reps(max_dim=2))
@settings(max_examples=25, deadline=None)
def test_radical_matches_regular_trace_form_random(module):
    ring = end_ring(module)
    assert ring.radical == regular_trace_form_radical(ring)


def test_radical_morphisms_span_the_radical():
    ring = end_ring(_sum([kronecker_preinjective(n) for n in (1, 2, 3)]))
    coords = [ring.hom.coordinates(f) for f in ring.radical_space().basis]
    assert Subspace.span(ring.dim, coords) == ring.radical
    _check_nilpotent(ring.module, [f.blocks for f in ring.radical_space().basis])


def test_trace_form_radical_builds_no_morphism(monkeypatch):
    # J's maps are formed as flats and checked nilpotent on their vertex blocks;
    # forming them with from_coordinates built one Morphism per basis map (7)
    clear_caches()
    ring = end_ring(_sum([kronecker_preinjective(n) for n in (1, 2, 3)]))
    built = []
    original = Morphism.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Morphism, "__init__", counted)
    assert ring.radical.dim == 7
    assert built == []


@pytest.mark.parametrize("module", [kronecker_preinjective(1), kronecker_regular(2, 0)], ids=["I1", "R2(0)"])
def test_nilpotency_check_rejects_the_identity(module):
    with pytest.raises(HomalgError):
        _check_nilpotent(module, [Morphism.identity(module).blocks])
