"""The radical of End(M) against the regular-representation trace form.

``EndoRing.radical`` is the kernel of the trace form of End(M) acting on
M.  The oracle here is the older route: the trace form of the left
regular representation, built from the products of basis elements,
G[i][j] = tr(L_i L_j) with L_x[l][j] = coordinate l of e_x e_j.  Both are
the Jacobson radical in characteristic zero, so the subspaces must agree.
A brick (dim End(M) = 1) is answered from the hom solve alone, J = 0
with no Gram matrix and no nilpotency check; the oracle checks that too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from endoscope import homs
from endoscope.homs import HomalgError, _check_nilpotent, clear_caches, end_ring
from endoscope.linalg import Mat, Subspace, kernel_basis
from endoscope.reps import INFINITY, Morphism, direct_sum, kronecker_preinjective, kronecker_preprojective, kronecker_regular
from oracles import multiply_coords
from test_hom_spin import count_calls
from test_properties import kronecker_reps
from test_radical_oracle import random_conjugate


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


BRICKS = (
    [kronecker_preinjective(n) for n in range(1, 7)]
    + [kronecker_preprojective(n) for n in range(1, 7)]
    + [kronecker_regular(1, lam) for lam in (0, 1, INFINITY)]
    + [random_conjugate(kronecker_preinjective(3), random.Random(5))]
)
BRICK_IDS = [f"I{n}" for n in range(1, 7)] + [f"P{n}" for n in range(1, 7)] + ["R1(0)", "R1(1)", "R1(inf)", "I3-conjugate"]


def traced_radical(monkeypatch, module):
    """End(module) from cold caches, and the Gram kernels and nilpotency checks its radical ran."""
    clear_caches()
    ring = end_ring(module)
    grams = count_calls(monkeypatch, homs, "kernel_basis")
    checks = count_calls(monkeypatch, homs, "_check_nilpotent")
    ring.radical
    return ring, len(grams), len(checks)


@pytest.mark.parametrize("module", BRICKS, ids=BRICK_IDS)
def test_a_brick_has_zero_radical_from_the_solve(monkeypatch, module):
    ring, grams, checks = traced_radical(monkeypatch, module)
    assert (ring.dim, ring.radical.dim, ring.local, ring.radical_space().dim) == (1, 0, True, 0)
    assert (grams, checks) == (0, 0)
    assert ring.radical == regular_trace_form_radical(ring)


@pytest.mark.parametrize("module, dim, rad", [(kronecker_regular(2, 0), 2, 1), (kronecker_regular(3, 1), 3, 2)], ids=["R2(0)", "R3(1)"])
def test_a_non_brick_takes_the_trace_form(monkeypatch, module, dim, rad):
    ring, grams, checks = traced_radical(monkeypatch, module)
    assert (ring.dim, ring.radical.dim, ring.local) == (dim, rad, True)
    assert (grams, checks) == (1, 1)
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
