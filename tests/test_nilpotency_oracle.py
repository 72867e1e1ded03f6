"""The nilpotency check of End(M)'s trace-form radical against stacked images.

``homs._check_nilpotent`` holds each layer W, J^s M, as sparse rows and
eliminates every image at a vertex in one pass, stopping at a layer that
does not shrink.  The oracle is the first check
(``oracles.nilpotent_by_stacked_images``): each layer's images joined with
``Mat.hstack`` and re-eliminated as a ``Subspace``, for dim M layers.  Both
must accept the same map sets and refuse the same ones.
"""

import pytest
from hypothesis import given, settings

from endoscope import homs
from endoscope.harness import _mixed_families
from endoscope.homs import HomalgError, _check_nilpotent, clear_caches, end_ring, noniso_blocks
from endoscope.linalg import Mat
from endoscope.reps import Morphism, direct_sum, kronecker_preinjective, kronecker_regular
from oracles import nilpotent_by_stacked_images
from test_properties import kronecker_reps


def _sum(reps):
    total, _, _ = direct_sum(reps)
    return total


def _passes(module, maps) -> bool:
    try:
        _check_nilpotent(module, maps)
    except HomalgError:
        return False
    return True


def _agree(module, maps) -> bool:
    """Both routes' answer, asserted equal."""
    answer = _passes(module, maps)
    assert answer == nilpotent_by_stacked_images(module, maps)
    return answer


def _radical_blocks(module):
    return list(noniso_blocks(module, module))


_SUMS = {f"I1..I{n}": _sum([kronecker_preinjective(k) for k in range(1, n + 1)]) for n in range(1, 7)}
_SUMS["R2(0)"] = kronecker_regular(2, 0)
_SUMS.update((tag, _sum(members)) for tag, members in _mixed_families())


@pytest.mark.parametrize("module", list(_SUMS.values()), ids=list(_SUMS))
def test_radical_is_nilpotent_on_both_routes(module):
    assert _agree(module, _radical_blocks(module))


@pytest.mark.parametrize("module", list(_SUMS.values()), ids=list(_SUMS))
def test_radical_with_the_identity_is_refused_on_both_routes(module):
    ident = Morphism.identity(module).blocks
    assert not _agree(module, [ident])
    assert not _agree(module, _radical_blocks(module) + [ident])


def test_idempotent_is_refused_on_both_routes():
    total, embeddings, projections = direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])
    idempotent = embeddings[0].compose(projections[0])
    assert idempotent.compose(idempotent) == idempotent
    assert not _agree(total, [idempotent.blocks])


@given(kronecker_reps(max_dim=2))
@settings(max_examples=25, deadline=None)
def test_random_modules_agree_on_both_routes(module):
    ring = end_ring(module)
    assert _agree(module, _radical_blocks(module))
    # the whole of End(M) holds the identity, so it is refused on both routes
    assert not _agree(module, [f.blocks for f in ring.hom.basis])


def test_non_shrinking_layer_is_refused_at_once(monkeypatch):
    # W_1 = (1 + J) M = M keeps the dimension of W_0 = M, so the check stops
    # after one layer: one elimination per vertex, not dim M = 36 layers of them
    module = _SUMS["I1..I6"]
    maps = _radical_blocks(module) + [Morphism.identity(module).blocks]
    calls = []
    original = homs._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(homs, "_eliminate", counted)
    with pytest.raises(HomalgError):
        _check_nilpotent(module, maps)
    assert len(calls) == len(module.presentation.quiver.vertices) == 2


def test_radical_builds_no_hstack(monkeypatch):
    clear_caches()

    def refused(self, other):
        raise AssertionError("Mat.hstack called")

    monkeypatch.setattr(Mat, "hstack", refused)
    ring = end_ring(_sum([kronecker_preinjective(k) for k in range(1, 6)]))
    assert ring.dim == 35
    assert ring.radical.dim == 30
