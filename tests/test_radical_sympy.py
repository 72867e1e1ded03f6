"""J(End M) against a trace form built in sympy.

``EndoRing.radical`` forms its Gram matrix as one sparse product of the
canonical rows of Hom(M, M).  The oracle builds the same form,
G[i][j] = sum over vertices v of tr(f_i,v f_j,v), in sympy from the vertex
blocks of the basis maps, and takes its nullspace there; the two must span
the same subspace.  sympy is a test-only tool: skipped when not installed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from endoscope.homs import end_ring  # noqa: E402
from endoscope.linalg import Subspace  # noqa: E402
from endoscope.reps import (  # noqa: E402
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
)


def _sum(reps):
    total, _, _ = direct_sum(reps)
    return total


def sympy_radical(ring) -> Subspace:
    """The nullspace of G[i][j] = sum_v tr(f_i,v f_j,v) over the maps f of
    ``ring.hom.basis``, all in sympy, as a subspace of the coordinate space."""
    blocks = [
        {v: sympy.Matrix(b.rows, b.cols, [sympy.Rational(x) for r in b.entries for x in r]) for v, b in f.blocks.items()}
        for f in ring.hom.basis
    ]
    k = ring.dim
    gram = sympy.zeros(k, k)
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = sum((blocks[i][v] * blocks[j][v]).trace() for v in blocks[i])
    vectors = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in gram.nullspace()]
    return Subspace.span(k, vectors)


@pytest.mark.parametrize(
    "module, dim",
    [
        (_sum([kronecker_preinjective(n) for n in range(1, 6)]), 35),
        (kronecker_regular(3, 0), 3),
        (_sum([kronecker_preprojective(2), kronecker_regular(1, 0), kronecker_preinjective(2)]), 7),
    ],
    ids=["I1..I5", "R3(0)", "P2+R1(0)+I2"],
)
def test_radical_is_the_sympy_trace_form_kernel(module, dim):
    ring = end_ring(module)
    assert ring.dim == dim
    assert ring.radical == sympy_radical(ring)
