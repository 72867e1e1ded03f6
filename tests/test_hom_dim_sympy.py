"""dim Hom(M, N) against the nullity of the commuting-square system in sympy.

``hom_dim`` reads the dimension off the one elimination of the spun hom
system.  The oracle writes the commuting-square system
"f_t . M_a = N_a . f_s for every arrow a: s -> t" as dense integer rows
in the entries of the blocks f_v, and takes its rank with sympy's
``DomainMatrix`` over GF(p); dim Hom(M, N) is the number of unknowns
minus that rank.  sympy is a test-only tool: skipped when not installed.
"""

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from endoscope.homs import clear_caches, hom_dim  # noqa: E402
from endoscope.linalg import PrimeField  # noqa: E402
from endoscope.reps import kronecker_preinjective, kronecker_preprojective, kronecker_regular  # noqa: E402


def commuting_square_nullity(m, n, p) -> int:
    """Unknowns minus the rank over GF(p) of the commuting-square system of Hom(m, n)."""
    offsets, unknowns = {}, 0
    for v in m.presentation.quiver.vertices:
        offsets[v] = unknowns  # entry (r, c) of f_v is unknown offsets[v] + r * m_v + c
        unknowns += n.dim(v) * m.dim(v)
    rows = []
    for a in m.presentation.quiver.arrows:
        s, t = a.source, a.target
        ma, na = m.matrix(a.name).entries, n.matrix(a.name).entries
        for r in range(n.dim(t)):
            for c in range(m.dim(s)):
                # entry (r, c) of f_t . M_a - N_a . f_s
                row = [0] * unknowns
                for k in range(m.dim(t)):
                    row[offsets[t] + r * m.dim(t) + k] += int(ma[k][c])
                for k in range(n.dim(s)):
                    row[offsets[s] + k * m.dim(s) + c] -= int(na[r][k])
                rows.append(row)
    if not rows or not unknowns:
        return unknowns
    dom = sympy.GF(p)
    return unknowns - DomainMatrix([[dom(x) for x in row] for row in rows], (len(rows), unknowns), dom).rank()


@pytest.mark.parametrize("p", [2, 101])
def test_hom_dim_is_the_sympy_nullity(p):
    field = PrimeField(p)
    members = [kronecker_preinjective(i, field) for i in range(1, 7)]
    members += [kronecker_preprojective(i, field) for i in range(1, 7)]
    members += [kronecker_regular(2, lam, field) for lam in range(3)]
    clear_caches()
    dims = {(i, j): hom_dim(m, n) for i, m in enumerate(members) for j, n in enumerate(members)}
    assert dims == {(i, j): commuting_square_nullity(m, n, p) for i, m in enumerate(members) for j, n in enumerate(members)}
    assert dims[(5, 0)] == 6 and dims[(0, 5)] == 0  # Hom(I6, I1) and Hom(I1, I6)
