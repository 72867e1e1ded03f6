"""dim Hom(M, N) against the nullity of the commuting-square system in sympy.

``hom_dim`` reads the dimension off the one elimination of the spun hom
system.  The oracle writes the commuting-square system
"f_t . M_a = N_a . f_s for every arrow a: s -> t" as dense rows in the
entries of the blocks f_v, and takes its rank with sympy's
``DomainMatrix`` over GF(p), or over QQ for seeded rational conjugates,
whose systems have fractional entries; dim Hom(M, N) is the number of
unknowns minus that rank.  sympy is a test-only tool: skipped when not
installed.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from endoscope.homs import clear_caches, hom_dim  # noqa: E402
from endoscope.linalg import PrimeField  # noqa: E402
from endoscope.reps import kronecker_preinjective, kronecker_preprojective, kronecker_regular  # noqa: E402
from test_radical_oracle import random_conjugate  # noqa: E402


def commuting_square_nullity(m, n, dom) -> int:
    """Unknowns minus the rank over the sympy domain ``dom`` (GF(p) or QQ) of the commuting-square system of Hom(m, n)."""
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
                    row[offsets[t] + r * m.dim(t) + k] += ma[k][c]
                for k in range(n.dim(s)):
                    row[offsets[s] + k * m.dim(s) + c] -= na[r][k]
                rows.append(row)
    if not rows or not unknowns:
        return unknowns
    entry = (lambda x: dom(x.numerator, x.denominator)) if dom == sympy.QQ else (lambda x: dom(int(x)))
    return unknowns - DomainMatrix([[entry(x) for x in row] for row in rows], (len(rows), unknowns), dom).rank()


def conjugated_members():
    """Seeded rational base changes of I1..I5, P1..P5 and R2(0), R2(1), R2(2)."""
    rng = random.Random(3)
    members = [kronecker_preinjective(i) for i in range(1, 6)]
    members += [kronecker_preprojective(i) for i in range(1, 6)]
    members += [kronecker_regular(2, lam) for lam in range(3)]
    return [random_conjugate(m, rng) for m in members]


@pytest.mark.parametrize("p", [2, 101, 0], ids=["2", "101", "Q"])
def test_hom_dim_is_the_sympy_nullity(p):
    if p:
        field = PrimeField(p)
        members = [kronecker_preinjective(i, field) for i in range(1, 7)]
        members += [kronecker_preprojective(i, field) for i in range(1, 7)]
        members += [kronecker_regular(2, lam, field) for lam in range(3)]
    else:
        members = conjugated_members()
    clear_caches()
    dom = sympy.GF(p) if p else sympy.QQ
    dims = {(i, j): hom_dim(m, n) for i, m in enumerate(members) for j, n in enumerate(members)}
    assert dims == {(i, j): commuting_square_nullity(m, n, dom) for i, m in enumerate(members) for j, n in enumerate(members)}
    last = 5 if p else 4  # Hom(I6, I1) and Hom(I1, I6), or Hom(I5, I1) and Hom(I1, I5) of the conjugates
    assert dims[(last, 0)] == last + 1 and dims[(0, last)] == 0
