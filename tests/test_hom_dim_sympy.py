"""dim Hom(M, N) against the nullity of the commuting-square system in sympy.

``hom_dim`` reads the dimension off the one elimination of the spun hom
system.  The oracle writes the commuting-square system
"f_t . M_a = N_a . f_s for every arrow a: s -> t" as dense rows in the
entries of the blocks f_v, and takes its rank with sympy's
``DomainMatrix`` over GF(p), or over QQ for seeded rational conjugates,
whose systems have fractional entries; dim Hom(M, N) is the number of
unknowns minus that rank.  Relations of the algebra add no equation:
Hom between modules that satisfy them is Hom between the quiver
representations.  sympy is a test-only tool: skipped when not installed.

Beyond the Kronecker quiver, three sets are checked over GF(2), GF(3)
and QQ: Jordan blocks J_a(lam) on the one-loop quiver, where
dim Hom(J_a(lam), J_b(mu)) = min(a, b) if lam = mu and 0 otherwise is a
second exact oracle, and where the spun relations of J_a(1) meet the
node's own generator, so that two terms of one equation land on one unknown;
seeded random members of the 3-Kronecker quiver; and the family of a
quiver with a loop and a relation from ``test_hom_spin``.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from endoscope import spin  # noqa: E402
from endoscope.homs import clear_caches, hom_dim  # noqa: E402
from endoscope.linalg import QQ, Mat, PrimeField  # noqa: E402
from endoscope.quiver import AlgebraPresentation, Quiver  # noqa: E402
from endoscope.reps import Representation, kronecker_preinjective, kronecker_preprojective, kronecker_regular  # noqa: E402
from test_hom_spin import bound_family  # noqa: E402
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


LOOP = AlgebraPresentation(Quiver(["1"], [("x", "1", "1")]))
KRONECKER_3 = AlgebraPresentation(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")]))
FIELDS = {"2": PrimeField(2), "3": PrimeField(3), "Q": QQ}


def jordan_block(a, lam, field):
    """J_a(lam) on the one-loop quiver: lam on the diagonal, 1 above it."""
    x = Mat([[lam if c == r else 1 if c == r + 1 else 0 for c in range(a)] for r in range(a)], a, a, field)
    return Representation(LOOP, {"1": a}, {"x": x}, field)


def jordan_blocks(field):
    return [jordan_block(a, lam, field) for lam in (0, 1) for a in range(1, 6)]


def random_kronecker_3(field, seed=11, count=10):
    """Seeded members of 1 =a,b,c=> 2 with dims up to 3 and entries in -2..2."""
    rng = random.Random(seed)
    members = []
    for _ in range(count):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        mats = {name: Mat([[field.of(rng.randint(-2, 2)) for _ in range(d1)] for _ in range(d2)], d2, d1, field) for name in "abc"}
        members.append(Representation(KRONECKER_3, {"1": d1, "2": d2}, mats, field))
    return members


def meets_own_generator(m, dual_side) -> bool:
    """Whether a relation of m's spin names a node with the generator of its own node."""
    nodes, relations, _ = spin.presentation(m, dual_side)

    def root(k):
        while nodes[k][1] is not None:
            k = nodes[k][1]
        return k

    return any(root(k) == root(node) for node, _, combination in relations for k in combination)


@pytest.mark.parametrize("p", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("family", ["jordan", "kronecker-3", "bound"])
def test_hom_dim_beyond_the_kronecker_quiver(p, family, tmp_path):
    field = FIELDS[p]
    members = {"jordan": jordan_blocks, "kronecker-3": random_kronecker_3, "bound": lambda f: bound_family(tmp_path, f)}[family](field)
    clear_caches()
    dom = sympy.GF(field.characteristic) if field.characteristic else sympy.QQ
    dims = {(i, j): hom_dim(m, n) for i, m in enumerate(members) for j, n in enumerate(members)}
    assert dims == {(i, j): commuting_square_nullity(m, n, dom) for i, m in enumerate(members) for j, n in enumerate(members)}
    assert any(dims.values()) and not all(dims.values())
    if family == "jordan":
        shapes = [(a, lam) for lam in (0, 1) for a in range(1, 6)]
        assert dims == {(i, j): min(a, b) if lam == mu else 0 for i, (a, lam) in enumerate(shapes) for j, (b, mu) in enumerate(shapes)}
        # J_a(1) is spun from one generator e with x^a e a combination of e, ..., x^(a-1) e
        assert all(meets_own_generator(m, side) == (lam == 1) for m, (_, lam) in zip(members, shapes) for side in (False, True))
