"""Tour of the exact linear algebra layer.

Every computation in this package reduces to row reduction of matrices
with exact entries, over the rationals or a prime field GF(p), so there
is no floating point anywhere; a kernel really is a kernel.  Each matrix
names its field, and the field is part of its identity.

All of rref, kernel_basis, solve, invert, rank and intersect run one
sparse Gauss-Jordan kernel: rows are held as {column: nonzero} dicts and
folded in one at a time against fully reduced pivot rows, so the cost
follows the nonzeros of the very sparse systems hom spaces produce.
"""

from fractions import Fraction

from endoscope import Mat, PrimeField, Subspace, intersect, kernel_basis, rref, solve

F = Fraction

m = Mat([[F(1), F(2)], [F(2), F(4)]])
print("m =", m)

red, pivots = rref(m)
print("rref(m) =", red, "with pivot columns", pivots)

ker = kernel_basis(m)
print("kernel of m:", ker, "spanned by", ker.vectors())

print("solve m x = (1, 2):", solve(m, (F(1), F(2))))
print("solve m x = (1, 3):", solve(m, (F(1), F(3))), "(inconsistent)")

# Subspaces carry a canonical column basis, so equality is exact and
# deterministic no matter how a subspace was produced.
a = Subspace.span(3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
b = Subspace.span(3, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
meet = intersect(a, b)
print("intersection of two planes in K^3:", meet, "=", meet.vectors())

scaled = Subspace.span(3, [(F(2), F(2), F(0)), (F(0), F(0), F(-5))])
other = Subspace.span(3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
print("same span, different generators, equal?", scaled == other)

# Over GF(p) values are residues; field.of maps rationals into the field.
gf = PrimeField(5)
m5 = Mat([[gf.of(x) for x in row] for row in m.entries], field=gf)
print("m over GF(5):", m5, "rank", m5.rank(), "kernel", kernel_basis(m5).vectors())
print("1/2 in GF(5):", gf.of(F(1, 2)), "; equal to m over QQ?", m5 == m)
