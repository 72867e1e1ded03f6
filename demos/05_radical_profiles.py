"""Radical power profiles: measuring composites of non-isomorphisms.

The radical between indecomposables i and j is the space of
non-isomorphisms in Hom(M_i, M_j); its d-th power is spanned by
composites of d such maps through the family.  The depth at which the
profile vanishes measures how long non-trivial composite chains can
get, and for members of length <= b it is bounded by 2^b - 1.  Per
member, the row depth bounds the chains out of it and the column depth
the composites into it.  Witness chains make the surviving composites
concrete.
"""

from fractions import Fraction

from endoscope import (
    harada_sai_check,
    kronecker_preinjective,
    length_bounded_kronecker_family,
    radical_profile,
    right_witness,
)

fam = [kronecker_preinjective(n) for n in (1, 2, 3)]
labels = [1, 2, 3]
profile = radical_profile(fam, d_max=8, labels=labels)
print("preinjectives I1, I2, I3:")
for (i, j), d in sorted(profile.dims[0].items()):
    if d:
        print(f"  rad^1({i} -> {j}) has dimension {d}")
print("  dims by depth for 3 -> 1:", profile.pair_dims(3, 1))
print("  vanishing depth:", profile.vanishing_depth)

x = [Fraction(0)] * fam[2].total_dim
x[0] = Fraction(1)  # a top generator of I3
chain = right_witness(fam, start=3, x=x, depth=2, labels=labels)
print("\na depth-2 witness chain from I3:", " -> ".join(str(l) for l in chain.labels))
print("  image dimensions stay nonzero along the trail:", [any(v) for v in chain.trail])
print("  at depth 3 every composite kills x:",
      right_witness(fam, start=3, x=x, depth=3, labels=labels) is None)

print("\nper-member depths of the same profile:")
print("  row depths (chains out of I_i):", [profile.row_depth(i) for i in labels])
print("  column depths (composites into I_j):", [profile.column_depth(j) for j in labels])

members, tags = length_bounded_kronecker_family(5)
report = harada_sai_check(members, 5, labels=tags)
print("\nall Kronecker indecomposables of length <= 5",
      f"(regular classes sampled at 0, 1, infinity): {tags}")
print(f"  measured vanishing depth {report.depth} against the bound 2^5 - 1 = {report.bound}:",
      "PASS" if report.passed else "FAIL")
