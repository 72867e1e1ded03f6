"""Endosocles of direct sums, and how truncation is handled.

The endosocle of M is its socle over S = End(M): the common kernel of
the Jacobson radical of S.  For a direct sum of pairwise non-isomorphic
indecomposables it splits into per-member components B_i, each the set
of elements killed by every non-isomorphism out of that member.

The landmark Kronecker computation: summing *all* preinjectives gives
endosocle I_1 + soc(I_2); trimming the family below m leaves exactly
the new lowest member I_m; preprojective sums have no endosocle at all.
At a finite truncation the top preprojective keeps its full component
only because its annihilating maps into the excluded tail are missing,
so reports flag that index as a boundary artifact.
"""

from endoscope import (
    direct_sum,
    end_ring,
    endosocle,
    family_endosocle,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
    power_endosocle,
)

s1, i2 = kronecker_preinjective(1), kronecker_preinjective(2)
total, _, _ = direct_sum([s1, i2])
ring = end_ring(total)
print("End(I1 + I2): dimension", ring.dim, "radical dimension", ring.radical.dim)
print("endosocle(I1 + I2) dims per vertex:", endosocle(total).dims())

print("\npreinjectives 1..N: support is always {1, 2}")
for N in (4, 6, 8):
    fam = [kronecker_preinjective(n) for n in range(1, N + 1)]
    report = family_endosocle(fam, labels=list(range(1, N + 1)), boundary=(N,))
    print(f"  N={N}: support {report.support}, component dims {report.component_dims()}")

print("\ntrimmed preinjectives m..m+5: the lowest member survives whole")
for m in (2, 3, 4):
    fam = [kronecker_preinjective(n) for n in range(m, m + 6)]
    report = family_endosocle(fam, labels=list(range(m, m + 6)), boundary=(m + 5,))
    print(f"  m={m}: support {report.support}, dim B_{m} = {report.component_dims()[m]} = 2*{m}-1")

print("\npreprojectives 1..N: nothing survives except the boundary artifact")
for N in (4, 6):
    fam = [kronecker_preprojective(n) for n in range(1, N + 1)]
    report = family_endosocle(fam, labels=list(range(1, N + 1)), boundary=(N,))
    print(f"  N={N}: raw support {report.support} (boundary {report.boundary}), "
          f"support off boundary {report.support_excluding_boundary()}")

print("\nregular one-parameter family: no maps between distinct parameters,")
print("so every member contributes and the support grows without bound")
for N in (3, 5, 7):
    fam = [kronecker_regular(1, lam) for lam in range(N)]
    report = family_endosocle(fam, labels=list(range(N)))
    print(f"  N={N}: support size {len(report.support)}")

print("\npowers are homogeneous: endosoc(M^k) = endosoc(M)^k")
r2 = kronecker_regular(2, 0)
single = endosocle(r2)
for k in (2, 3):
    power = power_endosocle(r2, k)
    print(f"  R2(0)^{k}: dim {power.total_dim} = {k} * {single.total_dim}")
