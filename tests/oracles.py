"""Independent constructions kept as test oracles.

``commuting_square_basis`` is the first hom-space builder: one kernel of
the commuting-square system "f_target(a) . M_a = N_a . f_source(a) for
every arrow a", with sum_v m_v * n_v unknowns in the ``Morphism.flatten``
layout.  ``preimage`` is the subspace {x : m @ x in sub}.
``stable_by_images`` and ``endo_invariant_by_images`` are the first
endo-invariance test: the image subspace of sub under every map (every
End(M) basis map), checked to lie in sub.  ``multiply_coords`` is the
product of End(M) in the coordinates of ``ring.hom``, composed on M.
"""

from endoscope.homs import hom_basis
from endoscope.linalg import Mat, Subspace, kernel_basis, sparse_kernel
from endoscope.reps import Morphism, Representation


def commuting_square_basis(m: Representation, n: Representation) -> list[Morphism]:
    """A basis of Hom(m, n): the canonical kernel basis of the commuting-square system."""
    quiver = m.presentation.quiver
    p = m.field.characteristic
    # unknown offsets[v] + i * m.dim(v) + j is entry (i, j) of the block f_v
    offsets = {}
    unknowns = 0
    for v in quiver.vertices:
        offsets[v] = unknowns
        unknowns += n.dim(v) * m.dim(v)

    equations = []
    for a in quiver.arrows:
        ma = m.matrix(a.name).transpose()
        na = n.matrix(a.name)
        # (f_t @ ma)[r, c] - (na @ f_s)[r, c] = 0 couples f_t[r, k] with ma[k, c]
        # and f_s[k, c] with na[r, k]; na_rows holds the negated entries
        ma_cols = [ma.row(c).items() for c in range(ma.rows)]
        na_rows = [[(k, p - x if p else -x) for k, x in na.row(r).items()] for r in range(na.rows)]
        width_t, width_s, off_s = m.dim(a.target), m.dim(a.source), offsets[a.source]
        for r, na_row in enumerate(na_rows):
            base_t = offsets[a.target] + r * width_t
            for c, ma_col in enumerate(ma_cols):
                eq = {base_t + k: x for k, x in ma_col}
                for k, y in na_row:
                    idx = off_s + k * width_s + c
                    x = eq.get(idx)
                    eq[idx] = y if x is None else (x + y) % p if p else x + y
                equations.append(eq)

    return [Morphism.unflatten(m, n, vec) for vec in sparse_kernel(equations, unknowns, m.field)]


def preimage(sub: Subspace, m: Mat) -> Subspace:
    """{x : m @ x lies in sub}."""
    return kernel_basis(sub.annihilator() @ m)


def stable_by_images(sub: Subspace, maps) -> bool:
    """m(sub) ⊆ sub for every matrix m in ``maps``, one image subspace per map."""
    return all(sub.contains_subspace(sub.image(m)) for m in maps)


def endo_invariant_by_images(sub: Subspace, rep: Representation) -> bool:
    """f(sub) ⊆ sub for every basis endomorphism f of rep, by image subspaces."""
    return stable_by_images(sub, (f.total_mat() for f in hom_basis(rep, rep).basis))


def multiply_coords(ring, x, y) -> tuple:
    """Coordinates in ``ring.hom`` of the product "x after y", composed on M."""
    hom = ring.hom
    return hom.coordinates(hom.from_coordinates(x).compose(hom.from_coordinates(y)))
