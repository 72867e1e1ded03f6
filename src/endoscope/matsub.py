"""Pointed matrices and the finite matrix subgroups they cut out.

A pointed matrix is a finite grid of algebra elements together with a
distinguished column index.  Evaluated on a representation M it yields
the projection, onto the pointed block, of the solution set of the
homogeneous block system sum_j a_ij X_j = 0 inside M^J.  Such
subgroups are stable under every endomorphism of M, which
``check_endo_invariant`` tests on the annihilator of the subgroup
(``Subspace.is_stable``) against each End(M) basis map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .homs import hom_basis
from .linalg import Mat, Subspace, assemble, intersect_all, kernel_basis
from .quiver import AlgebraElement, AlgebraPresentation, QuiverError, act
from .reps import Representation


class MatrixSubgroupError(ValueError):
    pass


@dataclass(frozen=True)
class PointedMatrix:
    """A grid of algebra elements with a pointed column."""

    entries: tuple
    pointer: int

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise MatrixSubgroupError("pointed matrix needs at least one entry")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise MatrixSubgroupError("ragged pointed matrix")
        pres = self.presentation
        for row in self.entries:
            for el in row:
                if el.presentation != pres:
                    raise MatrixSubgroupError("entries over different presentations")
        if not 0 <= self.pointer < width:
            raise MatrixSubgroupError("pointer outside the column range")

    @property
    def presentation(self) -> AlgebraPresentation:
        return self.entries[0][0].presentation

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    @classmethod
    def of(cls, rows: Sequence[Sequence[AlgebraElement]], pointer: int) -> "PointedMatrix":
        return cls(tuple(tuple(r) for r in rows), pointer)

    def append_row(self, row: Sequence[AlgebraElement]) -> "PointedMatrix":
        return PointedMatrix(self.entries + (tuple(row),), self.pointer)


def evaluate(pm: PointedMatrix, rep: Representation) -> Subspace:
    """The matrix subgroup of rep cut out by the pointed matrix.

    Assembles the block coefficient matrix of the system on (total
    space)^J, takes its kernel, and projects onto the pointed block.
    The result is a subspace of the total space of rep (it need not be
    vertexwise).
    """
    if rep.presentation != pm.presentation:
        raise QuiverError("pointed matrix and representation use different presentations")
    nrows, ncols = pm.shape
    t = rep.total_dim
    if t == 0:
        return Subspace.zero(0, rep.field)
    blocks = [(i * t, j * t, act(el, rep)) for i, row in enumerate(pm.entries) for j, el in enumerate(row)]
    ker = kernel_basis(assemble(nrows * t, ncols * t, blocks, rep.field))
    pointed = assemble(t, ncols * t, [(0, pm.pointer * t, Mat.identity(t, rep.field))], rep.field)
    return ker.image(pointed)


def image_subgroup(element: AlgebraElement, rep: Representation) -> Subspace:
    """The subgroup r.M, encoded as the pointed matrix [[1, -r]] at column 0."""
    pres = element.presentation
    pm = PointedMatrix.of([[pres.one(), -element]], 0)
    return evaluate(pm, rep)


def check_endo_invariant(sub: Subspace, rep: Representation) -> bool:
    """True iff f(sub) ⊆ sub for every basis endomorphism f of rep.

    Each f acts by its total matrix (assembled once per morphism), and
    the test runs on the annihilator of sub (``Subspace.is_stable``): f
    keeps sub iff every annihilator row q has q f in the annihilator.
    The annihilator is read by columns, so f costs work only at its
    nonzero rows.  A subspace over another field than rep's raises
    ``LinalgError``.
    """
    if sub.ambient_dim != rep.total_dim:
        raise MatrixSubgroupError("subspace does not live in the total space")
    return sub.is_stable(f.total_mat() for f in hom_basis(rep, rep).basis)


def meet(subs: Sequence[Subspace]) -> Subspace:
    """Iterated intersection; normalizes descending chains of subgroups."""
    if not subs:
        raise MatrixSubgroupError("empty meet")
    return intersect_all(list(subs))


def random_pointed_matrix(presentation: AlgebraPresentation, rng) -> PointedMatrix:
    """A seeded random pointed matrix for property sweeps, with one or
    two rows and one or two columns.

    Entries are drawn from zero, the trivial paths, the arrows, and
    sums of two distinct arrows.
    """
    pool = [presentation.zero()]
    pool += [presentation.trivial(v) for v in presentation.quiver.vertices]
    arrows = [presentation.arrow_element(a.name) for a in presentation.quiver.arrows]
    pool += arrows
    pool += [a + b for i, a in enumerate(arrows) for b in arrows[i + 1 :]]
    nrows = rng.randint(1, 2)
    ncols = rng.randint(1, 2)
    entries = tuple(
        tuple(pool[rng.randrange(len(pool))] for _ in range(ncols)) for _ in range(nrows)
    )
    return PointedMatrix(entries, rng.randrange(ncols))
