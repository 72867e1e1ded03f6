"""Endosocles of modules and of families, and their series.

The endosocle of M is its socle as a module over S = End(M): the
common kernel of the Jacobson radical J(S) acting on M.  For a direct
sum of indecomposables with local endomorphism rings it decomposes as
a direct sum of per-member components B_i, where B_i consists of the
elements of M_i killed by every non-isomorphism out of M_i into the
family.

Two series refine the invariant: the ascending one iterates socles of
quotients (equivalently, annihilators of powers of the radical), and
the relative one repeatedly trims away the members supporting the
current endosocle and recomputes on the remainder.

The endosocle, its components and the relative series are one
computation, ``_annihilated``: at every vertex v, the kernel of the rows
of the blocks f_v of the non-isomorphisms f from M to a target N, held
by ``homs.noniso_blocks`` (J(End M) for N = M), which splits each pair
once for every later endosocle that reads it.  In a family, B_i over
members R is that kernel for the targets j in R.  The kernel can only
shrink as maps are added, so the targets are walked in order and none
once B_i is zero at a vertex: a pair's hom system is solved only while
its member's kernel is nonzero.  The ascending series reads the layer
walk of J(End M) (``homs._layers``), the one that checks J nilpotent:
term k is the kernel of layer k.  The relative series keeps its terms
per member (label -> component).  Members must have certified-local
endomorphism rings (``homs.EndoRing.local``); decomposable ones are
split first by ``homs.prepare_members``, the member preparation the
radical profile shares, into summands "<label>.<k>".

Family-level reports carry optional "boundary" labels: members of a
truncated infinite family whose components may be inflated because
their annihilating maps into the excluded tail are missing.  Reports
flag those labels, and the summands "<label>.<k>" of a decomposable
boundary member, instead of asserting limit values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homs import _layers, noniso_blocks, prepare_members, require_local
from .linalg import Subspace, _kernel_rows
from .reps import Representation, SubspaceFamily, direct_sum


class EndostructureError(ValueError):
    pass


def endosocle(m: Representation) -> SubspaceFamily:
    """The socle of m over its endomorphism ring, vertex by vertex."""
    return _annihilated(m, [m])


def _annihilated(m: Representation, targets) -> SubspaceFamily:
    """Vertex by vertex, the elements of m that every non-isomorphism from m
    to a module of ``targets`` kills.

    One kernel per vertex, of the rows of the blocks f_v of
    ``homs.noniso_blocks(m, n)``, n in ``targets`` in order; all of m when
    there are no maps.  A vertex stops walking the targets once its kernel
    is zero, so a pair is split only while some vertex of m asks for it.
    """

    def rows(v):
        for n in targets:
            for block in noniso_blocks(m, n):
                yield from block[v]._copy()

    p = m.field.characteristic
    return SubspaceFamily({
        v: Subspace._from_rref(m.dim(v), _kernel_rows(rows(v), m.dim(v), p), m.field)
        for v in m.presentation.quiver.vertices
    })


def power_endosocle(m: Representation, k: int) -> SubspaceFamily:
    """Endosocle of the k-fold direct sum m^(k).

    The result is checked to be k block copies of endosocle(m), the
    homogeneity property of endosocles of powers.
    """
    if k < 1:
        raise EndostructureError("power must be >= 1")
    require_local(m)
    total, embeddings, _ = direct_sum([m] * k)
    got = endosocle(total)
    single = endosocle(m)
    expected = SubspaceFamily.zero_for(total)
    for emb in embeddings:
        expected = expected.add(single.image(emb))
    if expected != got:
        raise EndostructureError("endosocle of a power is not homogeneous")
    return got


@dataclass
class EndosocleReport:
    """Per-member endosocle components of a family direct sum."""

    labels: tuple
    components: dict
    support: tuple
    total_dim: int
    boundary: tuple = ()

    def component_dims(self) -> dict:
        return {label: fam.total_dim for label, fam in self.components.items()}

    def support_excluding_boundary(self) -> tuple:
        return tuple(l for l in self.support if l not in self.boundary)

    def dim_excluding_boundary(self) -> int:
        return sum(
            fam.total_dim for l, fam in self.components.items() if l not in self.boundary
        )


def _report(members, labels, boundary, among) -> EndosocleReport:
    """The endosocle of the sum of the prepared members with indices in the
    sequence ``among``: each B_i is annihilated by the maps into those members."""
    targets = [members[j] for j in among]
    components = {labels[i]: _annihilated(members[i], targets) for i in among}
    support = tuple(sorted((l for l, c in components.items() if c.total_dim), key=_label_key))
    total = sum(c.total_dim for c in components.values())
    return EndosocleReport(tuple(components), components, support, total, tuple(l for l in boundary if l in components))


def family_endosocle(members, labels=None, boundary=()) -> EndosocleReport:
    """Endosocle components B_i of a family of indecomposables.

    B_i is the set of elements of member i annihilated by every basis
    non-isomorphism into any member of the family (itself included).
    Decomposable members are split into their indecomposable summands
    first; members with uncertifiable locality are refused before any pair
    is solved.  The pairs (i, j) are split in the order of j only while
    B_i is nonzero, and kept (``homs.noniso_blocks``) for later families.
    """
    members, labels, boundary = prepare_members(list(members), labels, EndostructureError, boundary)
    return _report(members, labels, boundary, range(len(members)))


def _label_key(label):
    return (0, label) if isinstance(label, (int, float)) else (1, str(label))


@dataclass
class SeriesTerm:
    """A term: a subspace family of the module (ascending series), or the
    step's components, label -> ``SubspaceFamily`` (relative series)."""

    family: SubspaceFamily | dict
    support: tuple
    dim: int


@dataclass
class SeriesReport:
    """Terms of an endosocle series plus its stabilization index.

    For the ascending series the terms are weakly increasing
    subspace families of one module and ``support`` lists vertices with
    a nonzero component; for the relative series each term is the
    endosocle of the current trimmed direct sum, held as its components
    on the remaining members, ``support`` lists the member labels it
    lives on, and ``boundary`` lists the boundary labels among them.
    """

    kind: str
    terms: tuple
    stabilization_index: int
    boundary: tuple = ()


def endosocle_series(m: Representation) -> SeriesReport:
    """The ascending endosocle series of a single module.

    Term k is ann(J^k), J = J(End m).  The walk of J's blocks
    (``homs._layers``) has as layer k, at each vertex, the row space of the
    maps of J^k, so term k is its kernel there.  The walk ends at the zero
    layer, whose term is the full module: there the series stabilizes, and
    its length is the number of layers.
    """
    vertices, p = m.presentation.quiver.vertices, m.field.characteristic
    terms = []
    for layer in _layers(m, noniso_blocks(m, m)):
        kernels = {v: _kernel_rows(map(dict, layer[v].values()), m.dim(v), p) for v in vertices}
        term = SubspaceFamily({v: Subspace._from_rref(m.dim(v), kernel, m.field) for v, kernel in kernels.items()})
        terms.append(SeriesTerm(term, tuple(v for v in vertices if term.space(v).dim), term.total_dim))
    return SeriesReport(kind="ascending", terms=tuple(terms), stabilization_index=len(terms))


def relative_endosocle_series(members, labels=None, boundary=()) -> SeriesReport:
    """The relative endosocle series of a family.

    Each step records the endosocle of the direct sum of the remaining
    members, per member, together with its support, then removes the
    supported members; each pair is split at most once for all steps.  The terms
    have pairwise disjoint supports, so their sum is direct; this is
    verified.  The stabilization index is the number of nonzero terms.
    """
    members, labels, boundary = prepare_members(list(members), labels, EndostructureError, boundary)
    remaining = range(len(members))
    terms = []
    while remaining:
        report = _report(members, labels, boundary, remaining)
        if report.total_dim == 0:
            break
        terms.append(SeriesTerm(family=report.components, support=report.support, dim=report.total_dim))
        remaining = [i for i in remaining if labels[i] not in report.support]
    _verify_direct(terms)
    return SeriesReport(kind="relative", terms=tuple(terms), stabilization_index=len(terms), boundary=boundary)


def _verify_direct(terms):
    """Raise unless the terms' supports, the members with a nonzero component,
    are disjoint; distinct members are distinct summands, so the sum is direct."""
    seen = set()
    for t in terms:
        overlap = seen.intersection(t.support)
        if overlap:
            raise EndostructureError(f"series terms share support {sorted(overlap)}")
        seen.update(t.support)
