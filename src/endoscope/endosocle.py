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

The endosocle, its components and both series are one computation,
``_annihilated``: at every vertex v, the x in M_v with f_v(x) in W_v
(zero unless given) for each map f from M to a target N, the kernel of
the rows of the blocks annihilator(W_v) @ f_v.  The maps are the
non-isomorphisms M -> N, held as vertex blocks by ``homs.noniso_blocks``
(J(End M) for N = M), which splits each pair once and keeps the split
for every later endosocle that reads the pair.  In a family, B_i over
members R is that kernel for the targets j in R.  The kernel can only
shrink as maps are added, so the targets are walked in order and none
once B_i is zero at a vertex: a pair's hom system is solved only while
its member's kernel is nonzero.  The relative series keeps its terms
per member (label -> component).  Members must have certified-local
endomorphism rings (``homs.EndoRing.local``); decomposable ones are
split by ``homs.indecompose`` first.

Family-level reports carry optional "boundary" labels: members of a
truncated infinite family whose components may be inflated because
their annihilating maps into the excluded tail are missing.  Reports
flag those labels, and the summands "<label>.<k>" of a decomposable
boundary member, instead of asserting limit values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homs import indecompose, noniso_blocks, require_local
from .linalg import Subspace, _kernel_rows
from .reps import Representation, SubspaceFamily, direct_sum, family_labels


class EndostructureError(ValueError):
    pass


def endosocle(m: Representation) -> SubspaceFamily:
    """The socle of m over its endomorphism ring, vertex by vertex."""
    return _annihilated(m, [m])


def _annihilated(m: Representation, targets, within: SubspaceFamily | None = None) -> SubspaceFamily:
    """Vertex by vertex, the elements of m that every non-isomorphism from m
    to a module of ``targets`` sends into ``within`` (zero when None), a
    subspace family of the single target it comes with.

    One kernel per vertex, of the rows of the blocks annihilator(W_v) @ f_v
    of ``homs.noniso_blocks(m, n)``, n in ``targets`` in order; all of m when
    there are no maps.  A vertex stops walking the targets once its kernel
    is zero, so a pair is split only while some vertex of m asks for it.
    """

    def rows(v):
        annihilator = None if within is None else within.space(v).annihilator()
        for n in targets:
            for block in noniso_blocks(m, n):
                yield from (block[v] if annihilator is None else annihilator @ block[v])._copy()

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


def _prepare_members(members, labels, boundary=()):
    """The members' indecomposable summands (``homs.indecompose``), their
    labels, and the boundary labels among them.

    A member that is its one summand keeps its label; the summands of a
    decomposable one are labelled "<label>.<k>", and a boundary flag on
    it passes to each of them.  Boundary labels of no member are dropped.
    ``labels`` are checked first, and the new labels must not collide
    with them either.  A zero member, which has no summand to label, is
    refused.
    """
    labels = family_labels(members, labels, EndostructureError)
    out_members, out_labels, summands = [], [], {}
    for m, label in zip(members, labels):
        if m.is_zero():
            raise EndostructureError(f"member {m!r} is the zero module; members must be nonzero")
        parts = indecompose(m)
        out_members += parts
        summands[label] = [label] if len(parts) == 1 else [f"{label}.{k}" for k in range(len(parts))]
        out_labels += summands[label]
    out_labels = family_labels(out_members, out_labels, EndostructureError)
    return out_members, out_labels, tuple(s for b in boundary if b in summands for s in summands[b])


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
    members, labels, boundary = _prepare_members(list(members), labels, boundary)
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

    Term k is the annihilator of J(End m)^k; the chain is continued
    until it stabilizes, which for a faithful finite-dimensional module
    happens at the full module.
    """
    vertices = m.presentation.quiver.vertices
    current = SubspaceFamily.zero_for(m)
    terms = []
    while True:
        # term k + 1 is sent into term k by every radical map
        nxt = _annihilated(m, [m], current)
        if nxt == current:
            break
        terms.append(SeriesTerm(nxt, tuple(v for v in vertices if nxt.space(v).dim), nxt.total_dim))
        current = nxt
    return SeriesReport(kind="ascending", terms=tuple(terms), stabilization_index=len(terms))


def relative_endosocle_series(members, labels=None, boundary=()) -> SeriesReport:
    """The relative endosocle series of a family.

    Each step records the endosocle of the direct sum of the remaining
    members, per member, together with its support, then removes the
    supported members; each pair is split at most once for all steps.  The terms
    have pairwise disjoint supports, so their sum is direct; this is
    verified.  The stabilization index is the number of nonzero terms.
    """
    members, labels, boundary = _prepare_members(list(members), labels, boundary)
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
