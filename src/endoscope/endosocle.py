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

Family-level reports carry optional "boundary" labels: members of a
truncated infinite family whose components may be inflated because
their annihilating maps into the excluded tail are missing.  Reports
flag those labels instead of asserting limit values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homs import (
    LocalityUnverified,
    end_ring,
    indecompose,
    is_local,
    noniso_subspace,
)
from .linalg import intersect, kernel_basis
from .reps import Morphism, Representation, SubspaceFamily, direct_sum


class EndostructureError(ValueError):
    pass


def endosocle(m: Representation) -> SubspaceFamily:
    """The socle of m over its endomorphism ring, vertex by vertex."""
    ring = end_ring(m)
    rad = ring.radical_morphisms()
    if not rad:
        return SubspaceFamily.full_for(m)
    return _common_kernel(m, rad)


def _common_kernel(m: Representation, morphisms) -> SubspaceFamily:
    spaces = {}
    for v in m.presentation.quiver.vertices:
        blocks = [f.block(v) for f in morphisms]
        stacked = blocks[0]
        for b in blocks[1:]:
            stacked = stacked.vstack(b)
        spaces[v] = kernel_basis(stacked)
    return SubspaceFamily(spaces)


def power_endosocle(m: Representation, k: int) -> SubspaceFamily:
    """Endosocle of the k-fold direct sum m^(k).

    The result is checked to be k block copies of endosocle(m), the
    homogeneity property of endosocles of powers.
    """
    if k < 1:
        raise EndostructureError("power must be >= 1")
    if is_local(end_ring(m)) is not True:
        raise LocalityUnverified("power endosocle requires a verified-local summand")
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


def _prepare_members(members, labels):
    """Verify locality, splitting decomposable members into summands.

    A member whose endomorphism ring is certified non-local is replaced
    by its indecomposable summands (labelled "<label>.<k>"); a member
    whose locality cannot be certified either way raises.
    """
    out_members, out_labels = [], []
    for m, label in zip(members, labels):
        local = is_local(end_ring(m))
        if local is True:
            out_members.append(m)
            out_labels.append(label)
        elif local is False:
            for k, part in enumerate(indecompose(m)):
                out_members.append(part)
                out_labels.append(f"{label}.{k}")
        else:
            raise LocalityUnverified(
                f"member {m!r}: endomorphism ring locality could not be certified"
            )
    return out_members, out_labels


def family_endosocle(members, labels=None, boundary=()) -> EndosocleReport:
    """Endosocle components B_i of a family of indecomposables.

    B_i is the set of elements of member i annihilated by every basis
    non-isomorphism into any member of the family (itself included).
    Decomposable members are split into their indecomposable summands
    first; members with uncertifiable locality are refused.
    """
    members = list(members)
    labels = list(labels) if labels is not None else list(range(len(members)))
    if len(labels) != len(members):
        raise EndostructureError("labels and members differ in length")
    members, labels = _prepare_members(members, labels)

    components = {}
    for i, m in enumerate(members):
        annihilators: list[Morphism] = []
        for j, n in enumerate(members):
            if i == j:
                annihilators.extend(end_ring(m).radical_morphisms())
            else:
                annihilators.extend(noniso_subspace(m, n).basis)
        if not annihilators:
            components[labels[i]] = SubspaceFamily.full_for(m)
        else:
            components[labels[i]] = _common_kernel(m, annihilators)

    support = tuple(sorted((l for l in labels if components[l].total_dim > 0), key=_label_key))
    total = sum(components[l].total_dim for l in labels)
    return EndosocleReport(
        labels=tuple(labels),
        components=components,
        support=support,
        total_dim=total,
        boundary=tuple(b for b in boundary if b in labels),
    )


def _label_key(label):
    return (0, label) if isinstance(label, (int, float)) else (1, str(label))


@dataclass
class SeriesTerm:
    family: SubspaceFamily
    support: tuple
    dim: int


@dataclass
class SeriesReport:
    """Terms of an endosocle series plus its stabilization index.

    For the ascending series the terms are weakly increasing
    subspace families of one module and ``support`` lists vertices with
    a nonzero component; for the relative series each term is the
    endosocle of the current trimmed direct sum (embedded in the full
    sum) and ``support`` lists the member labels it lives on.
    """

    kind: str
    terms: tuple
    stabilization_index: int

    @property
    def length(self) -> int:
        return self.stabilization_index


def endosocle_series(m: Representation) -> SeriesReport:
    """The ascending endosocle series of a single module.

    Term k is the annihilator of J(End m)^k; the chain is continued
    until it stabilizes, which for a faithful finite-dimensional module
    happens at the full module.
    """
    ring = end_ring(m)
    rad = ring.radical_morphisms()
    vertices = m.presentation.quiver.vertices
    current = SubspaceFamily.zero_for(m)
    terms = []
    while True:
        if not rad:
            nxt = SubspaceFamily.full_for(m)
        else:
            spaces = {}
            for v in vertices:
                constraint = None
                for r in rad:
                    pre = current.space(v).preimage(r.block(v))
                    constraint = pre if constraint is None else intersect(constraint, pre)
                spaces[v] = constraint
            nxt = SubspaceFamily(spaces)
        if nxt == current:
            break
        terms.append(
            SeriesTerm(
                family=nxt,
                support=tuple(v for v in vertices if nxt.space(v).dim > 0),
                dim=nxt.total_dim,
            )
        )
        current = nxt
    return SeriesReport(kind="ascending", terms=tuple(terms), stabilization_index=len(terms))


def relative_endosocle_series(members, labels=None, boundary=()) -> SeriesReport:
    """The relative endosocle series of a family.

    Each step records the endosocle of the direct sum of the remaining
    members (embedded into the full direct sum) together with its
    support, then removes the supported members.  The recorded terms
    have pairwise disjoint supports, so their sum is direct; this is
    verified.  The stabilization index is the number of nonzero terms.
    """
    members = list(members)
    labels = list(labels) if labels is not None else list(range(len(members)))
    members, labels = _prepare_members(members, labels)
    total, embeddings, _ = direct_sum(members) if members else (None, [], [])
    vertices = members[0].presentation.quiver.vertices if members else ()

    remaining = list(range(len(members)))
    terms = []
    while remaining:
        report = family_endosocle(
            [members[i] for i in remaining],
            labels=[labels[i] for i in remaining],
            boundary=boundary,
        )
        if report.total_dim == 0:
            break
        term = SubspaceFamily.zero_for(total)
        for i in remaining:
            term = term.add(report.components[labels[i]].image(embeddings[i]))
        terms.append(SeriesTerm(family=term, support=report.support, dim=report.total_dim))
        supported = set(report.support)
        remaining = [i for i in remaining if labels[i] not in supported]

    _verify_direct(terms, vertices)
    return SeriesReport(kind="relative", terms=tuple(terms), stabilization_index=len(terms))


def _verify_direct(terms, vertices):
    seen = set()
    for t in terms:
        overlap = seen.intersection(t.support)
        if overlap:
            raise EndostructureError(f"series terms share support {sorted(overlap)}")
        seen.update(t.support)
    if not terms:
        return
    for v in vertices:
        acc = None
        dim_sum = 0
        for t in terms:
            s = t.family.space(v)
            dim_sum += s.dim
            acc = s if acc is None else acc.add(s)
        if acc is not None and acc.dim != dim_sum:
            raise EndostructureError("sum of series terms is not direct")
