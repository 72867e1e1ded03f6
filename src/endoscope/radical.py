"""Radical-of-category power profiles and nilpotence depth measurement.

For a family of indecomposables with local endomorphism rings, the
radical between members i and j is the subspace of non-isomorphisms in
Hom(M_i, M_j); its d-th power is spanned by composites of d such maps
threaded through the family.  The profile records the dimension of
every power for every ordered pair, and the depth at which all of them
vanish.  For finite families of finite-length members the profile
always vanishes; the classical bound says composites of 2^b - 1
non-isomorphisms between indecomposables of length <= b are zero.

Left-sided conditions are measured through vector-space duality: the
left profile of a family is the right profile of the dualized family
over the opposite presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homs import (
    HomalgError,
    LocalityUnverified,
    end_ring,
    hom_basis,
    is_isomorphism,
    is_local,
    noniso_subspace,
)
from .linalg import Subspace
from .reps import Morphism, Representation, dual


class RadicalError(ValueError):
    pass


@dataclass
class RadicalProfile:
    """Dimensions of radical powers between family members.

    ``dims[d-1][(i, j)]`` is the dimension of the d-th radical power
    from member i to member j; ``vanishing_depth`` is the least depth
    at which every pair vanishes (None if not reached by the requested
    maximum).
    """

    labels: tuple
    dims: tuple
    vanishing_depth: int | None
    _spaces: tuple = ()
    _members: tuple = ()

    def pair_dims(self, i, j) -> list[int]:
        return [level[(i, j)] for level in self.dims]

    def depth_reached(self) -> int:
        return len(self.dims)

    def subspace(self, depth: int, i, j) -> Subspace:
        """Coordinate subspace of the depth-d power inside Hom(i, j)."""
        return self._spaces[depth - 1][(i, j)]

    def basis_morphisms(self, depth: int, i, j) -> list[Morphism]:
        hom = hom_basis(self._member(i), self._member(j))
        return [hom.from_coordinates(v) for v in self.subspace(depth, i, j).vectors()]

    def _member(self, label) -> Representation:
        return self._members[self.labels.index(label)]


def radical_profile(members, d_max: int, labels=None) -> RadicalProfile:
    """Compute radical power dimensions up to d_max or until they vanish."""
    members = list(members)
    labels = list(labels) if labels is not None else list(range(len(members)))
    if len(labels) != len(members):
        raise RadicalError("labels and members differ in length")
    if d_max < 1:
        raise RadicalError("depth bound must be >= 1")
    for m in members:
        local = is_local(end_ring(m))
        if local is False:
            raise RadicalError(
                f"member {m!r} is decomposable; pass its indecomposable summands"
            )
        if local is not True:
            raise LocalityUnverified(
                f"member {m!r}: endomorphism ring locality could not be certified"
            )

    idx = range(len(members))
    hom = {(i, j): hom_basis(members[i], members[j]) for i in idx for j in idx}
    rad1 = {}
    for i in idx:
        for j in idx:
            sub = noniso_subspace(members[i], members[j])
            coords = [hom[(i, j)].coordinates(f) for f in sub.basis]
            rad1[(i, j)] = Subspace.span(hom[(i, j)].dim, coords)

    levels = [rad1]
    while len(levels) < d_max and any(s.dim for s in levels[-1].values()):
        prev = levels[-1]
        nxt = {}
        for i in idx:
            for j in idx:
                vecs = []
                for k in idx:
                    left = rad1[(k, j)]
                    right = prev[(i, k)]
                    if left.dim == 0 or right.dim == 0:
                        continue
                    gs = [hom[(k, j)].from_coordinates(v) for v in left.vectors()]
                    fs = [hom[(i, k)].from_coordinates(v) for v in right.vectors()]
                    for g in gs:
                        for f in fs:
                            vecs.append(hom[(i, j)].coordinates(g.compose(f)))
                nxt[(i, j)] = Subspace.span(hom[(i, j)].dim, vecs)
        levels.append(nxt)

    dims = tuple(
        {(labels[i], labels[j]): lvl[(i, j)].dim for i in idx for j in idx} for lvl in levels
    )
    spaces = tuple(
        {(labels[i], labels[j]): lvl[(i, j)] for i in idx for j in idx} for lvl in levels
    )
    vanishing = None
    for d, level in enumerate(dims, start=1):
        if all(v == 0 for v in level.values()):
            vanishing = d
            break
    return RadicalProfile(
        labels=tuple(labels),
        dims=dims,
        vanishing_depth=vanishing,
        _spaces=spaces,
        _members=tuple(members),
    )


@dataclass
class HaradaSaiReport:
    depth: int | None
    bound: int
    passed: bool
    profile: RadicalProfile


def harada_sai_check(members, length_bound: int, labels=None) -> HaradaSaiReport:
    """Measure the vanishing depth and compare against 2^b - 1.

    The bound is an upper-bound assertion only; the profile is computed
    to the bound rather than truncated early, and a profile that fails
    to vanish by the bound is reported as a failure (it would signal an
    implementation bug, not new mathematics).
    """
    members = list(members)
    for m in members:
        if m.length() > length_bound:
            raise RadicalError(
                f"member of length {m.length()} exceeds the stated bound {length_bound}"
            )
    bound = 2**length_bound - 1
    profile = radical_profile(members, d_max=bound, labels=labels)
    depth = profile.vanishing_depth
    return HaradaSaiReport(depth=depth, bound=bound, passed=depth is not None and depth <= bound, profile=profile)


@dataclass
class WitnessChain:
    """A chain of basis non-isomorphisms with a nonzero composite trail.

    ``trail[0]`` is the starting element; ``trail[t]`` is its image
    under the first t maps, each recorded nonzero.
    """

    labels: tuple
    morphisms: tuple
    trail: tuple


def right_witness(
    members,
    start,
    x,
    depth: int,
    labels=None,
    distinct: bool = False,
) -> WitnessChain | None:
    """Search for a depth-d chain of basis non-isomorphisms not killing x.

    Breadth-first over the depth-1 basis maps of the profile; absent
    means every depth-d composite of basis maps annihilates x.  With
    ``distinct`` set, chains may not revisit a member index.
    """
    members = list(members)
    labels = list(labels) if labels is not None else list(range(len(members)))
    profile = radical_profile(members, d_max=max(depth, 1), labels=labels)
    start_pos = labels.index(start)
    if len(x) != members[start_pos].total_dim:
        raise RadicalError("starting element has wrong total dimension")
    if not any(x):
        raise RadicalError("starting element must be nonzero")

    basis_maps = {}
    idx = range(len(members))
    for i in idx:
        for j in idx:
            maps = profile.basis_morphisms(1, labels[i], labels[j])
            for f in maps:
                if is_isomorphism(f):
                    raise HomalgError("radical basis contains an isomorphism")
            basis_maps[(i, j)] = maps

    states = [((labels[start_pos],), (), tuple(x), start_pos, frozenset([start_pos]))]
    for _ in range(depth):
        nxt = []
        for chain_labels, chain_maps, vec, pos, used in states:
            for j in idx:
                if distinct and j in used:
                    continue
                for f in basis_maps[(pos, j)]:
                    image = f.total_mat().apply(vec)
                    if any(image):
                        nxt.append(
                            (
                                chain_labels + (labels[j],),
                                chain_maps + (f,),
                                image,
                                j,
                                used | {j},
                            )
                        )
        if not nxt:
            return None
        states = nxt
    chain_labels, chain_maps, _, _, _ = states[0]
    trail = [tuple(x)]
    vec = tuple(x)
    for f in chain_maps:
        vec = f.total_mat().apply(vec)
        trail.append(vec)
    return WitnessChain(labels=chain_labels, morphisms=chain_maps, trail=tuple(trail))


def left_profile(members, d_max: int, labels=None) -> RadicalProfile:
    """The left-sided profile, computed on the dualized family.

    Composites on the left of the original family correspond to
    right-composites of the duals over the opposite presentation, with
    source and target labels exchanged; in particular the
    left-vanishing depth of the family equals the vanishing depth of
    the returned profile.
    """
    duals = [dual(m) for m in members]
    return radical_profile(duals, d_max=d_max, labels=labels)
