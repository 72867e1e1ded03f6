"""Radical-of-category power profiles and nilpotence depth measurement.

For a family of indecomposables with local endomorphism rings, the
radical between members i and j is the subspace of non-isomorphisms in
Hom(M_i, M_j); its d-th power is spanned by composites of d such maps
threaded through the family.  The profile records the dimension of
every power for every ordered pair, and the depth at which all of them
vanish.  For finite families of finite-length members the profile
always vanishes; the classical bound says composites of 2^b - 1
non-isomorphisms between indecomposables of length <= b are zero.

The profile is built level by level, one ordered pair at a time.  Each
power of a pair is held as the canonical reduced echelon rows of its
span in the ``Morphism.flatten`` layout, where the composites are formed
one at a time (``reps.composite_flats``) and reduced until they span as
much as the power before, which holds them; a ``Morphism`` is built only
for the basis maps a caller asks for.  A level's rows, scaled to coprime
ints (``linalg.primitive_row``) so that every product is an int product,
are decoded from the flats (``reps.decode_flats``), with no ``Mat`` built,
once per pair, when a composite is first drawn through them; a power that
keeps its dimension keeps its rows and their decoding.  From depth 3 on
only the irreducible maps, a complement of rad^2 in rad, are composed on
the left; a middle member with no map on one side is skipped, and a pair
whose power has vanished is not composed again.  Every level is built on
the least-height member of each isomorphism class at source, middle and
target, so a rational conjugate of an integer module is not composed;
another pair's rows are carried over through the certified isomorphisms
when first asked for.  ``radical_profile`` proves that all of this spans
the same powers.

Both sides of semi-T-nilpotence are read per member from one profile: the
row depth bounds the chains out of a member, the column depth those into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .homs import (
    HomalgError,
    HomSpace,
    end_ring,
    hom_basis,
    is_isomorphism,
    is_local,
    iso_classes,
    require_local,
)
from .linalg import Subspace, _eliminate, _reduce, primitive_row
from .reps import Morphism, composite_flats, decode_blocks, decode_flats, family_labels, flat_blocks


class RadicalError(ValueError):
    pass


@dataclass
class RadicalProfile:
    """Dimensions of radical powers between family members.

    ``dims[d-1][(i, j)]`` is the dimension of the d-th radical power
    from member i to member j; ``vanishing_depth`` is the least depth
    at which every pair vanishes (None if not reached by the requested
    maximum).  Depths run over 1..``depth_reached()``; a depth outside
    it, or a label that is not a member's, is a ``RadicalError``.  One
    dimension is kept per pair of class representatives, read through
    the class map; ``dims`` spells them out for every label pair.
    """

    labels: tuple
    vanishing_depth: int | None
    _dims: tuple  # per depth: {(a, b) representatives' positions: dimension}
    _rows: dict  # (depth, i, j) positions -> canonical flatten-layout rows; copies' pairs once asked for
    _members: tuple
    _classes: tuple  # per member: (its representative's position, IsoCertificate)
    _index: dict  # label -> position
    _decoded: dict = field(default_factory=dict)  # decodings shared by the pairs carried over

    @cached_property
    def dims(self) -> tuple:
        cls = [c for c, _ in self._classes]
        pairs = [((i, j), (a, b)) for i, a in zip(self.labels, cls) for j, b in zip(self.labels, cls)]
        return tuple({pair: level[rep] for pair, rep in pairs} for level in self._dims)

    def pair_dims(self, i, j) -> list[int]:
        pair = self._classes[self._position(i)][0], self._classes[self._position(j)][0]
        return [level[pair] for level in self._dims]

    def depth_reached(self) -> int:
        return len(self._dims)

    def row_depth(self, i) -> int | None:
        """The least depth d with R_d(i, j) = 0 for every member j (the chains out of i), or None if none reached has it."""
        return self._depth(i, 0)

    def column_depth(self, j) -> int | None:
        """The least depth d with R_d(i, j) = 0 for every member i (the composites into j), or None likewise."""
        return self._depth(j, 1)

    def _depth(self, label, side: int) -> int | None:
        a = self._classes[self._position(label)][0]
        return next((d for d, level in enumerate(self._dims, start=1) if not any(n for p, n in level.items() if p[side] == a)), None)

    def subspace(self, depth: int, i, j) -> Subspace:
        """Coordinate subspace of the depth-d power inside Hom(i, j), from the
        basis maps; ``hom.coordinates`` raises if one leaves the space."""
        maps = self.basis_morphisms(depth, i, j)
        hom = hom_basis(self._members[self._position(i)], self._members[self._position(j)])
        rows = _eliminate(({k: x for k, x in enumerate(hom.coordinates(f)) if x} for f in maps), hom.source.field.characteristic)
        return Subspace._from_rref(hom.dim, rows, hom.source.field)

    def basis_morphisms(self, depth: int, i, j) -> list[Morphism]:
        """The canonical basis of the depth-d power from i to j, as maps built
        with validation, which raises unless each commutes with the arrows.
        A pair not of two representatives is carried over when first asked
        for: its rows span psi R_d(a, b) phi^-1, as many as R_d(a, b) has (``radical_profile``)."""
        if depth not in range(1, self.depth_reached() + 1):
            raise RadicalError(f"depth {depth!r} is outside 1..{self.depth_reached()}")
        key = (depth, self._position(i), self._position(j))
        _, i, j = key
        source, target = self._members[i], self._members[j]
        if key not in self._rows:
            (a, phi), (b, psi) = self._classes[i], self._classes[j]
            m_a, m_b = self._members[a], self._members[b]
            once = self._decode_once
            rep_maps = once((depth, a, b), lambda: decode_flats(m_a, m_b, self._rows[(depth, a, b)]))
            psi_maps = once(("psi", j), lambda: decode_blocks(m_b, target, [psi.witness.blocks]))
            # psi R_d(a, b), shared by every copy i of a
            psi_r = once(("psi", depth, a, j), lambda: decode_flats(m_a, target, composite_flats(psi_maps, rep_maps)))
            phi_inv = once(("phi^-1", i), lambda: decode_blocks(source, m_a, [phi.inverse.blocks]))
            flats = composite_flats(psi_r, phi_inv)
            carried = list(HomSpace.span(source, target, flats).rows.values())
            if len(carried) != len(rep_maps):
                raise HomalgError(f"a copy's pair carried {len(carried)} of the {len(rep_maps)} rows of its depth-{depth} power")
            self._rows[key] = carried
        return [Morphism(source, target, flat_blocks(source, target, r)) for r in self._rows[key]]

    def _decode_once(self, name, decode):
        """The decoding kept under ``name``, made by ``decode()`` on first use."""
        if name not in self._decoded:
            self._decoded[name] = decode()
        return self._decoded[name]

    def _position(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise RadicalError(f"{label!r} is not a member label") from None


def radical_profile(members, d_max: int, labels=None) -> RadicalProfile:
    """Compute radical power dimensions up to d_max or until they vanish.

    Write R_d for the span of the d-fold composites of non-isomorphisms
    through the family, so R_a R_b = R_{a+b}, and R_{d+1} is contained in R_d
    because the members are local (the non-isomorphisms form an ideal, so
    each R_d is one too).  R_d(i, j) is held as the canonical rows of its
    span in the ``Morphism.flatten`` layout.  Level 1 is read from the
    partition below: all of Hom(a, b) for two representatives a != b, which
    are certified non-isomorphic and local, and J(End M_a) for a = b.  Level
    d + 1 is built pair by pair: for each (i, j) the composites g f of a left
    factor g: M_k -> M_j and a map f of R_d(i, k) are drawn one at a time and
    reduced as flats (a middle k with no g or no f adds none) until they hold
    dim R_d(i, j) pivots: their span lies in R_d(i, j), so it is then R_d(i, j),
    which holds every composite not drawn.  Each drawn row must reduce to zero
    against R_d(i, j)'s canonical rows, and each row of J(End M_a) against
    Hom(a, a)'s, so a map that leaves its level (by induction, its hom space)
    raises.  The maps, a level's rows scaled to coprime ints, span that level.

    Every index runs over class representatives (``homs.iso_classes`` by
    ``_height``), each admitted once certified local.  So every
    ``are_isomorphic`` has a local end, where no isomorphism in a Hom basis
    is a certified no; a copy M_i = phi M_a is local, End(M_i) = phi End(M_a) phi^-1.
    For isomorphisms phi: M_a -> M_i and psi: M_b -> M_j, R_d is an ideal, so
    psi R_d(a, b) phi^-1 lies in R_d(i, j) and psi^-1 R_d(i, j) phi in R_d(a, b):
    R_d(i, j) = psi R_d(a, b) phi^-1.  At source and target, every pair's
    dimension is its representatives' pair's, and its rows are reduced from
    psi f phi^-1 over the rows f of R_d(a, b) when asked for
    (``RadicalProfile.basis_morphisms``), with no hom system between two
    copies solved.  At the middle, for k' = k through phi, R_1(k', j) R_d(i, k') = R_1(k, j) phi^-1 phi R_d(i, k) = R_1(k, j) R_d(i, k):
    the composites through k' span nothing the ones through k do not.

    The left factor is a basis of R_1(k, j) at depth 2.  From depth 3 on
    it is a complement C(k, j) of R_2(k, j) in R_1(k, j), a basis of the
    irreducible maps: R_2 lies in R_1, so the pivots of its canonical rows
    are pivots of R_1's, and the rows of R_1 at the other pivots complete
    them to a basis of R_1.  That is exact: summed over the middle members
    above, R_{d+1} = R_1 R_d = C R_d + R_2 R_d = C R_d + R_{d+2}, and
    likewise R_{d+2} = C R_{d+1} + R_{d+3}, which lies in C R_d + R_{d+3}.
    Iterating gives R_{d+1} = C R_d + R_N for every N > d + 1, and
    R_N = 0 once N reaches the Harada-Sai bound 2^b - 1 for members of
    length <= b (Auslander-Reiten-Smalo, Representation Theory of Artin
    Algebras), whatever d_max is.  So R_{d+1} = C R_d, and R_d(a, b) = 0
    leaves R_{d+1}(a, b) = 0 with nothing composed.
    """
    members = list(members)
    labels = family_labels(members, labels, RadicalError)
    if not isinstance(d_max, int) or isinstance(d_max, bool) or d_max < 1:
        raise RadicalError(f"depth bound must be an int >= 1, not {d_max!r}")

    def admit(k):
        # a copy of an admitted member is local: this is the first failing member by position
        if _refusal(members[k]) is not None:
            raise next(filter(None, map(_refusal, members[: k + 1])))

    classes = iso_classes(members, key=_height, admit=admit)
    reps = [k for k, (c, _) in enumerate(classes) if c == k]
    pairs = [(a, b) for a in reps for b in reps]
    hom = {(a, b): hom_basis(members[a], members[b]) for a, b in pairs}
    # the diagonal is built from J(End M_a) alone: Hom(a, a)'s rows are read only to check a row of J
    radical = {a: end_ring(members[a]).radical_space() for a in reps}
    rad1 = {(a, b): _checked_rows(hom[(a, b)], radical[a]) if a == b else list(hom[(a, b)].rows.values()) for a, b in pairs}

    levels, maps = [rad1], _Maps(members, rad1, {})
    while len(levels) < d_max and any(levels[-1].values()):
        prev = levels[-1]
        if len(levels) == 1:
            left = maps
        elif len(levels) == 2:
            taken = {pair: {min(r) for r in rows} for pair, rows in prev.items()}
            complement = {pair: [r for r in rad1[pair] if min(r) not in taken[pair]] for pair in pairs}
            left = _Maps(members, complement, {pair: m for pair, m in left.items() if not taken[pair]})  # C = R_1 where R_2 = 0
        nxt = {}
        for a, b in pairs:
            factors = ((left[(k, b)], maps[(a, k)]) for k in reps if left.rows[(k, b)] and prev[(a, k)])
            nxt[(a, b)] = _composite_rows(hom[(a, b)], prev[(a, b)], factors) if prev[(a, b)] else []
        levels.append(nxt)
        # a pair whose power kept its dimension kept its rows, and so its maps
        maps = _Maps(members, nxt, {pair: m for pair, m in maps.items() if nxt[pair] is prev[pair]})

    dims = tuple({pair: len(rows) for pair, rows in lvl.items()} for lvl in levels)
    rows = {(d, *pair): r for d, lvl in enumerate(levels, start=1) for pair, r in lvl.items()}
    vanishing = next((d for d, level in enumerate(dims, start=1) if not any(level.values())), None)
    return RadicalProfile(tuple(labels), vanishing, dims, rows, tuple(members), tuple(classes), {label: k for k, label in enumerate(labels)})


def _height(m) -> int:
    """Nonzero arrow-matrix entries plus the bit lengths of their numerators and denominators."""
    rows = (mat.row(r) for mat in m.matrices.values() for r in range(mat.rows))
    return sum(1 + x.numerator.bit_length() + x.denominator.bit_length() for row in rows for x in row.values())


def _refusal(m) -> Exception | None:
    """Why m cannot be a profile member (zero, decomposable, or not certified local), or None."""
    if m.is_zero():
        return RadicalError(f"member {m!r} is the zero module; members must be nonzero")
    try:
        if is_local(end_ring(m)) is False:
            return RadicalError(f"member {m!r} is decomposable; pass its indecomposable summands")
        require_local(m)
    except HomalgError as err:
        return err
    return None


def _checked_rows(hom: HomSpace, space: HomSpace) -> list:
    """The canonical rows of ``space``; raises unless each reduces to zero
    against the rows of ``hom`` (``hom_basis``), so every map of the span
    is a homomorphism between the same ends; an empty ``space`` reads none."""
    p = hom.source.field.characteristic
    if any(_reduce(dict(row), hom.rows, p) for row in space.rows.values()):
        raise HomalgError("a radical basis map is not a homomorphism")
    return list(space.rows.values())


def _composite_rows(hom: HomSpace, above: list, factors) -> list:
    """The canonical rows of the composites g f over the pairs (gs, fs) of ``factors`` (``reps.BlockRows``), drawn until
    they hold ``len(above)`` pivots, when the span is ``above`` itself; raises unless each reduces to zero against ``above``."""
    p = hom.source.field.characteristic
    reduced = _eliminate((flat for gs, fs in factors for flat in composite_flats(gs, fs)), p, len(above))
    bound = {min(r): r for r in above}
    if any(_reduce(dict(row), bound, p) for row in reduced.values()):
        raise HomalgError("a composite leaves the radical power it must lie in")
    return above if len(reduced) == len(above) else [reduced[c] for c in sorted(reduced)]


class _Maps(dict):
    """pair -> ``rows[pair]`` scaled to coprime ints (``linalg.primitive_row``) and
    decoded for ``reps.composite_flats`` (``reps.decode_flats``) on the pair's first read."""

    def __init__(self, members: list, rows: dict, decoded: dict):
        super().__init__(decoded)
        self.members, self.rows = members, rows

    def __missing__(self, pair):
        source, target = (self.members[k] for k in pair)
        maps = self[pair] = decode_flats(source, target, [primitive_row(r, source.field) for r in self.rows[pair]])
        return maps


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
    if not isinstance(length_bound, int) or isinstance(length_bound, bool):
        raise RadicalError(f"length bound must be an int, not {length_bound!r}")
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
    ``distinct`` set, chains may not revisit a member index.  The entries
    of x are read by the start member's ``field.of``.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise RadicalError(f"chain depth must be an int >= 0, not {depth!r}")
    members = list(members)
    # only the depth-1 basis maps are used
    profile = radical_profile(members, d_max=1, labels=labels)
    labels = profile.labels
    start_pos = profile._position(start)
    if len(x) != members[start_pos].total_dim:
        raise RadicalError("starting element has wrong total dimension")
    x = tuple(map(members[start_pos].field.of, x))
    if not any(x):
        raise RadicalError("starting element must be nonzero")

    actions = {}
    idx = range(len(members))
    for i in idx:
        for j in idx:
            maps = profile.basis_morphisms(1, labels[i], labels[j])
            if any(map(is_isomorphism, maps)):
                raise HomalgError("radical basis contains an isomorphism")
            actions[(i, j)] = maps

    states = [((labels[start_pos],), (), x, start_pos, frozenset([start_pos]))]
    for _ in range(depth):
        states = _witness_step(states, actions, labels, distinct)
        if not states:
            return None
    chain_labels, chain_maps, _, _, _ = states[0]
    trail = [x]
    for f in chain_maps:
        trail.append(f.total_mat().apply(trail[-1]))
    return WitnessChain(labels=chain_labels, morphisms=chain_maps, trail=tuple(trail))


def _witness_step(states, actions, labels, distinct: bool) -> list:
    """Extend every chain by each basis map that keeps its element nonzero.

    Chains that end at the same member with the same element (and, with
    ``distinct``, the same visited members) have the same extensions, so
    only the first of them is kept: at most one state per (member,
    element) pair survives a step, or per (member, element, visited set)
    with ``distinct``, and the first chain found is the one the full
    search would return.
    """
    nxt = []
    seen = set()
    for chain_labels, chain_maps, vec, pos, used in states:
        for j in range(len(labels)):
            if distinct and j in used:
                continue
            for f in actions[(pos, j)]:
                image = f.total_mat().apply(vec)
                if not any(image):
                    continue
                visited = used | {j}
                key = (j, image, visited) if distinct else (j, image)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((chain_labels + (labels[j],), chain_maps + (f,), image, j, visited))
    return nxt
