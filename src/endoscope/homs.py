"""Hom spaces, endomorphism rings, radicals, and decomposition.

A homomorphism M -> N is fixed by its values on generators of M, and
exists exactly when those values satisfy the relations among them.
``hom_basis`` finds both by spinning M (``endoscope.spin``) and solves
for the images of the generators: one kernel, with
sum_v dim top(M)_v * n_v unknowns.  Run on the duals, the same routine
has sum_v dim soc(N)_v * m_v unknowns, and the smaller side is solved.
Every hom space is held as the canonical RREF rows of its span in the
``Morphism.flatten`` layout (``HomSpace``); a solved one knows its
dimension from the solve and spreads its rows on their first read.
End(M) multiplies by composing on M.  Its Jacobson radical is the
kernel of the trace form (f, g) -> tr_M(f g) of End(M) acting on M,
which is faithful (Dickson's criterion; valid in characteristic zero,
so a non-brick's radical is refused over GF(p), a brick's J = 0 is not),
checked nilpotent by the one layer walk ``_layers``, which also gives
the ascending endosocle series its terms.

Locality is decided in one place: ``EndoRing.local`` holds when End/J is
one-dimensional.  ``indecompose`` splits what is not local, ``is_local``
tells "decomposable" from "undecided", and ``require_local`` refuses,
naming the module's dimension vector and dim End/J.

Hom spaces, End rings, the vertex blocks of each pair's non-isomorphisms
(``noniso_blocks``) and each module's spun presentations are cached by
value, so the many endosocles of overlapping families split each pair once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations
from typing import Literal, Mapping, Sequence

from .linalg import Mat, Subspace, _eliminate, _mat, _qq, _reduce, _subtract, invert, kernel_basis
from .reps import Morphism, Representation, SubspaceFamily, composite_flats, decode_flats, family_labels, flat_blocks, sub_from_family
from .spin import presentation, sides, spun_homs


class HomalgError(ValueError):
    pass


class UnsupportedFieldError(HomalgError):
    """Raised when the radical of a non-brick's End(M) is asked for over GF(p)."""


class LocalityUnverified(HomalgError):
    """Raised when an operation needs a certified-local endomorphism ring.

    The message names the module by its dimension vector and gives dim End/J.
    """

    def __init__(self, ring: "EndoRing", why: str = "is not certified local"):
        dims = ring.module.dim_vector
        super().__init__(f"member with dimension vector {dims} {why}: dim End/J = {ring.dim_over_radical}")


class DecompositionInconclusive(LocalityUnverified):
    """No splitting was found, but the ring data does not certify indecomposability."""


class HomSpace:
    """A subspace of Hom(source, target), held as the canonical RREF rows
    ``{pivot: row}`` of its span in the ``Morphism.flatten`` layout.

    A row is 1 at its pivot and 0 at the other pivots, so a map of the span
    has its coordinates at the pivots; a map lies in the span iff its flat
    reduces to zero against the rows.  ``basis``, the rows as morphisms, is
    built when first asked for.  A space that ``hom_basis`` solved knows
    its ``dim`` from the solve and builds its ``rows`` on first read.
    """

    __slots__ = ("source", "target", "_dim", "_rows", "_spread", "_basis")

    def __init__(self, source: Representation, target: Representation, rows: Mapping[int, dict]):
        """The span of the canonical rows ``{pivot: row}``, as ``linalg._eliminate`` returns them."""
        self.source = source
        self.target = target
        self._dim = len(rows)
        self._rows = {c: rows[c] for c in sorted(rows)}
        self._spread = None
        self._basis = None

    @classmethod
    def _solved(cls, source: Representation, target: Representation, dim: int, spread) -> "HomSpace":
        """The space of dimension ``dim`` whose rows ``spread()`` returns, called on the first read."""
        space = cls.__new__(cls)
        space.source, space.target, space._dim = source, target, dim
        space._rows, space._spread, space._basis = None, spread, None
        return space

    @classmethod
    def span(cls, source: Representation, target: Representation, flats) -> "HomSpace":
        """The span of the maps source -> target whose flats are ``flats`` (consumed)."""
        return cls(source, target, _eliminate(flats, source.field.characteristic))

    @property
    def basis(self) -> tuple[Morphism, ...]:
        """The rows as morphisms, built on the first call."""
        if self._basis is None:
            self._basis = tuple(Morphism.unflatten(self.source, self.target, r) for r in self.rows.values())
        return self._basis

    @property
    def rows(self) -> dict[int, dict]:
        """The canonical rows ``{pivot: row}``; a solved space spreads them on
        this first read and refuses them unless there are ``dim`` of them."""
        if self._rows is None:
            rows = self._spread()
            if len(rows) != self._dim:
                raise HomalgError(f"hom space of dimension {self._dim} spread to {len(rows)} rows")
            self._rows, self._spread = {c: rows[c] for c in sorted(rows)}, None
        return self._rows

    @property
    def dim(self) -> int:
        return self._dim

    def coordinates(self, f: Morphism) -> tuple:
        """Coefficients of f in this basis; raises if f is outside the span."""
        coords = self.try_coordinates(f)
        if coords is None:
            raise HomalgError("morphism does not lie in this hom space")
        return coords

    def try_coordinates(self, f: Morphism) -> tuple | None:
        if f.source != self.source or f.target != self.target:
            raise HomalgError("morphism has different ends")
        flat = f.flatten()
        coords = tuple(flat.get(c, 0) for c in self.rows)
        return None if _reduce(flat, self.rows, self.source.field.characteristic) else coords

    def contains(self, f: Morphism) -> bool:
        return self.try_coordinates(f) is not None

    def from_coordinates(self, coords: Sequence) -> Morphism:
        return Morphism.unflatten(self.source, self.target, self._flat(coords))

    def _flat(self, coords: Sequence) -> dict:
        """The flat of the map with coordinates ``coords``: the rows weighted by them."""
        if len(coords) != self.dim:
            raise HomalgError("coordinate length mismatch")
        field, flat = self.source.field, {}
        for c, row in zip(coords, self.rows.values()):
            if c := field.of(c):
                _subtract(flat, -c, row, -1, field.characteristic)  # flat += c * row
        return flat

    def __repr__(self):
        return f"HomSpace(dim {self.dim})"


@lru_cache(maxsize=None)
def hom_basis(m: Representation, n: Representation) -> HomSpace:
    """A basis of Hom(m, n), solved for on the smaller side.

    A map m -> n is fixed by its values on a presentation of m found by
    spinning (``spin.presentation``), so the unknowns are the images of the
    generators, sum_v dim top(m)_v * n_v of them.  The same routine on
    Hom(Dn, Dm), which the transpose identifies with Hom(m, n), has
    sum_v dim soc(n)_v * m_v unknowns; the side with fewer is solved (the
    socle side on a tie).  The solve's one elimination gives ``dim``; the
    basis, the canonical RREF rows of Hom(m, n) in the ``Morphism.flatten``
    layout, is spread from the solutions on the first read of ``rows``.
    """
    if (m.presentation is not n.presentation and m.presentation != n.presentation) or m.field != n.field:
        raise HomalgError("hom between different presentations or fields")
    top, socle = sides(m)[0][1], sides(n)[1][1]
    top_unknowns = sum(len(top[v]) * d for v, d in n.dims_by_vertex.items())
    if top_unknowns < sum(len(socle[v]) * d for v, d in m.dims_by_vertex.items()):
        dim, spread = spun_homs(presentation(m, False), m, n, sides(n)[0][0], transpose=False)
    else:
        dim, spread = spun_homs(presentation(n, True), n, m, sides(m)[1][0], transpose=True)
    return HomSpace._solved(m, n, dim, spread)


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n), from the solve of ``hom_basis``; no row is spread."""
    return hom_basis(m, n).dim


_UNSEARCHED = object()


class EndoRing:
    """End(M) on the canonical basis of Hom(M, M), the hom space ``hom``.

    Products are compositions on M; no multiplication table is stored.
    ``radical`` is J(End M) in the coordinates of ``hom``, and
    ``radical_space`` is the same ideal as a hom space.
    """

    __slots__ = ("module", "hom", "_radical", "_split")

    def __init__(self, module: Representation, hom: HomSpace):
        self.module = module
        self.hom = hom
        self._radical = None
        self._split = _UNSEARCHED

    @property
    def dim(self) -> int:
        return self.hom.dim

    @property
    def radical(self) -> Subspace:
        """J(End M), a subspace of the coordinate space of ``hom``."""
        if self._radical is None:
            self._radical = _trace_form_radical(self)
        return self._radical[0]

    @property
    def dim_over_radical(self) -> int:
        return self.dim - self.radical.dim

    @property
    def local(self) -> bool:
        """Certified local: End/J is one-dimensional, so End(M) != 0 and End/J
        is the ground field."""
        return self.dim > 0 and self.dim_over_radical == 1

    def radical_space(self) -> HomSpace:
        """J(End M) as a subspace of Hom(M, M), built with ``radical``."""
        self.radical
        return self._radical[1]

    def split(self):
        """A Fitting split (two summands) of the module, or None; searched once."""
        if self._split is _UNSEARCHED:
            self._split = _find_split(self.module, self)
        return self._split

    def __repr__(self):
        return f"EndoRing(dim {self.dim} of {self.module!r})"


@lru_cache(maxsize=None)
def end_ring(m: Representation) -> EndoRing:
    """End(m) on the canonical basis of Hom(m, m)."""
    return EndoRing(m, hom_basis(m, m))


def _trace_form_radical(ring: EndoRing) -> tuple[Subspace, HomSpace]:
    """J(End M) as the kernel of (f, g) -> tr_M(f g), in the coordinates of
    ``ring.hom`` and as a hom space.

    End(M) acts faithfully on M, so in characteristic zero this kernel is
    the Jacobson radical (Dickson's criterion).  The Gram matrix is one
    sparse product, on the flat indices the rows hold: the canonical rows of
    ``hom`` times the same rows with each vertex block transposed, so it
    costs O(nnz), not O(sum_v d_v^2).  J's maps are formed as flats, the
    kernel's sparse coordinate rows times the rows of ``hom``, and checked
    nilpotent on their vertex blocks, with no ``Morphism`` built.

    A brick, dim End(M) = 1, is answered from the solve's dimension alone,
    with no row of ``hom`` read and in every characteristic: 1_M != 0 lies
    in End(M), so End(M) = K 1_M, a field, and J = 0.  The Gram route
    agrees: its matrix is [tr 1_M] = [dim M], nonzero in characteristic zero.
    """
    m, hom = ring.module, ring.hom
    field = m.field
    if hom.dim <= 1:
        return Subspace.zero(hom.dim, field), HomSpace(m, m, {})
    if field.characteristic != 0:
        raise UnsupportedFieldError("radical computation requires characteristic zero")
    dims = m.dim_vector
    starts = list(accumulate((d * d for d in dims), initial=0))

    def flip(i):
        """The flat index of cell (b, a) of the block whose cell (a, b) has
        flat index i; cell (a, b) of the d x d block at offset s has index s + a d + b."""
        k = bisect_right(starts, i) - 1  # an empty block starts where the next one does
        a, b = divmod(i - starts[k], dims[k])
        return starts[k] + b * dims[k] + a

    # tr_M(f g) = sum over vertices v and cells (a, b) of f_v[a][b] * g_v[b][a], so
    # only the indices some row holds meet: the product runs on those columns alone
    rows = tuple(hom.rows.values())
    column = {}
    for g in rows:
        for i in g:
            column.setdefault(i, len(column))
    held = tuple({column[i]: x for i, x in g.items()} for g in rows)
    flipped = tuple({c: x for i, x in g.items() if (c := column.get(flip(i))) is not None} for g in rows)
    gram = _mat(held, hom.dim, len(column), field) @ _mat(flipped, hom.dim, len(column), field).transpose()
    radical = kernel_basis(gram)
    # a canonical coordinate row weights the rows of hom, each 1 at its pivot and
    # 0 at the others, into a map that is 1 at the pivot of its own pivot row and 0
    # at those of the other coordinate rows: the canonical rows of J's span
    flats = (radical._row_mat() @ _mat(rows, hom.dim, starts[-1], field))._copy()
    _check_nilpotent(m, [flat_blocks(m, m, flat) for flat in flats])
    return radical, HomSpace(m, m, {min(flat): flat for flat in flats})


def _check_nilpotent(m: Representation, maps: Sequence[Mapping[str, Mat]]):
    """Raise unless some power of the span J of the maps ``{vertex: Mat}``
    vanishes: the walk (``_layers``) of their transposed blocks, whose layers
    are J^s M as w f_v^T = (f_v w^T)^T; End(M) acts faithfully on M."""
    for _ in _layers(m, [{v: f.transpose() for v, f in blocks.items()} for blocks in maps]):
        pass


def _layers(m: Representation, maps: Sequence[Mapping[str, Mat]]):
    """Yield the layers W_1, W_2, ... of the maps ``{vertex: Mat}`` on m, down
    to zero, each as the canonical sparse rows ``{vertex: {pivot: row}}``.

    W_0 is all of m; W_{s+1} at a vertex v is spanned by the rows w A_v, w in
    W_s and A a map, the sums of w_k times row k of A_v, fed lazily to one
    elimination per vertex and step that stops at full rank.  So W_s at v is
    the row space of the products of s maps, and lies in W_{s-1}
    (A_1 (A_2 ... A_s) is s - 1 maps times one more): a step that keeps the
    dimension keeps it for ever, no product vanishes, and the walk raises.
    """
    p = m.field.characteristic

    def images(v, layer):
        for a in maps:
            rows = a[v]._data
            for w in layer.values():
                image = {}
                for k, x in w.items():
                    _subtract(image, -x, rows[k], -1, p)  # image += x * row k
                yield image

    layers = {v: {i: {i: 1} for i in range(m.dim(v))} for v in m.presentation.quiver.vertices}
    dim = m.total_dim
    while dim:
        layers = {v: _eliminate(images(v, layer), p, m.dim(v)) for v, layer in layers.items()}
        dim, before = sum(map(len, layers.values())), dim
        if dim == before:
            raise HomalgError("the maps are not nilpotent: a layer keeps its dimension")
        yield layers


def is_isomorphism(f: Morphism) -> bool:
    """True iff every vertex block is square and invertible."""
    return _inverse(f.blocks) is not None


def _inverse(blocks: Mapping[str, Mat]) -> dict[str, Mat] | None:
    """The inverse vertex blocks, or None unless every block is square and invertible."""
    out = {}
    for v, m in blocks.items():
        if m.rows != m.cols or (inv := invert(m)) is None:
            return None
        out[v] = inv
    return out


@dataclass(frozen=True)
class IsoCertificate:
    """The outcome of ``are_isomorphic``: "iso" or "certified_no".

    ``witness`` and ``inverse`` are a verified isomorphism and its
    inverse.  They are None for "certified_no", and also for an "iso"
    decided by matching indecomposable summands, where no single map
    is built.
    """

    status: Literal["iso", "certified_no"]
    witness: Morphism | None = None
    inverse: Morphism | None = None

    def __bool__(self):
        return self.status == "iso"


def inverse_morphism(f: Morphism) -> Morphism | None:
    blocks = _inverse(f.blocks)
    return None if blocks is None else Morphism(f.target, f.source, blocks, _validate=False)


def are_isomorphic(m: Representation, n: Representation) -> IsoCertificate:
    """Decide m = n up to isomorphism by a deterministic certificate.

    If End(m) is local and phi: m -> n is an isomorphism, a map h in
    Hom(m, n) is invertible iff phi^-1 h is a unit of End(m), i.e. not
    in J(End m).  So the non-isomorphisms form the subspace
    phi J(End m), which misses phi and hence cannot contain a whole
    basis: some basis element of Hom(m, n) is an isomorphism.  The same
    holds with the roles swapped when End(n) is local
    (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras,
    ch. I-II).  Hence, when either ring is local, an isomorphism
    exists iff a basis element is one, and that element is returned
    as the witness with its verified inverse; Hom(n, m) != 0 and the rings
    are only tested when no basis element of Hom(m, n) is one.  Each is
    tried on its vertex blocks (``reps.flat_blocks``), inverted and checked
    against I on both sides; only the pair returned is built as ``Morphism``s.

    When neither ring is local, the indecomposable summands of m and
    n (each local) are matched pairwise by the same certificate; by
    Krull-Schmidt m = n iff every summand finds a partner.  Such an
    "iso" carries no witness.  ``DecompositionInconclusive`` from
    ``indecompose`` propagates: the answer is refused, not guessed.
    """
    if m.presentation != n.presentation or m.field != n.field:
        raise HomalgError("isomorphism test across different presentations or fields")
    if m.dim_vector != n.dim_vector:
        return IsoCertificate("certified_no")
    if m.total_dim == 0:
        return IsoCertificate("iso", Morphism.zero(m, n), Morphism.zero(n, m))
    if m == n:
        ident = Morphism.identity(m)
        return IsoCertificate("iso", ident, ident)
    forward = hom_basis(m, n)
    if forward.dim == 0:
        return IsoCertificate("certified_no")
    for row in forward.rows.values():
        f = flat_blocks(m, n, row)
        g = _inverse(f)
        if g is not None and all(f[v] @ g[v] == Mat.identity(f[v].rows, m.field) == g[v] @ f[v] for v in f):
            return IsoCertificate("iso", Morphism(m, n, f, _validate=False), Morphism(n, m, g, _validate=False))
    if hom_basis(n, m).dim == 0 or end_ring(m).local or end_ring(n).local:
        return IsoCertificate("certified_no")
    unmatched = indecompose(n)
    for part in indecompose(m):
        partner = next((i for i, other in enumerate(unmatched) if are_isomorphic(part, other)), None)
        if partner is None:
            return IsoCertificate("certified_no")
        del unmatched[partner]
    # the dimension vectors agree, so no summand of n is left over
    return IsoCertificate("iso")


def iso_classes(members: Sequence[Representation], key=None) -> list[tuple[int, IsoCertificate]]:
    """Split a family into isomorphism classes, the one partition of
    ``harness.transversal`` and ``radical.radical_profile``.

    Members are walked by position, or by ``key(member)`` with ties by
    position; one isomorphic to no representative met so far of its
    dimension vector represents its class.  Entry k is (c, cert): member c
    represents it, and cert is ``are_isomorphic(members[c], members[k])``, or
    one identity as witness and inverse when c == k.  A refused certificate
    (``DecompositionInconclusive``) propagates.
    """
    out, reps = {}, {}
    for k in sorted(range(len(members)), key=None if key is None else lambda k: key(members[k])):
        m = members[k]
        same = reps.setdefault(m.dim_vector, [])
        out[k] = next(((c, cert) for c in same if (cert := are_isomorphic(members[c], m))), None)
        if out[k] is None:
            same.append(k)
            ident = Morphism.identity(m)
            out[k] = (k, IsoCertificate("iso", ident, ident))
    return [out[k] for k in range(len(members))]


# -- Fitting decomposition -----------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial given by [c_0, ..., c_n]."""
    if all(c == 0 for c in coeffs):
        return [Fraction(0)]
    from math import lcm

    den = lcm(*(c.denominator for c in coeffs)) if len(coeffs) > 1 else coeffs[0].denominator
    ints = [int(c * den) for c in coeffs]
    roots = set()
    while ints and ints[0] == 0:
        roots.add(Fraction(0))
        ints = ints[1:]
    if not ints or len(ints) == 1:
        return sorted(roots)
    a0, an = ints[0], ints[-1]

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and value(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _fitting_split(m: Representation, h: Mapping[str, Mat]):
    """M = ker(h^s) + im(h^s) for the endomorphism with vertex blocks h, by
    Fitting's lemma; None if h is nilpotent or invertible.  On a space of
    dimension d a linear map's kernel and image are stable from exponent d
    on, so each vertex takes one power, squaring h_v until s >= dim M_v."""
    powers = {}
    for v, x in h.items():
        for _ in range((x.rows - 1).bit_length()):
            x = x @ x
        powers[v] = x
    ker = SubspaceFamily({v: kernel_basis(x) for v, x in powers.items()})
    if ker.total_dim in (0, m.total_dim):
        return None
    image = SubspaceFamily({v: Subspace(x.rows, x) for v, x in powers.items()})
    return sub_from_family(m, ker), sub_from_family(m, image)


def _minimal_polynomial(m: Representation, flat: dict, one: dict) -> list:
    """The monic minimal polynomial [c_0, ..., c_{d-1}, 1] of the endomorphism
    g of m whose flat is ``flat``: the first linear dependence among the flats
    of 1 (``one``, the identity's), g, g^2, ....  Each power is g times the
    last (``reps.composite_flats``).  The powers so far are one elimination,
    kept across them as ``spin.presentation`` keeps its nodes, of the rows
    [flat of g^k | unit at column width + k], the flats being below the width;
    the first power whose flat part reduces to zero holds the dependence, 1 at
    g^k, in its unit columns."""
    p, width = m.field.characteristic, sum(d * d for d in m.dim_vector)
    gs, echelon = decode_flats(m, m, [flat]), ({}, {})
    power, k = one, 0
    while True:
        row = dict(power)
        row[width + k] = 1
        if min(_reduce(row, echelon[0], p)) >= width:
            return [row.get(width + j, 0) for j in range(k + 1)]
        _eliminate((row,), p, echelon=echelon)
        power, k = next(composite_flats(gs, decode_flats(m, m, [power]))), k + 1


def _find_split(m: Representation, ring: EndoRing):
    """The first Fitting split along g - lam, g a canonical row of End(m) but
    the identity's last pivot row, then a sum of two such rows, lam a rational
    root of g's minimal polynomial (``_minimal_polynomial``); or None.  g - lam
    is formed on the flat and decoded once.  The identity and the sums I + b
    are not tried: I + b - (1 + lam) = b - lam was tried with b, and I - 1 = 0
    splits nothing."""
    rows = list(ring.hom.rows.values())
    if not rows:
        return None
    p, one = m.field.characteristic, Morphism.identity(m).flatten()
    # a map's coordinates are its values at the pivots, so the identity's are 1 at the pivots it holds
    del rows[max(i for i, c in enumerate(ring.hom.rows) if c in one)]
    sums = (_subtract(dict(a), -1, b, -1, p) for a, b in combinations(rows, 2))  # a + b
    for flat in chain(rows, sums):
        for lam in _rational_roots(_minimal_polynomial(m, flat, one)):
            # lam in value format; _subtract needs a nonzero factor
            c = lam.numerator * pow(lam.denominator, -1, p) % p if p else _qq(lam)
            h = _subtract(dict(flat), c, one, -1, p) if c else flat  # g - lam 1
            if (split := _fitting_split(m, flat_blocks(m, m, h))) is not None:
                return split
    return None


def indecompose(m: Representation) -> list[Representation]:
    """Indecomposable summands of m, by iterated Fitting splits.

    A summand whose ring is ``local`` is certified indecomposable.  Any
    other is split (``_find_split``) along g - lam, lam a rational root of
    g's minimal polynomial, for g a canonical row of End(m) but the
    identity's last pivot row, then a sum of two such rows; the order of
    those rows decides the order of the summands.  When none splits it, the
    decomposition is refused (``DecompositionInconclusive``) rather than
    guessed.
    """
    if m.total_dim == 0:
        return []
    ring = end_ring(m)
    if ring.local:
        return [m]
    split = ring.split()
    if split is None:
        raise DecompositionInconclusive(ring, "is not certified local and no Fitting split was found")
    a, b = split
    return indecompose(a) + indecompose(b)


def prepare_members(members: Sequence[Representation], labels, error: type[Exception], boundary=()):
    """The members' indecomposable summands (``indecompose``), their labels,
    and the boundary labels among them, for every family function that reads
    indecomposables.  A member that is its one summand keeps its label; the
    summands of a decomposable one are labelled "<label>.<k>", and a boundary
    flag on it passes to each of them.  Boundary labels of no member are
    dropped.  ``labels`` are checked first, and the new labels must not
    collide with them either (``error``).  The first member by position that
    fails is refused: a zero one, which has no summand to label, with ``error``.
    """
    labels = family_labels(members, labels, error)
    out_members, out_labels, summands = [], [], {}
    for m, label in zip(members, labels):
        if m.is_zero():
            raise error(f"member {m!r} is the zero module; members must be nonzero")
        parts = indecompose(m)
        out_members += parts
        summands[label] = [label] if len(parts) == 1 else [f"{label}.{k}" for k in range(len(parts))]
        out_labels += summands[label]
    out_labels = family_labels(out_members, out_labels, error)
    return out_members, out_labels, tuple(s for b in boundary if b in summands for s in summands[b])


def is_local(ring: EndoRing) -> bool | None:
    """True if the ring is ``local``, False if it is zero or a Fitting split
    exists, None when neither could be certified."""
    if ring.local:
        return True
    return False if ring.dim == 0 or ring.split() is not None else None


def require_local(m: Representation) -> EndoRing:
    """End(m) if it is ``local``; otherwise ``LocalityUnverified``, with no
    split searched, since the module is refused whether or not it splits."""
    ring = end_ring(m)
    if not ring.local:
        raise LocalityUnverified(ring)
    return ring


def noniso_subspace(m: Representation, n: Representation) -> HomSpace:
    """The subspace of Hom(m, n) consisting of the non-isomorphisms.

    Both endomorphism rings must be certified local (``require_local``).
    For m == n this is J(End m), ``EndoRing.radical_space``.  For
    non-isomorphic ends it is all of Hom(m, n); for isomorphic ends it is
    phi . J(End m) (``reps.composite_flats`` of phi and J decoded from their flats), where phi is the witness of
    ``are_isomorphic``, checked to have codimension 1 and no invertible row.
    Those are exactly the non-invertible homomorphisms, held, like every
    hom space, as the canonical rows of their span.
    """
    ring = require_local(m)
    if m == n:
        return ring.radical_space()
    require_local(n)
    cert = are_isomorphic(m, n)
    if cert.status == "certified_no":
        return hom_basis(m, n)
    sub = HomSpace.span(m, n, composite_flats(decode_flats(m, n, [cert.witness.flatten()]), decode_flats(m, m, ring.radical_space().rows.values())))
    if sub.dim != hom_basis(m, n).dim - 1:
        raise HomalgError("non-isomorphism subspace has unexpected dimension")
    if any(_inverse(flat_blocks(m, n, row)) is not None for row in sub.rows.values()):
        raise HomalgError("non-isomorphism subspace contains an isomorphism")
    return sub


@lru_cache(maxsize=None)
def noniso_blocks(m: Representation, n: Representation) -> tuple[dict, ...]:
    """The vertex blocks (``reps.flat_blocks``) of each canonical row of the
    non-isomorphisms m -> n: of J(End m) when m == n, else of
    ``noniso_subspace``.  Cached by value; the blocks must not be mutated."""
    space = end_ring(m).radical_space() if m == n else noniso_subspace(m, n)
    return tuple(flat_blocks(m, n, row) for row in space.rows.values())


def clear_caches():
    """Drop the memoized hom spaces, endomorphism rings and non-isomorphism
    blocks, and the sides and presentations of each module (``endoscope.spin``)."""
    for cache in (hom_basis, end_ring, noniso_blocks, sides, presentation):
        cache.cache_clear()
