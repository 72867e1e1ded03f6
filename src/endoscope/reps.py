"""Finite-dimensional representations of bound quiver presentations.

A representation assigns a dimension to every vertex and an exact
matrix to every arrow (target dim x source dim), all over the
representation's field; every matrix, morphism block and subspace built
from it carries that field.  The total space is
the direct sum of the vertex spaces, concatenated in declared vertex
order; that convention fixes all block layouts used elsewhere.

Besides the carrier types this module provides the Kronecker example
families (preinjective / preprojective / regular strings), direct sums
with their embeddings and projections, vector-space duality onto the
opposite presentation, and socles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import Mat, QQ, Subspace, _mat, _qq, assemble, kernel_basis
from .quiver import AlgebraPresentation, QuiverError, act, kronecker


class RepresentationError(ValueError):
    pass


class _Infinity:
    """Marker for the regular-family parameter at infinity."""

    def __repr__(self):
        return "infinity"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("infinity")


INFINITY = _Infinity()


class Representation:
    """Vertex dimensions plus one exact matrix per arrow."""

    __slots__ = ("presentation", "dims_by_vertex", "matrices", "field", "_offsets", "_key", "_hash")

    def __init__(
        self,
        presentation: AlgebraPresentation,
        dims: Mapping[str, int],
        matrices: Mapping[str, Mat],
        field=QQ,
        _validate: bool = True,
    ):
        self.presentation = presentation
        quiver = presentation.quiver
        arrow_names = [a.name for a in quiver.arrows]
        for names, known, what in ((dims, quiver.vertices, "vertex"), (matrices, arrow_names, "arrow")):
            unknown = [repr(k) for k in names if k not in known]
            if unknown:
                raise RepresentationError(f"no {what} named {', '.join(unknown)}")
        self.dims_by_vertex = {v: dims.get(v, 0) for v in quiver.vertices}
        for v, d in self.dims_by_vertex.items():
            if type(d) is not int or d < 0:
                raise RepresentationError(f"dimension at vertex {v!r} must be a non-negative int, not {d!r}")
        mats = {}
        for a in quiver.arrows:
            m = matrices.get(a.name)
            if m is None:
                m = Mat.zeros(self.dims_by_vertex[a.target], self.dims_by_vertex[a.source], field)
            if m.shape != (self.dims_by_vertex[a.target], self.dims_by_vertex[a.source]):
                raise RepresentationError(
                    f"arrow {a.name}: matrix shape {m.shape} does not match dims "
                    f"({self.dims_by_vertex[a.target]}, {self.dims_by_vertex[a.source]})"
                )
            if m.field != field:
                raise RepresentationError(f"arrow {a.name}: matrix over {m.field!r}, not {field!r}")
            mats[a.name] = m
        self.matrices = mats
        self.field = field
        offsets = {}
        run = 0
        for v in quiver.vertices:
            offsets[v] = run
            run += self.dims_by_vertex[v]
        self._offsets = offsets
        self._key = None
        self._hash = None
        if _validate:
            for rel in presentation.relations:
                if not act(rel, self).is_zero():
                    raise RepresentationError("a relation does not act as zero")

    # -- geometry ------------------------------------------------------------

    def dim(self, vertex: str) -> int:
        return self.dims_by_vertex[vertex]

    @property
    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims_by_vertex[v] for v in self.presentation.quiver.vertices)

    @property
    def total_dim(self) -> int:
        return sum(self.dims_by_vertex.values())

    def offset(self, vertex: str) -> int:
        return self._offsets[vertex]

    def matrix(self, arrow_name: str) -> Mat:
        return self.matrices[arrow_name]

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def length(self) -> int:
        """Composition length; every simple is one-dimensional here."""
        return self.total_dim

    # -- identity ------------------------------------------------------------

    def key(self):
        if self._key is None:
            # the field is part of the identity: entry-less reps over two
            # fields would otherwise share one hom_basis cache slot
            self._key = (
                self.presentation.key(),
                self.field,
                tuple(sorted(self.dims_by_vertex.items())),
                tuple(sorted(self.matrices.items())),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Representation) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"Representation(dims {self.dim_vector})"


class SubspaceFamily:
    """One subspace per vertex; the carrier for vertexwise submodules."""

    __slots__ = ("spaces", "_hash")

    def __init__(self, spaces: Mapping[str, Subspace]):
        self.spaces = dict(spaces)
        self._hash = None

    @classmethod
    def zero_for(cls, rep: Representation) -> "SubspaceFamily":
        return cls({v: Subspace.zero(rep.dim(v), rep.field) for v in rep.presentation.quiver.vertices})

    @classmethod
    def full_for(cls, rep: Representation) -> "SubspaceFamily":
        return cls(
            {v: Subspace.full(rep.dim(v), rep.field) for v in rep.presentation.quiver.vertices}
        )

    def space(self, vertex: str) -> Subspace:
        return self.spaces[vertex]

    def dims(self) -> dict[str, int]:
        return {v: s.dim for v, s in self.spaces.items()}

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def add(self, other: "SubspaceFamily") -> "SubspaceFamily":
        return SubspaceFamily({v: s.add(other.spaces[v]) for v, s in self.spaces.items()})

    def image(self, f: "Morphism") -> "SubspaceFamily":
        """The image under f, a family in f.target; zero components map without a product."""
        return SubspaceFamily({
            v: s.image(f.block(v)) if s.dim else Subspace.zero(f.target.dim(v), f.target.field)
            for v, s in self.spaces.items()
        })

    def contains(self, other: "SubspaceFamily") -> bool:
        return all(self.spaces[v].contains_subspace(s) for v, s in other.spaces.items())

    def is_arrow_closed(self, rep: Representation) -> bool:
        for a in rep.presentation.quiver.arrows:
            img = self.spaces[a.source].image(rep.matrix(a.name))
            if not self.spaces[a.target].contains_subspace(img):
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, SubspaceFamily) and self.spaces == other.spaces

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.spaces.items())))
        return self._hash

    def __repr__(self):
        dims = {v: s.dim for v, s in sorted(self.spaces.items())}
        return f"SubspaceFamily(dims {dims})"


class Morphism:
    """A representation homomorphism: one matrix per vertex, commuting with arrows."""

    __slots__ = ("source", "target", "blocks", "_hash", "_total")

    def __init__(
        self,
        source: Representation,
        target: Representation,
        blocks: Mapping[str, Mat],
        _validate: bool = True,
    ):
        if source.presentation is not target.presentation and source.presentation != target.presentation:
            raise RepresentationError("morphism between different presentations")
        if source.field != target.field:
            raise RepresentationError("morphism between representations over different fields")
        self.source = source
        self.target = target
        quiver = source.presentation.quiver
        blk = {}
        for v in quiver.vertices:
            m = blocks.get(v)
            if m is None:
                m = Mat.zeros(target.dim(v), source.dim(v), source.field)
            if m.shape != (target.dim(v), source.dim(v)):
                raise RepresentationError(f"block at {v} has shape {m.shape}")
            if m.field != source.field:
                raise RepresentationError(f"block at {v} over {m.field!r}, not {source.field!r}")
            blk[v] = m
        self.blocks = blk
        self._hash = None
        self._total = None
        if _validate:
            for a in quiver.arrows:
                lhs = blk[a.target] @ source.matrix(a.name)
                rhs = target.matrix(a.name) @ blk[a.source]
                if lhs != rhs:
                    raise RepresentationError(f"square at arrow {a.name} does not commute")

    @classmethod
    def identity(cls, rep: Representation) -> "Morphism":
        return cls(
            rep,
            rep,
            {v: Mat.identity(rep.dim(v), rep.field) for v in rep.presentation.quiver.vertices},
            _validate=False,
        )

    @classmethod
    def zero(cls, source: Representation, target: Representation) -> "Morphism":
        return cls(source, target, {}, _validate=False)

    def block(self, vertex: str) -> Mat:
        return self.blocks[vertex]

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target != self.source:
            raise RepresentationError("composition mismatch")
        blocks = {v: self.blocks[v] @ other.blocks[v] for v in self.blocks}
        return Morphism(other.source, self.target, blocks, _validate=False)

    def __add__(self, other: "Morphism") -> "Morphism":
        if other.source != self.source or other.target != self.target:
            raise RepresentationError("sum of morphisms with different ends")
        return Morphism(
            self.source,
            self.target,
            {v: self.blocks[v] + other.blocks[v] for v in self.blocks},
            _validate=False,
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def scale(self, c) -> "Morphism":
        return Morphism(
            self.source, self.target, {v: m.scale(c) for v, m in self.blocks.items()}, _validate=False
        )

    def flatten(self) -> dict:
        """The nonzero coordinates {index: value} in the fixed (vertex order,
        row-major) layout; ``hom_basis`` returns the RREF rows of the hom
        space in this layout, as ``unflatten`` reads them."""
        out = {}
        pos = 0
        for v in self.source.presentation.quiver.vertices:
            blk = self.blocks[v]
            for i in range(blk.rows):
                for j, x in blk.row(i).items():
                    out[pos + i * blk.cols + j] = x
            pos += blk.rows * blk.cols
        return out

    @classmethod
    def unflatten(cls, source: Representation, target: Representation, flat: Mapping) -> "Morphism":
        """The map source -> target whose ``flatten()`` is ``flat``, a flat in
        value format (``flat_blocks``); not checked to commute with the arrows."""
        return cls(source, target, flat_blocks(source, target, flat), _validate=False)

    def total_mat(self) -> Mat:
        """The block-diagonal action on total spaces, assembled on the first call."""
        if self._total is None:
            src, tgt = self.source, self.target
            blocks = [(tgt.offset(v), src.offset(v), b) for v, b in self.blocks.items()]
            self._total = assemble(tgt.total_dim, src.total_dim, blocks, src.field)
        return self._total

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, tuple(sorted(self.blocks.items()))))
        return self._hash

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def flat_blocks(source: Representation, target: Representation, flat: Mapping) -> dict[str, Mat]:
    """The vertex blocks ``{vertex: Mat}`` of the map source -> target whose
    ``Morphism.flatten()`` is ``flat``, a flat in value format (``linalg``),
    as every flat the package makes is: canonical rows, ``primitive_row``,
    ``composite_flats``, ``flatten``.  Its blocks store ``_split``'s rows unchecked."""
    rows = _split(source, target, flat)
    return {v: _mat(r, target.dim(v), source.dim(v), source.field) for v, r in zip(source.presentation.quiver.vertices, rows)}


def _split(source: Representation, target: Representation, flat: Mapping) -> list[tuple[dict, ...]]:
    """Per vertex, the rows ``{column: value}`` of the block of the flat source -> target: the one decoder of a flat."""
    vertices = source.presentation.quiver.vertices
    starts = list(accumulate((target.dim(v) * source.dim(v) for v in vertices), initial=0))
    rows = [tuple({} for _ in range(target.dim(v))) for v in vertices]
    for idx, x in flat.items():
        # an empty block starts where the next one does, so this finds the block holding idx
        k = bisect_right(starts, idx) - 1
        i, j = divmod(idx - starts[k], source.dim(vertices[k]))
        rows[k][i][j] = x
    return rows


class BlockRows(tuple):
    """Maps source -> target as ``composite_flats`` multiplies them, one entry per map: per vertex, the block
    rows ``{column: value}`` that ``_split`` decodes and a ``Mat`` stores, with the list's ends, checked once."""

    def __new__(cls, source: Representation, target: Representation, maps):
        if source.field != target.field or source.presentation is not target.presentation and source.presentation != target.presentation:
            raise RepresentationError("maps between different presentations or fields")
        rows = super().__new__(cls, maps)
        rows.source, rows.target = source, target
        return rows


def decode_flats(source: Representation, target: Representation, flats: Iterable[Mapping]) -> BlockRows:
    """The maps source -> target with these flats in value format (``flat_blocks``), decoded by ``_split``, unchecked."""
    return BlockRows(source, target, [_split(source, target, f) for f in flats])


def composite_flats(gs: BlockRows, fs: BlockRows) -> Iterator[dict]:
    """``g.compose(f).flatten()`` for every g in ``gs`` and f in ``fs``, g-major, each formed when drawn from
    the lazy iterator returned, with no ``Morphism`` or ``Mat`` built, in value format as the kernel makes
    its products.  The lists were checked when decoded (``decode_flats``); the call checks only that their ends meet."""
    if gs.source is not fs.target and gs.source != fs.target:
        raise RepresentationError("composition mismatch")
    if not gs or not fs:
        return iter(())
    source, target, vertices = fs.source, gs.target, fs.source.presentation.quiver.vertices
    starts = list(accumulate((target.dim(v) * source.dim(v) for v in vertices), initial=0))
    return _products(gs, fs, starts, [source.dim(v) for v in vertices], source.field.characteristic)


def _products(g_maps, f_maps, starts, widths, p) -> Iterator[dict]:
    """The flats of ``composite_flats``, one product per draw; the composite's block at vertex t starts at
    flat index ``starts[t]`` and is ``widths[t]`` wide."""
    for g in g_maps:
        # (vertex position, flat index of the composite block row, block row entries)
        entries = [(t, starts[t] + r * widths[t], row) for t, blk in enumerate(g) for r, row in enumerate(blk) if row]
        for blocks in f_maps:
            acc = {}
            for t, base, grow in entries:
                rows = blocks[t]
                for k, a in grow.items():
                    for c, x in rows[k].items():
                        acc[base + c] = acc.get(base + c, 0) + a * x
            yield {idx: y for idx, x in acc.items() if (y := x % p if p else x if type(x) is int else _qq(x))}


# -- construction ------------------------------------------------------------


def zero_representation(presentation: AlgebraPresentation, field=QQ) -> Representation:
    return Representation(presentation, {}, {}, field)


def simple(presentation: AlgebraPresentation, vertex: str, field=QQ) -> Representation:
    if vertex not in presentation.quiver.vertices:
        raise QuiverError(f"no vertex {vertex!r}")
    return Representation(presentation, {vertex: 1}, {}, field)


def direct_sum(
    parts: Sequence[Representation],
    presentation: AlgebraPresentation | None = None,
) -> tuple[Representation, list[Morphism], list[Morphism]]:
    """Blockwise direct sum with its embeddings and projections.

    ``presentation`` is only needed for an empty summand list.
    """
    if not parts:
        if presentation is None:
            raise RepresentationError("empty direct sum needs an explicit presentation")
        return zero_representation(presentation), [], []
    pres = parts[0].presentation
    field = parts[0].field
    for p in parts[1:]:
        if p.presentation != pres:
            raise RepresentationError("direct sum across different presentations")
        if p.field != field:
            raise RepresentationError("direct sum across different fields")
    quiver = pres.quiver
    dims = {v: sum(p.dim(v) for p in parts) for v in quiver.vertices}
    offsets = []
    run = {v: 0 for v in quiver.vertices}
    for p in parts:
        offsets.append(dict(run))
        for v in quiver.vertices:
            run[v] += p.dim(v)

    matrices = {}
    for a in quiver.arrows:
        blocks = [(off[a.target], off[a.source], p.matrix(a.name)) for p, off in zip(parts, offsets)]
        matrices[a.name] = assemble(dims[a.target], dims[a.source], blocks, field)
    total = Representation(pres, dims, matrices, field, _validate=False)

    embeddings, projections = [], []
    for p, off in zip(parts, offsets):
        emb = {
            v: assemble(dims[v], p.dim(v), [(off[v], 0, Mat.identity(p.dim(v), field))], field)
            for v in quiver.vertices
        }
        prj = {v: e.transpose() for v, e in emb.items()}
        embeddings.append(Morphism(p, total, emb, _validate=False))
        projections.append(Morphism(total, p, prj, _validate=False))
    return total, embeddings, projections


def family_labels(members: Sequence, labels, error: type[Exception]) -> list:
    """The labels of a family, 0, 1, ... by default.  Reports key results by
    label, so given ones must be one per member and distinct, else ``error``."""
    if labels is None:
        return list(range(len(members)))
    labels = list(labels)
    if len(labels) != len(members):
        raise error(f"{len(labels)} labels for {len(members)} members")
    repeated = [label for label, k in Counter(labels).items() if k > 1]
    if repeated:
        raise error(f"labels must be distinct; repeated: {', '.join(map(repr, repeated))}")
    return labels


def dual(rep: Representation) -> Representation:
    """The vector-space dual over the opposite presentation.

    Vertex dimensions are kept; every arrow matrix is transposed.
    Applying it twice returns a representation equal to the original.
    """
    opp = rep.presentation.opposite()
    matrices = {name: m.transpose() for name, m in rep.matrices.items()}
    return Representation(opp, dict(rep.dims_by_vertex), matrices, rep.field, _validate=False)


def socle(rep: Representation) -> SubspaceFamily:
    """The largest semisimple subrepresentation.

    At each vertex this is the common kernel of all outgoing arrow
    matrices (vertices without outgoing arrows contribute fully).
    """
    spaces = {}
    for v in rep.presentation.quiver.vertices:
        outgoing = rep.presentation.quiver.arrows_from(v)
        if not outgoing:
            spaces[v] = Subspace.full(rep.dim(v), rep.field)
            continue
        stacked = rep.matrix(outgoing[0].name)
        for a in outgoing[1:]:
            stacked = stacked.vstack(rep.matrix(a.name))
        spaces[v] = kernel_basis(stacked)
    return SubspaceFamily(spaces)


def sub_from_family(rep: Representation, fam: SubspaceFamily) -> Representation:
    """The subrepresentation carried by an arrow-closed subspace family;
    raises unless every arrow maps the family into itself."""
    quiver = rep.presentation.quiver
    dims = {v: fam.space(v).dim for v in quiver.vertices}
    matrices = {}
    for a in quiver.arrows:
        # the arrow's matrix on the submodule: coordinates of the mapped basis
        mapped = rep.matrix(a.name) @ fam.space(a.source).basis
        matrices[a.name] = fam.space(a.target).coordinates(mapped)
        if matrices[a.name] is None:
            raise RepresentationError("family is not closed under the arrow actions")
    return Representation(rep.presentation, dims, matrices, rep.field, _validate=False)


def sub_inclusion(rep: Representation, fam: SubspaceFamily) -> tuple[Representation, Morphism]:
    """The subrepresentation together with its inclusion morphism."""
    sub = sub_from_family(rep, fam)
    blocks = {v: fam.space(v).basis for v in rep.presentation.quiver.vertices}
    return sub, Morphism(sub, rep, blocks)


# -- Kronecker families ------------------------------------------------------


_KRONECKER = kronecker()
_KRONECKER_OP = _KRONECKER.opposite()


def kronecker_preinjective(n: int, field=QQ) -> Representation:
    """The n-th preinjective string module, dim vector (n, n-1).

    Basis: the n top vectors at vertex 1 in left-to-right string order
    and the n-1 valleys at vertex 2; beta joins top j to valley j,
    alpha joins top j+1 to valley j.  Length is 2n-1.
    """
    if n < 1:
        raise RepresentationError("index must be >= 1")
    alpha, beta = _strings(n, field)
    return Representation(
        _KRONECKER,
        {"1": n, "2": n - 1},
        {"alpha": alpha, "beta": beta},
        field,
        _validate=False,
    )


def kronecker_preinjective_right(n: int, field=QQ) -> Representation:
    """The n-th preinjective right module, as a representation of the
    opposite quiver: n tops at vertex 2, n-1 valleys at vertex 1."""
    if n < 1:
        raise RepresentationError("index must be >= 1")
    alpha, beta = _strings(n, field)
    return Representation(
        _KRONECKER_OP,
        {"1": n - 1, "2": n},
        {"alpha": alpha, "beta": beta},
        field,
        _validate=False,
    )


def _strings(n: int, field) -> tuple[Mat, Mat]:
    """The (n-1) x n string matrices: alpha joins top j+1, beta top j, to valley j."""
    alpha = Mat.sparse([{j + 1: 1} for j in range(n - 1)], n, field)
    beta = Mat.sparse([{j: 1} for j in range(n - 1)], n, field)
    return alpha, beta


def kronecker_preprojective(n: int, field=QQ) -> Representation:
    """The n-th preprojective module: the dual of the n-th right preinjective.

    Dim vector (n-1, n); length 2n-1.
    """
    return dual(kronecker_preinjective_right(n, field))


def kronecker_regular(n: int, lam, field=QQ) -> Representation:
    """The regular module of size n on the tube parameter lam.

    Dim vector (n, n): alpha acts as the identity and beta as the
    Jordan block J_n(lam); for lam = INFINITY the roles are swapped
    (alpha nilpotent Jordan, beta identity).
    """
    if n < 1:
        raise RepresentationError(f"size must be >= 1, not {n}")
    one = Mat.identity(n, field)
    shift = _mat(tuple({i + 1: 1} for i in range(n - 1)) + ({},), n, n, field)  # J_n(0)
    if isinstance(lam, _Infinity):
        alpha, beta = shift, one
    else:
        alpha, beta = one, one.scale(lam) + shift  # J_n(lam); scale reads lam as a value of the field
    return Representation(
        _KRONECKER, {"1": n, "2": n}, {"alpha": alpha, "beta": beta}, field, _validate=False
    )
