"""Quivers, paths, and bound path-algebra presentations.

A quiver is a finite directed multigraph; a presentation adds a list of
relations (linear combinations of parallel paths of length >= 2).
Algebra elements are formal rational combinations of paths.  Products
concatenate paths and are reduced modulo monomial relations; for
non-monomial relations the product is kept as a representative, which
acts correctly on any representation satisfying the relations.

Paths compose like functions: the product p*q means "apply q, then p".
Internally a path stores its arrows in application order (first-applied
first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .linalg import QQ, Mat, Scalar, assemble


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """Vertices in a fixed order plus named arrows between them."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str, str] | Arrow]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        arr = []
        for a in arrows:
            arr.append(a if isinstance(a, Arrow) else Arrow(*a))
        self.arrows = tuple(arr)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name} uses undeclared vertices")
        self._by_name = {a.name: a for a in self.arrows}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise QuiverError(f"no arrow named {name!r}") from None

    def arrows_from(self, vertex: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.source == vertex)

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def key(self):
        return (self.vertices, self.arrows)

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        arrs = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrs})"


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence, or the trivial path at a vertex.

    ``arrows`` is stored in application order; an empty tuple is the
    trivial path e_source (source == target).
    """

    source: str
    target: str
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def then(self, other: "Path") -> "Path | None":
        """The composite "other after self"; None if not composable."""
        if self.target != other.source:
            return None
        return Path(self.source, other.target, self.arrows + other.arrows)

    def reverse(self) -> "Path":
        return Path(self.target, self.source, tuple(reversed(self.arrows)))

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))


def trivial_path(vertex: str) -> Path:
    return Path(vertex, vertex, ())


class AlgebraElement:
    """A formal linear combination of paths of one presentation.

    Coefficients are rationals in the value format, made by ``QQ.of``: an
    int when integral, else a Fraction; floats and bools are refused.
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: "AlgebraPresentation", terms: Mapping[Path, Scalar]):
        self.presentation = presentation
        clean = {}
        for path, coeff in terms.items():
            presentation.validate_path(path)
            coeff = QQ.of(coeff)
            if coeff:
                clean[path] = coeff
        self.terms = dict(sorted(clean.items(), key=lambda kv: (kv[0].length, kv[0].arrows, kv[0].source)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0) + c
        return AlgebraElement(self.presentation, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.presentation, {p: -c for p, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        c = QQ.of(c)
        return AlgebraElement(self.presentation, {p: c * d for p, d in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def _check_same(self, other: "AlgebraElement"):
        if self.presentation != other.presentation:
            raise QuiverError("elements of different presentations")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.presentation == other.presentation
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.presentation, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for p, c in self.terms.items():
            parts.append(repr(p) if c == 1 else f"({c})*{p!r}")
        return " + ".join(parts)


class AlgebraPresentation:
    """A quiver together with admissible relations."""

    def __init__(self, quiver: Quiver, relations: Iterable[AlgebraElement] = ()):
        self.quiver = quiver
        self.relations = ()
        rels = []
        for rel in relations:
            if rel.presentation.quiver != quiver:
                raise QuiverError("relation over a different quiver")
            for path in rel.terms:
                if path.length < 2:
                    raise QuiverError("relations must combine paths of length >= 2")
            ends = {(p.source, p.target) for p in rel.terms}
            if len(ends) > 1:
                raise QuiverError("relation terms must be parallel paths")
            # re-home the element onto this bound presentation
            rels.append(AlgebraElement(self, rel.terms))
        self.relations = tuple(rels)
        self._monomials = tuple(
            next(iter(r.terms)).arrows for r in self.relations if len(r.terms) == 1
        )

    # -- element constructors ------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def trivial(self, vertex: str) -> AlgebraElement:
        if vertex not in self.quiver.vertices:
            raise QuiverError(f"no vertex {vertex!r}")
        return AlgebraElement(self, {trivial_path(vertex): 1})

    def arrow_element(self, name: str) -> AlgebraElement:
        a = self.quiver.arrow(name)
        return AlgebraElement(self, {Path(a.source, a.target, (name,)): 1})

    def path_element(self, arrow_names: Iterable[str]) -> AlgebraElement:
        names = tuple(arrow_names)
        if not names:
            raise QuiverError("use trivial() for a trivial path")
        arrows = [self.quiver.arrow(n) for n in names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError(f"arrows {a.name} and {b.name} do not compose")
        return AlgebraElement(
            self, {Path(arrows[0].source, arrows[-1].target, names): 1}
        )

    def one(self) -> AlgebraElement:
        terms = {trivial_path(v): 1 for v in self.quiver.vertices}
        return AlgebraElement(self, terms)

    # -- structure -----------------------------------------------------------

    def validate_path(self, path: Path):
        q = self.quiver
        if path.is_trivial():
            if path.source not in q.vertices or path.source != path.target:
                raise QuiverError(f"invalid trivial path at {path.source!r}")
            return
        arrows = [q.arrow(n) for n in path.arrows]
        if arrows[0].source != path.source or arrows[-1].target != path.target:
            raise QuiverError("path endpoints inconsistent with arrows")
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError(f"arrows {a.name}, {b.name} not composable in path")

    def monomial_zero(self, arrows: tuple[str, ...]) -> bool:
        """Whether a path contains a monomial relation as a contiguous subword."""
        for mono in self._monomials:
            k = len(mono)
            if k <= len(arrows):
                for i in range(len(arrows) - k + 1):
                    if arrows[i : i + k] == mono:
                        return True
        return False

    def paths(self, max_length: int = 64) -> list[Path]:
        """All nonzero paths, shortest first.

        Raises if paths are still extendable at ``max_length`` (the
        path space is then infinite or unreasonably deep for the
        desk-scale scope of this package).
        """
        out = [trivial_path(v) for v in self.quiver.vertices]
        frontier = list(out)
        length = 0
        while frontier:
            length += 1
            if length > max_length:
                raise QuiverError("path space not finite within bound")
            nxt = []
            for p in frontier:
                for a in self.quiver.arrows_from(p.target):
                    arrows = p.arrows + (a.name,)
                    if not self.monomial_zero(arrows):
                        nxt.append(Path(p.source, a.target, arrows))
            out.extend(nxt)
            frontier = nxt
        return out

    def dimension(self) -> int:
        """K-dimension of the path algebra modulo monomial relations."""
        return len(self.paths())

    def opposite(self) -> "AlgebraPresentation":
        opp_quiver = self.quiver.opposite()
        opp = AlgebraPresentation(opp_quiver, ())
        rels = []
        for rel in self.relations:
            terms = {p.reverse(): c for p, c in rel.terms.items()}
            rels.append(AlgebraElement(opp, terms))
        return AlgebraPresentation(opp_quiver, rels)

    def key(self):
        return (
            self.quiver.key(),
            tuple(tuple(sorted(r.terms.items(), key=lambda kv: kv[0].arrows)) for r in self.relations),
        )

    def __eq__(self, other):
        return isinstance(other, AlgebraPresentation) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AlgebraPresentation({self.quiver!r}, {len(self.relations)} relations)"


def kronecker() -> AlgebraPresentation:
    """The Kronecker presentation: vertices 1, 2 and arrows alpha, beta: 1 -> 2."""
    q = Quiver(["1", "2"], [("alpha", "1", "2"), ("beta", "1", "2")])
    return AlgebraPresentation(q, ())


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product a*b, i.e. "apply b, then a", reduced modulo monomial relations."""
    a._check_same(b)
    pres = a.presentation
    terms: dict[Path, Scalar] = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            composite = pb.then(pa)
            if composite is None:
                continue
            if pres.monomial_zero(composite.arrows):
                continue
            terms[composite] = terms.get(composite, 0) + ca * cb
    return AlgebraElement(pres, terms)


def act(a: AlgebraElement, rep) -> Mat:
    """The linear action of an algebra element on a representation's total space.

    A trivial path acts as the projection onto its vertex block; an
    arrow acts as its matrix placed in the (target, source) block; a
    general path is the product of its arrow actions.  The rational
    coefficients are mapped into the representation's field.
    """
    if rep.presentation != a.presentation:
        raise QuiverError("element and representation use different presentations")
    blocks = [
        (rep.offset(path.target), rep.offset(path.source), _path_block(path, rep).scale(coeff))
        for path, coeff in a.terms.items()
    ]
    return assemble(rep.total_dim, rep.total_dim, blocks, rep.field)


def _path_block(path: Path, rep) -> Mat:
    if path.is_trivial():
        return Mat.identity(rep.dim(path.source), rep.field)
    block = rep.matrix(path.arrows[0])
    for name in path.arrows[1:]:
        block = rep.matrix(name) @ block
    return block
