"""JSON serialization for quivers, representations, morphisms, and
pointed matrices.

Scalars are rendered as "p/q" strings ("p" when the denominator is 1);
matrix entries are read into the representation's field with
``field.of``, algebra coefficients as rationals.  Vertex dimensions and
the pointer of a pointed matrix are non-negative JSON integers; a float,
bool or string there is refused, never truncated, and so is a dims key
or matrix name that is not a vertex or arrow.  Data of the wrong
JSON shape (a number where an object or array is due, a term without a
coeff) raises ``SerializationError`` as well.
Algebra elements are lists of terms {"coeff", "path"}, where "path"
lists arrow names in application order and a trivial path carries its
vertex instead.
"""

from __future__ import annotations

import json
from typing import Any

from .linalg import Mat, QQ, scalar_to_str
from .matsub import PointedMatrix
from .quiver import AlgebraElement, AlgebraPresentation, Quiver, trivial_path
from .reps import Morphism, Representation


class SerializationError(ValueError):
    pass


def _count(x, what: str) -> int:
    """A non-negative JSON integer; a float, bool, string or negative number
    is refused rather than truncated or coerced."""
    if type(x) is not int or x < 0:
        raise SerializationError(f"{what} must be a non-negative integer, not {json.dumps(x)}")
    return x


def _shaped(x, kind: type, what: str):
    """x if it is a JSON object (kind dict) or array (kind list); otherwise refused."""
    if not isinstance(x, kind):
        raise SerializationError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return x


def matrix_to_json(m: Mat) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in m.entries]


def matrix_from_json(data, rows: int, cols: int, field=QQ) -> Mat:
    if not isinstance(data, list) or len(data) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in data
    ):
        raise SerializationError(f"matrix data is not {rows}x{cols}")
    return Mat([[field.of(x) for x in row] for row in data], rows, cols, field)


def element_to_json(el: AlgebraElement) -> list[dict]:
    out = []
    for path, coeff in el.terms.items():
        term: dict[str, Any] = {"coeff": scalar_to_str(coeff), "path": list(path.arrows)}
        if path.is_trivial():
            term["vertex"] = path.source
        out.append(term)
    return out


def element_from_json(presentation: AlgebraPresentation, data) -> AlgebraElement:
    terms = {}
    for term in _shaped(data, list, "an algebra element"):
        if "coeff" not in _shaped(term, dict, "a term"):
            raise SerializationError("a term needs a coeff")
        coeff = QQ.of(term["coeff"])
        arrows = _shaped(term.get("path", []), list, "a term's path")
        if arrows:
            el = presentation.path_element(arrows)
            path = next(iter(el.terms))
        else:
            vertex = term.get("vertex")
            if vertex is None:
                raise SerializationError("trivial-path term needs a vertex")
            path = trivial_path(vertex)
        terms[path] = terms.get(path, QQ.zero) + coeff
    return AlgebraElement(presentation, terms)


def presentation_to_json(pres: AlgebraPresentation) -> dict:
    return {
        "vertices": list(pres.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target} for a in pres.quiver.arrows
        ],
        "relations": [element_to_json(rel) for rel in pres.relations],
    }


def presentation_from_json(data) -> AlgebraPresentation:
    _shaped(data, dict, "an algebra")
    arrows = [_shaped(a, dict, "an arrow") for a in _shaped(data.get("arrows"), list, "algebra arrows")]
    if any(key not in a for a in arrows for key in ("name", "source", "target")):
        raise SerializationError("an arrow needs a name, a source and a target")
    quiver = Quiver(
        _shaped(data.get("vertices"), list, "algebra vertices"),
        [(a["name"], a["source"], a["target"]) for a in arrows],
    )
    bare = AlgebraPresentation(quiver, ())
    relations = [element_from_json(bare, rel) for rel in _shaped(data.get("relations", []), list, "algebra relations")]
    return AlgebraPresentation(quiver, relations)


def representation_to_json(rep: Representation, include_algebra: bool = True) -> dict:
    out: dict[str, Any] = {
        "dims": {v: rep.dim(v) for v in rep.presentation.quiver.vertices},
        "matrices": {name: matrix_to_json(m) for name, m in sorted(rep.matrices.items())},
    }
    if include_algebra:
        out["algebra"] = presentation_to_json(rep.presentation)
    return out


def representation_from_json(data, presentation: AlgebraPresentation | None = None, field=QQ) -> Representation:
    _shaped(data, dict, "representation data")
    if presentation is None:
        if "algebra" not in data:
            raise SerializationError("representation data lacks an algebra")
        presentation = presentation_from_json(data["algebra"])
    raw_dims = data.get("dims")
    if not isinstance(raw_dims, dict):
        raise SerializationError("representation data needs a dims object")
    dims = {v: _count(d, f"dimension at vertex {v!r}") for v, d in raw_dims.items()}
    arrows = {a.name: a for a in presentation.quiver.arrows}
    matrices = {}
    for name, raw in _shaped(data.get("matrices", {}), dict, "matrices").items():
        if name not in arrows:
            raise SerializationError(f"matrix for {name!r}, which is not an arrow")
        if raw is not None:
            a = arrows[name]
            matrices[name] = matrix_from_json(raw, dims.get(a.target, 0), dims.get(a.source, 0), field)
    # a dims key that names no vertex is refused by Representation
    return Representation(presentation, dims, matrices, field)


def morphism_to_json(f: Morphism) -> dict:
    return {
        "source_dims": {v: f.source.dim(v) for v in f.source.presentation.quiver.vertices},
        "target_dims": {v: f.target.dim(v) for v in f.target.presentation.quiver.vertices},
        "blocks": {v: matrix_to_json(m) for v, m in sorted(f.blocks.items())},
    }


def pointed_matrix_to_json(pm: PointedMatrix, include_algebra: bool = True) -> dict:
    out: dict[str, Any] = {
        "entries": [[element_to_json(el) for el in row] for row in pm.entries],
        "pointer": pm.pointer,
    }
    if include_algebra:
        out["algebra"] = presentation_to_json(pm.presentation)
    return out


def pointed_matrix_from_json(data, presentation: AlgebraPresentation | None = None) -> PointedMatrix:
    _shaped(data, dict, "pointed matrix data")
    if presentation is None:
        if "algebra" not in data:
            raise SerializationError("pointed matrix data lacks an algebra")
        presentation = presentation_from_json(data["algebra"])
    if "entries" not in data or "pointer" not in data:
        raise SerializationError("pointed matrix data needs entries and a pointer")
    entries = tuple(
        tuple(element_from_json(presentation, el) for el in _shaped(row, list, "an entries row"))
        for row in _shaped(data["entries"], list, "entries")
    )
    return PointedMatrix(entries, _count(data["pointer"], "pointer"))


def load_family_file(path: str, field=QQ):
    """Read {"algebra": ..., "members": [...]} and return the members.

    Without a top-level algebra each member carries its own; all
    members must then share one presentation.
    """
    with open(path) as fh:
        data = json.load(fh)
    if "members" not in _shaped(data, dict, "a family file"):
        raise SerializationError("family file lacks a members list")
    presentation = presentation_from_json(data["algebra"]) if "algebra" in data else None
    members = _shaped(data["members"], list, "members")
    members = [representation_from_json(m, presentation, field) for m in members]
    if any(m.presentation != members[0].presentation for m in members):
        raise SerializationError("family members are representations of different algebras")
    return members
