"""Presentations of representations by spinning, and hom systems on them.

A representation M is spun (``presentation``) from lifts of a basis of
its top, the standard vectors that the arrow images into each vertex
miss: every arrow is applied to every vector found, and each image is
either a new basis vector or a combination of those already found, a
relation.  A map M -> N is then fixed by the images of the generators,
which must satisfy the relations evaluated on N (``spun_homs``), so
Hom(M, N) is one kernel with sum_v dim top(M)_v * n_v unknowns.  One
elimination gives its dimension; the solutions are spread into maps in
the ``Morphism.flatten`` layout, and eliminated once more into the
canonical rows, only when those are asked for (``_spread``).  Both are
made in value format as they are formed, in one pass over the stored
rows of checked arrow matrices (``Mat._data``), and not validated again.
The dual side spins DN and solves Hom(DN, DM) the same way.  ``sides``
and ``presentation`` are cached per module; ``homs.clear_caches`` drops
them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .linalg import _eliminate, _free_rows, _qq, _reduce, _subtract
from .reps import Representation


@lru_cache(maxsize=None)
def sides(m: Representation) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """m and its dual Dm (``reps.dual``, not built), each as ``(arrows,
    lifts)``.

    ``arrows`` maps a name to (source, target, matrix); Dm reverses every
    arrow and transposes its matrix, so column k of one side's matrix,
    the image of e_k, is row k of the other side's.  ``lifts[v]`` lists
    the columns j whose standard vectors lift a basis of the top at v:
    the non-pivot columns of the RREF of the images of the arrows into
    v.  The top of Dm is the dual of the socle of m.
    """
    dims = m.dims_by_vertex
    arrows, images = ({}, {}), ({v: [] for v in dims}, {v: [] for v in dims})
    for a in m.presentation.quiver.arrows:
        mat = m.matrices[a.name]
        transposed = mat.transpose()
        arrows[0][a.name] = (a.source, a.target, mat)
        arrows[1][a.name] = (a.target, a.source, transposed)
        images[0][a.target] += transposed._copy()
        images[1][a.source] += mat._copy()
    p = m.field.characteristic
    lifts = [{}, {}]
    for side in (0, 1):
        for v, rows in images[side].items():
            pivots = _eliminate(rows, p) if rows else ()
            lifts[side][v] = [j for j in range(dims[v]) if j not in pivots]
    return (arrows[0], lifts[0]), (arrows[1], lifts[1])


@lru_cache(maxsize=None)
def presentation(m: Representation, dual_side: bool) -> tuple[list, list, dict]:
    """A presentation of m, or of Dm if ``dual_side``, found by spinning
    (Lux and Szoke, Experiment. Math. 12 (2003); Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 7.5): ``(nodes, relations,
    inverse)``.

    The nodes are a basis: a generator ``(v, None, None)``, from the lifts
    of the top and then from standard vectors where those fall short (as
    under an invertible loop), or ``(v, parent, arrow)``, the image of an
    earlier node.  An arrow applied to a node whose image is spanned
    already gives a relation ``(node, arrow, {node: coefficient})``, and
    ``inverse[v][j]`` writes e_j at v in the nodes.  At each vertex the
    nodes so far are fully reduced rows [vector | node combination], the
    vector in the columns below m_v; an image is spanned exactly when its
    vector part reduces to zero, and its combination part is then minus
    its coordinates.
    """
    p = m.field.characteristic
    dims = m.dims_by_vertex
    (arrows, lifts), (other, _) = sides(m)[:: -1 if dual_side else 1]
    leaving = {v: [] for v in dims}  # (arrow, target, matrix whose row k is the image of e_k)
    for name, (source, target, _) in arrows.items():
        leaving[source].append((name, target, other[name][2]))
    nodes, vectors, relations = [], [], []
    spanned = {v: {} for v in dims}
    at = {v: [] for v in dims}  # the nodes at each vertex, in order

    def add(v, vector, row, parent=None, arrow=None):
        """Make ``vector`` at v a node; ``row`` is its reduction, with a
        nonzero vector part."""
        row[dims[v] + len(at[v])] = 1
        at[v].append(len(nodes))
        nodes.append((v, parent, arrow))
        vectors.append(vector)
        pivot = min(row)
        if row[pivot] != 1:
            ((pivot, row),) = _eliminate([row], p).items()  # scaled to a 1 at its pivot
        for held in spanned[v].values():
            if pivot in held:
                _subtract(held, held.pop(pivot), row, pivot, p)
        spanned[v][pivot] = row

    # e_j at a non-pivot column j of the rows at v is a reduced row itself
    for v, cols in lifts.items():
        for j in cols:
            add(v, {j: 1}, {j: 1})
    done = 0
    while True:
        while done < len(nodes):
            for name, target, images in leaving[nodes[done][0]]:
                image = {}
                for k, x in vectors[done].items():
                    _subtract(image, -x, images._data[k], -1, p)
                row = _reduce(dict(image), spanned[target], p)
                width = dims[target]
                if row and min(row) < width:
                    add(target, image, row, done, name)
                else:
                    relations.append((done, name, {at[target][c - width]: -x % p if p else -x for c, x in row.items()}))
            done += 1
        short = next((v for v in dims if len(spanned[v]) < dims[v]), None)
        if short is None:
            break
        j = next(j for j in range(dims[short]) if j not in spanned[short])
        add(short, {j: 1}, {j: 1})
    inverse = {}
    for v, rows in spanned.items():
        width, held = dims[v], at[v]
        inverse[v] = [{held[c - width]: x for c, x in rows[j].items() if c >= width} for j in range(width)]
    return nodes, relations, inverse


def spun_homs(spun: tuple, s: Representation, t: Representation, matrices: dict, transpose: bool) -> tuple[int, Callable]:
    """Hom(s, t) from the presentation ``spun`` of s and the arrow
    ``matrices`` of t, as ``(dim, spread)``; with ``transpose``, the spin
    is of Ds, the matrices are those of Dt, and the space is Hom(t, s).

    The unknowns are the images of the generators.  A node's image is P
    applied to its generator's unknowns, P the product of t's arrow
    matrices along its path, and each relation gives t_v equations, one
    per stored row of P.  Each equation is formed in one pass: the
    relation's coefficients are negated once, a term's entry is placed as
    it is where its unknown is new, and added only where two terms meet
    at one unknown (two nodes of the relation spun from one generator, as
    when its combination names the node's own generator), an entry that
    sums to zero being deleted there.  So it comes out in value format
    with no zero entry, and is handed to the kernel unchecked.  One
    elimination solves them, and ``dim`` is the number of its free columns: a map is
    fixed by the images of the generators, so distinct solutions are
    distinct maps.  A nonzero space reads a kernel basis off it, which
    ``spread()`` turns into the canonical RREF rows ``{pivot: row}`` of the
    space in the ``Morphism.flatten`` layout, the same maps on either side.
    """
    nodes, relations, inverse = spun
    p = s.field.characteristic
    tdims = t.dims_by_vertex
    # paths[k] = (u, P): coordinate c of the generator of node k is unknown u - c;
    # later generators take smaller indices, so the pivot of a relation is
    # mostly an unknown that no earlier relation holds: little back-substitution
    paths, free = [], sum(tdims[v] for v, parent, _ in nodes if parent is None)
    unknowns = free
    for v, parent, arrow in nodes:
        if parent is None:
            paths.append((free - 1, None))
            free -= tdims[v]
        else:
            u, path = paths[parent]
            a = matrices[arrow][2]
            paths.append((u, a if path is None else a @ path))
    if not unknowns:
        return 0, dict  # the zero space: no rows

    equations = []
    for node, arrow, combination in relations:
        u, path = paths[node]
        a = matrices[arrow][2]
        lhs = (a if path is None else a @ path)._data
        terms = []  # (-c, u_k, stored rows of P_k or None), read and negated once per relation
        for k, c in combination.items():
            uk, pk = paths[k]
            terms.append((-c % p if p else -c, uk, None if pk is None else pk._data))
        for r, row in enumerate(lhs):
            eq = {u - c: x for c, x in row.items()}
            for nc, uk, pk in terms:
                # a generator's image has coordinate r at unknown uk - r
                for i, x in ((r, 1),) if pk is None else pk[r].items():
                    y = nc * x % p if p else nc * x if type(nc) is type(x) is int else _qq(nc * x)
                    old = eq.get(uk - i)
                    if old is None:  # a new unknown: placed as it is
                        eq[uk - i] = y
                    elif y := (old + y) % p if p else _qq(old + y):  # two terms meet at one unknown
                        eq[uk - i] = y
                    else:
                        del eq[uk - i]
            equations.append(eq)
    reduced = _eliminate(equations, p, unknowns)
    if len(reduced) == unknowns:
        return 0, dict  # no free column: the zero space, with no kernel basis to read
    kernel = _free_rows(reduced, unknowns, p)
    return len(kernel), lambda: _spread(kernel, paths, inverse, s, t, transpose)


def _spread(kernel: list[dict], paths: list, inverse: dict, s: Representation, t: Representation, transpose: bool) -> dict[int, dict]:
    """The canonical RREF rows ``{pivot: row}`` of the maps whose generator
    images are the ``kernel`` vectors, in the ``Morphism.flatten`` layout.

    Entry (r, j) of the block at v is coordinate r of the image of e_j,
    which the spin's inverse writes in the nodes.  Only the unknowns that
    the kernel vectors hold are spread, in value format: the kernel keeps
    them as they come.  The RREF of a span is unique, so any basis of the
    kernel gives the same rows.
    """
    p = s.field.characteristic
    sdims, tdims = s.dims_by_vertex, t.dims_by_vertex
    # spread[w] is the flatten layout of the map with unknown w = 1
    spread, pos = {w: {} for y in kernel for w in y}, 0
    for v in s.presentation.quiver.vertices:
        s_v, t_v = sdims[v], tdims[v]
        for j, combination in enumerate(inverse[v]):
            for k, c in combination.items():
                u, path = paths[k]
                for r in range(t_v):
                    idx = pos + (j * t_v + r if transpose else r * s_v + j)
                    if path is None:
                        if (row := spread.get(u - r)) is not None:
                            row[idx] = row.get(idx, 0) + c
                    else:
                        for i, x in path._data[r].items():
                            if (row := spread.get(u - i)) is not None:
                                row[idx] = row.get(idx, 0) + c * x
        pos += s_v * t_v
    flats = []
    for y in kernel:
        flat = {}
        for w, a in y.items():
            for idx, x in spread[w].items():
                flat[idx] = flat.get(idx, 0) + a * x
        flats.append({idx: z for idx, x in flat.items() if (z := x % p if p else x if type(x) is int else _qq(x))})
    return _eliminate(flats, p)
