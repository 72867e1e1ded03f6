"""Independent constructions kept as test oracles.

``commuting_square_basis`` is the first hom-space builder: one kernel of
the commuting-square system "f_target(a) . M_a = N_a . f_source(a) for
every arrow a", with sum_v m_v * n_v unknowns in the ``Morphism.flatten``
layout, taken by ``sparse_kernel`` from equations as dicts of values.
``preimage`` is the subspace {x : m @ x in sub}.
``stable_by_images`` and ``endo_invariant_by_images`` are the first
endo-invariance test: the image subspace of sub under every map (every
End(M) basis map), checked to lie in sub.  ``stable_by_products`` is the
first ``Subspace.is_stable`` on the annihilator: every map's product
q @ m with the annihilator's canonical rows q, checked to lie in their
span.  ``multiply_coords`` is the product of End(M) in the coordinates
of ``ring.hom``, composed on M.
``relative_series_by_embedding`` is the first relative endosocle
series: ``family_endosocle`` on each remaining subfamily, its components
embedded into the direct sum of all members.  ``annihilated_by_stacking``
is the first ``endosocle._annihilated``: every map drawn first, then one
``kernel_basis`` per vertex of the stacked blocks.  ``series_by_annihilators``
is the ascending endosocle series as ``endosocle._annihilated`` once grew
it, before it read the layer walk ``homs._layers``: each term the maps of
J(End M) pull back from the one before, one annihilator per vertex and term.
``nilpotent_by_stacked_images`` is the first ``homs._check_nilpotent``:
each layer's images joined with ``Mat.hstack`` and re-eliminated as a
``Subspace``, for dim M layers.  ``left_profile_by_duals`` is the first
left-sided radical profile: ``radical_profile`` of the dualized family
over the opposite presentation, every hom system and composite solved
again.  ``split_by_basis_morphisms`` is the first ``homs._find_split``:
the identity and End(M)'s canonical rows as ``Morphism``s, all their
pairwise ``Morphism`` sums, and each power of g - lam raised one step at
a time until the kernels stop growing.  Its eigenvalues are
``rational_eigenvalues``, the rational roots of each vertex block's
characteristic polynomial (``charpoly``, Faddeev-LeVerrier, which divides
by k and so holds over the rationals only), where ``homs._find_split``
reads one minimal polynomial of g.
``reduce_by_columns`` is the first ``linalg._reduce``: the row's pivot
columns listed first, then each cleared in turn with the generic
``linalg._subtract``, skipping the pivot.
``eliminate_afresh`` is ``linalg._eliminate`` as it was before it could
extend an elimination its caller keeps: every call starts from no pivot
row.  ``presentation_by_pivot_insertion`` is the first
``spin.presentation``: each new node's row scaled to a 1 by a one-row
elimination and back-substituted into every held row at its vertex that
has an entry at its pivot.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations

from endoscope.endosocle import EndostructureError, family_endosocle
from endoscope.homs import _rational_roots, hom_basis, noniso_blocks, prepare_members
from endoscope.linalg import LinalgError, Mat, Subspace, _checked, _kernel_rows, _qq, _reduce, _subtract, kernel_basis
from endoscope.radical import radical_profile
from endoscope.reps import Morphism, Representation, SubspaceFamily, direct_sum, dual, sub_from_family
from endoscope.spin import sides


def commuting_square_basis(m: Representation, n: Representation) -> list[Morphism]:
    """A basis of Hom(m, n): the canonical kernel basis of the commuting-square system."""
    quiver = m.presentation.quiver
    p = m.field.characteristic
    # unknown offsets[v] + i * m.dim(v) + j is entry (i, j) of the block f_v
    offsets = {}
    unknowns = 0
    for v in quiver.vertices:
        offsets[v] = unknowns
        unknowns += n.dim(v) * m.dim(v)

    equations = []
    for a in quiver.arrows:
        ma = m.matrix(a.name).transpose()
        na = n.matrix(a.name)
        # (f_t @ ma)[r, c] - (na @ f_s)[r, c] = 0 couples f_t[r, k] with ma[k, c]
        # and f_s[k, c] with na[r, k]; na_rows holds the negated entries
        ma_cols = [ma.row(c).items() for c in range(ma.rows)]
        na_rows = [[(k, p - x if p else -x) for k, x in na.row(r).items()] for r in range(na.rows)]
        width_t, width_s, off_s = m.dim(a.target), m.dim(a.source), offsets[a.source]
        for r, na_row in enumerate(na_rows):
            base_t = offsets[a.target] + r * width_t
            for c, ma_col in enumerate(ma_cols):
                eq = {base_t + k: x for k, x in ma_col}
                for k, y in na_row:
                    idx = off_s + k * width_s + c
                    x = eq.get(idx)
                    eq[idx] = y if x is None else (x + y) % p if p else x + y
                equations.append(eq)

    return [Morphism.unflatten(m, n, vec) for vec in sparse_kernel(equations, unknowns, m.field)]


def sparse_kernel(equations, ncols: int, field) -> list[dict]:
    """The right kernel of sparse equations ``{column: value}`` over ``field``.

    Zero entries and empty equations are allowed, and every entry is
    checked.  Returns the canonical basis (the RREF rows of the kernel) as
    dicts ``{column: nonzero value}``.
    """
    p = field.characteristic
    reduced = _kernel_rows(_checked((eq.items() for eq in equations), ncols, field), ncols, p)
    return [reduced[c] for c in sorted(reduced)]


def reduce_by_columns(row: dict, reduced: dict[int, dict], p: int) -> dict:
    """``row`` reduced in place against fully reduced pivot rows ``{pivot: row}``, one pivot column at a time."""
    for c in [c for c in row if c in reduced]:
        _subtract(row, row.pop(c), reduced[c], c, p)
    return row


def eliminate_afresh(rows, p: int, ncols: int | None = None) -> dict[int, dict]:
    """The reduced row echelon rows ``{pivot: row}`` of sparse kernel rows
    (which it consumes), from no pivot row; no row is drawn once ``ncols``
    pivots are held."""
    reduced: dict[int, dict] = {}
    holders: dict[int, set] = {}  # column -> pivots of the rows with an entry there
    if ncols == 0:
        return reduced
    for row in rows:
        _reduce(row, reduced, p)
        if not row:
            continue
        piv = min(row)
        pv = row[piv]
        if pv != 1:
            if p:
                inv = pow(pv, -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            else:
                inv = -1 if pv == -1 else Fraction(1, pv)
                row = {j: _qq(v * inv) for j, v in row.items()}
        for q in holders.pop(piv, ()):
            target = reduced[q]
            _subtract(target, target.pop(piv), row, piv, p, holders, q)
        reduced[piv] = row
        if len(reduced) == ncols:
            break
        for j in row:
            if j != piv:
                holders.setdefault(j, set()).add(piv)
    return reduced


def presentation_by_pivot_insertion(m: Representation, dual_side: bool) -> tuple[list, list, dict]:
    """``(nodes, relations, inverse)`` of m, or of Dm if ``dual_side``, spun
    as ``spin.presentation`` does, with the pivot rows at each vertex kept
    in a bare ``{pivot: row}`` dict and each new one inserted by hand."""
    p = m.field.characteristic
    dims = m.dims_by_vertex
    (arrows, lifts), (other, _) = sides(m)[:: -1 if dual_side else 1]
    leaving = {v: [] for v in dims}
    for name, (source, target, _) in arrows.items():
        leaving[source].append((name, target, other[name][2]))
    nodes, vectors, relations = [], [], []
    spanned = {v: {} for v in dims}
    at = {v: [] for v in dims}

    def add(v, vector, row, parent=None, arrow=None):
        row[dims[v] + len(at[v])] = 1
        at[v].append(len(nodes))
        nodes.append((v, parent, arrow))
        vectors.append(vector)
        pivot = min(row)
        if row[pivot] != 1:
            ((pivot, row),) = eliminate_afresh([row], p).items()
        for held in spanned[v].values():
            if pivot in held:
                _subtract(held, held.pop(pivot), row, pivot, p)
        spanned[v][pivot] = row

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


def preimage(sub: Subspace, m: Mat) -> Subspace:
    """{x : m @ x lies in sub}."""
    return kernel_basis(sub.annihilator() @ m)


def stable_by_images(sub: Subspace, maps) -> bool:
    """m(sub) ⊆ sub for every matrix m in ``maps``, one image subspace per map."""
    return all(sub.contains_subspace(sub.image(m)) for m in maps)


def stable_by_products(sub: Subspace, maps) -> bool:
    """m(sub) ⊆ sub for every n x n matrix m in ``maps``: q @ m in the span
    of the annihilator rows q; every map is checked for its field and shape."""
    n = sub.ambient_dim
    q = sub.annihilator()
    annihilator = Subspace(n, q.transpose())
    for m in maps:
        if m.shape != (n, n):
            raise LinalgError(f"map of shape {m.shape} on K^{n}")
        if not all(annihilator.contains(row) for row in (q @ m).entries):
            return False
    return True


def endo_invariant_by_images(sub: Subspace, rep: Representation) -> bool:
    """f(sub) ⊆ sub for every basis endomorphism f of rep, by image subspaces."""
    return stable_by_images(sub, (f.total_mat() for f in hom_basis(rep, rep).basis))


def multiply_coords(ring, x, y) -> tuple:
    """Coordinates in ``ring.hom`` of the product "x after y", composed on M."""
    hom = ring.hom
    return hom.coordinates(hom.from_coordinates(x).compose(hom.from_coordinates(y)))


def relative_series_by_embedding(members, labels=None, boundary=()):
    """The relative endosocle series, each step a fresh ``family_endosocle``
    on the remaining members whose components are embedded into the direct
    sum of all members; the sum of the terms is checked direct vertex by
    vertex.

    Returns the terms as (support, dim, subspace family of the sum), and
    the embedding of each indecomposable summand into the sum by label.
    """
    members, labels, boundary = prepare_members(list(members), labels, EndostructureError, boundary)
    total, embeddings, _ = direct_sum(members)
    remaining = list(range(len(members)))
    terms = []
    while remaining:
        report = family_endosocle(
            [members[i] for i in remaining], labels=[labels[i] for i in remaining], boundary=boundary
        )
        if report.total_dim == 0:
            break
        term = SubspaceFamily.zero_for(total)
        for i in remaining:
            term = term.add(report.components[labels[i]].image(embeddings[i]))
        terms.append((report.support, report.total_dim, term))
        remaining = [i for i in remaining if labels[i] not in report.support]
    for v in total.presentation.quiver.vertices:
        spaces = [term.space(v) for _, _, term in terms]
        summed = reduce(Subspace.add, spaces, Subspace.zero(total.dim(v), total.field))
        assert summed.dim == sum(s.dim for s in spaces), "sum of series terms is not direct"
    return terms, dict(zip(labels, embeddings))


def embedded(components, embedding) -> SubspaceFamily:
    """The sum of the per-member ``components`` (label -> family), each
    carried into the direct sum by ``embedding[label]``."""
    return reduce(SubspaceFamily.add, (c.image(embedding[l]) for l, c in components.items()))


def annihilated_by_stacking(m: Representation, targets) -> SubspaceFamily:
    """Vertex by vertex, the elements of m that every non-isomorphism from m
    to a module of ``targets`` (its vertex blocks, ``homs.noniso_blocks``)
    kills: the kernel of the stacked blocks f_v, all of m when there are no maps."""
    blocks = [b for n in targets for b in noniso_blocks(m, n)]
    if not blocks:
        return SubspaceFamily.full_for(m)
    return SubspaceFamily({v: kernel_basis(reduce(Mat.vstack, [b[v] for b in blocks])) for v in m.presentation.quiver.vertices})


def series_by_annihilators(m: Representation) -> list[SubspaceFamily]:
    """The terms of the ascending endosocle series of m: term k + 1 is,
    vertex by vertex, what every map of J(End m) (``homs.noniso_blocks``)
    sends into term k, the kernel of the stacked blocks annihilator(term k)
    @ f_v, from term 0 = 0 until a term repeats."""
    blocks = noniso_blocks(m, m)
    current, terms = SubspaceFamily.zero_for(m), []
    while True:
        spaces = {}
        for v in m.presentation.quiver.vertices:
            annihilator = current.space(v).annihilator()
            stack = [annihilator @ b[v] for b in blocks]
            spaces[v] = kernel_basis(reduce(Mat.vstack, stack)) if stack else Subspace.full(m.dim(v), m.field)
        nxt = SubspaceFamily(spaces)
        if nxt == current:
            return terms
        terms.append(nxt)
        current = nxt


def nilpotent_by_stacked_images(m: Representation, maps) -> bool:
    """True iff some product of the maps ``{vertex: Mat}`` vanishes: W runs
    through M, JM, J^2 M, ... (J their span), each layer the column span of
    the images r_v @ W_v of every map, stacked side by side, for at most
    dim M layers."""
    if not maps:
        return True
    layer = {v: Mat.identity(m.dim(v), m.field) for v in m.presentation.quiver.vertices}
    for _ in range(m.total_dim):
        if not any(w.cols for w in layer.values()):
            return True
        layer = {v: Subspace(m.dim(v), reduce(Mat.hstack, [r[v] @ w for r in maps])).basis for v, w in layer.items()}
    return not any(w.cols for w in layer.values())


def left_profile_by_duals(members, d_max, labels=None):
    """The profile of the duals D M_i over the opposite presentation.  D is a
    contravariant equivalence, so its depth-d power from j to i is D R_d(i, j):
    the dims are the right profile's transposed, source and target labels
    exchanged, and its vanishing depth is the right one."""
    return radical_profile([dual(m) for m in members], d_max=d_max, labels=labels)


def charpoly(m: Mat) -> list[Fraction]:
    """Monic characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1] of
    a square matrix over the rationals, by Faddeev-LeVerrier."""
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    work = Mat.identity(n, m.field)
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        work = m @ work
        c = Fraction(-work.trace(), k)
        cs.append(c)
        if k < n:
            work = work + Mat.identity(n, m.field).scale(c)
    # cs = [1, c_1, ..., c_n] for x^n + c_1 x^{n-1} + ... + c_n
    return list(reversed(cs))


def rational_eigenvalues(blocks) -> list[Fraction]:
    """The rational eigenvalues of the vertex blocks ``{vertex: Mat}``, sorted."""
    eigs: set[Fraction] = set()
    for block in blocks.values():
        if block.rows:
            eigs.update(_rational_roots(charpoly(block)))
    return sorted(eigs)


def split_by_basis_morphisms(m: Representation):
    """The first Fitting split M = ker(h^s) + im(h^s), h = g - lam, or None.

    g runs through the identity, the canonical rows of End(m) as maps but
    the one at the identity's last nonzero coordinate, then the pairwise
    sums of all of these; lam through the rational eigenvalues of g.  The
    powers of h are raised one step at a time until the total kernel
    dimension stops growing; h nilpotent or invertible splits nothing.
    """
    hom = hom_basis(m, m)
    ident = Morphism.identity(m)
    drop = max(i for i, c in enumerate(hom.coordinates(ident)) if c)
    basis = (ident,) + hom.basis[:drop] + hom.basis[drop + 1 :]
    for g in list(basis) + [a + b for a, b in combinations(basis, 2)]:
        for lam in rational_eigenvalues(g.blocks):
            shifted = {v: b - Mat.identity(b.rows, m.field).scale(lam) for v, b in g.blocks.items()}
            powers, before = dict(shifted), None
            for _ in range(m.total_dim + 1):
                ker = SubspaceFamily({v: kernel_basis(x) for v, x in powers.items()})
                if ker.total_dim == before:
                    break
                before = ker.total_dim
                powers = {v: shifted[v] @ powers[v] for v in powers}
            if before not in (0, m.total_dim):
                image = SubspaceFamily({v: Subspace(x.rows, x) for v, x in powers.items()})
                return sub_from_family(m, ker), sub_from_family(m, image)
    return None
