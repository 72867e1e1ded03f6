from fractions import Fraction

import pytest

from endoscope.linalg import QQ, Mat, PrimeField, Subspace
from endoscope.quiver import AlgebraPresentation, Quiver, kronecker
from endoscope.reps import (
    INFINITY,
    Morphism,
    Representation,
    RepresentationError,
    SubspaceFamily,
    composite_flats,
    decode_flats,
    direct_sum,
    dual,
    kronecker_preinjective,
    kronecker_preinjective_right,
    kronecker_preprojective,
    kronecker_regular,
    simple,
    socle,
    sub_from_family,
    sub_inclusion,
    zero_representation,
)


def test_preinjective_dim_vectors_and_lengths():
    assert kronecker_preinjective(1).dim_vector == (1, 0)
    assert kronecker_preinjective(2).dim_vector == (2, 1)
    for n in range(1, 13):
        rep = kronecker_preinjective(n)
        assert rep.dim_vector == (n, n - 1)
        assert rep.length() == 2 * n - 1


def test_preinjective_rejects_zero_index():
    with pytest.raises(RepresentationError):
        kronecker_preinjective(0)
    with pytest.raises(RepresentationError):
        kronecker_preprojective(0)


def test_regular_rejects_size_below_one():
    for n in (0, -1):
        with pytest.raises(RepresentationError, match=f"^size must be >= 1, not {n}$"):
            kronecker_regular(n, 0)
    with pytest.raises(RepresentationError, match="^size must be >= 1, not 0$"):
        kronecker_regular(0, INFINITY)


def test_preprojective_is_dual_of_right_preinjective():
    for n in range(1, 13):
        right = kronecker_preinjective_right(n)
        rep = dual(right)
        assert rep == kronecker_preprojective(n)
        assert rep.dim_vector == (n - 1, n)
        assert rep.length() == 2 * n - 1
    assert kronecker_preprojective(1) == simple(kronecker(), "2")


def test_preprojective_two_is_the_projective_cover():
    # dim vector (1, 2) with alpha, beta hitting independent lines
    rep = kronecker_preprojective(2)
    assert rep.dim_vector == (1, 2)
    stacked = rep.matrix("alpha").hstack(rep.matrix("beta"))
    assert stacked.rank() == 2


def test_regular_matrices():
    r = kronecker_regular(1, 0)
    assert r.matrix("alpha") == Mat.identity(1)
    assert r.matrix("beta").is_zero()
    rinf = kronecker_regular(1, INFINITY)
    assert rinf.matrix("alpha").is_zero()
    assert rinf.matrix("beta") == Mat.identity(1)
    r2 = kronecker_regular(2, Fraction(5))
    assert r2.dim_vector == (2, 2)
    assert r2.matrix("beta")[0, 0] == 5 and r2.matrix("beta")[0, 1] == 1


def test_direct_sum_dims_and_calculus():
    parts = [kronecker_preinjective(1), kronecker_preinjective(2)]
    total, embs, prjs = direct_sum(parts)
    assert total.dim_vector == (3, 1)
    ident = Morphism.identity(total)
    acc = None
    for e, p in zip(embs, prjs):
        term = e.compose(p)
        acc = term if acc is None else acc + term
    assert acc == ident
    for i, p in enumerate(prjs):
        for j, e in enumerate(embs):
            comp = p.compose(e)
            if i == j:
                assert comp == Morphism.identity(parts[i])
            else:
                assert comp.is_zero()


def test_subspace_family_image_under_embeddings_fills_the_sum():
    parts = [kronecker_preinjective(1), kronecker_preinjective(2)]
    total, embs, _ = direct_sum(parts)
    images = [SubspaceFamily.full_for(p).image(e) for p, e in zip(parts, embs)]
    assert [im.dims() for im in images] == [{"1": 1, "2": 0}, {"1": 2, "2": 1}]
    assert images[0].add(images[1]) == SubspaceFamily.full_for(total)
    assert SubspaceFamily.zero_for(parts[1]).image(embs[1]) == SubspaceFamily.zero_for(total)


def test_empty_direct_sum_is_zero():
    pres = kronecker()
    total, embs, prjs = direct_sum([], presentation=pres)
    assert total.is_zero() and embs == [] and prjs == []
    with pytest.raises(RepresentationError):
        direct_sum([])


def test_direct_sum_with_zero_summand():
    m = kronecker_preinjective(2)
    z = zero_representation(kronecker())
    total, _, _ = direct_sum([m, z])
    assert total.dim_vector == m.dim_vector
    assert total == m


def test_dual_is_an_involution():
    for rep in (simple(kronecker(), "1"), kronecker_preinjective(3), kronecker_regular(2, 1)):
        assert dual(dual(rep)) == rep
        assert dual(rep).dim_vector == rep.dim_vector


def test_dual_of_simple():
    s1 = simple(kronecker(), "1")
    d = dual(s1)
    assert d.presentation == kronecker().opposite()
    assert d.dim_vector == (1, 0)


def test_socle_examples():
    s1 = kronecker_preinjective(1)
    assert socle(s1) == SubspaceFamily.full_for(s1)
    i2 = kronecker_preinjective(2)
    assert socle(i2).dims() == {"1": 0, "2": 1}
    p2 = kronecker_preprojective(2)
    assert socle(p2).dims() == {"1": 0, "2": 2}


def test_socle_is_arrow_closed_and_semisimple():
    for rep in (kronecker_preinjective(4), kronecker_regular(3, 0), kronecker_preprojective(3)):
        s = socle(rep)
        assert s.is_arrow_closed(rep)
        for a in rep.presentation.quiver.arrows:
            image = s.space(a.source).image(rep.matrix(a.name))
            assert image.dim == 0


def test_sub_from_family():
    i2 = kronecker_preinjective(2)
    assert sub_from_family(i2, SubspaceFamily.full_for(i2)) == i2
    assert sub_from_family(i2, SubspaceFamily.zero_for(i2)).is_zero()
    sub = sub_from_family(i2, socle(i2))
    assert sub == simple(kronecker(), "2")
    sub2, inc = sub_inclusion(i2, socle(i2))
    assert inc.source == sub2 and inc.target == i2


def test_sub_from_family_rejects_unclosed():
    i2 = kronecker_preinjective(2)
    line = SubspaceFamily(
        {"1": Subspace.span(2, [(Fraction(1), Fraction(0))]), "2": Subspace.zero(1)}
    )
    with pytest.raises(RepresentationError):
        sub_from_family(i2, line)


def test_representation_validates_relation_action():
    from endoscope.quiver import AlgebraPresentation, Quiver

    q = Quiver(["1"], [("x", "1", "1")])
    bare = AlgebraPresentation(q)
    pres = AlgebraPresentation(q, [bare.path_element(["x", "x"])])
    nilp = Mat([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    Representation(pres, {"1": 2}, {"x": nilp})
    with pytest.raises(RepresentationError):
        Representation(pres, {"1": 2}, {"x": Mat.identity(2)})


def test_representation_shape_validation():
    with pytest.raises(RepresentationError):
        Representation(kronecker(), {"1": 2, "2": 1}, {"alpha": Mat.identity(2)})


@pytest.mark.parametrize("value", [2.9, True, "2", -1], ids=["float", "bool", "string", "negative"])
def test_representation_refuses_a_dimension_that_is_not_a_count(value):
    with pytest.raises(RepresentationError, match="non-negative int"):
        Representation(kronecker(), {"1": value, "2": 1}, {})


def test_morphism_validates_commuting_squares():
    i2 = kronecker_preinjective(2)
    s1 = kronecker_preinjective(1)
    # arbitrary vertex-1 map with zero vertex-2 map commutes (target arrows vanish)
    Morphism(i2, s1, {"1": Mat([[Fraction(1), Fraction(7)]])})
    with pytest.raises(RepresentationError):
        Morphism(i2, i2, {"1": Mat.identity(2), "2": Mat([[Fraction(2)]])})


@pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
def test_morphism_refuses_a_block_over_another_field(validate):
    # the blocks must be over the ends' field, as a representation's arrow
    # matrices are: with no arrow nothing else would notice, and with arrows the
    # commuting check would fail on mixed fields rather than on the block
    gf5 = PrimeField(5)
    point = Representation(AlgebraPresentation(Quiver(["1"], [])), {"1": 1}, {})
    with pytest.raises(RepresentationError, match="block at 1 over"):
        Morphism(point, point, {"1": Mat([[1]], field=gf5)}, _validate=validate)
    i2 = kronecker_preinjective(2)
    with pytest.raises(RepresentationError, match="block at 1 over"):
        Morphism(i2, i2, {"1": Mat.identity(2, gf5), "2": Mat.identity(1, gf5)}, _validate=validate)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_composite_flats_are_the_flattened_composites(field):
    from endoscope.homs import hom_basis

    p2, r2, i3 = kronecker_preprojective(2, field), kronecker_regular(2, 1, field), kronecker_preinjective(3, field)
    # scaled so that over the rationals the products have denominators
    fs = [f.scale(Fraction(1, 3)) for f in hom_basis(p2, r2).basis] if field == QQ else list(hom_basis(p2, r2).basis)
    gs = list(hom_basis(r2, i3).basis) + [Morphism.zero(r2, i3)]
    assert fs and len(gs) > 1
    g_maps, f_maps = decode_flats(r2, i3, [g.flatten() for g in gs]), decode_flats(p2, r2, [f.flatten() for f in fs])
    flats = list(composite_flats(g_maps, f_maps))
    assert flats == [g.compose(f).flatten() for g in gs for f in fs]
    assert any(flats) and {} in flats
    assert list(composite_flats(decode_flats(r2, i3, []), f_maps)) == list(composite_flats(g_maps, decode_flats(p2, r2, []))) == []
    with pytest.raises(RepresentationError, match="composition mismatch"):
        composite_flats(f_maps, g_maps)
    # blocks that do not map between the ends are refused where a map is made of them
    with pytest.raises(RepresentationError, match="block at 1 has shape"):
        Morphism(p2, r2, gs[0].blocks, _validate=False)
    with pytest.raises(RepresentationError, match="different presentations or fields"):
        decode_flats(p2, kronecker_regular(2, 1, PrimeField(5) if field == QQ else QQ), [])


def test_composite_flats_check_at_the_call_and_form_one_product_per_draw(monkeypatch):
    from endoscope import reps
    from endoscope.homs import hom_basis

    p2, r2, i3 = kronecker_preprojective(2), kronecker_regular(2, 1), kronecker_preinjective(3)
    gs, fs = hom_basis(r2, i3).basis, hom_basis(p2, r2).basis
    assert len(gs) * len(fs) > 1
    g_maps, f_maps = decode_flats(r2, i3, [g.flatten() for g in gs]), decode_flats(p2, r2, [f.flatten() for f in fs])
    expected = [g.compose(f).flatten() for g in gs for f in fs]
    # each start of reps._products, and each product it begins to form (one per f it reads)
    starts, formed = [], []
    original = reps._products

    class Read(list):
        def __iter__(self):
            for blocks in list.__iter__(self):
                formed.append(len(formed))
                yield blocks

    def spied(g_rows, f_rows, *layout):
        starts.append(len(g_rows) * len(f_rows))
        return original(g_rows, Read(f_rows), *layout)

    def refuse(*args):
        raise AssertionError("a decoded factor is read again")

    monkeypatch.setattr(reps, "_products", spied)
    # the lists were decoded once: neither the call nor a draw reads a block again
    monkeypatch.setattr(Mat, "row", refuse)
    # an empty side yields nothing and starts no product
    assert list(composite_flats(decode_flats(r2, i3, []), f_maps)) == list(composite_flats(g_maps, decode_flats(p2, r2, []))) == []
    # a mismatch of the ends raises at the call, with no product formed
    with pytest.raises(RepresentationError, match="composition mismatch"):
        composite_flats(f_maps, g_maps)
    assert starts == formed == []
    flats = composite_flats(g_maps, f_maps)
    assert starts == [len(gs) * len(fs)] and formed == []
    first = next(flats)
    assert formed == [0] and first == expected[0]
    assert [first, *flats] == expected and len(formed) == len(gs) * len(fs)


def _cells(blocks):
    """Every stored entry of the blocks with its type, so that an int and an
    equal integral Fraction differ."""
    return [(v, i, j, type(x), x) for v, b in blocks.items() for i in range(b.rows) for j, x in b.row(i).items()]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_flat_blocks_store_what_mat_sparse_would(field, monkeypatch):
    # flat_blocks stores the canonical rows' entries unchecked; Mat.sparse
    # checks and normalises each entry, and must find nothing to change
    from endoscope.homs import hom_basis
    from endoscope.reps import flat_blocks

    members = [build(n, field) for build in (kronecker_preinjective, kronecker_preprojective) for n in range(1, 5)]
    members += [kronecker_regular(n, lam, field) for n in (1, 2) for lam in (0, 1, INFINITY)]
    rows = [(m, n, row) for m in members for n in members for row in hom_basis(m, n).rows.values()]
    expected = []
    for m, n, row in rows:
        blocks, pos = {}, 0
        for v in m.presentation.quiver.vertices:
            width = m.dim(v)
            cells = [{j: row[pos + i * width + j] for j in range(width) if pos + i * width + j in row} for i in range(n.dim(v))]
            blocks[v] = Mat.sparse(cells, width, field)
            pos += n.dim(v) * width
        expected.append(blocks)

    def refuse(*args):
        raise AssertionError("flat_blocks re-checks the entries")

    monkeypatch.setattr(Mat, "sparse", refuse)
    got = [flat_blocks(m, n, row) for m, n, row in rows]
    assert len(rows) > 100
    assert [_cells(b) for b in got] == [_cells(b) for b in expected]
    assert got == expected


@pytest.mark.parametrize(
    "dims, matrices",
    [({"1": 1, "3": 4}, {}), ({"1": 2, "2": 1}, {"gamma": Mat([[1, 0]])})],
    ids=["dims-key-3", "matrix-gamma"],
)
def test_representation_refuses_names_that_are_not_vertices_or_arrows(dims, matrices):
    with pytest.raises(RepresentationError, match="'3'|'gamma'"):
        Representation(kronecker(), dims, matrices)


def test_total_mat_is_assembled_once():
    i1, i2 = kronecker_preinjective(1), kronecker_preinjective(2)
    total, embeddings, _ = direct_sum([i1, i2])
    emb = embeddings[1]
    first = emb.total_mat()
    assert emb.total_mat() is first
    # total coordinates 0-2 are vertex 1 (I_1's one, then I_2's two), 3 is I_2's vertex 2
    assert first == Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # an equal morphism built afresh assembles an equal matrix
    assert Morphism(i2, total, emb.blocks).total_mat() == first
    assert Morphism.identity(i2).total_mat() == Mat.identity(3)
