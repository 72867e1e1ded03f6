"""The one decoded map form, against ``Morphism`` on random vertex blocks.

A flat (the ``Morphism.flatten`` layout) is decoded by ``reps._split``
alone, into the rows ``{column: value}`` that a ``Mat`` stores:
``flat_blocks`` wraps them in ``Mat``s, ``decode_flats`` keeps them as
they are for ``composite_flats``.  Dimension vectors with zero entries
give empty blocks, which start where the next block does.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from endoscope.linalg import QQ, Mat, PrimeField
from endoscope.quiver import AlgebraPresentation, Quiver, kronecker
from endoscope.reps import Morphism, Representation, composite_flats, decode_flats, flat_blocks

PRESENTATIONS = (
    kronecker(),
    AlgebraPresentation(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])),
)
FIELDS = (QQ, PrimeField(2), PrimeField(101))


def values(field):
    """Mostly zeros; over the rationals also non-integral Fractions."""
    raw = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)) if field == QQ else st.integers(-3, 200)
    return st.one_of(st.just(0), raw).map(field.of)


def modules(data, pres, field, count):
    """``count`` modules with zero arrow matrices on random dimension vectors, zeros included."""
    vertices = pres.quiver.vertices
    return [
        Representation(pres, {v: data.draw(st.integers(0, 3)) for v in vertices}, {}, field)
        for _ in range(count)
    ]


def maps(data, source, target, field, count):
    """``count`` maps source -> target with random vertex blocks, not checked to commute."""
    out = []
    for _ in range(count):
        blocks = {}
        for v in source.presentation.quiver.vertices:
            rows, cols = target.dim(v), source.dim(v)
            grid = data.draw(st.lists(st.lists(values(field), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
            blocks[v] = Mat(grid, rows, cols, field)
        out.append(Morphism(source, target, blocks, _validate=False))
    return out


@given(st.sampled_from(PRESENTATIONS), st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_one_decoder_reads_back_the_blocks_and_their_composites(pres, field, data):
    s, m, t = modules(data, pres, field, 3)
    fs = maps(data, s, m, field, data.draw(st.integers(0, 3)))
    gs = maps(data, m, t, field, data.draw(st.integers(0, 3)))
    vertices = pres.quiver.vertices
    for f in fs:
        assert flat_blocks(s, m, f.flatten()) == f.blocks
        # per vertex, the rows the block stores
        (decoded,) = decode_flats(s, m, [f.flatten()])
        assert list(decoded) == [tuple(f.blocks[v].row(i) for i in range(f.blocks[v].rows)) for v in vertices]
    g_maps, f_maps = decode_flats(m, t, [g.flatten() for g in gs]), decode_flats(s, m, [f.flatten() for f in fs])
    assert list(composite_flats(g_maps, f_maps)) == [g.compose(f).flatten() for g in gs for f in fs]
