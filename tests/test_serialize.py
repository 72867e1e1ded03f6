import json
from fractions import Fraction

import pytest

from endoscope.linalg import Mat
from endoscope.matsub import PointedMatrix
from endoscope.quiver import AlgebraPresentation, Quiver, kronecker
from endoscope.reps import Morphism, kronecker_preinjective, kronecker_regular
from endoscope.serialize import (
    SerializationError,
    element_from_json,
    element_to_json,
    load_family_file,
    matrix_from_json,
    matrix_to_json,
    morphism_to_json,
    pointed_matrix_from_json,
    pointed_matrix_to_json,
    presentation_from_json,
    presentation_to_json,
    representation_from_json,
    representation_to_json,
)


def test_matrix_round_trip():
    m = Mat([[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(7, 5)]])
    data = matrix_to_json(m)
    assert data == [["1/2", "-3"], ["0", "7/5"]]
    assert matrix_from_json(data, 2, 2) == m
    with pytest.raises(SerializationError):
        matrix_from_json(data, 3, 2)


def test_presentation_round_trip():
    pres = kronecker()
    data = presentation_to_json(pres)
    assert data["vertices"] == ["1", "2"]
    assert data["arrows"][0] == {"name": "alpha", "source": "1", "target": "2"}
    assert presentation_from_json(data) == pres


def test_presentation_with_relations_round_trip():
    q = Quiver(["1"], [("x", "1", "1")])
    bare = AlgebraPresentation(q)
    pres = AlgebraPresentation(q, [bare.path_element(["x", "x"])])
    again = presentation_from_json(presentation_to_json(pres))
    assert again == pres


def test_element_round_trip():
    pres = kronecker()
    el = pres.trivial("1") + pres.arrow_element("alpha").scale(Fraction(-2, 3))
    data = element_to_json(el)
    assert element_from_json(pres, data) == el


def test_representation_round_trip():
    rep = kronecker_regular(2, Fraction(1, 3))
    data = representation_to_json(rep)
    again = representation_from_json(data)
    assert again == rep
    # shared-algebra form
    slim = representation_to_json(rep, include_algebra=False)
    assert "algebra" not in slim
    assert representation_from_json(slim, rep.presentation) == rep
    with pytest.raises(SerializationError):
        representation_from_json(slim)


def test_representation_json_is_valid_json():
    rep = kronecker_preinjective(3)
    text = json.dumps(representation_to_json(rep))
    assert representation_from_json(json.loads(text)) == rep


def test_morphism_serialization_has_full_matrices():
    rep = kronecker_preinjective(2)
    data = morphism_to_json(Morphism.identity(rep))
    assert data["blocks"]["1"] == [["1", "0"], ["0", "1"]]
    assert data["blocks"]["2"] == [["1"]]


def test_pointed_matrix_round_trip():
    pres = kronecker()
    pm = PointedMatrix.of(
        [[pres.one(), -pres.arrow_element("alpha")], [pres.zero(), pres.trivial("2")]], 1
    )
    data = pointed_matrix_to_json(pm)
    again = pointed_matrix_from_json(data)
    assert again == pm
    assert pointed_matrix_from_json(
        {"entries": data["entries"], "pointer": 1}, pres
    ) == pm


def test_family_file(tmp_path):
    reps = [kronecker_preinjective(1), kronecker_preinjective(2)]
    payload = {
        "algebra": presentation_to_json(reps[0].presentation),
        "members": [representation_to_json(r, include_algebra=False) for r in reps],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    loaded = load_family_file(str(path))
    assert loaded == reps
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": payload["algebra"]}))
    with pytest.raises(SerializationError):
        load_family_file(str(bad))


def test_matrix_from_json_refuses_json_floats():
    from endoscope.linalg import LinalgError, PrimeField

    for field in (None, PrimeField(7)):
        with pytest.raises(LinalgError):
            matrix_from_json([[0.1, 1]], 1, 2, *([field] if field else []))
    assert matrix_from_json([["1/10", 1]], 1, 2).entries == ((Fraction(1, 10), 1),)


@pytest.mark.parametrize("value", [2.9, 1.0, "2", True, -1, None])
def test_representation_dims_must_be_json_counts(value):
    data = representation_to_json(kronecker_preinjective(2))
    data["dims"]["1"] = value
    with pytest.raises(SerializationError, match="non-negative integer"):
        representation_from_json(data)


def test_representation_without_a_dims_object_is_refused():
    data = representation_to_json(kronecker_preinjective(2))
    for dims in ([2, 1], None):
        data["dims"] = dims
        with pytest.raises(SerializationError, match="dims object"):
            representation_from_json(data)


def test_pointer_must_be_a_json_count():
    data ={"entries": [[[{"coeff": "1", "path": ["alpha"]}]]], "pointer": 0}
    assert pointed_matrix_from_json(data, kronecker()).pointer == 0
    for value in (0.0, 0.7, "0", False, -1):
        with pytest.raises(SerializationError, match="pointer must be a non-negative integer"):
            pointed_matrix_from_json(dict(data, pointer=value), kronecker())


@pytest.mark.parametrize(
    "dims, matrices, name",
    [({"1": 1, "3": 4}, {}, "'3'"), ({"1": 2, "2": 1}, {"gamma": [["1", "0"]]}, "'gamma'")],
    ids=["dims-key-3", "matrix-gamma"],
)
def test_representation_names_must_be_vertices_and_arrows(dims, matrices, name):
    # an unknown name used to be dropped, loading a smaller module
    from endoscope.reps import RepresentationError

    data = {"algebra": presentation_to_json(kronecker()), "dims": dims, "matrices": matrices}
    with pytest.raises((SerializationError, RepresentationError), match=name):
        representation_from_json(data)
