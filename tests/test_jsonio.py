"""JSON schema roundtrips and format rejection."""

import random
from fractions import Fraction

import pytest

from afkit.convexvol import BodyTuple, convex_hull
from afkit.errors import FormatError
from afkit.ineqcheck import af_gap_discriminant
from afkit.jsonio import (
    body_tuple_from_json,
    body_tuple_to_json,
    dumps_canonical,
    gap_report_to_json,
    gauss_from_json,
    gauss_to_json,
    gram_from_json,
    gram_to_json,
    matrix_from_json,
    matrix_to_json,
    polytope_from_json,
    polytope_to_json,
    rat_from_json,
    rat_to_json,
    tuple_from_json,
    tuple_to_json,
)
from afkit.mixdisc import MatTuple
from afkit.rationals import GaussRat
from afkit.shephard import GramTable

from support import diag, herm, identity, rand_herm, rand_pd, simplex

F = Fraction


def test_rat_roundtrip_and_shorthand():
    assert rat_to_json(F(-3, 7)) == "-3/7"
    assert rat_to_json(F(4)) == "4"
    assert rat_from_json("-3/7") == F(-3, 7)
    assert rat_from_json(5) == 5
    with pytest.raises(FormatError):
        rat_from_json(True)
    with pytest.raises(FormatError):
        rat_from_json(1.5)
    with pytest.raises(FormatError):
        rat_from_json("3/0")


def test_gauss_roundtrip():
    z = GaussRat(F(1, 2), F(-3))
    assert gauss_to_json(z) == {"re": "1/2", "im": "-3"}
    assert gauss_from_json({"re": "1/2", "im": "-3"}) == z
    with pytest.raises(FormatError):
        gauss_from_json({"re": "1/2"})


def test_matrix_roundtrip():
    rng = random.Random(389)
    m = rand_herm(rng, 3)
    obj = matrix_to_json(m)
    assert obj["n"] == 3
    assert matrix_from_json(obj) == m


def test_matrix_rejections():
    with pytest.raises(FormatError):
        matrix_from_json({"n": 2, "entries": [[{"re": "1", "im": "0"}]]})
    with pytest.raises(FormatError):
        matrix_from_json({"entries": []})
    # off-diagonal pair breaks conjugate symmetry
    bad = {
        "n": 2,
        "entries": [
            [{"re": "1", "im": "0"}, {"re": "2", "im": "1"}],
            [{"re": "2", "im": "1"}, {"re": "1", "im": "0"}],
        ],
    }
    with pytest.raises(FormatError):
        matrix_from_json(bad)
    assert matrix_from_json(bad, hermitian=False).n == 2


def test_tuple_roundtrip():
    rng = random.Random(397)
    t = MatTuple([rand_pd(rng, 3) for _ in range(3)])
    obj = tuple_to_json(t)
    back = tuple_from_json(obj)
    assert back.mats == t.mats
    obj["mats"].pop()
    with pytest.raises(FormatError):
        tuple_from_json(obj)


def test_polytope_roundtrip():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))])
    obj = polytope_to_json(p)
    assert obj["dim"] == 2
    assert polytope_from_json(obj) == p
    with pytest.raises(FormatError):
        polytope_from_json({"dim": 2, "vertices": [["1"]]})
    with pytest.raises(FormatError):
        polytope_from_json({"dim": 2, "vertices": []})


def test_body_tuple_roundtrip():
    k = convex_hull([(0, 0), (2, 0), (0, 2)])
    l = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    t = BodyTuple([k, l])
    obj = body_tuple_to_json(t)
    back = body_tuple_from_json(obj)
    assert back.bodies == t.bodies
    with pytest.raises(FormatError):
        body_tuple_from_json({"dim": 2, "bodies": [polytope_to_json(k)]})


@pytest.mark.parametrize("bad, k", [("2", 2), (True, 1), (0, 0)])
def test_tuple_size_fields_must_be_positive_integers(bad, k):
    # each fixture holds k items of dimension k, so only the field's type
    # is wrong; at the 1 x 1 size `True == 1` would let a bare length check pass
    mats = {"n": bad, "mats": [matrix_to_json(identity(k)) for _ in range(k)]}
    bodies = {"dim": bad, "bodies": [polytope_to_json(simplex(k)) for _ in range(k)]}
    with pytest.raises(FormatError, match="matrix tuple field 'n' must be a positive integer"):
        tuple_from_json(mats)
    with pytest.raises(FormatError, match="body tuple field 'dim' must be a positive integer"):
        body_tuple_from_json(bodies)


def test_gram_roundtrip():
    g = GramTable([[2, 3], [3, 5]])
    obj = gram_to_json(g)
    assert obj == {"r": 1, "d": [["2", "3"], ["3", "5"]]}
    assert gram_from_json(obj) == g
    assert gram_from_json({"r": 1, "d": [[2, 3], [3, 5]]}) == g
    with pytest.raises(FormatError):
        gram_from_json({"r": 2, "d": [[2, 3], [3, 5]]})
    with pytest.raises(FormatError):
        gram_from_json({"r": 1, "d": [[2, 3], [4, 5]]})


def test_gap_report_json_keys():
    rep = af_gap_discriminant(diag(1, 2), diag(2, 1))
    obj = gap_report_to_json(rep)
    assert obj == {
        "lhs": "25/4",
        "rhs": "4",
        "gap": "9/4",
        "equality": False,
        "lambda": None,
    }
    eq = af_gap_discriminant(diag(1, 2), diag(2, 4))
    assert gap_report_to_json(eq)["lambda"] == "2"


def test_dumps_canonical_is_stable():
    assert dumps_canonical({"b": 1, "a": [1, "2/3"]}) == '{"a":[1,"2/3"],"b":1}'
