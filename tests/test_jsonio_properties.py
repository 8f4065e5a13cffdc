"""Round-trip properties of the JSON schemas.

For polytopes, matrices (general and Hermitian), matrix tuples, body
tuples and Gram tables, parsing what was written gives back an equal
object of the same type, and `dumps_canonical` writes the same text for
the object and for its round trip. Draws are derandomized and bounded,
so the suite stays deterministic and keeps no example database.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.convexvol import BodyTuple, Polytope
from afkit.jsonio import (
    body_tuple_from_json,
    body_tuple_to_json,
    dumps_canonical,
    gram_from_json,
    gram_to_json,
    matrix_from_json,
    matrix_to_json,
    polytope_from_json,
    polytope_to_json,
    tuple_from_json,
    tuple_to_json,
)
from afkit.mixdisc import MatTuple
from afkit.shephard import GramTable

from support import gen_mats, herm_mats, rats

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)


def polytopes(d):
    cloud = st.lists(st.tuples(*[rats] * d), min_size=1, max_size=6)
    return cloud.map(Polytope)


@st.composite
def gram_tables(draw):
    size = draw(st.integers(2, 4))
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = draw(rats)
    return GramTable(rows)


def assert_round_trip(obj, to_json, from_json, same):
    text = dumps_canonical(to_json(obj))
    back = from_json(to_json(obj))
    assert same(back, obj)
    assert dumps_canonical(to_json(obj)) == text
    assert dumps_canonical(to_json(back)) == text


@SETTINGS
@given(st.sampled_from([2, 3]).flatmap(polytopes))
def test_polytope_round_trip(p):
    assert_round_trip(p, polytope_to_json, polytope_from_json, lambda a, b: a == b)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(gen_mats(n), herm_mats(n))))
def test_matrix_round_trip(pair):
    g, h = pair

    def same(a, b):
        return type(a) is type(b) and a == b

    assert_round_trip(g, matrix_to_json, lambda o: matrix_from_json(o, hermitian=False), same)
    assert_round_trip(h, matrix_to_json, matrix_from_json, same)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.lists(herm_mats(n), min_size=n, max_size=n)))
def test_matrix_tuple_round_trip(mats):
    t = MatTuple(mats)
    assert_round_trip(t, tuple_to_json, tuple_from_json, lambda a, b: a.mats == b.mats)


@SETTINGS
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.lists(polytopes(d), min_size=d, max_size=d)))
def test_body_tuple_round_trip(bodies):
    t = BodyTuple(bodies)
    assert_round_trip(
        t, body_tuple_to_json, body_tuple_from_json, lambda a, b: a.bodies == b.bodies
    )


@SETTINGS
@given(gram_tables())
def test_gram_table_round_trip(g):
    assert_round_trip(g, gram_to_json, gram_from_json, lambda a, b: a == b)
