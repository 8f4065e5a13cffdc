"""JSON schemas for every domain object.

Rationals are serialized as canonical strings "p/q" (q > 0, reduced,
integer shorthand "p"); floats never carry exact data. All parse
problems raise FormatError. dumps_canonical fixes key order and
separators so identical objects always produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .convexvol import BodyTuple, Polytope, convex_hull
from .errors import FormatError
from .ineqcheck import GapReport
from .matrixcore import GenMat, HermMat
from .mixdisc import MatTuple
from .rationals import GaussRat, Rat, as_rat, format_rat, parse_rat
from .shephard import GramTable


def dumps_canonical(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def rat_to_json(x) -> str:
    return format_rat(as_rat(x))


def rat_from_json(value) -> Rat:
    if isinstance(value, bool):
        raise FormatError("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise FormatError(f"expected a rational string or integer, got {type(value).__name__}")


def _require(obj, key, context):
    if not isinstance(obj, dict):
        raise FormatError(f"{context} must be a JSON object")
    if key not in obj:
        raise FormatError(f"{context} is missing the key {key!r}")
    return obj[key]


def _positive_int(value, field, context) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError(f"{context} field {field!r} must be a positive integer")


def gauss_to_json(z: GaussRat) -> dict:
    return {"re": format_rat(z.re), "im": format_rat(z.im)}


def gauss_from_json(obj) -> GaussRat:
    re = rat_from_json(_require(obj, "re", "matrix entry"))
    im = rat_from_json(_require(obj, "im", "matrix entry"))
    return GaussRat(re, im)


def matrix_to_json(m: GenMat) -> dict:
    return {
        "n": m.n,
        "entries": [[gauss_to_json(x) for x in row] for row in m.entries],
    }


def matrix_from_json(obj, hermitian: bool = True) -> GenMat:
    n = _require(obj, "n", "matrix")
    entries = _require(obj, "entries", "matrix")
    _positive_int(n, "n", "matrix")
    if not isinstance(entries, list) or len(entries) != n:
        raise FormatError(f"matrix needs exactly {n} rows")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"matrix rows must have exactly {n} entries")
        rows.append([gauss_from_json(x) for x in row])
    if not hermitian:
        return GenMat(rows)
    try:
        return HermMat(rows)
    except ValueError as exc:
        raise FormatError(f"matrix is not Hermitian: {exc}") from None


def tuple_to_json(t: MatTuple) -> dict:
    return {"n": t.n, "mats": [matrix_to_json(m) for m in t.mats]}


def tuple_from_json(obj, hermitian: bool = True) -> MatTuple:
    n = _require(obj, "n", "matrix tuple")
    mats = _require(obj, "mats", "matrix tuple")
    _positive_int(n, "n", "matrix tuple")
    if not isinstance(mats, list):
        raise FormatError("matrix tuple field 'mats' must be a list")
    parsed = [matrix_from_json(m, hermitian) for m in mats]
    if len(parsed) != n or any(m.n != n for m in parsed):
        raise FormatError(f"matrix tuple needs exactly {n} matrices of dimension {n}")
    return MatTuple(parsed)


def polytope_to_json(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [[format_rat(c) for c in v] for v in p.vertices],
    }


def polytope_from_json(obj) -> Polytope:
    dim = _require(obj, "dim", "polytope")
    vertices = _require(obj, "vertices", "polytope")
    _positive_int(dim, "dim", "polytope")
    if not isinstance(vertices, list) or not vertices:
        raise FormatError("polytope needs a nonempty vertex list")
    points = []
    for v in vertices:
        if not isinstance(v, list) or len(v) != dim:
            raise FormatError(f"polytope vertices must have {dim} coordinates")
        points.append(tuple(rat_from_json(c) for c in v))
    return convex_hull(points)


def body_tuple_to_json(t: BodyTuple) -> dict:
    return {"dim": t.dim, "bodies": [polytope_to_json(b) for b in t.bodies]}


def body_tuple_from_json(obj) -> BodyTuple:
    dim = _require(obj, "dim", "body tuple")
    bodies = _require(obj, "bodies", "body tuple")
    _positive_int(dim, "dim", "body tuple")
    if not isinstance(bodies, list):
        raise FormatError("body tuple field 'bodies' must be a list")
    parsed = [polytope_from_json(b) for b in bodies]
    if len(parsed) != dim or any(b.dim != dim for b in parsed):
        raise FormatError(f"body tuple needs exactly {dim} bodies of dimension {dim}")
    return BodyTuple(parsed)


def gram_to_json(g: GramTable) -> dict:
    return {"r": g.r, "d": [[format_rat(x) for x in row] for row in g.d]}


def gram_from_json(obj) -> GramTable:
    r = _require(obj, "r", "Gram table")
    d = _require(obj, "d", "Gram table")
    _positive_int(r, "r", "Gram table")
    if not isinstance(d, list) or len(d) != r + 1:
        raise FormatError(f"Gram table needs exactly {r + 1} rows")
    rows = []
    for row in d:
        if not isinstance(row, list) or len(row) != r + 1:
            raise FormatError(f"Gram table rows must have exactly {r + 1} entries")
        rows.append([rat_from_json(x) for x in row])
    try:
        return GramTable(rows)
    except ValueError as exc:
        raise FormatError(f"invalid Gram table: {exc}") from None


def gap_report_to_json(r: GapReport) -> dict:
    return {
        "lhs": format_rat(r.lhs),
        "rhs": format_rat(r.rhs),
        "gap": format_rat(r.gap),
        "equality": r.equality,
        "lambda": None if r.certificate is None else format_rat(r.certificate),
    }
