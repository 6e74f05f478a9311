"""Modules as JSON documents, the CLI's module files: the datum, by name or
in full, the field, and the nonzero dimensions and maps, each map a list of
rows keyed "eps[i]" or "a[i<-j]#g" with integer or "p/q" entries."""

import re
from fractions import Fraction

from .cartan import datum_from_json, datum_to_json
from .linalg import Field
from .modrep import make_rep


_VERTEX = re.compile(r"[0-9]+")     # as rep_to_json writes a vertex: no sign, space or other digit
_EPS_KEY = re.compile(r"eps\[([0-9]+)\]")
_ARR_KEY = re.compile(r"a\[([0-9]+)<-([0-9]+)\](?:#([0-9]+))?")


def _scalar_to_json(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def rep_to_json(rep, embed_datum=False):
    named = ([(f"eps[{v}]", rep.eps[v]) for v in rep.datum.vertices]
             + [(f"a[{i}<-{j}]#{g}", A) for (i, j, g), A in rep.arr.items()])
    maps = {name: [[_scalar_to_json(x) for x in row] for row in A.rows()]
            for name, A in named if not A.is_zero()}
    if embed_datum or not rep.datum.name:
        datum = datum_to_json(rep.datum)
    else:
        datum = rep.datum.name
    return {
        "datum": datum,
        "field": rep.field.to_json(),
        "dims": {str(v): rep.dims[v] for v in rep.datum.vertices if rep.dims[v]},
        "maps": maps,
    }


def rep_from_json(obj, datum_resolver=None):
    if not isinstance(obj, dict):
        raise ValueError("a module document is a JSON object, got %s" % type(obj).__name__)
    spec = obj["datum"]
    if isinstance(spec, str):
        if datum_resolver is None:
            raise ValueError(f"named datum {spec!r} needs a resolver")
        datum = datum_resolver(spec)
    else:
        datum = datum_from_json(spec)
    field = Field.from_json(obj.get("field"))
    dims, maps = obj.get("dims", {}), obj.get("maps", {})
    for name, value in (("dims", dims), ("maps", maps)):
        if not isinstance(value, dict):
            raise ValueError("%r should be a JSON object, got %s" % (name, type(value).__name__))
    if any(type(v) is not int for v in dims.values()):
        raise ValueError("dimensions should be integers, got %r" % (dims,))
    by_vertex, eps, arr = {}, {}, {}
    for key, value in dims.items():
        if not _VERTEX.fullmatch(key):
            raise ValueError(f"dimension key {key!r} is not a vertex number")
        _put_once(by_vertex, int(key), value, key)
    for key, rows in maps.items():
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"map {key!r} should be a list of rows, each a list")
        m = _EPS_KEY.fullmatch(key)
        if m:
            _put_once(eps, int(m.group(1)), rows, key)
            continue
        m = _ARR_KEY.fullmatch(key)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            g = int(m.group(3)) if m.group(3) else 1
            _put_once(arr, (i, j, g), rows, key)
            continue
        raise ValueError(f"unrecognised map key {key!r}")
    return make_rep(datum, field, by_vertex, eps, arr)


def _put_once(parsed, name, value, key):
    """Two keys such as "a[2<-1]" and "a[2<-1]#1" name one map; refuse the second."""
    if name in parsed:
        raise ValueError(f"key {key!r} names a vertex or map that an earlier key gave")
    parsed[name] = value
