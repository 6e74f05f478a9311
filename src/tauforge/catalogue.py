"""Catalogue of named Cartan data and distinguished modules.

A datum family is one `_FAMILIES` row that states what GLS state: the
symmetriser and the oriented edges (i, j), written (i, j, g) where g > 1
arrows run j -> i.  The Cartan matrix is derived, c_ij = -g d_j /
gcd(d_i, d_j).  A sized family names its graph instead, a chain or a fork
on n + 1 vertices or a cycle on n, and a symmetriser that ``...`` spreads
to that size: Bn is the chain with (1, 2, ..., 1).

The catalogue states explicit bases and structure maps for a fixed
collection of affine data: tube mouth modules, homogeneous-tube modules, and
the non-rigid counterexample pairs (Z, Y).  Every module is one row of
`_MODULE_TABLE` (a `_Row`); the two that take parameters (lam of Bn.MlamB,
the interval (i, j) of Atilde.interval) check them and then state a row.

A row gives one string per vertex listing its labels in basis order, with
a>b>c for a loop chain along a, b, c, where ``...`` repeats the vertex entry
before it to fill the datum.  It follows the row rule: a basis label names a
row that runs through the quiver, so a label at both ends of an arrow
(i, j, 1) is mapped to itself.  The row then lists the arrow entries that
are not such row identities, each (i, j, src, dst) or (i, j, src, dst,
coeff) or (i, j, src, dst, coeff, g): coeff (default 1) times dst at vertex
i is added to the image of src at vertex j under the arrow (i, j, g)
(default g = 1, the first of parallel arrows); a negative vertex counts
back from the last.

At symmetriser multiple m (the datum scaled by m) each label l becomes the
m labels (l, t), t = 0..m-1: a chain a>b runs (a,0)>(b,0)>(a,1)>(b,1)>...,
a lone label l runs (l,0)>(l,1)>..., every entry holds for each t, and the
row rule maps each (l, t) to itself.  Every module is validated against the
algebra relations at build time, so a typo fails loudly instead of
corrupting downstream computations.
"""

import re
from collections import namedtuple
from math import gcd

from .cartan import validate_datum
from .linalg import Field, Mat
from .modrep import check_relations, make_rep


class UnknownId(ValueError):
    """Requested module id is not in the catalogue."""


class BadParams(ValueError):
    """Parameters are missing, unexpected, or out of range."""


class UnknownType(ValueError):
    """Requested family has no spot-check support."""


# --------------------------------------------------------------------------
# named Cartan data


def _check_m(m):
    if not isinstance(m, int) or m < 1:
        raise BadParams("m must be a positive integer, got %r" % (m,))
    return m


def _cartan(symmetriser, edges):
    """C of the datum with this symmetriser and these edges (i, j) or
    (i, j, g): d_i c_ij = d_j c_ji and gcd(f_ij, f_ji) = 1 leave
    c_ij = -g d_j / gcd(d_i, d_j), g the number of arrows (default 1)."""
    n = len(symmetriser)
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, g in ((*edge, 1)[:3] for edge in edges):
        di, dj = symmetriser[i - 1], symmetriser[j - 1]
        rows[i - 1][j - 1] = -g * dj // gcd(di, dj)
        rows[j - 1][i - 1] = -g * di // gcd(di, dj)
    return rows


def _shape_edges(shape, size):
    """The oriented edges of a sized family on `size` vertices: a chain
    1 <- 2 <- ... <- size, a fork whose vertices 1 and 2 both hang from 3
    before the chain runs on, or a cycle that size -> 1 closes."""
    chain = tuple((k + 1, k) for k in range(1, size))
    if shape == "fork":
        return ((3, 1),) + chain[1:]
    return chain + ((size, 1),) if shape == "cycle" else chain


# A stable tube as the paper states it, mouths in tau-order:
#   mouths   ((module id, stated rank), ...); see _spread for "..."
#   end      stated dim End of every mouth, where the paper states one
#   simples  k > 0: the tube opens with the simples E_k, ..., E_n
_Tube = namedtuple("_Tube", ["mouths", "end", "simples"], defaults=(None, 0))

# One datum family of the catalogue.  Rows hold ids and numbers rather than
# public functions, which a tracer may rebind on the module.
#   stem       a name is the stem, then n if sized, then m<m> when m > 1
#   datum      (symmetriser, edges), the edges as `_cartan` reads them; a sized
#              family (shape, symmetriser), for `_shape_edges` and `_spread`
#   size       sized families: (least n, default n)
#   tubes      _Tube rows
#   homog      id of the homogeneous module
#   pair       non-rigid pair: (Z id, Y id, id of the tube mouth X, dim End Y)
_Family = namedtuple("_Family", ["stem", "datum", "size", "tubes", "spotcheck", "homog", "pair"],
                     defaults=(None, (), False, None, None))


_FAMILIES = {
    "A11": _Family("A11", ((1, 4), ((2, 1),)), spotcheck=True, homog="A11.homog"),
    "A12": _Family("A12", ((1, 1), ((2, 1, 2),)), spotcheck=True, homog="A12.homog"),
    "Bn": _Family(
        "B", ("chain", (1, 2, ..., 1)), size=(2, 3), spotcheck=True, homog="Bn.MlamB",
        tubes=(_Tube((("Bn.MB", (2, 1, ..., 2)),), simples=2),),
        pair=("Bn.Z", "Bn.Y", "E2", 3),
    ),
    "Cn": _Family(
        "C", ("chain", (2, 1, ..., 2)), size=(2, 3), spotcheck=True,
        tubes=(_Tube((("Cn.MC", (1, ...)),), simples=2),),
    ),
    "BCn": _Family(
        "BC", ("chain", (1, 2, ..., 4)), size=(2, 3), spotcheck=True,
        tubes=(_Tube((("BCn.MBC", (2, 1, ...)),), simples=2),),
    ),
    "BDn": _Family(
        "BD", ("fork", (2, ..., 1)), size=(3, 4), spotcheck=True,
        tubes=(
            _Tube((("BDn.M1", (1, ..., 2)),), simples=3),
            _Tube((("BDn.M2", (1, 0, 1, ...)), ("BDn.M3", (0, 1, 1, ...))), end=1),
        ),
    ),
    "CDn": _Family(
        "CD", ("fork", (1, ..., 2)), size=(3, 4), spotcheck=True,
        tubes=(
            _Tube((("CDn.M1", (1, ...)),), simples=3),
            _Tube((("CDn.M2", (0, 2, ..., 1)), ("CDn.M3", (2, 0, 2, ..., 1))), end=2),
        ),
        pair=("CDn.Z", "CDn.Y", "CDn.M3", 3),
    ),
    "F41": _Family(
        "F41", ((1, 1, 1, 2, 2), ((2, 1), (3, 2), (4, 3), (4, 5))), spotcheck=True,
        tubes=(
            _Tube((("F41.T21", (1, 1, 2, 1, 0)), ("F41.T22", (0, 1, 1, 1, 1))), end=1),
            _Tube(
                (("F41.T31", (0, 2, 2, 1, 0)), ("F41.T32", (2, 2, 2, 2, 1)), ("F41.T33", (0, 0, 2, 1, 1))),
                end=2,
            ),
        ),
        pair=("F41.Z", "F41.Y", "F41.T31", 3),
    ),
    "F42": _Family(
        "F42", ((2, 2, 2, 1, 1), ((2, 1), (3, 2), (3, 4), (4, 5))), spotcheck=True,
        tubes=(
            _Tube((("F42.T21", (1, 1, 2, 2, 2)), ("F42.T22", (0, 1, 1, 2, 0))), end=2),
            _Tube(
                (("F42.T31", (1, 1, 1, 1, 0)), ("F42.T32", (0, 0, 1, 2, 1)), ("F42.T33", (0, 1, 1, 1, 1))),
                end=1,
            ),
        ),
    ),
    "G21": _Family(
        "G21", ((1, 1, 3), ((2, 1), (3, 2))), spotcheck=True, homog="G21.homog",
        tubes=(_Tube((("G21.T21", (3, 3, 2)), ("G21.T22", (0, 3, 1))), end=3),),
        pair=("G21.Z", "G21.Y", "G21.T22", 4),
    ),
    "G22": _Family(
        "G22", ((3, 3, 1), ((2, 1), (2, 3))), spotcheck=True,
        tubes=(_Tube((("G22.T21", (1, 1, 1)), ("G22.T22", (0, 1, 2))), end=1),),
    ),
    "Atilde": _Family("At", ("cycle", (1, ...)), size=(3, 4)),
}


def _name(stem, n, m):
    base = stem if n is None else "%s%d" % (stem, n)
    return base if m == 1 else "%sm%d" % (base, m)


# largest size parameter n of a named datum: building one costs time
# quadratic in n (the dense Cartan matrix and its validation), so a name such
# as B20000 is refused before anything is built
_MAX_N = 100


def named_datum(family, n=None, m=1):
    """Build one of the catalogued affine data, scaled by the symmetriser
    multiple m; a sized family takes n up to _MAX_N."""
    if family not in _FAMILIES:
        raise UnknownId("unknown datum family %r; known: %s" % (family, ", ".join(sorted(_FAMILIES))))
    row = _FAMILIES[family]
    _check_m(m)
    if row.size is None:
        if n is not None:
            raise BadParams("%s has fixed size; drop n" % family)
        mult, edges = row.datum
    else:
        if n is None:
            raise BadParams("family %s needs the size parameter n" % family)
        if not isinstance(n, int) or n < row.size[0]:
            raise BadParams("family %s needs an integer n >= %d, got %r" % (family, row.size[0], n))
        if n > _MAX_N:
            raise BadParams("family %s takes n <= %d, got %d" % (family, _MAX_N, n))
        shape, mult = row.datum
        size = n if shape == "cycle" else n + 1
        mult, edges = _spread(mult, size), _shape_edges(shape, size)
    return validate_datum(_cartan(mult, edges), tuple(k * m for k in mult), tuple(edge[:2] for edge in edges),
                          name=_name(row.stem, n, m))


# stems longest first, so that BC is tried before B
_DATUM_NAME = re.compile(r"(%s)([0-9]+)?(?:m([0-9]+))?\Z" % "|".join(
    sorted((row.stem for row in _FAMILIES.values()), key=len, reverse=True)))
_STEMS = {row.stem: family for family, row in _FAMILIES.items()}


def datum_from_name(name):
    """Rebuild a catalogued datum from the name `named_datum` gives it, such
    as B3, CD4m2, At4 or F41."""
    match = _DATUM_NAME.fullmatch(name)
    if not match:
        raise UnknownId("%r names no catalogued datum" % (name,))
    stem, n, m = match.groups()
    return named_datum(_STEMS[stem], n=int(n) if n else None, m=int(m) if m else 1)


# --------------------------------------------------------------------------
# assembling explicit modules


def _spread(rank, size):
    """A stated rank or row at the datum's size: ``...`` repeats the entry
    before it, as many times as the size asks, possibly none."""
    if ... not in rank:
        return rank
    cut = rank.index(...)
    head, tail = rank[:cut - 1], rank[cut + 1:]
    return head + rank[cut - 1:cut] * (size - len(head) - len(tail)) + tail


class _Row(namedtuple("_Row", ["labels", "entries"], defaults=((),))):
    """A module stated as one `_MODULE_TABLE` row, in the format of the
    module docstring: `labels` per vertex, then the extra arrow `entries`.
    Called with the symmetriser multiple m of the datum, it builds the module
    whose labels are the pairs (label, t), t < m, and checks it against the
    algebra relations."""

    __slots__ = ()

    def __call__(self, datum, field, m=1):
        index = {}  # vertex -> {(label, t): basis position}
        eps = {}
        for v, entry in zip(datum.vertices, _spread(self.labels, datum.n), strict=True):
            at = index[v] = {}
            loop = {}
            for chain in entry.split():
                run = [(label, t) for t in range(m) for label in chain.split(">")]
                for label in run:
                    at.setdefault(label, len(at))
                for src, dst in zip(run, run[1:]):
                    loop[(at[dst], at[src])] = 1
            if loop:
                eps[v] = Mat.from_dict(field, (len(at), len(at)), loop)
        maps = {(i, j, 1): {(index[i][label], c): 1 for label, c in index[j].items() if label in index[i]}
                for i, j in datum.orientation}
        for t in range(m):
            for entry in self.entries:
                i, j, src, dst, coeff, g = (*entry, 1, 1)[:6]
                i, j = i % (datum.n + 1), j % (datum.n + 1)
                block = maps.setdefault((i, j, g), {})
                rc = (index[i][(dst, t)], index[j][(src, t)])
                block[rc] = block.get(rc, 0) + coeff
        arr = {(i, j, g): Mat.from_dict(field, (len(index[i]), len(index[j])), block)
               for (i, j, g), block in maps.items()}
        rep = make_rep(datum, field, {v: len(at) for v, at in index.items()}, eps, arr)
        bad = check_relations(rep)
        if bad:
            raise ValueError("module table violates the relations: %s" % (bad[0],))
        return rep


def _mod_Bn_MlamB(datum, field, m, lam):
    try:
        lam_value = field.convert(lam)
    except ValueError as exc:
        raise BadParams(str(exc))
    if lam_value == 0:
        raise BadParams("the deformation parameter lam must be nonzero")
    return _Row(("f", "f>p", ..., "f"), ((-1, -2, "p", "f", lam),))(datum, field, m)


def _mod_Atilde_interval(datum, field, m, i, j):
    n = datum.n
    if not (isinstance(i, int) and 1 <= i <= n) or not (isinstance(j, int) and 1 <= j <= n):
        raise BadParams("interval endpoints must be vertices between 1 and %d" % n)
    support = {(i - 1 + k) % n + 1 for k in range((j - i) % n + 1)}
    return _Row(tuple("e" if v in support else "" for v in datum.vertices))(datum, field, m)


_REQUIRED = object()
_SIZED = {"n": _REQUIRED}

# id -> (datum family, builder, parameter spec with defaults)
_MODULE_TABLE = {
    "A11.homog": ("A11", _Row(("u v", "w0>w1>w2>w3"), ((2, 1, "u", "w0"), (2, 1, "v", "w1"))), {"m": 1}),
    "A12.homog": ("A12", _Row(("x", "y"), ((2, 1, "x", "y", 1, 2),)), {"m": 1}),
    "G21.homog": ("G21", _Row(("x", "u l", "w0>w1>w2"),
                              ((2, 1, "x", "l"), (3, 2, "u", "w1"), (3, 2, "l", "w0"))), {"m": 1}),
    "Bn.MlamB": ("Bn", _mod_Bn_MlamB, {"n": _REQUIRED, "m": 1, "lam": 1}),
    "Bn.MB": ("Bn", _Row(("t b", "t>b", ..., "t b")), _SIZED),
    "Bn.Z": ("Bn", _Row(("f", "p>f", ..., "f")), _SIZED),
    "Bn.Y": ("Bn", _Row(("f", "p>f g>h", "p>f", ..., "f"), ((2, 1, "f", "g"),)), _SIZED),
    "Cn.MC": ("Cn", _Row(("u>x", "x", ..., "x>w")), _SIZED),
    "BCn.MBC": ("BCn", _Row(("t b", "t>b", ..., "q0>q1>q2>q3"),
                            ((-1, -2, "t", "q0"), (-1, -2, "b", "q2"))), _SIZED),
    "BDn.M1": ("BDn", _Row(("u>l", ..., "u l")), _SIZED),
    "BDn.M2": ("BDn", _Row(("t>b", "", "t>b", ..., "b")), _SIZED),
    "BDn.M3": ("BDn", _Row(("", "t>b", "t>b", ..., "b")), _SIZED),
    "CDn.M1": ("CDn", _Row(("x", ..., "x>y")), _SIZED),
    "CDn.M2": ("CDn", _Row(("", "t b", "t b", ..., "t>b")), _SIZED),
    "CDn.M3": ("CDn", _Row(("t b", "", "t b", ..., "t>b")), _SIZED),
    "CDn.Z": ("CDn", _Row(("u", "l", "u l", ..., "u>l")), _SIZED),
    "CDn.Y": ("CDn", _Row(("r1 r3 r4", "r2", "r1 r2 r3 r4", ..., "r1>r2 r3>r4"), ((3, 2, "r2", "r3"),)), _SIZED),
    "F41.T21": ("F41", _Row(("t", "t", "t b", "t>b", "")), {}),
    "F41.T22": ("F41", _Row(("", "t", "t", "t>b", "t>b")), {}),
    "F41.T31": ("F41", _Row(("", "t b", "t b", "t>b", "")), {}),
    "F41.T32": ("F41", _Row(("r1 r3", "r1 r3", "r1 r3", "r1>r2 r4>r5", "r4>r5"),
                            ((4, 3, "r3", "r2"), (4, 3, "r3", "r4"))), {}),
    "F41.T33": ("F41", _Row(("", "", "t b", "t>b", "t>b")), {}),
    "F41.Z": ("F41", _Row(("r1", "r1 r3", "r1 r3 r4", "r1>r2 r3>r4", "r1>r2"), ((4, 5, "r1", "r4"),)), {}),
    "F41.Y": ("F41", _Row(("a", "a b c d", "a b x c d", "a>y b>x c>d", "a>y"),
                          ((4, 5, "a", "x"), (4, 5, "a", "c"), (4, 5, "y", "d"))), {}),
    "F42.T21": ("F42", _Row(("r3>r4", "r3>r4", "r1>r2 r3>r4", "r1 r3", "r1 r3"), ((3, 2, "r3", "r2"),)), {}),
    "F42.T22": ("F42", _Row(("", "t>b", "t>b", "t b", "")), {}),
    "F42.T31": ("F42", _Row(("t>b", "t>b", "t>b", "t", "")), {}),
    "F42.T32": ("F42", _Row(("", "", "t>b", "t b", "t")), {}),
    "F42.T33": ("F42", _Row(("", "t>b", "t>b", "t", "t")), {}),
    "G21.T21": ("G21", _Row(("r1 r3 r5", "r1 r3 r5", "w0>w1>w2 z0>z1>z2"),
                            ((3, 2, "r1", "w0"), (3, 2, "r3", "w1"), (3, 2, "r3", "z0"), (3, 2, "r5", "z1"))), {}),
    "G21.T22": ("G21", _Row(("", "r1 r2 r3", "w0>w1>w2"),
                            ((3, 2, "r1", "w0"), (3, 2, "r2", "w1"), (3, 2, "r3", "w2"))), {}),
    "G21.Z": ("G21", _Row(("r2", "r1 r2", "r1>r2>r3")), {}),
    "G21.Y": ("G21", _Row(("s", "a b c d e", "a>b>x c>d>e"), ((2, 1, "s", "b"), (2, 1, "s", "c"))), {}),
    "G22.T21": ("G22", _Row(("r1>r2>r3", "r1>r2>r3", "r1")), {}),
    "G22.T22": ("G22", _Row(("", "r1>r2>r3", "r1 r2")), {}),
    "Atilde.interval": ("Atilde", _mod_Atilde_interval, {"n": _REQUIRED, "m": 1, "i": _REQUIRED, "j": _REQUIRED}),
}


def _take_params(params, spec):
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise BadParams("unexpected parameters: %s" % ", ".join(unknown))
    taken = {}
    for name, default in spec.items():
        value = params.get(name, default)
        if value is _REQUIRED:
            raise BadParams("parameter %r is required" % name)
        taken[name] = value
    return taken


def named_module_ids():
    return sorted(_MODULE_TABLE)


def build_named(module_id, field=None, **params):
    """Construct a catalogued module; returns (datum, representation)."""
    if module_id not in _MODULE_TABLE:
        raise UnknownId("unknown module id %r" % (module_id,))
    field = field if field is not None else Field.rational()
    family, builder, spec = _MODULE_TABLE[module_id]
    taken = _take_params(params, spec)
    m = taken.pop("m", 1)
    datum = named_datum(family, n=taken.pop("n", None), m=m)
    return datum, builder(datum, field, m, **taken)
