"""Symmetrisable Cartan data and their quivers.

A datum is a triple (C, D, Omega): an n x n symmetrisable generalised
Cartan matrix C, a symmetriser D = diag(d_1..d_n) with positive integer
entries and DC symmetric, and an acyclic orientation Omega of the edges
{i,j} with c_ij < 0.  A pair (i, j) in Omega stands for arrows j -> i.

Vertices are 1-based everywhere, matching the file format.
"""

import heapq
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .linalg import Field, Mat


class DatumError(ValueError):
    """Raised when a Cartan datum fails validation."""


class CartanDatum:
    """An immutable datum.  Equality and hash are those of (C, D, Omega):
    ``affine_kernel`` and ``name`` take no part in them."""

    __slots__ = ("cartan", "symmetriser", "orientation", "affine_kernel", "name", "_hash")

    def __init__(self, cartan, symmetriser, orientation, affine_kernel=None, name=""):
        put = object.__setattr__
        put(self, "cartan", cartan)
        put(self, "symmetriser", symmetriser)
        put(self, "orientation", orientation)
        put(self, "affine_kernel", affine_kernel)
        put(self, "name", name)
        # every lru_cache keyed on a datum hashes it: hash the tuples once
        put(self, "_hash", hash((cartan, symmetriser, orientation)))

    def __setattr__(self, *_):
        raise AttributeError("a CartanDatum cannot be changed")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not CartanDatum:
            return NotImplemented
        return ((self.cartan, self.symmetriser, self.orientation)
                == (other.cartan, other.symmetriser, other.orientation))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "CartanDatum(cartan=%r, symmetriser=%r, orientation=%r, affine_kernel=%r, name=%r)" % (
            self.cartan, self.symmetriser, self.orientation, self.affine_kernel, self.name)

    @property
    def n(self):
        return len(self.symmetriser)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def c(self, i, j):
        return self.cartan[i - 1][j - 1]

    def d(self, i):
        return self.symmetriser[i - 1]

    def g(self, i, j):
        """Number of parallel arrows on the edge {i, j}."""
        return abs(gcd(self.c(i, j), self.c(j, i)))

    def f(self, i, j):
        """|c_ij| / g_ij; the loop-exchange exponent attached to (i, j)."""
        return abs(self.c(i, j)) // self.g(i, j)

    def is_sink(self, k):
        return k in self.vertices and all(j != k for (_, j) in self.orientation)

    def is_source(self, k):
        return k in self.vertices and all(i != k for (i, _) in self.orientation)


class QuiverSpec(namedtuple("QuiverSpec", ["vertices", "arrows"])):
    """Vertices, one loop eps_i at each vertex i, and g_ij parallel arrows
    j -> i per orientation pair (i, j): ``arrows`` is ((i, j, g), ...), the
    arrow alpha^(g)_{ij} : j -> i."""

    __slots__ = ()

    def arrows_into(self, v):
        return [a for a in self.arrows if a[0] == v]

    def arrows_out_of(self, v):
        return [a for a in self.arrows if a[1] == v]


def _primitive_positive_kernel(cartan):
    """Primitive strictly positive integer kernel vector of C, or None."""
    F = Field.rational()
    C = Mat.from_rows(F, [list(r) for r in cartan])
    ker = C.nullspace_cols()
    if ker.ncols != 1:
        return None
    col = ker.col_vector(0)
    den = lcm(*(x.denominator for x in col))
    ints = [int(x * den) for x in col]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        return None
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _int_entries(what, values):
    """The values as a tuple; anything but a plain int (a bool, a float, a
    string) is refused, so that a file cannot be read as a rounded datum."""
    bad = [x for x in values if type(x) is not int]
    if bad:
        raise ValueError("%s entries must be integers, got %r" % (what, bad[0]))
    return tuple(values)


def _sink_order(n, pairs):
    """Vertices 1..n, each a sink once the earlier ones are removed, ties to
    the smallest index (arrows j -> i for each pair (i, j)); None when an
    oriented cycle leaves no sink."""
    out_deg = [0] * (n + 1)
    incoming = [[] for _ in range(n + 1)]
    for (i, j) in pairs:
        out_deg[j] += 1
        incoming[i].append(j)
    sinks = [v for v in range(1, n + 1) if out_deg[v] == 0]
    seq = []
    while sinks:
        k = heapq.heappop(sinks)
        seq.append(k)
        for j in incoming[k]:
            out_deg[j] -= 1
            if out_deg[j] == 0:
                heapq.heappush(sinks, j)
    return tuple(seq) if len(seq) == n else None


def validate_datum(cartan, symmetriser, orientation, name=""):
    """Check (C, D, Omega) and return a frozen CartanDatum.

    Raises DatumError with a specific message on the first violated axiom.
    """
    n = len(cartan)
    if n == 0 or any(len(row) != n for row in cartan):
        raise DatumError("Cartan matrix must be square and non-empty")
    cartan = tuple(_int_entries("Cartan matrix", row) for row in cartan)
    for i in range(n):
        if cartan[i][i] != 2:
            raise DatumError(f"diagonal entry c_{i+1}{i+1} must be 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise DatumError(f"off-diagonal c_{i+1}{j+1} must be <= 0")
                if (cartan[i][j] < 0) != (cartan[j][i] < 0):
                    raise DatumError(f"c_{i+1}{j+1} and c_{j+1}{i+1} must vanish together")
    if len(symmetriser) != n:
        raise DatumError("symmetriser length must match matrix size")
    symmetriser = _int_entries("symmetriser", symmetriser)
    if any(d <= 0 for d in symmetriser):
        raise DatumError("symmetriser entries must be positive integers")
    for i in range(n):
        for j in range(n):
            if symmetriser[i] * cartan[i][j] != symmetriser[j] * cartan[j][i]:
                raise DatumError(f"DC not symmetric at ({i+1},{j+1})")

    edges = {(min(i, j), max(i, j)) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and cartan[i - 1][j - 1] < 0}
    pairs = [_int_entries("orientation", p) for p in orientation]
    seen = set()
    for (i, j) in pairs:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise DatumError(f"orientation pair ({i},{j}) out of range")
        if cartan[i - 1][j - 1] >= 0:
            raise DatumError(f"orientation pair ({i},{j}) is not an edge")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise DatumError(f"edge {e} oriented twice")
        seen.add(e)
    if seen != edges:
        missing = sorted(edges - seen)
        raise DatumError(f"unoriented edges: {missing}")

    if _sink_order(n, pairs) is None:
        raise DatumError("orientation has an oriented cycle")

    kernel = _primitive_positive_kernel(cartan)
    return CartanDatum(cartan, symmetriser, tuple(sorted(pairs)), kernel, name)


def delta(datum):
    """The primitive positive kernel vector for an affine datum."""
    if datum.affine_kernel is None:
        raise DatumError("datum is not affine: no strictly positive kernel vector")
    return datum.affine_kernel


@lru_cache(maxsize=None)
def build_quiver(datum):
    arrows = []
    for (i, j) in datum.orientation:
        for g in range(1, datum.g(i, j) + 1):
            arrows.append((i, j, g))
    verts = tuple(datum.vertices)
    return QuiverSpec(verts, tuple(arrows))


def admissible_sequence(datum):
    """Sink-first ordering: i_1 is a sink, each later i_k is a sink once the
    earlier vertices are removed.  Ties break to the smallest index."""
    seq = _sink_order(datum.n, datum.orientation)
    if seq is None:
        raise DatumError("no sink available; orientation not acyclic")
    return seq


def reflect_orientation(datum, k):
    """Flip every orientation pair incident to vertex k.

    The result is anonymous even when the input is a named datum: the name
    denotes a fixed orientation, and keeping it would let a name-only
    serialization silently resolve back to the unreflected quiver.
    """
    if not (1 <= k <= datum.n):
        raise DatumError(f"vertex {k} out of range")
    flipped = []
    for (i, j) in datum.orientation:
        if k in (i, j):
            flipped.append((j, i))
        else:
            flipped.append((i, j))
    return CartanDatum(datum.cartan, datum.symmetriser, tuple(sorted(flipped)),
                       datum.affine_kernel, "")


def opposite_datum(datum):
    """Reverse every arrow; the path algebra of the result is the opposite
    algebra of the original one.  One opposite is built per datum and name,
    as the name takes no part in the datum's equality."""
    return _opposite(datum, datum.name)


@lru_cache(maxsize=None)
def _opposite(datum, name):
    flipped = tuple(sorted((j, i) for (i, j) in datum.orientation))
    return CartanDatum(datum.cartan, datum.symmetriser, flipped,
                       datum.affine_kernel, name + ".op" if name else "")


def datum_to_json(datum):
    return {
        "name": datum.name,
        "cartan": [list(r) for r in datum.cartan],
        "symmetriser": list(datum.symmetriser),
        "orientation": [list(p) for p in datum.orientation],
    }


def datum_from_json(obj):
    return validate_datum(obj["cartan"], obj["symmetriser"], obj["orientation"],
                          obj.get("name", ""))
