"""Reference computations that check tauforge's outputs.

Nothing here imports tauforge.  A Cartan datum is a plain ``Datum``
(Cartan matrix, symmetriser, orientation pairs ``(i, j)`` standing for the
arrows ``j -> i``, vertices 1-based), and a module is a plain ``Module``
holding sparse matrices over QQ (``Fraction``) or GF(p) (``int`` mod p).
The linear algebra is a small sparse Gaussian elimination written for these
checks, so an error in tauforge's elimination kernel cannot hide itself.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# scalars and sparse matrices


class Scalars:
    """Exact arithmetic over QQ (``p is None``) or GF(p)."""

    def __init__(self, p=None):
        self.p = p

    def coerce(self, x):
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def reduce(self, x):
        return x if self.p is None else x % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)


@dataclass
class Sparse:
    """A matrix as ``{row: {col: nonzero value}}`` plus its shape."""

    nrows: int
    ncols: int
    rows: dict

    @property
    def shape(self):
        return (self.nrows, self.ncols)


def from_dense(F, dense, shape):
    rows = {}
    for i, row in enumerate(dense):
        r = {j: x for j, x in ((j, F.coerce(v)) for j, v in enumerate(row)) if x}
        if r:
            rows[i] = r
    return Sparse(shape[0], shape[1], rows)


def identity(n):
    return Sparse(n, n, {i: {i: 1} for i in range(n)})


def matmul(F, A, B):
    if A.ncols != B.nrows:
        raise ValueError("shape mismatch %s @ %s" % (A.shape, B.shape))
    out = {}
    for i, arow in A.rows.items():
        acc = {}
        for k, a in arow.items():
            brow = B.rows.get(k)
            if brow:
                for j, b in brow.items():
                    acc[j] = acc.get(j, 0) + a * b
        acc = {j: v for j, v in ((j, F.reduce(v)) for j, v in acc.items()) if v}
        if acc:
            out[i] = acc
    return Sparse(A.nrows, B.ncols, out)


def power(F, A, k):
    out = identity(A.nrows)
    for _ in range(k):
        out = matmul(F, A, out)
    return out


def is_zero(A):
    return not A.rows


def equal(A, B):
    return A.shape == B.shape and A.rows == B.rows


def rank(F, A):
    """Rank by sparse row echelon reduction (pivot rows scaled to a leading 1)."""
    pivots = {}
    for row in A.rows.values():
        r = dict(row)
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                scale = F.inv(r[c])
                pivots[c] = {j: F.reduce(v * scale) for j, v in r.items()}
                break
            factor = r[c]
            for j, v in piv.items():
                nv = F.reduce(r.get(j, 0) - factor * v)
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)


def is_invertible(F, A):
    return A.nrows == A.ncols and rank(F, A) == A.nrows


# ---------------------------------------------------------------------------
# Cartan data: Coxeter matrix and the GLS bilinear form


@dataclass(frozen=True)
class Datum:
    cartan: tuple
    symmetriser: tuple
    orientation: tuple   # pairs (i, j): arrows j -> i

    @property
    def n(self):
        return len(self.symmetriser)

    def c(self, i, j):
        return self.cartan[i - 1][j - 1]

    def d(self, i):
        return self.symmetriser[i - 1]

    def g(self, i, j):
        return gcd(abs(self.c(i, j)), abs(self.c(j, i)))

    def f(self, i, j):
        return abs(self.c(i, j)) // self.g(i, j)


def sink_order(datum):
    """A sink-first order of the vertices.

    Each vertex is a sink of the quiver left after removing the earlier
    ones.  Ties go to the largest index; every sink-first order gives the
    same Coxeter element, so this need not match tauforge's choice.
    """
    remaining = set(range(1, datum.n + 1))
    order = []
    while remaining:
        sinks = [v for v in remaining
                 if not any(j == v and i in remaining for (i, j) in datum.orientation)]
        if not sinks:
            raise ValueError("orientation has an oriented cycle")
        v = max(sinks)
        order.append(v)
        remaining.discard(v)
    return tuple(order)


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def reflection(datum, i):
    """Matrix of s_i(v) = v - (sum_j c_ij v_j) e_i."""
    n = datum.n
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for c in range(n):
        m[i - 1][c] -= datum.c(i, c + 1)
    return m


def coxeter_matrix(datum):
    """c = s_{i_n} ... s_{i_1} for the sink order i_1, ..., i_n."""
    n = datum.n
    c = [[int(r == s) for s in range(n)] for r in range(n)]
    for i in sink_order(datum):
        c = _int_matmul(reflection(datum, i), c)
    return c


def coxeter_inverse(datum):
    """c^-1 = s_{i_1} ... s_{i_n}; each s_i is an involution."""
    n = datum.n
    c = [[int(r == s) for s in range(n)] for r in range(n)]
    for i in reversed(sink_order(datum)):
        c = _int_matmul(reflection(datum, i), c)
    return c


def apply(matrix, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in matrix)


def bilinear_matrix(datum):
    """B with <a, b> = a^T B b, the homological form of GLS I.

    Each vertex contributes d_i a_i b_i, and each edge oriented j -> i
    contributes -d_i |c_ij| a_j b_i.
    """
    n = datum.n
    b = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        b[i - 1][i - 1] = datum.d(i)
    for (i, j) in datum.orientation:
        b[j - 1][i - 1] -= datum.d(i) * abs(datum.c(i, j))
    return b


def bilinear(datum, a, b):
    m = bilinear_matrix(datum)
    return sum(a[r] * m[r][s] * b[s] for r in range(datum.n) for s in range(datum.n))


# ---------------------------------------------------------------------------
# modules


@dataclass
class Module:
    dims: dict           # vertex -> dimension
    eps: dict            # vertex -> Sparse
    arr: dict            # (i, j, g) -> Sparse, arrow j -> i


def arrow_keys(datum):
    return sorted((i, j, g) for (i, j) in datum.orientation for g in range(1, datum.g(i, j) + 1))


def check_relations(F, datum, M):
    """Problems with M as a module: shapes, eps_i^{d_i} = 0, and
    eps_i^{f_ji} a = a eps_j^{f_ij} for every arrow a : j -> i."""
    problems = []
    if sorted(M.arr) != arrow_keys(datum):
        problems.append("arrows %s, expected %s" % (sorted(M.arr), arrow_keys(datum)))
        return problems
    for v in range(1, datum.n + 1):
        e = M.eps[v]
        if e.shape != (M.dims[v], M.dims[v]):
            problems.append("eps[%d] has shape %s" % (v, e.shape))
        elif not is_zero(power(F, e, datum.d(v))):
            problems.append("eps[%d]^%d != 0" % (v, datum.d(v)))
    for (i, j, g), a in sorted(M.arr.items()):
        if a.shape != (M.dims[i], M.dims[j]):
            problems.append("a[%d<-%d]#%d has shape %s" % (i, j, g, a.shape))
            continue
        lhs = matmul(F, power(F, M.eps[i], datum.f(j, i)), a)
        rhs = matmul(F, a, power(F, M.eps[j], datum.f(i, j)))
        if not equal(lhs, rhs):
            problems.append("loop-crossing relation fails on a[%d<-%d]#%d" % (i, j, g))
    return problems


def rank_vector(F, datum, M):
    """(dim M_i / d_i)_i when every M_i is free over K[eps]/(eps^{d_i}), else None."""
    out = []
    for v in range(1, datum.n + 1):
        d, dim = datum.d(v), M.dims[v]
        if dim % d:
            return None
        e = M.eps[v]
        if not is_zero(power(F, e, d)) or rank(F, power(F, e, d - 1)) != dim // d:
            return None
        out.append(dim // d)
    return tuple(out)


def check_certificate(F, datum, M, N, blocks):
    """Problems with ``blocks`` as an isomorphism M -> N: each block is
    square and invertible and the blocks intertwine every loop and arrow."""
    problems = []
    for v in range(1, datum.n + 1):
        phi = blocks.get(v)
        if phi is None or phi.shape != (N.dims[v], M.dims[v]) or phi.nrows != phi.ncols:
            problems.append("block %d is not square of the module's size" % v)
        elif not is_invertible(F, phi):
            problems.append("block %d is singular" % v)
        elif not equal(matmul(F, phi, M.eps[v]), matmul(F, N.eps[v], phi)):
            problems.append("block %d does not commute with eps[%d]" % (v, v))
    if problems:
        return problems
    for (i, j, g), a in sorted(M.arr.items()):
        if not equal(matmul(F, blocks[i], a), matmul(F, N.arr[(i, j, g)], blocks[j])):
            problems.append("blocks do not intertwine a[%d<-%d]#%d" % (i, j, g))
    return problems


def _coboundary_system(F, datum, M, N):
    """Columns (vec psi_v) -> (psi.M - N.psi) on every loop and arrow slot."""
    col = {}
    for v in range(1, datum.n + 1):
        for r in range(N.dims[v]):
            for k in range(M.dims[v]):
                col[(v, r, k)] = len(col)
    rows = {}

    def add(slot, r, c, unknown, val):
        key = (slot, r, c)
        row = rows.setdefault(key, {})
        row[unknown] = F.reduce(row.get(unknown, 0) + val)

    slots = [(("eps", v), v, v, M.eps[v], N.eps[v]) for v in range(1, datum.n + 1)]
    slots += [(("arr", key), key[0], key[1], M.arr[key], N.arr[key]) for key in sorted(M.arr)]
    for slot, i, j, ma, na in slots:
        # (psi_i . Ma)[r][c] = sum_k psi_i[r][k] Ma[k][c]
        for k, mrow in ma.rows.items():
            for c, val in mrow.items():
                for r in range(N.dims[i]):
                    add(slot, r, c, col[(i, r, k)], val)
        # (Na . psi_j)[r][c] = sum_k Na[r][k] psi_j[k][c]
        for r, nrow in na.rows.items():
            for k, val in nrow.items():
                for c in range(M.dims[j]):
                    add(slot, r, c, col[(j, k, c)], -val)
    return rows, len(col)


def is_coboundary(F, datum, M, N, cocycle):
    """Whether the cocycle ({("eps", v) | ("arr", key): Sparse}, the
    off-diagonal blocks of an extension 0 -> N -> E -> M -> 0) is
    psi.M - N.psi for some vertexwise psi, i.e. whether E splits."""
    rows, ncols = _coboundary_system(F, datum, M, N)
    augmented = {key: dict(row) for key, row in rows.items()}
    for slot, block in cocycle.items():
        for r, brow in block.rows.items():
            for c, val in brow.items():
                augmented.setdefault((slot, r, c), {})[ncols] = val

    def as_sparse(table, width):
        kept = [{u: v for u, v in row.items() if v} for row in table.values()]
        return Sparse(len(kept), width, dict(enumerate(kept)))

    return rank(F, as_sparse(rows, ncols)) == rank(F, as_sparse(augmented, ncols + 1))
