"""Exact linear algebra over the rationals and prime fields.

Everything downstream (representations, Hom spaces, kernels of transport
maps) reduces to rank / nullspace / solve over an exact field.  We keep a
thin wrapper ``Mat`` around sympy's ``DomainMatrix`` in its sparse
representation, which is fast for the very sparse 0/+-1 systems that show
up here, and convert to plain Python scalars (``Fraction`` or ``int``)
only at the boundary.

One elimination runs outside sympy: the nullspace over GF(p).  sympy takes
a fraction-free path there that pays a modular inverse for every exact
division, so ``Mat.nullspace_cols`` instead runs a sparse Gauss-Jordan
(``_gfp_rref``) on plain ints with one inverse per pivot.  To return the
very basis sympy returned, it scales the reduced rows by the product of the
raw pivots, which is the denominator of sympy's fraction-free RREF.  Over
QQ the nullspace, and every other elimination, stays with sympy.

No floating point is used anywhere.
"""

from fractions import Fraction

from sympy import GF, QQ, isprime
from sympy.polys.matrices import DomainMatrix


class Field:
    """An exact coefficient field: the rationals or Z/p."""

    __slots__ = ("kind", "p", "domain")

    def __init__(self, kind, p=None):
        if kind not in ("rational", "prime"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "prime":
            if p is None or not isprime(p):
                raise ValueError("prime field needs a prime p, got %r" % (p,))
            self.domain = GF(p)
        else:
            self.domain = QQ
        self.kind = kind
        self.p = p

    @classmethod
    def rational(cls):
        return cls("rational")

    @classmethod
    def prime(cls, p):
        return cls("prime", p)

    @classmethod
    def from_json(cls, obj):
        if obj is None:
            return cls.rational()
        if obj.get("kind") == "rational":
            return cls.rational()
        if obj.get("kind") == "prime":
            return cls.prime(int(obj["p"]))
        raise ValueError(f"bad field spec {obj!r}")

    def to_json(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    def convert(self, value):
        """Coerce ints, Fractions or 'p/q' strings into a domain element."""
        if isinstance(value, str):
            num, _, den = value.partition("/")
            value = Fraction(int(num), int(den)) if den else Fraction(int(num))
        if isinstance(value, Fraction) and self.kind == "prime":
            if value.denominator % self.p == 0:
                raise ValueError("%s has no value in %r" % (value, self))
            num = self.domain.convert(value.numerator)
            den = self.domain.convert(value.denominator)
            return num / den
        return self.domain.convert(value)

    def to_scalar(self, elt):
        """Domain element -> Fraction (rational) or canonical int in [0, p)."""
        if self.kind == "rational":
            return Fraction(int(elt.numerator), int(elt.denominator))
        return int(elt) % self.p

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.p})"


class Mat:
    """Immutable exact matrix.  Scalars in = int/Fraction/'p/q', scalars out
    via :meth:`rows` / :meth:`entry` as Fraction or int."""

    __slots__ = ("field", "dm")

    def __init__(self, field, dm):
        self.field = field
        self.dm = dm

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, shape=None):
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if len(rows) != shape[0]:
            raise ValueError("expected %d matrix rows, got %d" % (shape[0], len(rows)))
        data = {}
        for i, row in enumerate(rows):
            if len(row) != shape[1]:
                raise ValueError("ragged matrix rows")
            r = {}
            for j, v in enumerate(row):
                e = field.convert(v)
                if e:
                    r[j] = e
            if r:
                data[i] = r
        return cls(field, DomainMatrix(data, shape, field.domain))

    @classmethod
    def from_dict(cls, field, shape, entries):
        data = {}
        for (i, j), v in entries.items():
            e = field.convert(v)
            if e:
                data.setdefault(i, {})[j] = e
        return cls(field, DomainMatrix(data, shape, field.domain))

    @classmethod
    def zeros(cls, field, m, n):
        return cls(field, DomainMatrix({}, (m, n), field.domain))

    @classmethod
    def identity(cls, field, n):
        one = field.domain.one
        return cls(field, DomainMatrix({i: {i: one} for i in range(n)}, (n, n), field.domain))

    @classmethod
    def block(cls, field, grid, row_dims, col_dims):
        """Assemble from a dict {(bi, bj): Mat} of blocks; missing blocks are 0."""
        m, n = sum(row_dims), sum(col_dims)
        roff = [0]
        for d in row_dims:
            roff.append(roff[-1] + d)
        coff = [0]
        for d in col_dims:
            coff.append(coff[-1] + d)
        data = {}
        for (bi, bj), blk in grid.items():
            if blk is None:
                continue
            if blk.shape != (row_dims[bi], col_dims[bj]):
                raise ValueError("block shape mismatch")
            for i, row in blk.dm.rep.to_sdm().items():
                tgt = data.setdefault(roff[bi] + i, {})
                for j, v in row.items():
                    tgt[coff[bj] + j] = v
        return cls(field, DomainMatrix(data, (m, n), field.domain))

    # -- basic queries -------------------------------------------------

    @property
    def shape(self):
        return self.dm.shape

    @property
    def nrows(self):
        return self.dm.shape[0]

    @property
    def ncols(self):
        return self.dm.shape[1]

    def is_zero(self):
        return self.dm.is_zero_matrix

    def entry(self, i, j):
        return self.field.to_scalar(self.dm[i, j].element)

    def rows(self):
        out = []
        to_scalar = self.field.to_scalar
        sdm = self.dm.rep.to_sdm()
        m, n = self.shape
        zero = Fraction(0) if self.field.kind == "rational" else 0
        for i in range(m):
            row = [zero] * n
            for j, v in sdm.get(i, {}).items():
                row[j] = to_scalar(v)
            out.append(row)
        return out

    def col_vector(self, j):
        return tuple(r[j] for r in self.rows())

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and (self.dm - other.dm).is_zero_matrix
        )

    def __hash__(self):
        return hash((self.field, self.shape, tuple(map(tuple, self.rows()))))

    def __repr__(self):
        return f"Mat({self.shape[0]}x{self.shape[1]} over {self.field})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return Mat(self.field, self.dm + other.dm)

    def __sub__(self, other):
        return Mat(self.field, self.dm - other.dm)

    def __neg__(self):
        return Mat(self.field, -self.dm)

    def __matmul__(self, other):
        return Mat(self.field, self.dm.matmul(other.dm))

    def scale(self, scalar):
        return Mat(self.field, self.dm * self.field.convert(scalar))

    def transpose(self):
        return Mat(self.field, self.dm.transpose())

    def power(self, k):
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        acc = Mat.identity(self.field, self.nrows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def hstack(self, *others):
        return Mat(self.field, self.dm.hstack(*(o.dm for o in others)))

    def vstack(self, *others):
        return Mat(self.field, self.dm.vstack(*(o.dm for o in others)))

    # -- elimination ---------------------------------------------------

    def rank(self):
        return self.dm.rank()

    def rref(self):
        R, piv = self.dm.rref()
        return Mat(self.field, R.to_sparse()), tuple(piv)

    def nullspace_cols(self):
        """Matrix whose columns are a basis of {x : self @ x = 0}.

        Over GF(p) this is sympy's ``DomainMatrix.nullspace()`` basis entry
        for entry: one column per free column j, with ``den`` at j and
        ``-den*R[i][j]`` at pivot column ``piv[i]``, where R is the RREF and
        ``den`` the product of the raw pivots, which is the denominator of
        sympy's fraction-free RREF.
        """
        if self.field.kind != "prime":
            ns = self.dm.nullspace()  # rows span the right nullspace
            return Mat(self.field, ns.transpose().to_sparse())
        p = self.field.p
        K = self.field.domain
        # sparse storage holds neither zero entries nor empty rows
        rows = {i: {j: int(v) % p for j, v in row.items()}
                for i, row in self.dm.rep.to_sdm().items()}
        R, den = _gfp_rref(rows, p)
        n = self.ncols
        free = [j for j in range(n) if j not in R]
        index = {j: k for k, j in enumerate(free)}
        data = {j: {k: K(den)} for k, j in enumerate(free)}
        for pc, row in R.items():
            out = {index[j]: K(-den * v % p) for j, v in row.items()}
            if out:
                data[pc] = out
        return Mat(self.field, DomainMatrix(data, (n, len(free)), K))

    def solve(self, rhs):
        """A particular solution X of self @ X = rhs, or None if inconsistent."""
        m, n = self.shape
        k = rhs.ncols
        aug = self.dm.hstack(rhs.dm)
        R, piv = aug.rref()
        if any(p >= n for p in piv):
            return None
        sdm = R.rep.to_sdm()
        data = {}
        for r, p in enumerate(piv):
            row = sdm.get(r, {})
            tgt = {}
            for j, v in row.items():
                if j >= n:
                    tgt[j - n] = v
            if tgt:
                data[p] = tgt
        return Mat(self.field, DomainMatrix(data, (n, k), self.field.domain))

    def inv(self):
        return Mat(self.field, self.dm.inv().to_sparse())

    def is_invertible(self):
        m, n = self.shape
        return m == n and self.rank() == n


def _gfp_rref(rows, p):
    """Sparse Gauss-Jordan over Z/p on ``{i: {j: int}}`` with entries in [0, p).

    Rows are taken in order of their leading column (ties by row index) and
    the pivot of each is the smallest column left after reduction, as in
    sympy's ``sdm_rref_den``.  Returns ``(R, den)``: R maps each pivot column
    to the rest of its normalised RREF row (pivot entry dropped, zeros
    omitted), and ``den`` is the product mod p of the raw pivots.
    """
    R = {}
    cols = {}  # column -> pivot columns of the rows of R that hold it
    den = 1
    for _, row in sorted(rows.items(), key=lambda item: (min(item[1]), item[0])):
        row = dict(row)
        for j in [j for j in row if j in R]:
            _sub_scaled(row, row.pop(j), R[j], p)
        if not row:
            continue
        j = min(row)
        a = row.pop(j)
        den = den * a % p
        if a != 1:
            inv = pow(a, -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        # clear column j from the rows that hold it, keeping ``cols`` exact
        for pc in cols.pop(j, ()):
            other = R[pc]
            c = other.pop(j)
            for k, v in row.items():
                x = (other.get(k, 0) - c * v) % p
                if x:
                    if k not in other:
                        cols.setdefault(k, set()).add(pc)
                    other[k] = x
                else:
                    del other[k]
                    cols[k].discard(pc)
        R[j] = row
        for k in row:
            cols.setdefault(k, set()).add(j)
    return R, den


def _sub_scaled(dst, c, src, p):
    """dst -= c * src over Z/p, in place, keeping dst free of zeros."""
    for k, v in src.items():
        x = (dst.get(k, 0) - c * v) % p
        if x:
            dst[k] = x
        else:
            del dst[k]

