"""Exact linear algebra over the rationals and prime fields.

Everything downstream (representations, Hom spaces, kernels of transport
maps) reduces to rank / nullspace / solve over an exact field.  ``Mat``
keeps a matrix as plain sparse rows ``{row: {col: value}}`` holding no zero
entries and no empty rows.  Over GF(p) a value is an int in [0, p); over QQ
it is an int when the value is integral and a ``Fraction`` otherwise, so
every matrix has exactly one stored form and equality compares the dicts.

Every elimination (``rank``, ``rref``, ``nullspace_cols``, ``solve``) runs
one sparse Gauss-Jordan, ``Mat._eliminate``, on the kernels of ``elim``:
``_gfp_rref`` over GF(p), and ``_qq_rref`` over QQ, which has the same loop
shape but works fraction-free on Python ints (Bareiss, Math. Comp. 22,
1968), dividing each reduced row by its pivot only at the end.  Rows of
one entry each need no arithmetic and skip the loop: a third of the
eliminations of a tau walk get such rows.
The reduced row echelon form is unique, so the results do not depend on the
order of the eliminations.  Nullspace bases are the canonical ones read off
the RREF; over GF(p) they are scaled by the product of the raw pivots (see
``Mat.nullspace_cols``).  A map on a kernel is read in that canonical basis
by ``Mat._coords``, from what ``Mat._read_off`` finds of the basis once, and
no elimination is run: the basis is den times the identity on its free
rows, so the coordinates are those rows of the right-hand side divided by
den, and only the pivot rows of the product are multiplied out to check
them.  So tau, whose two kernels (of the cover and of the transported
presentation) carry all its maps, calls no ``solve``.
Their sources are direct sums, whose maps are block diagonal; the product
of such a map with a kernel basis is ``Mat._diag_times``, which takes the
blocks one by one and never assembles the sum.

No stored row is ever changed after it is built, so rows may be shared:
a product takes a left row that is a single 1 as the right row itself, and
every row of one entry 1 or -1 that ``Mat.identity``, ``from_rows``,
``from_dict``, ``rref``, ``transpose``, ``nullspace_cols``, ``_coords``
or ``_clean`` (products, sums, scalings) builds is the one row of a shared
table: {k: 1} is ``_unit(k)`` over every field, and {k: -1} is
``_neg_unit(k, p)``, one table per field, as GF(p) stores -1 as p - 1.
Over GF(2) that is 1, so ``_unit(k)`` serves and no -1 row is made.  Other
single entries, such as the rows {k: den} over GF(p), are not shared, nor
are the rows of ``block`` and ``hstack``: most of what they assemble is a
transient system, whose indices the tables would keep for good.  Most rows
of the modules of a tau walk are shared rows, since each is a kernel read
off a canonical nullspace basis or the transpose of one.  A matrix with no
entries is the one zero matrix of its field and shape, ``Mat.zeros``, kept
in a table that holds only the shapes asked for; every routine returns that
one for an empty result.  A ``Mat`` keeps ``nrows`` and ``ncols``, and
``shape`` is derived from them.  Every routine that writes into a row, or
into the ``_data`` of a matrix, writes into a copy (the eliminations copy
their input rows, ``hstack``, ``_combine`` and ``solve`` copy before they
write, ``block`` fills fresh rows), and a change to a shared row, or to the
empty ``_data`` of a shared zero matrix, would change every matrix holding
it.  The rule is enforced: shared rows and zero ``_data`` are read-only
views (``MappingProxyType``), so a write into one raises ``TypeError``
there.

No floating point is used anywhere: ``Field.convert`` refuses floats.
"""

import re
from fractions import Fraction
from math import isqrt
from types import MappingProxyType

from .elim import _gfp_rref, _qq_rref


def _ascii_int(text):
    """int(text) for -?[0-9]+ only; int() also reads other digits, spaces and _."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError("%r is not an integer in ASCII digits" % (text,))
    return int(text)


class Field:
    """An exact coefficient field: the rationals or Z/p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("rational", "prime"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "prime":
            if type(p) is not int or not isprime(p):
                raise ValueError("prime field needs a prime p, got %r" % (p,))
        else:
            p = None
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
        if not isinstance(obj, dict):
            raise ValueError("a field spec is a JSON object, got %s" % type(obj).__name__)
        if obj.get("kind") == "rational":
            return cls.rational()
        if obj.get("kind") == "prime":
            return cls.prime(obj["p"])
        raise ValueError(f"bad field spec {obj!r}")

    def to_json(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    def convert(self, value):
        """The stored form of an int, a Fraction or a 'p/q' string: an int in
        [0, p) over GF(p); over QQ an int when integral, else a Fraction.
        Anything inexact or malformed (floats, booleans, digits that are not
        ASCII, a zero denominator) raises ValueError."""
        kind = type(value)
        if kind is int:
            return value if self.p is None else value % self.p
        if kind is str:
            num, slash, den = value.partition("/")
            num, den = _ascii_int(num), _ascii_int(den) if slash else 1
            if den == 0:
                raise ValueError("%r has a zero denominator" % value)
            value = Fraction(num, den)
        elif kind is not Fraction:
            raise ValueError("%r is not an exact scalar (int, Fraction or 'p/q')" % (value,))
        if self.p is None:
            return value.numerator if value.denominator == 1 else value
        if value.denominator % self.p == 0:
            raise ValueError("%s has no value in %r" % (value, self))
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.p})"


class Mat:
    """Immutable exact matrix.  Scalars in = int/Fraction/'p/q', scalars out
    via :meth:`rows` as Fraction or int, or via :meth:`items` in stored form.

    ``Mat(field, shape, data)`` takes ``data`` in stored form (see the module
    docstring) and keeps it without a copy, even when it is empty (the
    routines of this module return ``Mat.zeros`` then); every other caller
    goes through the classmethod constructors."""

    __slots__ = ("field", "nrows", "ncols", "_data")

    def __init__(self, field, shape, data):
        self.field = field
        self.nrows, self.ncols = shape
        self._data = data

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, shape=None):
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if len(rows) != shape[0]:
            raise ValueError("expected %d matrix rows, got %d" % (shape[0], len(rows)))
        convert = field.convert
        data = {}
        for i, row in enumerate(rows):
            if len(row) != shape[1]:
                raise ValueError("ragged matrix rows")
            r = {}
            for j, v in enumerate(row):
                e = convert(v)
                if e:
                    r[j] = e
            if r:
                data[i] = r
        return _mat(field, shape[0], shape[1], _share_singles(data, field.p))

    @classmethod
    def from_dict(cls, field, shape, entries):
        """From ``{(i, j): value}``; zero values are dropped."""
        convert = field.convert
        data = {}
        for (i, j), v in entries.items():
            e = convert(v)
            if e:
                data.setdefault(i, {})[j] = e
        return _mat(field, shape[0], shape[1], _share_singles(data, field.p))

    @classmethod
    def zeros(cls, field, m, n):
        """The one zero matrix of this field and shape."""
        return _zero(field, m, n)

    @classmethod
    def identity(cls, field, n):
        return _mat(field, n, n, {i: _unit(i) for i in range(n)})

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
            if blk.nrows != row_dims[bi] or blk.ncols != col_dims[bj]:
                raise ValueError("block shape mismatch")
            for i, row in blk._data.items():
                tgt = data.setdefault(roff[bi] + i, {})
                for j, v in row.items():
                    tgt[coff[bj] + j] = v
        return _mat(field, m, n, data)

    # -- basic queries -------------------------------------------------

    @property
    def shape(self):
        return self.nrows, self.ncols

    def is_zero(self):
        return not self._data

    def items(self):
        """The nonzero entries as ``(i, j, value)``, value an int (or, over
        QQ, a non-integral Fraction)."""
        for i, row in self._data.items():
            for j, v in row.items():
                yield i, j, v

    def rows(self):
        n = self.ncols
        rational = self.field.p is None
        out = [[Fraction(0) if rational else 0] * n for _ in range(self.nrows)]
        for i, row in self._data.items():
            tgt = out[i]
            for j, v in row.items():
                tgt[j] = Fraction(v) if rational else v
        return out

    def row_slice(self, start, stop):
        """Rows ``start`` to ``stop - 1`` as a matrix."""
        if not 0 <= start <= stop <= self.nrows:
            raise ValueError("row slice %d:%d of %d rows" % (start, stop, self.nrows))
        data = {i - start: row for i, row in self._data.items() if start <= i < stop}
        return _mat(self.field, stop - start, self.ncols, data)

    def col_vector(self, j):
        return tuple(r[j] for r in self.rows())

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._data == other._data
        )

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field})"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other, fits, what):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("%s of matrices over %r and %r" % (what, self.field, other.field))
        if not fits:
            raise ValueError("%s of shapes %s and %s" % (what, self.shape, other.shape))

    def _combine(self, other, sign):
        self._check(other, self.nrows == other.nrows and self.ncols == other.ncols, "sum")
        p = self.field.p
        data = dict(self._data)
        for i, row in other._data.items():
            tgt = dict(data.get(i, ()))
            for j, v in row.items():
                tgt[j] = tgt.get(j, 0) + sign * v
            tgt = _clean(tgt, p)
            if tgt:
                data[i] = tgt
            else:
                data.pop(i, None)
        return _mat(self.field, self.nrows, self.ncols, data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        self._check(other, self.ncols == other.nrows, "product")
        data = _times(self._data, other._data, self.field.p, {}, 0, 0)
        return _mat(self.field, self.nrows, other.ncols, data)

    def _diag_times(self, diag, nrows):
        """D @ self for the block diagonal D of ``nrows`` rows whose blocks
        are ``diag`` in order, without assembling D: each block multiplies
        the rows of self at its column offset into the rows at its row
        offset, so the product is the one ``@`` builds from D."""
        p = self.field.p
        data, roff, coff = {}, 0, 0
        for A in diag:
            if A._data:
                _times(A._data, self._data, p, data, roff, coff)
            roff += A.nrows
            coff += A.ncols
        if roff != nrows or coff != self.nrows:
            raise ValueError("block diagonal of shape %s times %s" % ((roff, coff), self.shape))
        return _mat(self.field, nrows, self.ncols, data)

    def scale(self, scalar):
        s = self.field.convert(scalar)
        if not s:
            return _zero(self.field, self.nrows, self.ncols)
        p = self.field.p
        data = {i: _clean({j: v * s for j, v in row.items()}, p)
                for i, row in self._data.items()}
        return _mat(self.field, self.nrows, self.ncols, data)

    def transpose(self):
        data = {}
        for i, row in self._data.items():
            for j, v in row.items():
                data.setdefault(j, {})[i] = v
        return _mat(self.field, self.ncols, self.nrows, _share_singles(data, self.field.p))

    def powers(self, k):
        """[self, self^2, ..., self^k], each power one product after the
        last, so that a caller needing several powers runs them up once;
        [] for k = 0."""
        if self.nrows != self.ncols:
            raise ValueError("powers of a non-square matrix")
        if k < 0:
            raise ValueError("negative power %d" % k)
        run = [self] if k else []
        for _ in range(k - 1):
            run.append(run[-1] @ self)
        return run

    def hstack(self, *others):
        data = {i: dict(row) for i, row in self._data.items()}
        offset = self.ncols
        for other in others:
            self._check(other, self.nrows == other.nrows, "hstack")
            for i, row in other._data.items():
                tgt = data.setdefault(i, {})
                for j, v in row.items():
                    tgt[offset + j] = v
            offset += other.ncols
        return _mat(self.field, self.nrows, offset, data)

    # -- elimination ---------------------------------------------------

    def _eliminate(self, rows):
        """The one elimination kernel: ``(R, den)`` for sparse rows over this
        matrix's field, as returned by ``_gfp_rref``; over QQ ``den`` is 1.
        Rows of one entry each need no arithmetic: R has an empty row at
        each column they hit, and the raw pivot at such a column is the
        entry of the first row, by index, that hits it."""
        p = self.field.p
        if all(len(row) == 1 for row in rows.values()):
            R, den = {}, 1
            for j, i in sorted((j, i) for i, row in rows.items() for j in row):
                if j not in R:
                    R[j] = {}
                    if p is not None:
                        den = den * rows[i][j] % p
            return R, den
        if p is None:
            return _qq_rref(rows), 1
        return _gfp_rref(rows, p)

    def rank(self):
        return len(self._eliminate(self._data)[0])

    def rref(self):
        R, _ = self._eliminate(self._data)
        piv = sorted(R)
        data = {r: {j: 1, **R[j]} if R[j] else _unit(j) for r, j in enumerate(piv)}
        return _mat(self.field, self.nrows, self.ncols, data), tuple(piv)

    def nullspace_cols(self):
        """Matrix whose columns are a basis of {x : self @ x = 0}.

        One column per free column j of the RREF R, with ``den`` at j and
        ``-den*R[i][j]`` at pivot column ``piv[i]``.  Over QQ ``den`` is 1.
        Over GF(p) it is the product of the raw pivots, the denominator of
        the fraction-free RREF, so the basis is the one read off that RREF.
        """
        R, den = self._eliminate(self._data)
        p = self.field.p
        n = self.ncols
        free = [j for j in range(n) if j not in R]
        index = {j: k for k, j in enumerate(free)}
        data = {j: _unit(k) if den == 1 else _shared({k: den}, p) for k, j in enumerate(free)}
        for pc, row in R.items():
            if not row:
                continue
            if p is None:
                row = {index[j]: -v for j, v in row.items()}
            else:
                row = {index[j]: -den * v % p for j, v in row.items()}
            data[pc] = _shared(row, p) if len(row) == 1 else row
        return _mat(self.field, n, len(free), data)

    def _read_off(self):
        """What ``_coords`` needs of the basis, found once per basis:
        ``(free, inv, checked)`` with free[k] the last nonzero row of column
        k, inv the inverse of den (of 1 over QQ), and checked the rows
        ``(i, row)`` that are not den times the unit row e_k at i = free[k]."""
        data = self._data
        free = {}
        for i, row in data.items():
            for k in row:
                if free.get(k, -1) < i:
                    free[k] = i
        p = self.field.p
        den = data[free[0]][0] if p is not None and free else 1
        units = {i for k, i in free.items() if len(data[i]) == 1 and data[i].get(k) == den}
        checked = [(i, row) for i, row in data.items() if i not in units]
        return free, 1 if p is None else pow(den, -1, p), checked

    def _coords(self, read_off, rhs):
        """The X with self @ X = rhs, or None, ``read_off`` being the
        ``_read_off()`` of self: X is rows free[k] of rhs divided by den, and
        the rows of self that are not den times a unit row are multiplied out
        and compared with rhs, so X is returned exactly when self @ X = rhs."""
        self._check(rhs, self.nrows == rhs.nrows, "coordinates")
        free, inv, checked = read_off
        rows = rhs._data
        if not rows.keys() <= self._data.keys():
            return None             # a nonzero row of rhs where self is zero
        p = self.field.p
        data = {k: rows[i] for k, i in free.items() if i in rows}
        if inv != 1:
            data = _share_singles({k: {j: v * inv % p for j, v in row.items()}
                                   for k, row in data.items()}, p)
        for i, row in checked:
            acc = {}
            for k, a in row.items():
                xrow = data.get(k)
                if xrow is not None:
                    for j, b in xrow.items():
                        acc[j] = acc[j] + a * b if j in acc else a * b
            if _clean(acc, p) != rows.get(i, {}):
                return None
        return _mat(self.field, self.ncols, rhs.ncols, data)

    def solve(self, rhs):
        """A particular solution X of self @ X = rhs, or None if inconsistent."""
        self._check(rhs, self.nrows == rhs.nrows, "solve")
        n = self.ncols
        aug = dict(self._data)
        for i, row in rhs._data.items():
            tgt = dict(aug.get(i, ()))
            for j, v in row.items():
                tgt[n + j] = v
            aug[i] = tgt
        R, _ = self._eliminate(aug)
        if any(j >= n for j in R):
            return None
        data = {}
        for pc, row in R.items():
            tgt = {j - n: v for j, v in row.items() if j >= n}
            if tgt:
                data[pc] = tgt
        return _mat(self.field, n, rhs.ncols, data)

    def is_invertible(self):
        n = self.ncols
        return self.nrows == n and self.rank() == n


_UNITS = {}
_NEG_UNITS = {}  # field's p (None over QQ) -> {k: the row {k: -1}}
_ZEROS = {}


def _unit(k):
    """The shared row {k: 1}: the same read-only view at every call with k.
    The table holds only the indices asked for."""
    row = _UNITS.get(k)
    if row is None:
        row = _UNITS[k] = MappingProxyType({k: 1})
    return row


def _neg_unit(k, p=None):
    """The shared row {k: -1} of GF(p), or of QQ when p is None, kept like
    ``_unit(k)`` in one table per field: -1 is stored as p - 1 over GF(p),
    and over GF(2) it is 1, so the row is ``_unit(k)``."""
    if p == 2:
        return _unit(k)
    table = _NEG_UNITS.get(p)
    if table is None:
        table = _NEG_UNITS[p] = {}
    row = table.get(k)
    if row is None:
        row = table[k] = MappingProxyType({k: -1 if p is None else p - 1})
    return row


def _shared(row, p):
    """The table's row for a row of one entry 1 or the field's -1, else
    ``row``; callers test that ``row`` has one entry."""
    (k, v), = row.items()
    if v == 1:
        return _unit(k)
    if v == (-1 if p is None else p - 1):
        return _neg_unit(k, p)
    return row


def _share_singles(data, p):
    """``data`` with each row of one entry 1 or the field's -1 replaced, in
    place, by the table's row."""
    for i, row in data.items():
        if len(row) == 1:
            data[i] = _shared(row, p)
    return data


def _zero(field, m, n):
    """The one zero matrix of this field and shape.  The table holds only
    the shapes asked for."""
    key = (field.p, m, n)
    mat = _ZEROS.get(key)
    if mat is None:
        mat = _ZEROS[key] = Mat(field, (m, n), MappingProxyType({}))
    return mat


def _mat(field, m, n, data):
    """``Mat(field, (m, n), data)``, or the shared zero matrix when data is
    empty."""
    return Mat(field, (m, n), data) if data else _zero(field, m, n)


def _times(left, right, p, data, roff, coff):
    """Rows of ``left`` @ ``right`` into ``data``, row i of left at roff + i
    and reading row coff + t of right for column t of left; a left row that
    is a single 1 takes the right row itself, shared."""
    for i, row in left.items():
        if len(row) == 1:
            (t, a), = row.items()
            if a == 1:
                if coff + t in right:
                    data[roff + i] = right[coff + t]
                continue
        acc = {}
        for t, a in row.items():
            rrow = right.get(coff + t)
            if rrow is not None:
                for j, b in rrow.items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
        acc = _clean(acc, p)
        if acc:
            data[roff + i] = acc
    return data


def _clean(row, p):
    """The stored form of a row of raw sums: zeros dropped, values reduced
    mod p, or over QQ (p None) integral Fractions turned into ints; a single
    entry 1 or the field's -1 is the table's row."""
    if p is not None:
        row = {j: r for j, v in row.items() if (r := v % p)}
    else:
        row = {j: (v if type(v) is int or v.denominator != 1 else v.numerator)
               for j, v in row.items() if v}
    return _shared(row, p) if len(row) == 1 else row


# -- primality --------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def isprime(n):
    """Whether the integer n is prime: Miller-Rabin on the first twelve
    prime bases, which is deterministic below 2**64, and above it the
    Baillie-PSW test (Miller-Rabin to base 2 and a strong Lucas test with
    Selfridge's parameters), which has no known counterexample."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    if n < 1 << 64:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    """Miller-Rabin to base a for odd n > a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test for odd n > 37 that is no multiple of a small prime,
    with P = 1, Q = (1 - D)/4 and D the first of 5, -7, 9, -11, ... with
    Jacobi symbol (D/n) = -1."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # n shares a factor with D and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k, Q^k of the Lucas sequences, by doubling along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False
